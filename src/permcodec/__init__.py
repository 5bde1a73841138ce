"""Codecs, exact counting and verification tools for pattern-avoiding permutations.

``import permcodec`` loads no submodule. Each public name is imported from
its home module on first use (PEP 562) and then kept here, and so is each
submodule, e.g. ``permcodec.codec`` or ``permcodec.kernels``. A short call,
such as a cached count or ``kernel_backend()``, pays only for the modules
it runs.
"""

import importlib

__version__ = "0.1.0"

#: each public name and the submodule that defines it
_HOMES = {
    "CodePair": "words",
    "WordFamily": "words",
    "avoids": "perms",
    "bound_table": "wordcount",
    "canonical_coloring": "coloring",
    "closed_form": "wordcount",
    "count_avoiders": "enumeration",
    "count_words": "wordcount",
    "decode_avoider": "codec",
    "encode_avoider": "codec",
    "enumerate_avoiders": "enumeration",
    "format_permutation": "perms",
    "format_word": "perms",
    "is_layered": "perms",
    "parse_permutation": "perms",
    "parse_word": "perms",
    "scan_classes": "enumeration",
    "staircase_pattern": "perms",
    "symmetry_class": "perms",
    "validate_word": "words",
    "verify_injection": "enumeration",
}

#: submodules reachable as attributes of the package without their own import
_SUBMODULES = frozenset({*_HOMES.values(), "_pure", "cache", "errors", "kernels"})


def kernel_backend() -> str:
    """Which search-kernel implementation this process loaded ("compiled"/"pure")."""
    from permcodec import kernels

    return kernels.BACKEND


__all__ = sorted([*_HOMES, "kernel_backend"])


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOMES[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
