"""Codecs, exact counting and verification tools for pattern-avoiding permutations."""

from permcodec.codec import decode_avoider, encode_avoider
from permcodec.coloring import canonical_coloring
from permcodec.enumeration import (
    count_avoiders,
    enumerate_avoiders,
    scan_classes,
    verify_injection,
)
from permcodec.perms import (
    avoids,
    format_permutation,
    is_layered,
    parse_permutation,
    staircase_pattern,
    symmetry_class,
)
from permcodec.wordcount import bound_table, closed_form, count_words
from permcodec.words import CodePair, WordFamily, format_word, parse_word, validate_word

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Which search-kernel implementation this process loaded ("compiled"/"pure")."""
    from permcodec import kernels

    return kernels.BACKEND


__all__ = [
    "CodePair",
    "WordFamily",
    "avoids",
    "bound_table",
    "canonical_coloring",
    "closed_form",
    "count_avoiders",
    "count_words",
    "decode_avoider",
    "encode_avoider",
    "enumerate_avoiders",
    "format_permutation",
    "format_word",
    "is_layered",
    "kernel_backend",
    "parse_permutation",
    "parse_word",
    "scan_classes",
    "staircase_pattern",
    "symmetry_class",
    "validate_word",
    "verify_injection",
]
