"""Exhaustive enumeration of avoiders, encoder verification, and class scans.

Enumeration and counting share one engine. Counting memoizes completion
counts on reduced prefix states, and enumeration walks those states in
lexicographic order, entering only prefixes that can still be completed.
Both live in the search kernels (``kernels.avoiders`` yields the avoiders,
``kernels.count_avoiders_dfs`` counts them), and so does the verify sweep
(``kernels.verify_shard`` walks one shard's avoiders and encodes, fills and
checks each, compiled or pure); this module adds budget guards, sharding of
verification by first entry for parallel runs, the persistent count cache,
the two sweep reports, and the staircase counts behind the bound table. One
engine call answers every length 0..n of a pattern, so a count, each class
of a scan and a whole bound table cost one.

Every operation charges the budget up front, once per engine call: the
injective-prefix bound sum_j n!/(n-j)!, which ignores pruning on purpose, so
a scan pays it once per symmetry class. Past the budget it raises
ScaleRefused instead of hanging. Counts run in one thread. Parallel
verification shards by first entry and runs the shards on a thread pool:
the compiled sweep releases the GIL, so its shards run side by side, while
the pure sweep holds it and gains nothing. Shards are reduced in
first-entry order, so results are byte-identical to a single-threaded run.
"""

from __future__ import annotations

import os
from itertools import permutations
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple

from permcodec import kernels
from permcodec.errors import DomainError, ScaleRefused
from permcodec.perms import (
    Perm,
    format_permutation,
    is_layered,
    staircase_pattern,
    symmetry_class,
    symmetry_orbit,
    validate_permutation,
)

if TYPE_CHECKING:  # only count loads the cache, so the launch of every other command skips it
    from permcodec.cache import CacheStore

DEFAULT_NODE_BUDGET = 10**9

#: examples retained per failure category in a VerificationReport
EXAMPLE_CAP = 10

#: the defects a verify shard counts, in the order kernels.verify_shard reports them
SHARD_DEFECTS = ("round_trip", "image", "first_letter")


def require_length(n: int) -> None:
    """Raise DomainError for a negative permutation length."""
    if n < 0:
        raise DomainError(f"permutation length must be non-negative, got n={n}")


def _ensure_budget(n: int, budget: int, what: str, copies: int = 1) -> None:
    """Refuse copies * sum_j n!/(n-j)!, the injective prefixes over 1..n, past budget.

    The sum stops where it crosses the budget, so a huge n is refused at once.
    """
    total, term = 0, 1
    for j in range(n + 1):
        total += term
        if copies * total > budget:
            raise ScaleRefused(f"{what} may need over the budget of {budget} DFS nodes")
        term *= n - j


def enumerate_avoiders(
    q: Perm,
    n: int,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
) -> Iterator[Perm]:
    """Yield every length-n avoider of q exactly once, in lexicographic order.

    q must be a permutation of 1..k; anything else raises MalformedInput.
    """
    q = validate_permutation(q)
    require_length(n)
    _ensure_budget(n, budget, f"enumerating avoiders at n={n}")
    return kernels.avoiders(q, n)


def _map_shards(worker, shard_args: list, jobs: int) -> list:
    """worker(*args) for each shard's args, in order, on min(jobs, shards, CPUs) threads."""
    workers = min(jobs, len(shard_args), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(*args) for args in shard_args]
    from concurrent.futures import ThreadPoolExecutor  # only a pooled verify pays for the import

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, *zip(*shard_args)))


def count_avoiders(
    q: Perm,
    n: int,
    *,
    cache: CacheStore | None = None,
    budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """Number of length-n avoiders of q, consulting the cache when given.

    q must be a permutation of 1..k; anything else raises MalformedInput.
    """
    q = validate_permutation(q)
    require_length(n)
    key = format_permutation(symmetry_class(q))
    if cache is not None:
        hit = cache.get(key, n)
        if hit is not None:
            return hit
    _ensure_budget(n, budget, f"counting avoiders at n={n}")
    total = kernels.count_avoiders_dfs(q, n)[n]
    if cache is not None:
        cache.put(key, n, total)
    return total


def staircase_counts(k: int, n_max: int, *, budget: int = DEFAULT_NODE_BUDGET) -> list[int]:
    """Avoider counts of the length-k staircase for n = 0..n_max, from one engine call."""
    if k >= 3:  # else staircase_pattern refuses k; a huge n_max is refused before it is built
        _ensure_budget(n_max, budget, f"counting avoiders at n={n_max}")
    # a pattern longer than n_max never occurs, so n_max + 1 entries give the same counts
    return kernels.count_avoiders_dfs(staircase_pattern(min(k, max(n_max + 1, 3))), n_max)


# ---------------------------------------------------------------------------
# encoder verification


class VerificationReport(NamedTuple):
    k: int
    n: int
    total: int
    round_trip_failures: int
    image_violations: int
    first_letter_violations: int
    duplicate_images: int
    examples: Mapping[str, tuple[str, ...]]

    @property
    def passed(self) -> bool:
        return (
            self.round_trip_failures == 0
            and self.image_violations == 0
            and self.first_letter_violations == 0
            and self.duplicate_images == 0
        )

    def to_dict(self) -> dict:
        record = self._asdict()
        examples = dict(record.pop("examples"))
        return {**record, "passed": self.passed, "examples": examples}


def verify_injection(
    k: int,
    n: int,
    *,
    jobs: int = 1,
    budget: int = DEFAULT_NODE_BUDGET,
) -> VerificationReport:
    """Encode and decode every length-n avoider for k; report every defect found.

    Checks, per permutation: both words valid in the family for k, round trip
    back to the same permutation, no code collisions, and (even k) both words
    starting with letter 1. The stream yields only avoiders, and a pair that
    decodes to p is p's code, so neither is checked again.
    """
    if k < 3:
        raise DomainError(f"pattern length must be at least 3, got {k}")
    if k > 8:
        raise ScaleRefused(f"verification is limited to pattern lengths 3..8, got {k}")
    require_length(n)
    _ensure_budget(n, budget, f"verifying the encoder at n={n}")
    q = staircase_pattern(k)
    # one shard per first entry; n = 0 has one shard, the empty permutation
    shard_args = [(q, k, n, first, EXAMPLE_CAP) for first in range(1, n + 1) or [0]]
    counts = dict.fromkeys([*SHARD_DEFECTS, "duplicate"], 0)
    examples: dict[str, list[str]] = {key: [] for key in counts}
    total = 0
    shards = _map_shards(kernels.verify_shard, shard_args, jobs)
    for shard_total, shard_counts, shard_found in shards:
        total += shard_total
        for key, count, found in zip(SHARD_DEFECTS, shard_counts, shard_found):
            counts[key] += count
            examples[key].extend(map(format_permutation, found))
    if counts["round_trip"]:  # a decoder that inverts every code proves them distinct
        seen: dict[tuple, str] = {}
        for p in kernels.avoiders(q, n):
            text = format_permutation(p)
            first = seen.setdefault(kernels.encode(p, k), text)
            if first != text:
                counts["duplicate"] += 1
                examples["duplicate"].append(f"{first}={text}")
    return VerificationReport(
        k=k,
        n=n,
        total=total,
        round_trip_failures=counts["round_trip"],
        image_violations=counts["image"],
        first_letter_violations=counts["first_letter"],
        duplicate_images=counts["duplicate"],
        examples={key: tuple(vals[:EXAMPLE_CAP]) for key, vals in examples.items()},
    )


# ---------------------------------------------------------------------------
# pattern-class scans


class ClassCount(NamedTuple):
    representative: str
    count: int
    layered: bool
    growth_ratio: float | None  # observed count ratio against n-1


class ConjectureReport(NamedTuple):
    k: int
    n: int
    classes: tuple[ClassCount, ...]
    max_count: int
    max_classes: tuple[str, ...]
    layered_dominates: bool
    staircase_is_max: bool

    def to_dict(self) -> dict:
        return {**self._asdict(), "classes": tuple(entry._asdict() for entry in self.classes)}


def scan_classes(
    k: int,
    n: int,
    *,
    budget: int = DEFAULT_NODE_BUDGET,
) -> ConjectureReport:
    """Count length-n avoiders for every symmetry class of length-k patterns.

    Flags whether every class without a layered member stays at or below every
    class with one, and whether the staircase pattern's class attains the
    maximum. Growth ratios against n-1 are reported, not asserted.
    """
    if k < 3:
        raise DomainError(f"pattern length must be at least 3, got {k}")
    if k > 5:
        raise ScaleRefused(f"class scans are limited to pattern lengths 3..5, got {k}")
    require_length(n)
    reps = sorted({symmetry_class(q) for q in permutations(range(1, k + 1))})
    _ensure_budget(n, budget, f"scanning {k}-classes at n={n}", copies=len(reps))
    entries = []
    for rep in reps:
        *previous, count = kernels.count_avoiders_dfs(rep, n)
        entries.append(
            ClassCount(
                representative=format_permutation(rep),
                count=count,
                layered=any(is_layered(s) for s in symmetry_orbit(rep)),
                growth_ratio=count / previous[-1] if previous and previous[-1] else None,
            )
        )
    max_count = max(entry.count for entry in entries)
    plain_max = max((e.count for e in entries if not e.layered), default=None)
    layered_min = min((e.count for e in entries if e.layered), default=None)
    staircase_rep = format_permutation(symmetry_class(staircase_pattern(k)))
    staircase_count = next(e.count for e in entries if e.representative == staircase_rep)
    return ConjectureReport(
        k=k,
        n=n,
        classes=tuple(entries),
        max_count=max_count,
        max_classes=tuple(e.representative for e in entries if e.count == max_count),
        layered_dominates=(
            plain_max is None or layered_min is None or plain_max <= layered_min
        ),
        staircase_is_max=staircase_count == max_count,
    )
