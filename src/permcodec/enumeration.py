"""Exhaustive enumeration of avoiders, encoder verification, and class scans.

Enumeration is a prefix-extension DFS in lexicographic order: a prefix is
extended value by value and abandoned as soon as it contains the pattern, so
each extension only needs a check for occurrences ending at the new entry.
Counting does not walk the avoiders: it memoizes completion counts on
reduced prefix states. Both live in the search kernels (``kernels.avoiders``
yields the avoiders, ``kernels.count_avoiders_dfs`` counts them); this module
adds budget guards, sharding of verification by first entry for parallel
runs, the persistent count cache, the two sweep reports, and the staircase
counts behind the bound table. One engine call answers every length 0..n of
a pattern, so a count, each class of a scan and a whole bound table cost one.

Every operation charges the budget up front, once per engine call: the
injective-prefix bound sum_j n!/(n-j)!, which ignores pruning on purpose, so
a scan pays it once per symmetry class. Past the budget it raises
ScaleRefused instead of hanging. Counts run in one process. Parallel
verification shards by first entry; shards are reduced in first-entry
order, so results are byte-identical to a single-threaded run.
"""

from __future__ import annotations

import concurrent.futures
import os
import threading
from dataclasses import asdict, dataclass
from itertools import permutations
from typing import Iterator, Mapping

from permcodec import kernels
from permcodec.cache import CacheStore
from permcodec.codec import _decode, _encode
from permcodec.errors import DomainError, NotInImage, ScaleRefused
from permcodec.perms import (
    Perm,
    format_permutation,
    is_layered,
    staircase_pattern,
    symmetry_class,
    symmetry_orbit,
    validate_permutation,
)
from permcodec.words import CodePair, WordFamily, validate_word

DEFAULT_NODE_BUDGET = 10**9

#: examples retained per failure category in a VerificationReport
EXAMPLE_CAP = 10


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


def _exit_with_parent() -> None:
    """Pool initializer: exit once the process that started the pool dies."""
    from multiprocessing import parent_process  # already loaded in a worker
    threading.Thread(target=_exit_after, args=(parent_process(),), daemon=True).start()


def _exit_after(parent) -> None:
    parent.join()  # the pool's pipe; under forkserver os.getppid() is the fork server
    os._exit(1)


def _map_shards(worker, shard_args: list, jobs: int) -> list:
    """Run shard tasks in order: in-process, or on min(jobs, shards, CPUs) workers."""
    workers = min(jobs, len(shard_args), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(args) for args in shard_args]
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=workers, initializer=_exit_with_parent
    ) as pool:
        return list(pool.map(worker, shard_args))


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


@dataclass(frozen=True)
class VerificationReport:
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
        record = asdict(self)
        examples = record.pop("examples")
        return {**record, "passed": self.passed, "examples": examples}


def _verify_shard(args: tuple[int, int, int]) -> dict:
    k, n, first = args
    family = WordFamily.for_pattern_length(k)
    check_first = k % 2 == 0 and n >= 1
    counts = {"round_trip": 0, "image": 0, "first_letter": 0}
    examples: dict[str, list[str]] = {key: [] for key in counts}
    total = 0
    for p in kernels.avoiders(staircase_pattern(k), n, first):
        total += 1
        pair = _encode(p, k)
        try:
            back = _decode(pair, k)
        except NotInImage:
            back = None
        failed = {
            "round_trip": back != p,
            "image": not all(validate_word(x, family) for x in (pair.w, pair.wp)),
            "first_letter": check_first and not (pair.w[0] == 1 and pair.wp[0] == 1),
        }
        for key, bad in failed.items():
            if bad:
                counts[key] += 1
                if len(examples[key]) < EXAMPLE_CAP:
                    examples[key].append(format_permutation(p))
    return {"total": total, "counts": counts, "examples": examples}


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
    # one shard per first entry; n = 0 has one shard, the empty permutation
    shard_args = [(k, n, first) for first in range(1, n + 1)] or [(k, n, 0)]
    counts = {"round_trip": 0, "image": 0, "first_letter": 0, "duplicate": 0}
    examples: dict[str, list[str]] = {key: [] for key in counts}
    total = 0
    for shard in _map_shards(_verify_shard, shard_args, jobs):
        total += shard["total"]
        for key, count in shard["counts"].items():
            counts[key] += count
            examples[key].extend(shard["examples"][key])
    if counts["round_trip"]:  # a decoder that inverts every code proves them distinct
        seen: dict[CodePair, str] = {}
        for p in kernels.avoiders(staircase_pattern(k), n):
            text = format_permutation(p)
            first = seen.setdefault(_encode(p, k), text)
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


@dataclass(frozen=True)
class ClassCount:
    representative: str
    count: int
    layered: bool
    growth_ratio: float | None  # observed count ratio against n-1


@dataclass(frozen=True)
class ConjectureReport:
    k: int
    n: int
    classes: tuple[ClassCount, ...]
    max_count: int
    max_classes: tuple[str, ...]
    layered_dominates: bool
    staircase_is_max: bool

    def to_dict(self) -> dict:
        return asdict(self)


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
