"""Seeded inputs: long staircase avoiders for codec-long and the cache fixture.

Both depend only on the seed and on nothing in permcodec, so the same seed
gives the same inputs on every commit.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from oracles import A061552, catalan, gessel_1234, staircase

#: codec-long draws its inputs from one of this many seeded sets (seed mod
#: INPUT_SETS), so golden.json can hold a digest for every set.
INPUT_SETS = 64
CODEC_PAIRS = 240
CODEC_KS = (4, 5, 6)
CODEC_N = (30, 90)


def first_completion(p: list[int], q: tuple[int, ...]) -> int:
    """Smallest e such that p[:e + 1] contains q, or len(p) when p avoids q."""
    k = len(q)
    # below[a] / above[a]: the earlier slot whose value is the tightest bound
    # on slot a's value from below / above (-1 when there is none)
    below, above = [-1] * k, [-1] * k
    for a in range(k):
        for b in range(a):
            if q[b] < q[a] and (below[a] < 0 or q[b] > q[below[a]]):
                below[a] = b
            if q[b] > q[a] and (above[a] < 0 or q[b] < q[above[a]]):
                above[a] = b
    chosen = [0] * k

    def fits(a: int, start: int, e: int) -> bool:
        """Slots a..k-1 fit at increasing indices from start, slot k-1 at e."""
        indices = (e,) if a == k - 1 else range(start, e - (k - 2 - a))
        for i in indices:
            v = p[i]
            if below[a] >= 0 and chosen[below[a]] >= v:
                continue
            if above[a] >= 0 and chosen[above[a]] <= v:
                continue
            chosen[a] = v
            if a == k - 1 or fits(a + 1, i + 1, e):
                return True
        return False

    for e in range(k - 1, len(p)):
        if fits(0, 0, e):
            return e
    return len(p)


def staircase_avoider(rng: random.Random, k: int, n: int) -> tuple[int, ...]:
    """A length-n avoider of the length-k staircase, built by inserting 1..n.

    The staircase ends with its maximum, so an occurrence can only be
    completed by the largest value inserted so far, and only when the
    entries to its left contain the staircase without its top entry. Each
    new maximum therefore goes to a random position left of the first point
    where that shorter pattern completes.
    """
    head = staircase(k)[:-1]
    p: list[int] = []
    for v in range(1, n + 1):
        p.insert(rng.randint(0, first_completion(p, head)), v)
    return tuple(p)


def codec_inputs(seed: int, pairs: int = CODEC_PAIRS) -> list[tuple[tuple[int, ...], int]]:
    """The codec-long inputs for a seed: (avoider, k) for k in CODEC_KS.

    Every set has the same lengths, spread evenly over CODEC_N for each k,
    so sets differ only in the shape of the avoiders and cost about the same.
    """
    rng = random.Random(f"codec-long/{seed % INPUT_SETS}")
    low, high = CODEC_N
    per_k = -(-pairs // len(CODEC_KS))
    out = []
    for i in range(pairs):
        k = CODEC_KS[i % len(CODEC_KS)]
        n = low + (i // len(CODEC_KS)) * (high - low) // max(per_k - 1, 1)
        out.append((staircase_avoider(rng, k, n), k))
    return out


def write_fixture(seed: int, path: Path) -> None:
    """The count cache every command starts from: a few thousand true records.

    Catalan numbers for the two length-3 classes, Gessel's formula for 1234
    and A061552 for 1324 up to n = 9, in a seeded order. The records the
    workloads write (1324 at n = 10, 1234 at n = 7) are left out, so those
    commands miss, count, and append.
    """
    records = [("123", n, catalan(n)) for n in range(1000)]
    records += [("132", n, catalan(n)) for n in range(1000)]
    records += [("1234", n, gessel_1234(n)) for n in range(8, 60)]
    records += [("1324", n, c) for n, c in enumerate(A061552[:10])]
    random.Random(f"fixture/{seed}").shuffle(records)
    path.write_text("".join(
        json.dumps({"pattern": q, "n": n, "count": str(c)}, separators=(",", ":")) + "\n"
        for q, n, c in records))
