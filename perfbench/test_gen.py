"""Tests of the benchmark's own input generators and oracles.

    PYTHONPATH=src python3 -m pytest perfbench/test_gen.py
"""

from __future__ import annotations

import random
import sys
from itertools import permutations
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import gen  # noqa: E402
import oracles  # noqa: E402
import permcodec  # noqa: E402


def test_codec_inputs_are_deterministic_per_seed():
    assert gen.codec_inputs(7, pairs=12) == gen.codec_inputs(7, pairs=12)
    assert gen.codec_inputs(7, pairs=12) != gen.codec_inputs(8, pairs=12)


def test_codec_inputs_avoid_their_staircase():
    inputs = gen.codec_inputs(3, pairs=30)
    assert {k for _, k in inputs} == set(gen.CODEC_KS)
    for p, k in inputs:
        assert sorted(p) == list(range(1, len(p) + 1))
        assert gen.CODEC_N[0] <= len(p) <= gen.CODEC_N[1]
        assert permcodec.avoids(p, oracles.staircase(k))


def test_first_completion_matches_naive_search():
    rng = random.Random(0)
    for _ in range(300):
        p = rng.sample(range(1, 10), rng.randint(0, 9))
        q = oracles.staircase(rng.choice((4, 5, 6)))[:-1]
        naive = next((e for e in range(len(p)) if oracles.naive_contains(p[:e + 1], q)),
                     len(p))
        assert gen.first_completion(p, q) == naive


def test_small_generated_avoiders_cover_the_naive_set():
    rng = random.Random(1)
    seen = {gen.staircase_avoider(rng, 4, 5) for _ in range(3000)}
    naive = {p for p in permutations(range(1, 6))
             if not oracles.naive_contains(p, oracles.staircase(4))}
    assert seen == naive


def test_oracles_agree_with_published_terms():
    assert [oracles.gessel_1234(n) for n in range(9)] == [
        1, 1, 2, 6, 23, 103, 513, 2761, 15767]
    assert [oracles.naive_avoider_count((1, 3, 2, 4), n) for n in range(7)] == list(
        oracles.A061552[:7])
    assert oracles.naive_avoider_count(oracles.staircase(6), 7) == 5003
