"""Acceptance gate: one test per shipped guarantee, at the stated tolerances.

Run with -v for one pass/fail line per criterion. The exhaustive sweeps here
are the slow part of the suite (a couple of minutes); everything else in the
test tree runs at unit speed.
"""

import json
import time
from fractions import Fraction

import pytest

import oracles
from conftest import run_cli
from permcodec.codec import decode_avoider, encode_avoider
from permcodec.coloring import canonical_coloring
from permcodec.enumeration import count_avoiders, scan_classes, verify_injection
from permcodec.perms import split_by_mask, staircase_pattern
from permcodec.wordcount import bound_table, closed_form, count_words
from permcodec.words import CodePair, WordFamily, parse_word

#: exhaustive verification ranges: pattern length -> largest permutation length
RANGES = {3: 10, 4: 8, 5: 7, 6: 7}

CATALAN_1_TO_10 = [1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]
LENGTH4_STAIRCASE_1_TO_8 = [1, 2, 6, 23, 103, 513, 2762, 15793]


def pair_of(w_text, wp_text):
    return CodePair(parse_word(w_text), parse_word(wp_text))


@pytest.fixture(scope="module")
def sweep_reports():
    return {
        (k, n): verify_injection(k, n, jobs=4)
        for k, nmax in RANGES.items()
        for n in range(nmax + 1)
    }


def test_criterion_1_worked_examples_bit_exact():
    started = time.perf_counter()

    assert encode_avoider((3, 5, 4, 1, 2), 3) == pair_of("01101", "01011")

    mask = canonical_coloring((3, 6, 1, 2, 7, 4, 5))
    red, blue = split_by_mask((3, 6, 1, 2, 7, 4, 5), mask)
    assert (red, blue) == ((3, 6, 1, 2, 7), (4, 5))

    # the value word follows from the published definition (the printed
    # string transposes one letter; see the decisions ledger)
    assert encode_avoider((3, 6, 1, 2, 7, 4, 5), 4) == pair_of("1212234", "1213422")

    p = (1, 7, 8, 9, 4, 2, 3, 6, 5)
    merged = oracles.merge_pair(
        tuple(v <= 2 for v in p), p, pair_of("11", "11"), pair_of("2222233", "2233222")
    )
    assert merged == pair_of("122221233", "112233222")

    assert encode_avoider((6, 8, 7, 9, 1, 2, 4, 3, 5), 5) == pair_of(
        "011200112", "001120112"
    )

    assert time.perf_counter() - started < 1.0
    print("PASS criterion 1: worked examples reproduce bit-exactly in under 1s")


def test_criterion_2_injection_verified_exhaustively(sweep_reports):
    for (k, n), report in sweep_reports.items():
        assert report.duplicate_images == 0, (k, n)
        assert report.round_trip_failures == 0, (k, n)
        assert report.image_violations == 0, (k, n)
    checked = sum(r.total for r in sweep_reports.values())
    print(
        "PASS criterion 2: encode/decode verified on "
        f"{checked} avoiders across k=3..6 with zero defects"
    )


def test_criterion_3_even_codes_start_with_letter_one(sweep_reports):
    for (k, n), report in sweep_reports.items():
        if k in (4, 6):
            assert report.first_letter_violations == 0, (k, n)
    print("PASS criterion 3: every even-k code pair starts with letter 1")


def test_criterion_4_counts_match_the_oracles():
    for n in range(1, 11):
        count = count_avoiders(staircase_pattern(3), n)
        assert count == CATALAN_1_TO_10[n - 1]
        assert count == oracles.catalan(n)
    for n in range(1, 9):
        assert count_avoiders(staircase_pattern(4), n) == LENGTH4_STAIRCASE_1_TO_8[n - 1]
    for n in range(1, 7):
        assert count_avoiders(staircase_pattern(3), n) == len(
            oracles.brute_avoiders(staircase_pattern(3), n)
        )
        assert count_avoiders(staircase_pattern(4), n) == len(
            oracles.brute_avoiders(staircase_pattern(4), n)
        )
    print("PASS criterion 4: avoider counts equal the independent oracles exactly")


def test_criterion_5_word_counts_consistent():
    for m in (2, 3, 4):
        for parity in ("odd", "even"):
            family = WordFamily(m, parity)
            alphabet = tuple(family.alphabet)
            forbidden = family.forbidden_factors
            for n in range(0, 9):
                want = oracles.transfer_count_words(alphabet, forbidden, n)
                assert count_words(family, n) == want
                if len(alphabet) ** n <= 100_000:
                    assert want == oracles.product_count_words(alphabet, forbidden, n)
            form = closed_form(family)
            for n in range(0, 31):
                assert form.value(n) == pytest.approx(
                    count_words(family, n), rel=1e-9
                )
            a, b = family.recurrence
            c = [count_words(family, n) for n in range(0, 21)]
            for n in range(2, 21):
                assert c[n] - a * c[n - 1] + b * c[n - 2] == 0
    print("PASS criterion 5: word counts, closed forms and the recurrence agree")


def test_criterion_6_bound_chain_exact(sweep_reports):
    for k, nmax in RANGES.items():
        counts = {n: sweep_reports[(k, n)].total for n in range(nmax + 1)}
        rows = bound_table(k, nmax, counts)
        for row in rows:
            assert row.ok_word, (k, row.n)
            assert row.ok_cap, (k, row.n)
            assert row.cap == Fraction(9 * k * k, 4) ** row.n
    print("PASS criterion 6: count <= squared word count <= cap, exactly, k=3..6")


def test_criterion_7_conjecture_evidence():
    started = time.perf_counter()
    for n in range(1, 8):
        report = scan_classes(4, n)
        assert report.staircase_is_max, n
        assert "1324" in report.max_classes, n
        assert report.layered_dominates, n
    for n in range(1, 9):
        report = scan_classes(3, n)
        assert len({entry.count for entry in report.classes}) == 1, n
    assert time.perf_counter() - started < 300
    print("PASS criterion 7: class scans support both conjectures at desk scale")


def test_criterion_8_determinism_and_plumbing(tmp_path):
    verify = ["verify", "--k", "4", "-n", "6", "--format", "json"]
    scan = ["scan", "--k", "4", "-n", "5", "--format", "json"]
    runs = [  # verify on one and on eight workers; scan twice, each with its own hash seed
        (run_cli([*verify, "--jobs", "1"], tmp_path), run_cli([*verify, "--jobs", "8"], tmp_path)),
        (run_cli(scan, tmp_path), run_cli(scan, tmp_path)),
    ]
    for first, second in runs:
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    cache = tmp_path / "cache.jsonl"
    first = run_cli(["count", "-q", "1324", "-n", "7", "--cache", str(cache)], tmp_path)
    assert (first.returncode, first.stdout) == (0, "2762\n")
    assert json.loads(cache.read_text()) == {"pattern": "1324", "n": 7, "count": "2762"}
    cache.write_text('{"pattern":"1324","n":7,"count":"111"}\n')
    poisoned = run_cli(["count", "-q", "1324", "-n", "7", "--cache", str(cache)], tmp_path)
    assert poisoned.stdout == "111\n"  # the cache, not the search, answered

    exit_codes = {
        0: ["encode", "35412", "--k", "3"],
        2: ["encode", "bogus", "--k", "3"],
        3: ["encode", "1324", "--k", "4"],
        4: ["decode", "10", "10", "--k", "3"],
        5: ["count", "-q", "1324", "-n", "14", "--budget", "10"],
        6: ["count", "-q", "132", "-n", "3", "--cache", str(tmp_path)],
    }
    for want, args in exit_codes.items():
        assert run_cli(args, tmp_path).returncode == want, args
    print("PASS criterion 8: parallel runs byte-identical; cache and exit codes conform")
