from fractions import Fraction

import pytest

import oracles
from permcodec.errors import DomainError, MissingCount
from permcodec.wordcount import (
    CSV_COLUMNS,
    bound_row_dict,
    bound_rows_csv,
    bound_table,
    closed_form,
    count_words,
    word_counts,
)
from permcodec.words import WordFamily

ALL_FAMILIES = [WordFamily(m, parity) for m in (2, 3, 4) for parity in ("odd", "even")]


def family_id(family):
    return f"{family.parity}{family.m}"


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=family_id)
def test_counts_match_transfer_oracle(family):
    alphabet = tuple(family.alphabet)
    forbidden = family.forbidden_factors
    want = [oracles.transfer_count_words(alphabet, forbidden, n) for n in range(0, 9)]
    assert word_counts(family, 8) == want  # every length from one call
    assert count_words(family, 8) == want[8]


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=family_id)
def test_counts_match_literal_enumeration_where_feasible(family):
    alphabet = tuple(family.alphabet)
    forbidden = family.forbidden_factors
    n = 0
    while len(alphabet) ** (n + 1) <= 200_000:
        n += 1
        want = oracles.product_count_words(alphabet, forbidden, n)
        assert count_words(family, n) == want


def test_even_m2_sequence_frozen():
    family = WordFamily(2, "even")
    got = [count_words(family, n) for n in range(1, 10)]
    assert got == [4, 15, 56, 209, 780, 2911, 10864, 40545, 151316]


def test_odd_m2_counts_are_powers_of_two():
    family = WordFamily(2, "odd")
    assert [count_words(family, n) for n in range(0, 8)] == [
        2**n for n in range(0, 8)
    ]


def test_counter_rejects_negative_length():
    with pytest.raises(DomainError):
        count_words(WordFamily(2, "even"), -1)


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=family_id)
def test_generating_function_identity(family):
    # (1 - A x + B x^2) * C(x) = 1: coefficients of x^2..x^20 vanish
    a, b = family.recurrence
    c = [count_words(family, n) for n in range(0, 21)]
    assert c[1] - a * c[0] == 0
    for n in range(2, 21):
        assert c[n] - a * c[n - 1] + b * c[n - 2] == 0


@pytest.mark.parametrize("family", ALL_FAMILIES, ids=family_id)
def test_closed_form_tracks_recurrence(family):
    form = closed_form(family)
    for n in range(0, 31):
        exact = count_words(family, n)
        assert form.value(n) == pytest.approx(exact, rel=1e-9)


def test_closed_form_roots_odd_m2_degenerate():
    form = closed_form(WordFamily(2, "odd"))
    assert (form.root1, form.root2) == (2.0, 0.0)


def test_bound_table_frozen_rows():
    counts3 = {0: 1, 1: 1, 2: 2, 3: 5, 4: 14}
    rows = bound_table(3, 4, counts3)
    assert rows[4].word_bound == 64
    assert rows[4].cap == Fraction(43046721, 256)
    assert rows[4].ok_word and rows[4].ok_cap
    assert rows[0].word_bound is None and rows[0].ok_word

    counts4 = {0: 1, 1: 1, 2: 2, 3: 6, 4: 23, 5: 103}
    rows = bound_table(4, 5, counts4)
    assert rows[5].word_bound == 209 * 209 == 43681
    assert all(r.ok_word and r.ok_cap for r in rows)


def test_bound_table_requires_every_count():
    with pytest.raises(MissingCount):
        bound_table(3, 2, {0: 1, 2: 2})
    with pytest.raises(MissingCount):  # before counting words to the last row
        bound_table(3, 10**9, {0: 1, 1: 1})
    with pytest.raises(DomainError):
        bound_table(2, 1, {0: 1, 1: 1})


def test_csv_shape():
    rows = bound_table(3, 2, {0: 1, 1: 1, 2: 2})
    lines = bound_rows_csv(rows)
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4
    assert lines[1] == "3,0,1,,1,true,true"
    assert lines[2] == "3,1,1,1,81/4,true,true"
    assert tuple(bound_row_dict(rows[1])) == CSV_COLUMNS
