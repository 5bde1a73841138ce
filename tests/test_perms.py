from itertools import permutations

import pytest
from hypothesis import given, strategies as st

import oracles
from permcodec.errors import DomainError, MalformedInput
from permcodec.perms import (
    StaircaseFloor,
    avoids,
    complement,
    format_permutation,
    inverse,
    is_layered,
    lr_minima,
    parse_permutation,
    reverse,
    rl_maxima,
    split_by_mask,
    staircase_pattern,
    symmetry_class,
    symmetry_orbit,
    validate_permutation,
)
from permcodec.words import format_word


def perms(max_n=9, min_n=0):
    return (
        st.integers(min_n, max_n)
        .flatmap(lambda n: st.permutations(tuple(range(1, n + 1))))
        .map(tuple)
    )


@given(perms(max_n=14))
def test_parse_format_roundtrip(p):
    assert parse_permutation(format_permutation(p)) == p
    assert format_permutation(p) == format_word(p)


def test_format_switches_to_commas_past_nine():
    assert format_permutation((2, 1, 3)) == "213"
    p = tuple(range(1, 11))
    assert format_permutation(p) == "1,2,3,4,5,6,7,8,9,10"
    assert parse_permutation("1,2,3,4,5,6,7,8,9,10") == p
    assert parse_permutation("1,2,3,") == (1, 2, 3)


def test_parse_empty_is_empty():
    assert parse_permutation("") == ()
    assert format_permutation(()) == ""


@pytest.mark.parametrize("text", ["10", "0", "1,1", "13", "a", "1,x", "2,3"])
def test_parse_rejects_non_permutations(text):
    with pytest.raises(MalformedInput):
        parse_permutation(text)


def test_validate_rejects_duplicates_and_gaps():
    with pytest.raises(MalformedInput):
        validate_permutation([1, 1])
    with pytest.raises(MalformedInput):
        validate_permutation([1, 3])


@given(perms())
def test_symmetries_are_involutions(p):
    assert inverse(inverse(p)) == p
    assert reverse(reverse(p)) == p
    assert complement(complement(p)) == p


@given(perms(max_n=7), perms(max_n=4))
def test_avoids_agrees_with_brute_force(p, q):
    assert avoids(p, q) != oracles.brute_contains(p, q)


def test_staircase_patterns_frozen():
    assert staircase_pattern(3) == (2, 1, 3)
    assert staircase_pattern(4) == (1, 3, 2, 4)
    assert staircase_pattern(5) == (2, 1, 4, 3, 5)
    assert staircase_pattern(6) == (1, 3, 2, 5, 4, 6)
    assert staircase_pattern(7) == (2, 1, 4, 3, 6, 5, 7)
    assert staircase_pattern(8) == (1, 3, 2, 5, 4, 7, 6, 8)
    with pytest.raises(DomainError):
        staircase_pattern(2)


@given(
    st.integers(3, 8),
    st.lists(st.integers(1, 200), max_size=10, unique=True),
)
def test_staircase_floor_is_the_largest_least_entry_of_an_occurrence(k, p):
    """After each push the floor matches brute force on the entries pushed so far."""
    floor = StaircaseFloor(k)
    for start in range(len(p) - 1, -1, -1):
        floor.push(p[start])
        suffix = p[start:]
        mins = [
            min(suffix[i - 1] for i in spots)
            for spots in oracles.brute_occurrences(suffix, staircase_pattern(k))
        ]
        assert floor.value == max(mins, default=0)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_odd_staircase_is_even_one_with_first_entry_dropped(m):
    even = staircase_pattern(2 * m)
    assert staircase_pattern(2 * m - 1) == oracles.rank_pattern(even[1:])


def test_extremal_masks():
    assert rl_maxima((3, 5, 4, 1, 2)) == (False, True, True, False, True)
    assert lr_minima((3, 6, 1, 2, 7)) == (True, False, True, False, False)
    assert rl_maxima(()) == lr_minima(()) == ()


@given(perms(min_n=1))
def test_last_entry_is_always_a_right_to_left_maximum(p):
    assert rl_maxima(p)[-1]
    assert lr_minima(p)[0]


def test_split_by_mask():
    sub, rest = split_by_mask((3, 6, 1, 2, 7, 4, 5), [1, 1, 1, 1, 1, 0, 0])
    assert sub == (3, 6, 1, 2, 7)
    assert rest == (4, 5)


def test_layered_count_is_two_to_the_n_minus_one():
    for n in range(1, 8):
        layered = [p for p in permutations(range(1, n + 1)) if is_layered(p)]
        assert len(layered) == 2 ** (n - 1)


def test_is_layered_examples():
    # layered = direct sum of decreasing blocks; every staircase qualifies
    assert is_layered((2, 1, 3))
    assert is_layered((1, 3, 2, 4))
    assert is_layered((3, 2, 1))
    assert is_layered(())
    assert not is_layered((2, 3, 1))
    assert not is_layered((3, 1, 2))


@given(perms(max_n=6))
def test_symmetry_class_is_orbit_minimum_and_invariant(q):
    orbit = symmetry_orbit(q)
    assert q in orbit
    assert len(orbit) <= 8 and 8 % len(orbit) == 0
    rep = symmetry_class(q)
    assert rep == min(orbit)
    assert all(symmetry_class(s) == rep for s in orbit)


def test_symmetry_classes_of_length_four():
    reps = sorted({symmetry_class(p) for p in permutations(range(1, 5))})
    assert [format_permutation(r) for r in reps] == [
        "1234", "1243", "1324", "1342", "1432", "2143", "2413",
    ]
    assert symmetry_class((2, 1, 3)) == (1, 3, 2)
