import pytest
from hypothesis import given, strategies as st

import oracles
from permcodec.coloring import canonical_coloring
from permcodec.enumeration import enumerate_avoiders
from permcodec.perms import StaircaseFloor, avoids, split_by_mask, staircase_pattern

RED = (1, 3, 2)


def test_worked_coloring():
    mask = canonical_coloring((3, 6, 1, 2, 7, 4, 5))
    red, blue = split_by_mask((3, 6, 1, 2, 7, 4, 5), mask)
    assert red == (3, 6, 1, 2, 7)
    assert blue == (4, 5)


def test_coloring_of_the_split_pattern_itself():
    # rule 1 forces entry 2 blue (else red 132 via 1,3,2); rule 2 then forces 4
    mask = canonical_coloring((1, 3, 2, 4))
    red, blue = split_by_mask((1, 3, 2, 4), mask)
    assert red == (1, 3)
    assert blue == (2, 4)


@pytest.mark.parametrize("k", [4, 6])
def test_split_properties_hold_for_all_avoiders(k):
    # the even staircase is 132 followed by a tail above it: 1324, 132546
    pattern = staircase_pattern(k)
    assert pattern[:3] == RED and min(pattern[3:]) > 3
    blue_pattern = staircase_pattern(k - 1)
    nmax = {4: 6, 6: 8}[k]  # k=6 needs n >= 7 for a blue part of 5 entries
    long_blue = 0  # blue parts long enough to contain blue_pattern
    for n in range(nmax + 1):
        for p in enumerate_avoiders(pattern, n):
            red, blue = split_by_mask(p, canonical_coloring(p))
            assert avoids(red, RED)
            assert avoids(blue, blue_pattern)
            long_blue += len(blue) >= len(blue_pattern)
    assert long_blue > 0


@given(
    st.integers(0, 7).flatmap(
        lambda n: st.permutations(tuple(range(1, n + 1)))
    ).map(tuple)
)
def test_coloring_rules_on_arbitrary_permutations(p):
    """Rule shape holds even off the avoider domain (the mask is total)."""
    mask = canonical_coloring(p)
    assert mask == oracles.coloring_132(p)
    red, _ = split_by_mask(p, mask)
    assert avoids(red, RED)
    blue_values = [v for v, hit in zip(p, mask) if not hit]
    for i, v in enumerate(p):
        earlier_blue = [b for b in blue_values if b in p[:i]]
        if earlier_blue and v > min(earlier_blue):
            assert not mask[i]


def start_mask(p, k):
    """Entries that start the even k-staircase: those below the (k-1) floor after them."""
    floor = StaircaseFloor(k - 1)
    mask = []
    for v in reversed(p):
        mask.append(v < floor.value)
        floor.push(v)
    return tuple(reversed(mask))


@given(
    st.integers(0, 9).flatmap(lambda n: st.permutations(tuple(range(1, n + 1)))).map(tuple),
    st.sampled_from([4, 6, 8]),
)
def test_start_rule_matches_brute_force(p, k):
    starts = {spots[0] for spots in oracles.brute_occurrences(p, staircase_pattern(k))}
    assert start_mask(p, k) == tuple(i + 1 in starts for i in range(len(p)))


def test_start_rule_worked_example():
    mask = start_mask((6, 8, 7, 9, 1, 2, 4, 3, 5), 4)
    assert mask == (True, False, False, False, True, True, False, False, False)
