import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import oracles
from permcodec import kernels
from permcodec.codec import decode_avoider, encode_avoider
from permcodec.enumeration import enumerate_avoiders
from permcodec.errors import DomainError, MalformedInput, NotInImage, PreconditionViolated
from permcodec.perms import staircase_pattern
from permcodec.words import CodePair, WordFamily, parse_word, validate_word


def pair_of(w_text, wp_text):
    return CodePair(parse_word(w_text), parse_word(wp_text))


def test_worked_example_k3():
    assert encode_avoider((3, 5, 4, 1, 2), 3) == pair_of("01101", "01011")


def test_worked_example_k4():
    # the value word is the position word's letters read in value order
    assert encode_avoider((3, 6, 1, 2, 7, 4, 5), 4) == pair_of("1212234", "1213422")


def test_worked_example_k5():
    assert encode_avoider((6, 8, 7, 9, 1, 2, 4, 3, 5), 5) == pair_of(
        "011200112", "001120112"
    )


def test_worked_examples_decode_back():
    assert decode_avoider(pair_of("01101", "01011"), 3) == (3, 5, 4, 1, 2)
    assert decode_avoider(pair_of("1212234", "1213422"), 4) == (3, 6, 1, 2, 7, 4, 5)
    assert decode_avoider(pair_of("011200112", "001120112"), 5) == (
        6, 8, 7, 9, 1, 2, 4, 3, 5
    )


def test_encode_requires_avoidance_and_reports_witness():
    with pytest.raises(PreconditionViolated) as info:
        encode_avoider((1, 3, 2, 4), 4)
    assert info.value.witness == (1, 2, 3, 4)
    assert "contains 1324 at (1,2,3,4)" in str(info.value)
    with pytest.raises(PreconditionViolated):
        encode_avoider((5, 2, 1, 4, 3, 6, 7), 3)
    with pytest.raises(DomainError):
        encode_avoider((1,), 2)
    with pytest.raises(DomainError):
        decode_avoider(pair_of("0", "0"), 2)


@pytest.mark.parametrize("p", [(2, 3, 4), (1, 1, 2)])
def test_encode_refuses_a_non_permutation(p):
    with pytest.raises(MalformedInput):
        encode_avoider(p, 3)


def test_empty_permutation_round_trips():
    for k in (3, 4, 5, 6, 7):
        assert encode_avoider((), k) == CodePair((), ())
        assert decode_avoider(CodePair((), ()), k) == ()


def test_direct_length4_form_agrees_with_recursive_encoder():
    for n in range(0, 8):
        for p in enumerate_avoiders(staircase_pattern(4), n):
            pair = encode_avoider(p, 4)
            assert (pair.w, pair.wp) == oracles.encode_length4(p)


@pytest.mark.parametrize("k", [3, 4, 5, 6, 7, 8])
def test_round_trip_and_injectivity_exhaustive(k):
    pattern = staircase_pattern(k)
    family = WordFamily.for_pattern_length(k)
    for n in range(0, 7):
        seen = {}
        for p in enumerate_avoiders(pattern, n):
            pair = encode_avoider(p, k)
            assert validate_word(pair.w, family)
            assert validate_word(pair.wp, family)
            assert sorted(pair.w) == sorted(pair.wp)
            assert pair not in seen, f"collision {p} vs {seen[pair]}"
            seen[pair] = p
            assert decode_avoider(pair, k) == p


def test_even_codes_start_with_letter_one():
    for k in (4, 6):
        for n in range(1, 6):
            for p in enumerate_avoiders(staircase_pattern(k), n):
                pair = encode_avoider(p, k)
                assert pair.w[0] == 1 and pair.wp[0] == 1


def test_decode_rejects_letters_outside_the_family():
    with pytest.raises(MalformedInput):
        decode_avoider(pair_of("012", "012"), 4)  # 0 is not an even-family letter
    with pytest.raises(MalformedInput):
        decode_avoider(pair_of("02", "02"), 3)


def test_decode_not_in_image_cases():
    with pytest.raises(NotInImage):
        decode_avoider(pair_of("10", "10"), 3)  # last entry must be marked
    with pytest.raises(NotInImage):
        decode_avoider(pair_of("01", "00"), 3)  # multiset mismatch
    # the greedy fill can succeed while re-encoding disagrees
    with pytest.raises(NotInImage):
        decode_avoider(pair_of("1212234", "1213424"), 4)


def _no_search(p, q):
    raise AssertionError("decode searched for an occurrence")


@pytest.mark.parametrize("k,nmax", [(3, 6), (4, 5), (5, 4), (6, 4)])
def test_decode_accepts_exactly_the_image(monkeypatch, k, nmax):
    # every pair whose words share one letter multiset: decode returns p
    # exactly when p avoids the staircase and encodes to the pair; from n=1 on,
    # the fill meets an unmarked last entry, an unmarked first entry at an
    # even level, and an odd level with too few entries
    monkeypatch.setattr(kernels, "first_occurrence", _no_search)
    alphabet = sorted(WordFamily.for_pattern_length(k).alphabet)
    for n in range(nmax + 1):
        image = {encode_avoider(p, k): p
                 for p in oracles.brute_avoiders(staircase_pattern(k), n)}
        for letters in itertools.combinations_with_replacement(alphabet, n):
            words = set(itertools.permutations(letters))
            for pair in itertools.starmap(CodePair, itertools.product(words, repeat=2)):
                if pair in image:
                    assert decode_avoider(pair, k) == image.pop(pair)
                else:
                    with pytest.raises(NotInImage):
                        decode_avoider(pair, k)
        assert not image  # every code's two words share one letter multiset


def words_for(k, n):
    family = WordFamily.for_pattern_length(k)
    letters = st.sampled_from(tuple(family.alphabet))
    return st.tuples(*(letters for _ in range(n)))


@settings(max_examples=400)
@given(data=st.data())
def test_decoding_any_pair_round_trips_or_raises(data):
    # wp is a rearrangement of w, so no letter runs short and every pair
    # tests the greedy choices themselves
    k = data.draw(st.integers(3, 8))
    n = data.draw(st.integers(0, 8))
    w = data.draw(words_for(k, n))
    pair = CodePair(w, tuple(data.draw(st.permutations(w))))
    try:
        p = decode_avoider(pair, k)
    except NotInImage:
        return
    assert encode_avoider(p, k) == pair


@settings(max_examples=400)
@given(data=st.data())
def test_words_whose_letter_multisets_differ_never_decode(data):
    # the codec sorts nothing: of two equal-length words over the alphabet
    # whose multisets differ, the fill finds some letter with too few values
    k = data.draw(st.integers(3, 8))
    n = data.draw(st.integers(1, 8))
    w, wp = data.draw(words_for(k, n)), data.draw(words_for(k, n))
    assume(sorted(w) != sorted(wp))
    with pytest.raises(NotInImage):
        decode_avoider(CodePair(w, wp), k)


@pytest.fixture(scope="module")
def long_avoiders():
    """Seeded avoiders past exhaustive reach: k = 3..8, n up to 300."""
    rng = random.Random("codec past exhaustive reach")
    return [(oracles.random_staircase_avoider(rng, k, n), k)
            for k in range(3, 9) for n in (9, 17, 60, 150, 300)]


def test_long_avoiders_round_trip(impl, monkeypatch, long_avoiders):
    monkeypatch.setattr(kernels, "_impl", impl)
    rng = random.Random("swapped letters")
    for p, k in long_avoiders:
        family = WordFamily.for_pattern_length(k)
        pair = encode_avoider(p, k)
        assert validate_word(pair.w, family) and validate_word(pair.wp, family)
        assert sorted(pair.w) == sorted(pair.wp)
        if k % 2 == 0:
            assert pair.w[0] == pair.wp[0] == 1
        assert decode_avoider(pair, k) == p
        # two letters of wp swapped: another code's pair, or none at all
        wp = list(pair.wp)
        i, j = rng.sample(range(len(p)), 2)
        wp[i], wp[j] = wp[j], wp[i]
        swapped = CodePair(pair.w, tuple(wp))
        try:
            q = decode_avoider(swapped, k)
        except NotInImage:
            continue
        assert encode_avoider(q, k) == swapped
