import json

import pytest
from hypothesis import given, strategies as st

from permcodec.errors import DomainError, MalformedInput
from permcodec.words import (
    CodePair,
    WordFamily,
    format_word,
    parse_word,
    validate_word,
)


def test_family_shapes_frozen():
    odd2 = WordFamily(2, "odd")
    assert list(odd2.alphabet) == [0, 1]
    assert odd2.forbidden_factors == ()
    assert odd2.recurrence == (2, 0)

    even2 = WordFamily(2, "even")
    assert list(even2.alphabet) == [1, 2, 3, 4]
    assert even2.forbidden_factors == ((3, 2),)
    assert even2.recurrence == (4, 1)

    odd3 = WordFamily(3, "odd")
    assert list(odd3.alphabet) == [0, 1, 2, 3, 4]
    assert odd3.forbidden_factors == ((3, 2),)

    even3 = WordFamily(3, "even")
    assert list(even3.alphabet) == [1, 2, 3, 4, 5, 6, 7]
    assert even3.forbidden_factors == ((3, 2), (6, 5))


@pytest.mark.parametrize(
    "k,m,parity",
    [(3, 2, "odd"), (4, 2, "even"), (5, 3, "odd"), (6, 3, "even"),
     (7, 4, "odd"), (8, 4, "even")],
)
def test_family_for_pattern_length(k, m, parity):
    assert WordFamily.for_pattern_length(k) == WordFamily(m, parity)


def test_family_validation():
    with pytest.raises(DomainError):
        WordFamily(1, "odd")
    with pytest.raises(DomainError):
        WordFamily(2, "both")
    with pytest.raises(DomainError):
        WordFamily.for_pattern_length(2)


def test_validate_word():
    even2 = WordFamily(2, "even")
    assert validate_word((1, 2, 1, 2, 2, 3, 4), even2)
    assert not validate_word((1, 3, 2), even2)  # forbidden 32-factor
    assert not validate_word((0, 1), even2)  # 0 outside the alphabet
    assert validate_word((), even2)
    odd3 = WordFamily(3, "odd")
    assert validate_word((0, 0, 0, 1, 1, 1, 2, 0), odd3)
    assert not validate_word((4, 3, 2), odd3)


@given(st.integers(2, 6), st.sampled_from(["odd", "even"]), st.data())
def test_validate_word_matches_the_forbidden_factor_list(m, parity, data):
    family = WordFamily(m, parity)
    # letters from just below to just above both alphabets
    word = data.draw(st.lists(st.integers(-1, 3 * m - 1), max_size=8).map(tuple))
    forbidden = set(family.forbidden_factors)
    want = all(x in family.alphabet for x in word) and not any(
        pair in forbidden for pair in zip(word, word[1:])
    )
    assert validate_word(word, family) == want


@given(st.lists(st.integers(0, 30), max_size=12).map(tuple))
def test_word_text_roundtrip(word):
    assert parse_word(format_word(word)) == word


def test_word_text_forms():
    assert format_word((0, 1, 1)) == "011"
    assert format_word((10, 2)) == "10,2"
    assert parse_word("011") == (0, 1, 1)
    assert parse_word("10,2") == (10, 2)
    assert parse_word("") == ()
    # a lone two-digit letter needs the trailing comma to stay unambiguous
    assert format_word((10,)) == "10,"
    assert parse_word("10,") == (10,)
    assert parse_word("10") == (1, 0)


@pytest.mark.parametrize("text", ["1a", "-1", "1,-2", "1, ,2"])
def test_parse_word_rejects(text):
    with pytest.raises(MalformedInput):
        parse_word(text)


def test_code_pair():
    pair = CodePair((1, 2), (2, 1))
    assert len(pair) == 2
    with pytest.raises(MalformedInput):
        CodePair((1,), (1, 2))


def test_code_pair_json_wire_format():
    pair = CodePair((1, 2, 1, 2, 2, 3, 4), (1, 2, 1, 3, 4, 2, 2))
    text = pair.to_json()
    assert text == '{"w":"1212234","wp":"1213422"}'
    assert json.loads(text) == {"w": "1212234", "wp": "1213422"}
