import random
from difflib import SequenceMatcher

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gec_forge import (
    ErrorCategory,
    LanguageProfile,
    align,
    classify_pair,
    levenshtein,
    profile_for,
    suffix_tail_change,
    touches_syntax,
)

from _oracles import apply_opcodes, levenshtein_matrix, levenshtein_recursive, validate_opcodes
from _oracles import touches_syntax as touches_syntax_loop

short_strings = st.text(alphabet="abc", max_size=6)


@pytest.mark.parametrize(
    "a,b,expected",
    [("abc", "abc", 0), ("abc", "", 3), ("", "abc", 3), ("sitting", "kitten", 3),
     ("क", "ख", 1)],
)
def test_levenshtein_values(a, b, expected):
    assert levenshtein(a, b) == expected


def test_levenshtein_on_token_lists():
    assert levenshtein(["a", "b", "c"], ["a", "x", "c"]) == 1
    assert levenshtein([], ["a", "b"]) == 2


@given(short_strings, short_strings)
def test_levenshtein_matches_recursive_oracle(a, b):
    assert levenshtein(a, b) == levenshtein_recursive(a, b)


@st.composite
def _sequence_pairs(draw):
    """Two sequences of one kind (str, int list or tuple list) over a shared
    alphabet of 1-4 symbols, so that many items are equal."""
    symbols = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["str", "int", "tuple"]))
    # Draw each length first: st.lists alone rarely goes past a few dozen items.
    len_a, len_b = draw(st.integers(0, 300)), draw(st.integers(0, 300))
    items = st.integers(0, symbols - 1)
    a = draw(st.lists(items, min_size=len_a, max_size=len_a))
    b = draw(st.lists(items, min_size=len_b, max_size=len_b))
    if kind == "str":
        return "".join("abcd"[i] for i in a), "".join("abcd"[i] for i in b)
    if kind == "tuple":
        return [("t", i) for i in a], [("t", i) for i in b]
    return a, b


@settings(max_examples=60)
@given(_sequence_pairs())
def test_levenshtein_matches_full_matrix_oracle(pair):
    a, b = pair
    expected = levenshtein_matrix(a, b)
    assert levenshtein(a, b) == expected
    assert levenshtein(b, a) == expected


@given(short_strings, short_strings, short_strings)
def test_levenshtein_is_a_metric(a, b, c):
    assert levenshtein(a, b) == levenshtein(b, a)
    assert (levenshtein(a, b) == 0) == (a == b)
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


def test_align_identical():
    assert align(["x", "y", "z"], ["x", "y", "z"]) == [("equal", 0, 3, 0, 3)]


def test_align_insert():
    ops = align(["x", "y"], ["x", "q", "y"])
    assert [op[0] for op in ops] == ["equal", "insert", "equal"]


def test_align_empty():
    assert align([], []) == []
    assert align([], ["a"]) == [("insert", 0, 0, 0, 1)]
    assert align(["a"], []) == [("delete", 0, 1, 0, 0)]


def test_align_deterministic():
    a, b = list("abcabc"), list("cabacb")
    assert align(a, b) == align(a, b)


def _random_tokens(rng, max_len=12, alphabet="abcdef"):
    return [rng.choice(alphabet) for _ in range(rng.randint(0, max_len))]


def test_align_reconstruction_and_validity():
    rng = random.Random(1234)
    for _ in range(1000):
        a, b = _random_tokens(rng), _random_tokens(rng)
        ops = align(a, b)
        validate_opcodes(ops, a, b)
        assert apply_opcodes(ops, a, b) == b


@pytest.mark.parametrize(
    "ops",
    [
        [("equal", 0, 3, 0, 3)],  # equal over unequal content
        [("equal", 0, 1, 0, 1)],  # does not cover both sequences
        [("equal", 0, 1, 0, 1), ("replace", 2, 3, 1, 3)],  # gap in the a-side spans
        [("equal", 0, 1, 0, 1), ("replace", 1, 2, 1, 2), ("replace", 2, 3, 2, 3)],  # not merged
        [("equal", 0, 1, 0, 1), ("replace", 1, 3, 1, 1), ("insert", 3, 3, 1, 3)],  # empty b side
        [("equal", 0, 1, 0, 1), ("insert", 1, 3, 1, 3)],  # insert consumes a
        [("equal", 0, 1, 0, 1), ("delete", 1, 3, 1, 3)],  # delete consumes b
        [("equal", 0, 1, 0, 1), ("swap", 1, 3, 1, 3)],  # unknown tag
    ],
)
def test_validate_opcodes_rejects_malformed_scripts(ops):
    with pytest.raises(ValueError):
        validate_opcodes(ops, ["x", "y", "z"], ["x", "q", "r"])


def test_align_matches_sequence_matcher_semantics():
    rng = random.Random(99)
    for _ in range(2000):
        a, b = _random_tokens(rng, 9), _random_tokens(rng, 9)
        assert align(a, b) == SequenceMatcher(None, a, b, autojunk=False).get_opcodes()


def test_align_long_alternating_input(hi):
    # Every other token differs, so the longest-block decomposition finds one
    # matching block per two tokens: 1,100 blocks, deeper than Python's
    # default recursion limit if each block cost a stack frame.
    def word(i):
        return "".join("abcdefghijklmnopqrstuvwxyz"[int(d)] for d in f"{i:04d}")

    a = [word(i) for i in range(2200)]
    b = [w + "z" if i % 2 else w for i, w in enumerate(a)]
    assert align(a, b) == SequenceMatcher(None, a, b, autojunk=False).get_opcodes()
    assert classify_pair(" ".join(a), " ".join(b), hi).category is ErrorCategory.SPELLING


def test_suffix_tail_change_hand_example(hi):
    # Common prefix of लड़का/लड़के is लड़क; the tails ा and े differ and े is a
    # listed suffix cue.
    assert "े" in hi.suffixes
    assert suffix_tail_change("लड़का", "लड़के", hi.suffixes) is True


def test_suffix_tail_change_false_cases(hi):
    assert suffix_tail_change("कल", "कम", hi.suffixes) is False
    assert suffix_tail_change("abc", "abc", hi.suffixes) is False


@given(st.text(max_size=8), st.text(max_size=8))
def test_suffix_tail_change_symmetric(a, b):
    suffixes = ("ा", "े", "kk")
    assert suffix_tail_change(a, b, suffixes) == suffix_tail_change(b, a, suffixes)


def test_touches_syntax(hi, ml):
    assert touches_syntax(["राम", "है"], hi) is True
    assert touches_syntax(["ने"], hi) is True
    assert touches_syntax([], hi) is False
    assert touches_syntax(["।", "?"], hi) is False
    assert touches_syntax(["ഇല്ല"], ml) is True
    assert touches_syntax(["वह"], hi) is False


lexicon_word = st.text(alphabet="abकि", max_size=2)


@given(st.frozensets(lexicon_word, max_size=4), st.frozensets(lexicon_word, max_size=4),
       st.lists(lexicon_word, max_size=5))
def test_touches_syntax_matches_membership_loop(auxiliaries, postpositions, segment):
    profile = LanguageProfile("hi", auxiliaries, postpositions, ())
    assert touches_syntax(segment, profile) is touches_syntax_loop(
        segment, auxiliaries, postpositions
    )
