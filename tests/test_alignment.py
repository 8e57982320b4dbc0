import random
from difflib import SequenceMatcher

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gec_forge import alignment
from gec_forge import (
    LanguageProfile,
    align,
    audit_pair,
    classify_pair,
    levenshtein,
    profile_for,
    suffix_tail_change,
    touches_syntax,
)

from _deadline import _within
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


@st.composite
def _near_copies(draw):
    """A random sequence and a copy with 0-3 edits, as a str or a token
    list: the pair shares a long prefix and suffix, which random pairs
    rarely do. A small alphabet makes the trimmed prefix and suffix often
    overlap, as in "aba" against "aa"."""
    symbols = draw(st.sampled_from(["ab", "abक", ["राम", "घर", "है"], ["a", "ab", "b", "ba"]]))
    item = st.sampled_from(symbols)
    base = draw(st.lists(item, max_size=60))
    copy = list(base)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert":
            copy.insert(draw(st.integers(0, len(copy))), draw(item))
        elif copy:
            i = draw(st.integers(0, len(copy) - 1))
            if edit == "delete":
                del copy[i]
            else:
                copy[i] = draw(item)
    if isinstance(symbols, str):
        return "".join(base), "".join(copy)
    return base, copy


@settings(max_examples=300)
@given(_near_copies())
def test_trimmed_levenshtein_matches_full_matrix_oracle_on_near_copies(pair):
    a, b = pair
    expected = levenshtein_matrix(a, b)
    assert levenshtein(a, b) == expected
    assert levenshtein(b, a) == expected


# The common prefix and suffix overlap, or one side is all prefix.
@pytest.mark.parametrize("a,b", [
    ("aba", "aa"), ("a", "aa"), ("aa", "aaaa"), ("abab", "ab"), ("abc", "abc"),
    ("", "abc"), ("", ""), ("abcba", "aba"),
    (["x", "y", "x"], ["x", "x"]), (["x"], ["x", "x"]), (["x", "y"], ["x", "y"]),
    ([], ["x", "y"]),
])
def test_trim_with_overlapping_prefix_and_suffix_matches_oracle(a, b):
    expected = levenshtein_matrix(a, b)
    assert levenshtein(a, b) == expected
    assert levenshtein(b, a) == expected


# Stage 5 of the classifier skips the distance when the length gap alone
# passes the spelling threshold; this bound is why that is exact.
@given(st.one_of(_near_copies(), st.tuples(short_strings, short_strings)))
def test_levenshtein_is_at_least_the_length_gap(pair):
    a, b = pair
    assert abs(len(a) - len(b)) <= levenshtein(a, b)


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
    assert classify_pair(" ".join(a), " ".join(b), hi)[0] == "spelling"


@settings(max_examples=150)
@given(_sequence_pairs())
def test_align_matches_sequence_matcher_on_long_pairs(pair):
    # The wide windows of these pairs take the suffix automaton, and their
    # narrow ones the scan.
    a, b = pair
    assert align(a, b) == SequenceMatcher(None, a, b, autojunk=False).get_opcodes()


def _random_pair(seed, len_a, len_b, symbols="ab"):
    rng = random.Random(seed)
    return ("".join(rng.choice(symbols) for _ in range(len_a)),
            "".join(rng.choice(symbols) for _ in range(len_b)))


@pytest.mark.parametrize("a,b", [
    _random_pair(150, 150, 100),
    _random_pair(100, 100, 150),
    # Every common block has one item, and the first is not at the window's
    # first cell.
    (["क"] * 100, ["ख", "क"] * 60),
    (["ख", "क"] * 60, ["क"] * 100),
    # A short input against a runaway output, and the other way round.
    _random_pair(20, 20, 5000, "abcd"),
    _random_pair(20, 5000, 20, "abcd"),
], ids=["random-a-longer", "random-b-longer", "single-items-b-longer", "single-items-a-longer",
        "lopsided-b-longer", "lopsided-a-longer"])
def test_dense_pair_takes_both_searches(monkeypatch, a, b):
    # The two block searches must agree wherever the switch sends a window:
    # the automaton takes the wide ones, unless the parent's block had one
    # item, and the scan the rest. These pairs send some windows to each.
    # Every automaton is built on the window of `b`, whichever side is
    # shorter, and walked along the window of `a`.
    calls = {"scan": 0, "automaton": 0, "built": 0}
    windows = []

    def counted(name, search):
        def wrapper(*args):
            calls[name] += 1
            windows.append(args[-4:])
            return search(*args)
        return wrapper

    def built_on_b(seq, lo, hi, build=alignment._suffix_automaton):
        assert seq is b and (lo, hi) == windows[-1][2:]
        calls["built"] += 1
        return build(seq, lo, hi)

    monkeypatch.setattr(alignment, "_longest_by_scan",
                        counted("scan", alignment._longest_by_scan))
    monkeypatch.setattr(alignment, "_longest_by_automaton",
                        counted("automaton", alignment._longest_by_automaton))
    monkeypatch.setattr(alignment, "_suffix_automaton", built_on_b)
    assert align(a, b) == SequenceMatcher(None, a, b, autojunk=False).get_opcodes()
    assert calls["scan"] and calls["automaton"]
    assert calls["built"] == calls["automaton"]


def test_align_does_not_trim_the_common_prefix():
    # The longest block is [x, y]; trimming the common prefix x first would
    # give equal, insert [q, x], equal instead.
    assert align(["x", "y"], ["x", "q", "x", "y"]) == [
        ("insert", 0, 0, 0, 2), ("equal", 0, 2, 2, 4)]


def test_single_symbol_against_alternation_finishes_in_bounded_time(hi):
    # Every common block has size 1, so each window gives up one block: the
    # scan grew as n**3 on this pair (about 11 s per call at n = 1,000).
    inp, out = " ".join(["क"] * 1000), " ".join(["क", "ख"] * 500)
    for call, key in ((classify_pair, 0), (audit_pair, "category")):
        result = _within(2.0, call, inp, out, hi)
        assert result[key] == "missing_extra_word"


def _one_item_block_pairs(n):
    """Pairs whose every common block has one item: a token against that
    token alternating with another, and n distinct tokens against a copy
    with every other one changed."""
    distinct = [f"w{i}" for i in range(n)]
    return [(["क"] * n, ["क", "ख"] * (n // 2)),
            (distinct, [w + "z" if i % 2 else w for i, w in enumerate(distinct)])]


@pytest.mark.parametrize("n", range(1, 41))
def test_one_item_blocks_match_sequence_matcher(n):
    # Below the automaton's size every window takes the scan, and every
    # window past the root has cap 1: the scan stops at its first equal pair.
    for a, b in _one_item_block_pairs(n):
        for x, y in ((a, b), (b, a)):
            assert align(x, y) == SequenceMatcher(None, x, y, autojunk=False).get_opcodes()


def _short_block_pairs(n):
    """n distinct tokens against a copy with every third, and with every
    fourth, one changed: every common block has 2 or 3 items."""
    distinct = [f"w{i}" for i in range(n)]
    return [(distinct, [w + "z" if i % k == k - 1 else w for i, w in enumerate(distinct)])
            for k in (3, 4)]


@pytest.mark.parametrize("n", range(1, 41))
def test_short_blocks_match_sequence_matcher(n):
    # Every window past the root has cap 2 or 3. Below the automaton's size
    # the scan stops at the window's first block of that size; past it each
    # such window builds an automaton, which makes the shape quadratic.
    for a, b in _short_block_pairs(n):
        for x, y in ((a, b), (b, a)):
            assert align(x, y) == SequenceMatcher(None, x, y, autojunk=False).get_opcodes()


def test_one_item_blocks_align_in_bounded_time():
    # Each window gives up a one-item block, so each child window has cap 1
    # and the scan stops at its first equal pair. Searched in full, each
    # window costs a pass over the rest of the pair: 6-12 s per call.
    for a, b in _one_item_block_pairs(8000):
        for x, y in ((a, b), (b, a)):
            ops = _within(1.0, align, x, y)
            assert sum(i2 - i1 for tag, i1, i2, _, _ in ops if tag == "equal") == 4000


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
