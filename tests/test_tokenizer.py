from collections import Counter
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gec_forge import (
    InputError,
    load_lexicon,
    profile_for,
    same_script,
    tokenize,
)
from gec_forge.tokenizer import _NONPUNCT_RUN, token_script

from _gen import make_sentence, random_pairs
from _oracles import char_classes, is_punct_by_class, token_script_by_class, tokens_by_class

# Letters, marks and digits of each class, danda and a sign inside the
# script blocks, Latin, whitespace and other punct.
SCRIPT_POOL = "aZ09कि्१॥।ॐകി്൧൹ \t!?"
EVERY_CODE_POINT = "".join(map(chr, range(0x110000)))


def is_punct(s):
    """No character of s is a digit or a script letter or mark: stage 4 and
    tokenize() read the non-punct characters through _NONPUNCT_RUN."""
    return _NONPUNCT_RUN.search(s) is None


def kind_of(tok):
    """A token's class, read back from the package's class patterns."""
    if is_punct(tok):
        return "punct"
    return "script" if token_script(tok) else "digit"


def test_hand_segmented_hindi():
    toks = tokenize("राम ने खाया।")
    assert [(t, kind_of(t)) for t in toks] == [
        ("राम", "script"),
        ("ने", "script"),
        ("खाया", "script"),
        ("।", "punct"),
    ]


def test_empty_string():
    assert tokenize("") == []


def test_mixed_classes():
    toks = tokenize("12 abc !")
    assert [(t, kind_of(t)) for t in toks] == [
        ("12", "digit"),
        ("abc", "script"),
        ("!", "punct"),
    ]


def test_adjacent_class_switches():
    assert tokenize("राम123क।?") == ["राम", "123", "क", "।?"]


def test_native_digits_are_digit_runs():
    assert [kind_of(t) for t in tokenize("१२३")] == ["digit"]
    assert [kind_of(t) for t in tokenize("൧൨")] == ["digit"]


@given(st.integers(0, 10_000))
def test_tokenize_matches_class_oracle(seed):
    rng_sentence = make_sentence(_rng(seed), "hi" if seed % 2 else "ml")
    toks = [(t, kind_of(t)) for t in tokenize(rng_sentence)]
    assert toks == tokens_by_class(rng_sentence)


def test_tokenize_matches_class_oracle_on_every_code_point():
    text = EVERY_CODE_POINT
    assert [(t, kind_of(t)) for t in tokenize(text)] == tokens_by_class(text)


def _nonpunct_runs(s):
    return [t for t, kind in tokens_by_class(s) if kind != "punct"]


def test_nonpunct_runs_match_class_oracle_on_every_code_point():
    assert _NONPUNCT_RUN.findall(EVERY_CODE_POINT) == _nonpunct_runs(EVERY_CODE_POINT)


@given(st.one_of(st.text(), st.text(SCRIPT_POOL)))
@example("a1क१ക൧।b")
def test_nonpunct_runs_match_class_oracle(s):
    assert _NONPUNCT_RUN.findall(s) == _nonpunct_runs(s)


def test_class_predicates_match_class_oracle_on_every_code_point():
    # One character at a time, so the predicates see each class membership;
    # a one-character string's class is its one entry of char_classes.
    classes = char_classes(EVERY_CODE_POINT)
    assert [is_punct(ch) for ch in EVERY_CODE_POINT] == [
        c in ("punct", "space") for c in classes
    ]
    assert [token_script(ch) for ch in EVERY_CODE_POINT] == [
        c.split(":")[1] if c.startswith("script:") else None for c in classes
    ]


@given(st.one_of(st.text(), st.text(SCRIPT_POOL)))
@example("")
@example(" ")
@example("a१")
@example("aक")
@example("कക")
@example("।क")
def test_class_predicates_match_class_oracle(s):
    assert is_punct(s) is is_punct_by_class(s)
    assert token_script(s) == token_script_by_class(s)


def _rng(seed):
    import random

    return random.Random(seed)


@given(st.text())
def test_character_multiset_preserved(s):
    expected = Counter(ch for ch in s if not ch.isspace())
    assert Counter("".join(tokenize(s))) == expected


@given(st.text())
def test_tokenize_deterministic(s):
    assert tokenize(s) == tokenize(s)


@given(st.text())
def test_spans_tile_source_with_whitespace_gaps(s):
    # Each token occurs at the cursor after a whitespace-only gap, so the
    # tokens and the gaps between them rebuild s in order.
    cursor = 0
    for tok in tokenize(s):
        start = s.index(tok, cursor)
        assert s[cursor:start].isspace() or s[cursor:start] == ""
        cursor = start + len(tok)
    assert s[cursor:].isspace() or s[cursor:] == ""


def test_every_token_matches_exactly_one_kind():
    for sentence, _ in random_pairs(7, 100, "hi"):
        for tok in tokenize(sentence):
            assert [(tok, kind_of(tok))] == tokens_by_class(tok)


@pytest.mark.parametrize(
    "text,expected",
    [("।", True), ("राम", False), ("?!", True), ("12", False), ("abc", False)],
)
def test_is_punct(text, expected):
    assert is_punct(text) is expected


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ("राम", "श्याम", True),
        ("राम", "abc", False),
        ("രാമൻ", "राम", False),
        ("രാമൻ", "വീട്", True),
        ("abc", "Delhi", True),
    ],
)
def test_same_script(a, b, expected):
    assert same_script(a, b) is expected


def test_profiles(hi, ml):
    assert not ml.postpositions
    assert "है" in hi.auxiliaries
    assert "ने" in hi.postpositions
    assert "ആണ്" in ml.auxiliaries
    # suffixes deduplicated, longest first
    lengths = [len(s) for s in hi.suffixes]
    assert lengths == sorted(lengths, reverse=True)
    assert len(set(hi.suffixes)) == len(hi.suffixes)


def test_profile_is_frozen():
    with pytest.raises(FrozenInstanceError):
        profile_for("hi").name = "ml"


def test_lexicon_loader(tmp_path):
    path = tmp_path / "custom.lexicon"
    path.write_text(
        "# comment\n[auxiliaries]\nहै # inline comment\n\n[postpositions]\nको\n"
        "[suffixes]\nता\nताता\n",
        encoding="utf-8",
    )
    sections = load_lexicon(path)
    assert sections["auxiliaries"] == ["है"]
    assert sections["postpositions"] == ["को"]
    profile = profile_for("hi", path)
    assert profile.suffixes == ("ताता", "ता")


def test_lexicon_unclosed_bracket_is_an_entry(tmp_path):
    path = tmp_path / "custom.lexicon"
    path.write_text("[auxiliaries]\n[foo\nfoo]\n", encoding="utf-8")
    assert load_lexicon(path)["auxiliaries"] == ["[foo", "foo]"]


def test_lexicon_unknown_section(tmp_path):
    path = tmp_path / "bad.lexicon"
    path.write_text("# comment\n\n[verbs]\nकरना\n", encoding="utf-8")
    with pytest.raises(InputError, match=": line 3: "):
        load_lexicon(path)


def test_lexicon_entry_before_section(tmp_path):
    path = tmp_path / "bad.lexicon"
    path.write_text("\nहै\n[auxiliaries]\n", encoding="utf-8")
    with pytest.raises(InputError, match=": line 2: "):
        load_lexicon(path)


def test_malayalam_rejects_postpositions(tmp_path):
    path = tmp_path / "ml.lexicon"
    path.write_text("[postpositions]\nഇല്\n", encoding="utf-8")
    with pytest.raises(InputError):
        profile_for("ml", path)


def test_unknown_language():
    with pytest.raises(InputError):
        profile_for("ta")
