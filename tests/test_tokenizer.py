from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gec_forge import (
    SchemaError,
    Token,
    TokenKind,
    is_punct,
    load_lexicon,
    profile_for,
    same_script,
    tokenize,
)

from _gen import make_sentence, random_pairs
from _oracles import tokens_by_class

KIND_NAMES = {
    TokenKind.SCRIPT_WORD: "script",
    TokenKind.DIGIT_RUN: "digit",
    TokenKind.PUNCT_SYMBOL: "punct",
}


def test_hand_segmented_hindi(hi):
    toks = tokenize("राम ने खाया।", hi)
    assert [(t.text, t.kind) for t in toks] == [
        ("राम", TokenKind.SCRIPT_WORD),
        ("ने", TokenKind.SCRIPT_WORD),
        ("खाया", TokenKind.SCRIPT_WORD),
        ("।", TokenKind.PUNCT_SYMBOL),
    ]
    # spans index the source exactly
    source = "राम ने खाया।"
    for t in toks:
        assert source[t.span[0]:t.span[1]] == t.text


def test_empty_string(hi):
    assert tokenize("", hi) == []


def test_mixed_classes(hi):
    toks = tokenize("12 abc !", hi)
    assert [(t.text, t.kind) for t in toks] == [
        ("12", TokenKind.DIGIT_RUN),
        ("abc", TokenKind.SCRIPT_WORD),
        ("!", TokenKind.PUNCT_SYMBOL),
    ]


def test_adjacent_class_switches(hi):
    toks = tokenize("राम123क।?", hi)
    assert [t.text for t in toks] == ["राम", "123", "क", "।?"]


def test_native_digits_are_digit_runs(hi, ml):
    assert tokenize("१२३", hi)[0].kind == TokenKind.DIGIT_RUN
    assert tokenize("൧൨", ml)[0].kind == TokenKind.DIGIT_RUN


@given(st.integers(0, 10_000))
def test_tokenize_matches_class_oracle(seed):
    hi = profile_for("hi")
    rng_sentence = make_sentence(_rng(seed), "hi" if seed % 2 else "ml")
    toks = [(t.text, KIND_NAMES[t.kind]) for t in tokenize(rng_sentence, hi)]
    assert toks == tokens_by_class(rng_sentence)


def test_tokenize_matches_class_oracle_on_every_code_point(hi):
    text = "".join(map(chr, range(0x110000)))
    toks = tokenize(text, hi)
    assert [(t.text, KIND_NAMES[t.kind]) for t in toks] == tokens_by_class(text)
    for tok in toks:
        assert is_punct(tok, hi) == (tok.kind == TokenKind.PUNCT_SYMBOL)


def _rng(seed):
    import random

    return random.Random(seed)


@given(st.text())
def test_character_multiset_preserved(s):
    hi = profile_for("hi")
    toks = tokenize(s, hi)
    expected = Counter(ch for ch in s if not ch.isspace())
    assert Counter("".join(t.text for t in toks)) == expected


@given(st.text())
def test_tokenize_deterministic(s):
    hi = profile_for("hi")
    assert tokenize(s, hi) == tokenize(s, hi)


@given(st.text())
def test_spans_tile_source_with_whitespace_gaps(s):
    hi = profile_for("hi")
    cursor = 0
    for tok in tokenize(s, hi):
        start, end = tok.span
        assert s[start:end] == tok.text
        assert start >= cursor
        assert s[cursor:start].isspace() or s[cursor:start] == ""
        cursor = end
    assert s[cursor:].isspace() or s[cursor:] == ""


def test_every_token_matches_exactly_one_kind(hi):
    for sentence, _ in random_pairs(7, 100, "hi"):
        for tok in tokenize(sentence, hi):
            assert is_punct(tok, hi) == (tok.kind == TokenKind.PUNCT_SYMBOL)


@pytest.mark.parametrize(
    "text,expected",
    [("।", True), ("राम", False), ("?!", True), ("12", False), ("abc", False)],
)
def test_is_punct(hi, text, expected):
    assert is_punct(text, hi) is expected


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
def test_same_script(hi, a, b, expected):
    assert same_script(a, b, hi) is expected


def test_same_script_accepts_tokens(hi):
    ta, tb = tokenize("राम श्याम", hi)
    assert same_script(ta, tb, hi)


def test_profiles(hi, ml):
    assert hi.syntax_label == "Syntax/Case/Agreement"
    assert ml.syntax_label == "Syntax/Agreement"
    assert not ml.postpositions
    assert "है" in hi.auxiliaries
    assert "ने" in hi.postpositions
    assert "ആണ്" in ml.auxiliaries
    # suffixes deduplicated, longest first
    lengths = [len(s) for s in hi.suffixes]
    assert lengths == sorted(lengths, reverse=True)
    assert len(set(hi.suffixes)) == len(hi.suffixes)


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


def test_lexicon_unknown_section(tmp_path):
    path = tmp_path / "bad.lexicon"
    path.write_text("[verbs]\nकरना\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_lexicon(path)


def test_lexicon_entry_before_section(tmp_path):
    path = tmp_path / "bad.lexicon"
    path.write_text("है\n[auxiliaries]\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_lexicon(path)


def test_malayalam_rejects_postpositions(tmp_path):
    path = tmp_path / "ml.lexicon"
    path.write_text("[postpositions]\nഇല്\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        profile_for("ml", path)


def test_unknown_language():
    with pytest.raises(SchemaError):
        profile_for("ta")
