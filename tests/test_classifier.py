import itertools
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gec_forge import (CATEGORY_ORDER, InputError, alnum_projection, classify_pair,
                       display_label, nullish, profile_for, tokenize)
from gec_forge.classifier import PRECEDENCE, SPELL_THRESHOLD

from _gen import HI_WORDS, PUNCT_TOKENS, make_sentence, random_pairs
from _oracles import classify_evidence as straightline_evidence, nonpunct_runs, profile_dict


def cat(inp, out, profile):
    return classify_pair(inp, out, profile)[0]


@pytest.mark.parametrize(
    "inp,out",
    [("", "कुछ"), ("वाक्य", ""), ("nan", "वाक्य"), ("वाक्य", "NULL"),
     ("None", "none"), ("   ", "वाक्य"), (None, "वाक्य")],
)
def test_null_empty(hi, inp, out):
    assert cat(inp, out, hi) == "null_empty"


def test_no_error_identity(hi):
    assert cat("वही वाक्य।", "वही वाक्य।", hi) == "no_error"


def test_punct_whitespace(hi):
    assert cat("नमस्ते ।", "नमस्ते.", hi) == "punct_whitespace"
    assert cat("क  ख", "क ख", hi) == "punct_whitespace"


def test_word_order(hi, ml):
    assert cat("शब्द एक दो", "दो शब्द एक", hi) == "word_order"
    assert cat("അവൻ വീട്ടിൽ പോയി", "വീട്ടിൽ അവൻ പോയി", ml) == "word_order"


def test_word_order_is_decided_without_tokenizing(hi, monkeypatch):
    # Stage 4 reads the non-punct runs straight from the strings, so a
    # permuted pair never reaches the tokenizer.
    def no_tokenize(s):
        raise AssertionError(f"tokenize called on {s!r}")

    monkeypatch.setattr("gec_forge.classifier.tokenize", no_tokenize)
    assert cat("शब्द, एक दो।", "दो शब्द एक!", hi) == "word_order"
    with pytest.raises(AssertionError, match="tokenize called"):
        cat("राम खाता", "राम खाता है", hi)


def test_missing_extra(hi):
    assert cat("राम खाता", "राम फल खाता", hi) == "missing_extra_word"
    assert cat("वह घर गया", "वह गया", hi) == "missing_extra_word"


def test_syntax_agreement(hi, ml):
    assert cat("राम खाता", "राम खाता है", hi) == "syntax_agreement"
    assert cat("राम ने खाया", "राम को खाया", hi) == "syntax_agreement"
    assert cat("അവൻ വന്നു", "അവൻ വന്നു ഇല്ല", ml) == "syntax_agreement"


def test_morphology(hi, ml):
    assert cat("लड़का सोता", "लड़के सोता", hi) == "morphology"
    assert cat("വീടിൽ നിന്നു", "വീട്ടിൽ നിന്നു", ml) == "morphology"


def test_spelling(hi, ml):
    assert cat("कमल गर", "कमल घर", hi) == "spelling"
    assert cat("അവൻ പോയ", "അവൻ പോയി", ml) == "spelling"


def test_grammar_fallback(hi, ml):
    assert cat("राम पुस्तकालय", "राम विद्यालय", hi) == "grammar_syntax"
    assert cat("അവൻ പുസ്തകം", "അവൻ മാമ്പഴം", ml) == "grammar_syntax"


def test_spell_threshold_boundary(hi):
    assert SPELL_THRESHOLD == 2
    # distance exactly 2 -> spelling; distance 3 -> grammar
    assert cat("कमल गरर", "कमल घर", hi) == "spelling"
    assert cat("कमल गररर", "कमल घर", hi) == "grammar_syntax"


def test_spell_length_gap_boundary(hi):
    # A length gap of exactly SPELL_THRESHOLD, and a distance of exactly that
    # too, still passes the length gate before the distance.
    for inp, out in (("कमल घर", "कमल घरखख"), ("कमल घरखख", "कमल घर")):
        assert cat(inp, out, hi) == "spelling"
    assert cat("कमल घर", "कमल घरखखख", hi) == "grammar_syntax"


def test_cross_script_replace_skips_morphology(hi):
    # A Devanagari/Latin replacement cannot take the suffix-tail route even
    # if a tail matches; it falls through to the distance test.
    assert cat("राम लड़के", "राम ladke", hi) in ("spelling", "grammar_syntax")
    assert cat("राम लड़के", "राम ladke", hi) == "grammar_syntax"


def test_evidence_stage_matches_category(hi):
    expectations = {
        ("", "क"): ("null_empty", 1),
        ("क", "क"): ("no_error", 2),
        ("क ।", "क."): ("punct_whitespace", 3),
        ("क ख ग", "ग क ख"): ("word_order", 4),
        ("राम खाता", "राम खाता है"): ("syntax_agreement", 5),
    }
    for (inp, out), (expected_cat, stage) in expectations.items():
        result = classify_pair(inp, out, hi)
        assert result[:2] == (expected_cat, stage)
    # A result is a value: its category cannot be rewritten after the fact.
    with pytest.raises(TypeError):
        result[0] = "no_error"
    # Each stage's return writes its own number: stages 1-4 test one
    # PRECEDENCE category each, and stage 5 types the rest.
    for inp, out in random_pairs(7, 300, "hi"):
        category, stage, _, _ = classify_pair(inp, out, hi)
        assert stage == min(PRECEDENCE.index(category), 4) + 1


# One pair per stage-5 category that meets that category's condition and no
# later one's; the anchors differ, so two joined pairs align part by part.
_STAGE5_ONLY = {
    "syntax_agreement": ("राम ने खाया", "राम को खाया"),
    "missing_extra_word": ("वह घर गया", "वह गया"),
    "morphology": ("लड़का सोता", "लड़के सोता"),
    "spelling": ("कमल गर", "कमल घर"),
    "grammar_syntax": ("श्याम पुस्तकालय", "श्याम विद्यालय"),
}


def test_precedence_is_the_order_classify_applies(hi):
    # Stages 1-4 come in stage order.
    early = [classify_pair(inp, out, hi)
             for inp, out in (("", "क"), ("क", "क"), ("क ।", "क."), ("क ख ग", "ग क ख"))]
    assert [r[1] for r in early] == [1, 2, 3, 4]
    assert PRECEDENCE[:4] == tuple(r[0] for r in early)
    # A joined pair meets the conditions of both its parts, so the category
    # it gets is the one tested first; package and oracle agree on it.
    prof = profile_dict(hi)
    for only in _STAGE5_ONLY.items():
        assert cat(*only[1], hi) is only[0]
    wins = dict.fromkeys(_STAGE5_ONLY, 0)
    for x, y in itertools.combinations(_STAGE5_ONLY, 2):
        (ax, bx), (ay, by) = _STAGE5_ONLY[x], _STAGE5_ONLY[y]
        for inp, out in ((f"{ax} {ay}", f"{bx} {by}"), (f"{ay} {ax}", f"{by} {bx}")):
            winner = cat(inp, out, hi)
            assert winner in (x, y)
            assert classify_pair(inp, out, hi) == straightline_evidence(inp, out, prof)
            wins[winner] += 1
    # Each category beats every later one, in both join orders.
    assert sorted(wins.values()) == [0, 2, 4, 6, 8]
    assert PRECEDENCE[4:] == tuple(sorted(wins, key=wins.get, reverse=True))


def test_display_labels():
    assert display_label("syntax_agreement", "hi") == "Syntax/Case/Agreement"
    assert display_label("syntax_agreement", "ml") == "Syntax/Agreement"
    assert display_label("morphology", "hi") == "Morphology (Inflection/Affix)"
    assert display_label("morphology", "ml") == "Morphology (Inflection/Affix)"
    for category in CATEGORY_ORDER:
        with pytest.raises(InputError, match="unknown language: 'xx'"):
            display_label(category, "xx")
    for category in ("bogus", "SPELLING", None, ["spelling"]):
        with pytest.raises(InputError, match="unknown category: "):
            display_label(category, "hi")


def test_nullish():
    assert nullish("  ")
    assert nullish("NaN")
    assert nullish(None)
    assert not nullish("क")


def test_sentinels_in_any_case_and_padding():
    for s in (" NULL ", "nOnE", "\tNaN\n", "Nan", "NULL"):
        assert nullish(s)
    for s in ("nulls", "nan.", "nonee", "nul", "n an", "null null"):
        assert not nullish(s)


def test_lower_never_shortens_a_code_point():
    # str.lower() maps each code point to one or more, so no string longer
    # than the longest sentinel lowers to a sentinel: nullish tests the
    # length first. Run on this interpreter's Unicode tables.
    assert all(len(chr(c).lower()) >= 1 for c in range(0x110000))


@given(st.integers(0, 2**30))
def test_identity_is_no_error(seed):
    hi = profile_for("hi")
    import random

    s = make_sentence(random.Random(seed), "hi")
    assert cat(s, s, hi) == "no_error"


@given(st.integers(0, 2**30), st.sampled_from(PUNCT_TOKENS))
def test_punct_perturbation_of_identity_gives_punct_ws(seed, mark):
    hi = profile_for("hi")
    import random

    s = make_sentence(random.Random(seed), "hi")
    assert cat(s, s + " " + mark, hi) == "punct_whitespace"


def test_word_order_swap_closure(hi):
    pairs = [p for p in random_pairs(555, 400, "hi") if cat(*p, hi) == "word_order"]
    assert pairs, "generator produced no word-order pairs"
    for inp, out in pairs:
        assert cat(out, inp, hi) == "word_order"


@given(st.text(max_size=30), st.text(max_size=30))
def test_total_single_label_on_arbitrary_text(a, b):
    hi = profile_for("hi")
    assert cat(a, b, hi) in CATEGORY_ORDER


def test_matches_straightline_oracle_sample(hi, ml):
    for profile, lang, seed in ((hi, "hi", 101), (ml, "ml", 202)):
        prof = profile_dict(profile)
        for inp, out in random_pairs(seed, 300, lang):
            assert classify_pair(inp, out, profile) == straightline_evidence(inp, out, prof)


# Every character matched by \s, over all code points. Together with the
# tokenizer covering every other character (test_tokenizer), this is why
# equal token lists imply equal projections, so a pair that reaches the
# word-order stage always has different token lists.
WHITESPACE = "".join(re.findall(r"\s", "".join(map(chr, range(0x110000)))))


def test_no_whitespace_character_survives_the_projection():
    assert " " in WHITESPACE and "\u3000" in WHITESPACE
    assert alnum_projection(WHITESPACE) == []


@given(st.text(max_size=40), st.lists(st.text(st.sampled_from(WHITESPACE), min_size=1,
                                              max_size=3)))
def test_equal_tokens_imply_equal_projections(text, separators):
    tokens = tokenize(text)
    # The same tokens, separated by other whitespace runs.
    respaced = "".join(sep + tok for sep, tok in zip(separators + [" "] * len(tokens), tokens))
    assert tokenize(respaced) == tokens
    assert alnum_projection(respaced) == alnum_projection(text)


# Letters and digits outside the tokenizer's classes (Greek, Latin with a
# diacritic, Cyrillic, Arabic-Indic) are punct tokens, so they are not word
# material for the projection either.
OUT_OF_CLASS = list("αβ\u00e9\u04d5\u0661")
OUT_OF_CLASS_EDITS = [("राम α", "राम β"), ("राम Zo\u00eb", "राम Zo\u00e8")]


@pytest.mark.parametrize("inp,out", OUT_OF_CLASS_EDITS)
def test_edit_outside_the_word_classes_is_punct_whitespace(hi, inp, out):
    assert classify_pair(inp, out, hi) == ("punct_whitespace", 3, "equal_projection", {})


@given(st.lists(st.sampled_from(HI_WORDS[:6] + OUT_OF_CLASS), min_size=1, max_size=6),
       st.sampled_from([" ", ""]), st.data())
def test_word_order_only_when_the_nonpunct_runs_differ(hi, words, sep, data):
    # A permutation of the words whose out-of-class letters may also change.
    moved = [data.draw(st.sampled_from(OUT_OF_CLASS)) if w in OUT_OF_CLASS else w
             for w in data.draw(st.permutations(words))]
    inp, out = sep.join(words), sep.join(moved)
    if cat(inp, out, hi) == "word_order":
        assert nonpunct_runs(inp) != nonpunct_runs(out)
