import json
import os
import unicodedata
from dataclasses import FrozenInstanceError, asdict, replace
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gec_forge import (
    InputError,
    NormalizationPolicy,
    alnum_projection,
    normalize_text,
    postprocess_hypothesis,
)
from gec_forge import textnorm
from gec_forge.textnorm import DEFAULT_POLICY, INVISIBLE_CHARS, JOINER_CHARS, POLICY_CHOICES

from _deadline import _within
from _oracles import (
    invisible_filter,
    native_digits_to_ascii,
    projection_filter,
    strip_prompt_echo,
    unify_terminal_run,
    whitespace_collapse,
)

PUNCT_POOL = " \t।॥.,;:!?()[]\"'-_/"
# Whitespace (ASCII, NEL, ideographic space), every terminal mark, and
# characters that stop a terminal run.
TERMINAL_POOL = " \t\n.।?!ab,\u3000\u0085"
EVERY_CODE_POINT = "".join(map(chr, range(0x110000)))


def assert_same(got, want):
    same = got == want  # a bare bool spares pytest a diff of 1.1M characters
    assert same, f"first difference at index {len(os.path.commonprefix([got, want]))}"

policies = st.builds(
    NormalizationPolicy,
    invisibles_policy=st.sampled_from(POLICY_CHOICES["invisibles_policy"]),
    collapse_whitespace=st.booleans(),
    unify_terminal_punct=st.booleans(),
    danda_policy=st.sampled_from(POLICY_CHOICES["danda_policy"]),
    digit_policy=st.sampled_from(POLICY_CHOICES["digit_policy"]),
)


def test_whitespace_collapse():
    assert normalize_text("a  b ") == "a b"
    assert normalize_text("\t a \n b \r") == "a b"


def test_invisible_removal():
    assert normalize_text("क‍ख") == "कख"
    for ch in INVISIBLE_CHARS:
        assert ch not in normalize_text(f"x{ch}y")


@pytest.mark.parametrize("keep_joiners", [False, True])
def test_strip_invisibles_matches_oracle_on_every_code_point(keep_joiners):
    pattern = textnorm._NON_JOINER_INVISIBLES if keep_joiners else textnorm._INVISIBLES
    assert_same(
        pattern.sub("", EVERY_CODE_POINT),
        invisible_filter(EVERY_CODE_POINT, keep_joiners),
    )


def test_digit_map_matches_oracle_on_every_code_point():
    assert_same(
        textnorm._digits_to_ascii(EVERY_CODE_POINT), native_digits_to_ascii(EVERY_CODE_POINT)
    )


def test_whitespace_collapse_matches_oracle_on_every_code_point():
    assert_same(
        textnorm._collapse_whitespace(EVERY_CODE_POINT), whitespace_collapse(EVERY_CODE_POINT)
    )


def test_projection_matches_character_filter_on_every_code_point():
    assert_same("".join(alnum_projection(EVERY_CODE_POINT)), projection_filter(EVERY_CODE_POINT))


def test_policy_is_frozen():
    with pytest.raises(FrozenInstanceError):
        NormalizationPolicy().invisibles_policy = "keep"


def _report_block(golden: str) -> dict:
    path = Path(__file__).parent / "golden" / golden
    return json.loads(path.read_text(encoding="utf-8"))["normalization"]


# A report's normalization block rebuilds the policy it ran under; any other
# value raises naming its key, from the constructor and from replace.
@pytest.mark.parametrize("block, bad_key", [
    (_report_block("dist_hi_fixture.json"), None),
    (_report_block("gleu_toy.json"), None),
    ({"danda_policy": "bogus"}, "danda_policy"),
    ({"danda_policy": "x"}, "danda_policy"),
    ({"digit_policy": None}, "digit_policy"),
    ({"collapse_whitespace": "no"}, "collapse_whitespace"),
    ({"unify_terminal_punct": 1}, "unify_terminal_punct"),  # 1 == True
])
def test_policy_builds_from_report_strings_only(block, bad_key):
    if bad_key is not None:
        with pytest.raises(InputError, match=bad_key):
            NormalizationPolicy(**block)
        with pytest.raises(InputError, match=bad_key):
            replace(DEFAULT_POLICY, **block)
        return
    policy = NormalizationPolicy(**block)
    text = "राम\u200b  घर १२"
    assert normalize_text(text, policy) == normalize_text(text) == "राम घर 12"
    assert asdict(policy) == block


def test_keep_joiners_retains_zwj_zwnj():
    policy = NormalizationPolicy(invisibles_policy="keep_joiners")
    out = normalize_text("क‍ख​", policy)
    assert "‍" in out and "​" not in out
    assert JOINER_CHARS == {"‌", "‍"}


def test_native_digit_table_to_ascii():
    # Independent digit tables built straight from the block codepoints.
    devanagari = {chr(0x0966 + i): str(i) for i in range(10)}
    malayalam = {chr(0x0D66 + i): str(i) for i in range(10)}
    for native, ascii_digit in {**devanagari, **malayalam}.items():
        assert normalize_text(native) == ascii_digit
    assert normalize_text("१२३") == "123"
    assert normalize_text("൦൯") == "09"


def test_keep_native_digits():
    policy = NormalizationPolicy(digit_policy="keep_native")
    assert normalize_text("१२३", policy) == "१२३"


def test_digit_mapping_touches_nothing_else():
    text = "क ख ग । ? abc"
    assert normalize_text(text) == text


def test_danda_policies():
    keep = NormalizationPolicy(danda_policy="keep_danda")
    to_period = NormalizationPolicy(danda_policy="map_danda_to_period")
    to_danda = NormalizationPolicy(danda_policy="map_period_to_danda")
    assert normalize_text("क।", keep) == "क।"
    assert normalize_text("क।", to_period) == "क."
    assert normalize_text("क.", to_danda) == "क।"
    # A period between two decimal digits is part of a number and stays.
    assert normalize_text("मूल्य 3.5 किलो है.", to_danda) == "मूल्य 3.5 किलो है।"
    assert normalize_text("३.५", to_danda) == "3.5"
    assert normalize_text("३.५", replace(to_danda, digit_policy="keep_native")) == "३.५"
    assert normalize_text("1.2.3", to_danda) == "1.2.3"
    assert normalize_text(".5 3. v1.x", to_danda) == "।5 3। v1।x"
    assert normalize_text("3.5", to_period) == "3.5"


def test_nfkc_applied():
    assert normalize_text("ﬁle") == "file"  # fi ligature
    assert normalize_text("１２３") == "123"  # fullwidth digits via NFKC


def test_unify_terminal_punct_policy():
    policy = NormalizationPolicy(unify_terminal_punct=True)
    assert normalize_text("वाक्य ।।", policy) == "वाक्य।"
    assert normalize_text("वाक्य . !", policy) == "वाक्य!"
    assert normalize_text("वाक्य", policy) == "वाक्य"


@given(st.text(TERMINAL_POOL))
def test_terminal_run_matches_regex_oracle(s):
    assert textnorm._unify_terminal_run(s) == unify_terminal_run(s)


@pytest.mark.parametrize("text, want", [
    ("a" + "." * 200_000 + "x", "a" + "." * 200_000 + "x"),
    ("a" + ". " * 200_000, "a."),
], ids=["inner-run", "terminal-run"])
def test_long_mark_runs_finish_in_linear_time(text, want):
    # A search anchored at the end of the line retries from every start of
    # a mark run, quadratic in its length; the bound fails such a search.
    policy = NormalizationPolicy(collapse_whitespace=False, unify_terminal_punct=True)
    def postprocess_and_normalize():
        return postprocess_hypothesis(text), normalize_text(text, policy)

    assert _within(1.0, postprocess_and_normalize) == (want, want)


@given(st.text(), policies)
def test_normalize_idempotent(s, policy):
    once = normalize_text(s, policy)
    assert normalize_text(once, policy) == once


@given(st.text())
def test_projection_matches_character_filter(s):
    assert "".join(alnum_projection(s)) == projection_filter(s)


def test_projection_examples():
    assert alnum_projection("नमस्ते ।") == alnum_projection("नमस्ते.") == ["नमस्ते"]
    assert alnum_projection("a, b!") == ["a", "b"]
    assert alnum_projection("रा म, 12!") == ["रा", "म", "12"]


@given(st.text(), st.lists(st.sampled_from(PUNCT_POOL), max_size=8), st.data())
def test_projection_stable_under_punct_mutations(s, inserts, data):
    mutated = s
    for ch in inserts:
        pos = data.draw(st.integers(min_value=0, max_value=len(mutated)))
        mutated = mutated[:pos] + ch + mutated[pos:]
    assert "".join(alnum_projection(mutated)) == "".join(alnum_projection(s))


def test_postprocess_examples():
    assert postprocess_hypothesis("वाक्य ।।") == "वाक्य।"
    assert postprocess_hypothesis(
        "PROMPT: fix this\nवाक्य।", prompt_prefix="PROMPT: fix this"
    ) == "वाक्य।"
    assert postprocess_hypothesis("क ,ख ।") == "क, ख।"
    assert postprocess_hypothesis("a , b ?!") == "a, b!"


def test_postprocess_keeps_digit_groupings():
    assert postprocess_hypothesis("कुल 1,000 रुपये ।") == "कुल 1,000 रुपये।"
    # The mark at index 1 has the line's first character before it.
    assert postprocess_hypothesis("1,000") == "1,000"


def test_postprocess_spaces_a_mark_with_a_digit_on_one_side_only():
    # Only a mark between two digits is a grouping; one digit is not enough.
    assert postprocess_hypothesis("1,b") == "1, b"
    assert postprocess_hypothesis("a,1") == "a, 1"
    # A mark at position 0 has no character before it; the last character
    # of the line is not its neighbour.
    assert postprocess_hypothesis(",5 9") == ", 5 9"


def test_postprocess_removes_repeated_echo():
    assert postprocess_hypothesis("P: P: वाक्य", prompt_prefix="P:") == "वाक्य"


ECHO_POOL = "P: \t\u3000x"
# Lines made of echoes of "P:" and whitespace, as well as any text.
echo_lines = st.one_of(
    st.text(ECHO_POOL),
    st.lists(st.sampled_from(["P:", "P", " ", "\t", "\u3000", "x"])).map("".join),
)
prefixes = st.one_of(st.none(), st.just("P:"), st.text(ECHO_POOL, max_size=3))


@given(echo_lines, prefixes)
@example(" P: \u3000P:\tx P:", "P:")
def test_prompt_echo_matches_slicing_oracle(s, prompt_prefix):
    assert textnorm._strip_prompt_echo(s, prompt_prefix) == strip_prompt_echo(s, prompt_prefix)


def test_many_prompt_echoes_finish_in_linear_time():
    # Slicing off one echo at a time copies the rest of the line for each,
    # quadratic in the number of echoes; the bound fails that.
    assert _within(1.0, postprocess_hypothesis, "P: " * 200_000 + "x", "P:") == "x"


@given(st.text())
def test_postprocess_preserves_projection(s):
    assert alnum_projection(postprocess_hypothesis(s)) == alnum_projection(s)


@given(st.text())
def test_postprocess_idempotent(s):
    once = postprocess_hypothesis(s)
    assert postprocess_hypothesis(once) == once


@given(st.text())
def test_nfkc_output_has_no_invisibles(s):
    # Guards the step ordering inside normalize_text: stripping before NFKC
    # is only sound if NFKC cannot reintroduce a stripped character.
    out = unicodedata.normalize("NFKC", "".join(c for c in s if c not in INVISIBLE_CHARS))
    assert not (set(out) & INVISIBLE_CHARS)
