"""Script-aware Unicode normalization for Hindi/Malayalam GEC text.

Three layers live here: ingestion normalization (NFKC, invisible-character
removal, whitespace collapse, digit and danda mapping), the word-material
runs whose join is the alphanumeric projection that detects punctuation/
whitespace-only edits (exactly the tokenizer's non-punctuation classes), and
the surface-level post-processor applied to model hypotheses.
"""
from __future__ import annotations

import json
import os
import re
import unicodedata
from dataclasses import dataclass, fields

from .errors import InputError
from .reports import DATA_DIR, read_text
from .tokenizer import _NONPUNCT_RUN, DEVANAGARI_DIGITS, MALAYALAM_DIGITS

# Fixed invisible-character inventory; the authoritative copy ships as a
# versioned data table (data/invisible_chars.json) and is loaded below.
_INVISIBLE_TABLE = json.loads(read_text(os.path.join(DATA_DIR, "invisible_chars.json")))
INVISIBLE_CHARS = frozenset(chr(int(cp[2:], 16)) for cp in _INVISIBLE_TABLE["codepoints"])
JOINER_CHARS = frozenset(chr(int(cp[2:], 16)) for cp in _INVISIBLE_TABLE["joiners"])


def _char_class(chars) -> re.Pattern:
    return re.compile("[" + "".join(re.escape(ch) for ch in sorted(chars)) + "]")


# What invisibles_policy strip and keep_joiners remove.
_INVISIBLES = _char_class(INVISIBLE_CHARS)
_NON_JOINER_INVISIBLES = _char_class(INVISIBLE_CHARS - JOINER_CHARS)

DANDA = "।"  # Devanagari sentence terminator (।)

# Native decimal digits mapped by digit_policy=to_ascii; the tokenizer's
# digit ranges are the one source.
_ASCII_DIGIT = {
    chr(lo + i): str(i) for lo, _ in (DEVANAGARI_DIGITS, MALAYALAM_DIGITS) for i in range(10)
}
_NATIVE_DIGITS = _char_class(_ASCII_DIGIT)

# Matched against the reversed string: the trailing run of whitespace and
# sentence-final marks, which collapses to its final mark.
_REVERSED_TERMINAL_RUN = re.compile(r"[\s.।?!]*")
_SPACE_BEFORE_PUNCT = re.compile(r"\s+([,;:.।?!])")
_MID_PUNCT_GAP = re.compile(r"([,;:])(?=\S)")
# A period that is not between two decimal digits, so 3.5 stays a number.
_PERIOD_OUTSIDE_NUMBER = re.compile(r"(?<!\d)\.|\.(?!\d)")
_WHITESPACE_RUN = re.compile(r"\s*")


# The values of each named policy: the strings its flag takes and the
# reports write.
POLICY_CHOICES = {
    # ZWJ/ZWNJ are orthographically meaningful in some ligature contexts;
    # keep_joiners retains them while still stripping the other invisibles.
    "invisibles_policy": ("strip", "keep_joiners", "keep"),
    "danda_policy": ("keep_danda", "map_danda_to_period", "map_period_to_danda"),
    "digit_policy": ("to_ascii", "keep_native"),
}


@dataclass(frozen=True)
class NormalizationPolicy:
    """Switches for normalize_text; the defaults reproduce the ingestion
    pipeline (NFKC, invisibles stripped, whitespace collapsed, ASCII digits,
    danda kept as-is). A named policy is one of its POLICY_CHOICES strings
    and every other key is a bool; any other value raises InputError."""

    invisibles_policy: str = "strip"
    collapse_whitespace: bool = True
    unify_terminal_punct: bool = False
    danda_policy: str = "keep_danda"
    digit_policy: str = "to_ascii"

    def __post_init__(self):
        for key in POLICY_KEYS:
            value = getattr(self, key)
            choices = POLICY_CHOICES.get(key)
            if choices is None:
                if type(value) is not bool:  # 1 == True, but 1 is no switch
                    raise InputError(f"normalization {key} must be a bool, got {value!r}")
            elif value not in choices:
                raise InputError(
                    f"normalization {key} must be one of {', '.join(choices)}, got {value!r}"
                )


# The normalization keys, in report order; each is also a flag dest.
POLICY_KEYS = tuple(f.name for f in fields(NormalizationPolicy))
DEFAULT_POLICY = NormalizationPolicy()


def _ascii_digit(m: re.Match) -> str:
    return _ASCII_DIGIT[m.group()]


def _digits_to_ascii(s: str) -> str:
    return _NATIVE_DIGITS.sub(_ascii_digit, s)


def _collapse_whitespace(s: str) -> str:
    return " ".join(s.split())


def _unify_terminal_run(s: str) -> str:
    # One greedy pass over the reversed string finds the run; a search
    # anchored at the end would retry from every start, quadratic in its length.
    run = _REVERSED_TERMINAL_RUN.match(s[::-1]).group()
    marks = run.lstrip()  # reversed, so the final mark comes first
    if not marks:
        return s
    return s[: len(s) - len(run)] + marks[0]


def normalize_text(s: str, policy: NormalizationPolicy = DEFAULT_POLICY) -> str:
    """Normalize one text unit: NFKC plus the policy-selected steps.

    Invisibles are removed before NFKC so joiner removal cannot expose new
    compositions on a second pass; the whole function is idempotent for any
    policy.
    """
    if policy.invisibles_policy == "strip":
        s = _INVISIBLES.sub("", s)
    elif policy.invisibles_policy == "keep_joiners":
        s = _NON_JOINER_INVISIBLES.sub("", s)
    s = unicodedata.normalize("NFKC", s)
    if policy.danda_policy == "map_danda_to_period":
        s = s.replace(DANDA, ".")
    elif policy.danda_policy == "map_period_to_danda":
        s = _PERIOD_OUTSIDE_NUMBER.sub(DANDA, s)
    if policy.digit_policy == "to_ascii":
        s = _digits_to_ascii(s)
    if policy.collapse_whitespace:
        s = _collapse_whitespace(s)
    if policy.unify_terminal_punct:
        s = _unify_terminal_run(s)
    return s


def alnum_projection(s: str) -> list[str]:
    """The non-punctuation runs of s in order, whose join is its alphanumeric
    projection: exactly its tokens of the digit, Latin and script classes.

    The script classes hold letters and combining marks, so Indic vowel
    signs and virama survive and inflectional edits never look like
    punctuation-only edits. Every other character is a punct token to the
    tokenizer and is dropped here, so two strings with equal projections
    differ only in whitespace and punct tokens.
    """
    return _NONPUNCT_RUN.findall(s)


def _strip_prompt_echo(s: str, prompt_prefix: str | None) -> str:
    # Step an index past each echo and the whitespace after it (for str
    # patterns \s is the set of characters str.lstrip() removes), then slice
    # once, so a line of many echoes costs linear time.
    s = s.lstrip()
    i = 0
    while prompt_prefix and s.startswith(prompt_prefix, i):
        i = _WHITESPACE_RUN.match(s, i + len(prompt_prefix)).end()
    return s[i:]


def _space_after_mid_punct(m: re.Match) -> str:
    # Keep digit groupings like 1,000 intact.
    pos = m.start(1)
    prev_ch = m.string[pos - 1] if pos > 0 else ""
    next_ch = m.string[m.end(1)]
    if prev_ch.isdigit() and next_ch.isdigit():
        return m.group(1)
    return m.group(1) + " "


def postprocess_hypothesis(s: str, prompt_prefix: str | None = None) -> str:
    """Surface-level cleanup of a raw model output line.

    Removes any leading prompt echo, collapses whitespace, fixes punctuation
    spacing (no space before a mark, one space after mid-sentence marks), and
    collapses a trailing run of sentence-final marks to its final member.
    Never touches letters or digits: the alphanumeric projection of the
    result equals the projection of the echo-stripped input.
    """
    s = _strip_prompt_echo(str(s), prompt_prefix)
    s = _collapse_whitespace(s)
    s = _SPACE_BEFORE_PUNCT.sub(r"\1", s)
    s = _MID_PUNCT_GAP.sub(_space_after_mid_punct, s)
    s = _unify_terminal_run(s)
    return s.strip()
