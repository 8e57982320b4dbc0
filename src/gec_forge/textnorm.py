"""Script-aware Unicode normalization for Hindi/Malayalam GEC text.

Three layers live here: ingestion normalization (NFKC, invisible-character
removal, whitespace collapse, digit and danda mapping), the alphanumeric
projection used to detect punctuation/whitespace-only edits, which keeps
exactly the tokenizer's non-punctuation classes, and the surface-level
post-processor applied to model hypotheses.
"""
from __future__ import annotations

import json
import os
import re
import unicodedata
from dataclasses import dataclass, fields
from enum import Enum

from .reports import DATA_DIR, read_text
from .tokenizer import _NONPUNCT_RUN, DEVANAGARI_DIGITS, MALAYALAM_DIGITS

# Fixed invisible-character inventory; the authoritative copy ships as a
# versioned data table (data/invisible_chars.json) and is loaded below.
_INVISIBLE_TABLE = json.loads(read_text(os.path.join(DATA_DIR, "invisible_chars.json")))
INVISIBLE_CHARS = frozenset(chr(int(cp[2:], 16)) for cp in _INVISIBLE_TABLE["codepoints"])
JOINER_CHARS = frozenset(chr(int(cp[2:], 16)) for cp in _INVISIBLE_TABLE["joiners"])


def _char_class(chars) -> re.Pattern:
    return re.compile("[" + "".join(re.escape(ch) for ch in sorted(chars)) + "]")


# What _strip_invisibles removes, without and with keep_joiners.
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


class DandaPolicy(Enum):
    KEEP_DANDA = "keep_danda"
    MAP_DANDA_TO_PERIOD = "map_danda_to_period"
    MAP_PERIOD_TO_DANDA = "map_period_to_danda"


class DigitPolicy(Enum):
    TO_ASCII = "to_ascii"
    KEEP_NATIVE = "keep_native"


@dataclass(frozen=True)
class NormalizationPolicy:
    """Switches for normalize_text; the defaults reproduce the ingestion
    pipeline (NFKC, invisibles stripped, whitespace collapsed, ASCII digits,
    danda kept as-is)."""

    strip_invisibles: bool = True
    collapse_whitespace: bool = True
    unify_terminal_punct: bool = False
    danda_policy: DandaPolicy = DandaPolicy.KEEP_DANDA
    digit_policy: DigitPolicy = DigitPolicy.TO_ASCII
    # ZWJ/ZWNJ are orthographically meaningful in some ligature contexts;
    # keep_joiners retains them while still stripping the other invisibles.
    keep_joiners: bool = False

    def to_dict(self) -> dict:
        values = {key: getattr(self, key) for key in POLICY_KEYS}
        return {key: v.value if isinstance(v, Enum) else v for key, v in values.items()}


# The normalization keys, in report order; each is also a flag dest.
POLICY_KEYS = tuple(f.name for f in fields(NormalizationPolicy))
DEFAULT_POLICY = NormalizationPolicy()


def _strip_invisibles(s: str, keep_joiners: bool) -> str:
    return (_NON_JOINER_INVISIBLES if keep_joiners else _INVISIBLES).sub("", s)


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
    if policy.strip_invisibles:
        s = _strip_invisibles(s, policy.keep_joiners)
    s = unicodedata.normalize("NFKC", s)
    if policy.danda_policy is DandaPolicy.MAP_DANDA_TO_PERIOD:
        s = s.replace(DANDA, ".")
    elif policy.danda_policy is DandaPolicy.MAP_PERIOD_TO_DANDA:
        s = _PERIOD_OUTSIDE_NUMBER.sub(DANDA, s)
    if policy.digit_policy is DigitPolicy.TO_ASCII:
        s = _digits_to_ascii(s)
    if policy.collapse_whitespace:
        s = _collapse_whitespace(s)
    if policy.unify_terminal_punct:
        s = _unify_terminal_run(s)
    return s


def alnum_projection(s: str) -> str:
    """Word-material view of s: its non-punctuation runs joined, keeping
    exactly the tokenizer's digit, Latin, Devanagari and Malayalam classes.

    The script classes hold letters and combining marks, so Indic vowel
    signs and virama survive and inflectional edits never look like
    punctuation-only edits. Every other character is a punct token to the
    tokenizer and is dropped here, so two strings with equal projections
    differ only in whitespace and punct tokens.
    """
    return "".join(_NONPUNCT_RUN.findall(s))


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
