"""Deterministic, priority-ordered, single-label error classifier for
(input, output) sentence pairs.

Precedence (earlier stages short-circuit later ones):
  1. Null/Empty: either side blank or a nan/null/none sentinel
  2. No Error: strings bit-identical
  3. Punct/WS: alphanumeric projections (the non-punct runs, joined) equal
  4. Word Order: same multiset of non-punct runs (the non-punct tokens,
     read straight from the two strings), different sequence
  5. Alignment typing over the non-equal opcodes: syntax > missing/extra
     word > morphology > spelling > grammar, the last resort

Equal sequences of non-punct runs give equal projections, so a pair past
stage 3 has different run sequences: stage 4 fires only on a true
permutation. Those runs are the pair's non-punct tokens in order, so the
pair also has different token lists, at least one non-equal opcode, and a
stage-5 label.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .alignment import Opcode, align, levenshtein, suffix_tail_change, touches_syntax
from .textnorm import alnum_projection
from .tokenizer import (
    _NONPUNCT_RUN, SYNTAX_LABELS, LanguageProfile, _check_lang, same_script, tokenize,
)

SPELL_THRESHOLD = 2  # max Levenshtein distance still counted as a spelling slip

_NULL_SENTINELS = {"nan", "null", "none"}


class ErrorCategory(Enum):
    NULL_EMPTY = "null_empty"
    NO_ERROR = "no_error"
    PUNCT_WHITESPACE = "punct_whitespace"
    WORD_ORDER = "word_order"
    MISSING_EXTRA_WORD = "missing_extra_word"
    SYNTAX_AGREEMENT = "syntax_agreement"
    MORPHOLOGY = "morphology"
    SPELLING = "spelling"
    GRAMMAR_SYNTAX = "grammar_syntax"

    def display_label(self, lang: str) -> str:
        _check_lang(lang)
        if self is ErrorCategory.SYNTAX_AGREEMENT:
            return SYNTAX_LABELS[lang]
        return _DISPLAY_LABELS[self]


_DISPLAY_LABELS = {
    ErrorCategory.NULL_EMPTY: "Null/Empty Pair",
    ErrorCategory.NO_ERROR: "No Error",
    ErrorCategory.PUNCT_WHITESPACE: "Punctuation/Whitespace",
    ErrorCategory.WORD_ORDER: "Word Order",
    ErrorCategory.MISSING_EXTRA_WORD: "Missing/Extra Word",
    ErrorCategory.MORPHOLOGY: "Morphology (Inflection/Affix)",
    ErrorCategory.SPELLING: "Spelling/Orthography",
    ErrorCategory.GRAMMAR_SYNTAX: "Grammar/Syntax",
}

CATEGORY_ORDER: tuple[ErrorCategory, ...] = tuple(ErrorCategory)

# The categories in the order _classify tests them; the report's
# precedence_order and the prompt's tie-break follow it. CATEGORY_ORDER
# stays the axis order of the counts and of the dual audit.
PRECEDENCE: tuple[ErrorCategory, ...] = (
    ErrorCategory.NULL_EMPTY,
    ErrorCategory.NO_ERROR,
    ErrorCategory.PUNCT_WHITESPACE,
    ErrorCategory.WORD_ORDER,
    ErrorCategory.SYNTAX_AGREEMENT,
    ErrorCategory.MISSING_EXTRA_WORD,
    ErrorCategory.MORPHOLOGY,
    ErrorCategory.SPELLING,
    ErrorCategory.GRAMMAR_SYNTAX,
)

# Categories of pairs that carry no edit to type: the audit gives them no
# stratum and the prompt gives them no priority.
NON_EDITS = frozenset({ErrorCategory.NO_ERROR, ErrorCategory.NULL_EMPTY})


@dataclass(frozen=True)
class Classification:
    """The category, and which rule of its precedence stage fired and why;
    the rule and detail never alter the category."""

    category: ErrorCategory
    rule: str
    detail: dict = field(default_factory=dict)

    @property
    def stage(self) -> int:
        # Stages 1-4 test one category each; stage 5 types the rest.
        return min(PRECEDENCE.index(self.category), 4) + 1


def nullish(x) -> bool:
    """Blank after trim, or one of the nan/null/none sentinels (any case)."""
    s = "" if x is None else str(x).strip()
    return s == "" or s.lower() in _NULL_SENTINELS


class _Pair:
    """One (input, output) pair as text, with None read as "". Its token
    texts and edit opcodes are computed on first use and then kept, so the
    classifier and the audit share one tokenization and one alignment."""

    def __init__(self, inp, out, profile: LanguageProfile):
        self.inp = "" if inp is None else str(inp)
        self.out = "" if out is None else str(out)
        self.profile = profile
        self._texts = self._ops = None

    def texts(self) -> tuple[list[str], list[str]]:
        if self._texts is None:
            self._texts = tokenize(self.inp), tokenize(self.out)
        return self._texts

    def ops(self) -> list[Opcode]:
        if self._ops is None:
            self._ops = align(*self.texts())
        return self._ops


def classify_pair(inp, out, profile: LanguageProfile) -> Classification:
    """Assign exactly one category to the pair; total on any input."""
    return _classify(_Pair(inp, out, profile))


def _classify(pair: _Pair) -> Classification:
    inp, out, profile = pair.inp, pair.out, pair.profile
    if nullish(inp) or nullish(out):
        return Classification(ErrorCategory.NULL_EMPTY, "nullish")

    if inp == out:
        return Classification(ErrorCategory.NO_ERROR, "identical")

    if alnum_projection(inp) == alnum_projection(out):
        return Classification(ErrorCategory.PUNCT_WHITESPACE, "equal_projection")

    if sorted(_NONPUNCT_RUN.findall(inp)) == sorted(_NONPUNCT_RUN.findall(out)):
        return Classification(ErrorCategory.WORD_ORDER, "permuted_multiset")

    a, b = pair.texts()

    saw_insdel = saw_spell = False
    syntax_hits: list[str] = []
    morph_hits: list[list[str]] = []
    for tag, i1, i2, j1, j2 in pair.ops():
        if tag == "equal":
            continue
        seg_a, seg_b = a[i1:i2], b[j1:j2]
        if tag != "replace":
            saw_insdel = True
        if touches_syntax(seg_a, profile) or touches_syntax(seg_b, profile):
            syntax_hits.extend(seg_a + seg_b)
        elif tag == "replace":
            # Length-mismatched replace segments are zipped pairwise;
            # the overhang carries no morphology/spelling signal.
            for ta, tb in zip(seg_a, seg_b):
                if same_script(ta, tb) and suffix_tail_change(ta, tb, profile.suffixes):
                    morph_hits.append([ta, tb])
                elif levenshtein(ta, tb) <= SPELL_THRESHOLD:
                    saw_spell = True

    # Syntax outranks the rest; then insert/delete outranks replace.
    if syntax_hits:
        rule = "insert_delete_syntax" if saw_insdel else "replace_syntax"
        return Classification(ErrorCategory.SYNTAX_AGREEMENT, rule, {"hits": syntax_hits})
    if saw_insdel:
        return Classification(ErrorCategory.MISSING_EXTRA_WORD, "insert_delete")
    if morph_hits:
        return Classification(ErrorCategory.MORPHOLOGY, "replace_suffix_tail",
                              {"pairs": morph_hits})
    if saw_spell:
        return Classification(ErrorCategory.SPELLING, "replace_small_distance",
                              {"threshold": SPELL_THRESHOLD})
    return Classification(ErrorCategory.GRAMMAR_SYNTAX, "replace_other")
