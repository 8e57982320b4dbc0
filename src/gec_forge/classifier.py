"""Deterministic, priority-ordered, single-label error classifier for
(input, output) sentence pairs.

Precedence (earlier stages short-circuit later ones):
  1. Null/Empty: either side blank or a nan/null/none sentinel
  2. No Error: strings bit-identical
  3. Punct/WS: equal alphanumeric projections: alnum_projection gives each
     side's non-punct runs once, and their joins are equal
  4. Word Order: same multiset of those runs, different sequence
  5. Alignment typing over the non-equal opcodes: syntax > missing/extra
     word > morphology > spelling > grammar, the last resort

classify_pair returns the plain tuple (category, stage, rule, detail); each
stage's return writes its own stage number.

Equal sequences of non-punct runs give equal projections, so a pair past
stage 3 has different run sequences: stage 4 fires only on a true
permutation. Those runs are the pair's non-punct tokens in order, so the
pair also has different token lists, at least one non-equal opcode, and a
stage-5 label.
"""
from __future__ import annotations

from .alignment import Opcode, align, levenshtein, suffix_tail_change, touches_syntax
from .errors import InputError
from .textnorm import alnum_projection
from .tokenizer import SYNTAX_LABELS, LanguageProfile, _check_lang, same_script, tokenize

SPELL_THRESHOLD = 2  # max Levenshtein distance still counted as a spelling slip

_NULL_SENTINELS = {"nan", "null", "none"}
_SENTINEL_LEN = max(map(len, _NULL_SENTINELS))


# The axis order of the counts and of the dual audit.
CATEGORY_ORDER: tuple[str, ...] = (
    "null_empty", "no_error", "punct_whitespace", "word_order",
    "missing_extra_word", "syntax_agreement", "morphology", "spelling", "grammar_syntax",
)

# The categories in the order _classify tests them: stages 1-4, then
# stage 5. The report's precedence_order and the prompt's tie-break follow it.
PRECEDENCE: tuple[str, ...] = (
    "null_empty", "no_error", "punct_whitespace", "word_order",
    "syntax_agreement", "missing_extra_word", "morphology", "spelling", "grammar_syntax",
)

_DISPLAY_LABELS = {
    "null_empty": "Null/Empty Pair",
    "no_error": "No Error",
    "punct_whitespace": "Punctuation/Whitespace",
    "word_order": "Word Order",
    "missing_extra_word": "Missing/Extra Word",
    "morphology": "Morphology (Inflection/Affix)",
    "spelling": "Spelling/Orthography",
    "grammar_syntax": "Grammar/Syntax",
}

# Categories of pairs that carry no edit to type: the audit gives them no
# stratum and the prompt gives them no priority.
NON_EDITS = frozenset({"no_error", "null_empty"})


def display_label(category: str, lang: str) -> str:
    """The category's label for the language; the syntax label depends on
    it. Raises InputError on an unknown language code, then on an unknown
    category."""
    _check_lang(lang)
    if category not in CATEGORY_ORDER:
        raise InputError(f"unknown category: {category!r} (expected one of {list(CATEGORY_ORDER)})")
    if category == "syntax_agreement":
        return SYNTAX_LABELS[lang]
    return _DISPLAY_LABELS[category]


def nullish(x) -> bool:
    """Blank after trim, or one of the nan/null/none sentinels (any case)."""
    s = "" if x is None else str(x).strip()
    # str.lower() never shortens a string, so a longer one is no sentinel.
    return not s or (len(s) <= _SENTINEL_LEN and s.lower() in _NULL_SENTINELS)


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


def classify_pair(inp, out, profile: LanguageProfile) -> tuple[str, int, str, dict]:
    """Assign exactly one category to the pair; total on any input.

    Returns (category, stage, rule, detail): the category, the precedence
    stage (1-5) and rule that fired, and the rule's detail (a dict, empty
    for most rules). The stage, rule and detail never alter the category.
    """
    return _classify(_Pair(inp, out, profile))


def _classify(pair: _Pair) -> tuple[str, int, str, dict]:
    inp, out, profile = pair.inp, pair.out, pair.profile
    if nullish(inp) or nullish(out):
        return "null_empty", 1, "nullish", {}

    if inp == out:
        return "no_error", 2, "identical", {}

    runs_in, runs_out = alnum_projection(inp), alnum_projection(out)
    if "".join(runs_in) == "".join(runs_out):
        return "punct_whitespace", 3, "equal_projection", {}

    if sorted(runs_in) == sorted(runs_out):
        return "word_order", 4, "permuted_multiset", {}

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
                # The distance is at least the length gap (Ukkonen 1985).
                elif (abs(len(ta) - len(tb)) <= SPELL_THRESHOLD
                      and levenshtein(ta, tb) <= SPELL_THRESHOLD):
                    saw_spell = True

    # Syntax outranks the rest; then insert/delete outranks replace.
    if syntax_hits:
        rule = "insert_delete_syntax" if saw_insdel else "replace_syntax"
        return "syntax_agreement", 5, rule, {"hits": syntax_hits}
    if saw_insdel:
        return "missing_extra_word", 5, "insert_delete", {}
    if morph_hits:
        return "morphology", 5, "replace_suffix_tail", {"pairs": morph_hits}
    if saw_spell:
        return "spelling", 5, "replace_small_distance", {"threshold": SPELL_THRESHOLD}
    return "grammar_syntax", 5, "replace_other", {}
