"""gec-forge: deterministic GEC analysis toolkit for Hindi and Malayalam."""

__version__ = "0.1.0"

from .alignment import align, levenshtein, suffix_tail_change, touches_syntax
from .audit import audit_pair, dual_report, reconcile
from .classifier import CATEGORY_ORDER, classify_pair, display_label, nullish
from .corpus import analyze, load_pairs, synthesize_prompt
from .errors import InputError
from .gleu import gleu_corpus
from .textnorm import (
    DEFAULT_POLICY,
    NormalizationPolicy,
    alnum_projection,
    normalize_text,
    postprocess_hypothesis,
)
from .tokenizer import (
    LanguageProfile,
    load_lexicon,
    profile_for,
    same_script,
    tokenize,
)

__all__ = [
    "__version__",
    "align", "levenshtein", "suffix_tail_change", "touches_syntax",
    "audit_pair", "dual_report", "reconcile",
    "CATEGORY_ORDER", "classify_pair", "display_label", "nullish",
    "analyze", "load_pairs", "synthesize_prompt",
    "InputError",
    "gleu_corpus",
    "DEFAULT_POLICY", "NormalizationPolicy", "alnum_projection", "normalize_text",
    "postprocess_hypothesis",
    "LanguageProfile", "load_lexicon", "profile_for", "same_script", "tokenize",
]
