"""gec-forge: deterministic GEC analysis toolkit for Hindi and Malayalam."""

__version__ = "0.1.0"

from .alignment import align, levenshtein, suffix_tail_change, touches_syntax
from .audit import DualReport, EditAudit, Stratum, audit_pair, dual_report, reconcile
from .classifier import (
    CATEGORY_ORDER,
    Classification,
    ErrorCategory,
    Evidence,
    classify_pair,
    constants,
    nullish,
)
from .corpus import (
    DistributionReport,
    SentencePair,
    analyze,
    load_pairs,
    synthesize_prompt,
)
from .errors import GecForgeError, InputError, ParseError, SchemaError, UsageError
from .gleu import GleuReport, gleu_corpus
from .textnorm import (
    DEFAULT_POLICY,
    DandaPolicy,
    DigitPolicy,
    NormalizationPolicy,
    alnum_projection,
    normalize_text,
    postprocess_hypothesis,
)
from .tokenizer import (
    LanguageProfile,
    is_punct,
    load_lexicon,
    profile_for,
    same_script,
    tokenize,
)

__all__ = [
    "__version__",
    "align", "levenshtein", "suffix_tail_change", "touches_syntax",
    "DualReport", "EditAudit", "Stratum", "audit_pair", "dual_report", "reconcile",
    "CATEGORY_ORDER", "Classification", "ErrorCategory", "Evidence",
    "classify_pair", "constants", "nullish",
    "DistributionReport", "SentencePair",
    "analyze", "load_pairs", "synthesize_prompt",
    "GecForgeError", "InputError", "ParseError", "SchemaError", "UsageError",
    "GleuReport", "gleu_corpus",
    "DEFAULT_POLICY", "DandaPolicy", "DigitPolicy", "NormalizationPolicy",
    "alnum_projection", "normalize_text", "postprocess_hypothesis",
    "LanguageProfile", "is_punct", "load_lexicon", "profile_for", "same_script", "tokenize",
]
