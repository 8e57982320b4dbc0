"""Auditing of model outputs against their inputs: functional strata
(redundant / rectifying / risky), guardrail flags, and dual-candidate
reconciliation.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum

from .alignment import levenshtein
from .classifier import CATEGORY_ORDER, NON_EDITS, ErrorCategory, _classify, _Pair
from .errors import InputError
from .tokenizer import LanguageProfile

DEFAULT_DISTANCE_CAP = 5  # tokens; beyond this an edit counts as drift


class Stratum(Enum):
    REDUNDANT = "redundant"
    RECTIFYING = "rectifying"
    RISKY = "risky"
    NONE = "none"


STRATA_ORDER = (Stratum.REDUNDANT, Stratum.RECTIFYING, Stratum.RISKY)

# reconcile prefers substantive local fixes, then surface fixes, then
# anything over nothing.
_PREFERENCE = {
    Stratum.RECTIFYING: 0,
    Stratum.REDUNDANT: 1,
    Stratum.RISKY: 2,
    Stratum.NONE: 3,
}


@dataclass(frozen=True)
class EditAudit:
    category: ErrorCategory
    stratum: Stratum
    edit_distance: int  # token-level, over all tokens
    multiset_preserving_reorder: bool
    distance_cap_exceeded: bool

    def to_dict(self) -> dict:
        return {
            "category": self.category.value,
            "stratum": self.stratum.value,
            "edit_distance": self.edit_distance,
            "multiset_preserving_reorder": self.multiset_preserving_reorder,
            "distance_cap_exceeded": self.distance_cap_exceeded,
        }


@dataclass(frozen=True)
class DualReport:
    agreement: tuple  # 9x9 counts, candidate A rows x candidate B columns
    strata_cross: tuple  # 3x3 over redundant/rectifying/risky (none omitted)
    union_count: int
    intersection_count: int
    conflict_count: int
    resolutions: tuple  # per pair: {"row", "chosen", "text", "reason"}

    def to_dict(self) -> dict:
        return {
            "categories": [cat.value for cat in CATEGORY_ORDER],
            "agreement": [list(row) for row in self.agreement],
            "strata": [s.value for s in STRATA_ORDER],
            "strata_cross": [list(row) for row in self.strata_cross],
            "union_count": self.union_count,
            "intersection_count": self.intersection_count,
            "conflict_count": self.conflict_count,
            "resolutions": list(self.resolutions),
        }


def audit_pair(
    input, prediction, profile: LanguageProfile, cap: int = DEFAULT_DISTANCE_CAP
) -> EditAudit:
    """Classify input→prediction and bind the result to a functional stratum."""
    _check_cap(cap)
    return _audit(_Pair(input, prediction, profile), cap)


def _check_cap(cap: int) -> None:
    if cap < 0:
        raise InputError(f"cap must be >= 0, got {cap}")


def _audit(pair: _Pair, cap: int) -> EditAudit:
    category = _classify(pair).category
    distance = levenshtein(*pair.texts())
    if category in NON_EDITS:
        stratum = Stratum.NONE
    elif category is ErrorCategory.PUNCT_WHITESPACE:
        stratum = Stratum.REDUNDANT
    elif category is ErrorCategory.WORD_ORDER:
        stratum = Stratum.RISKY
    elif distance <= cap:
        stratum = Stratum.RECTIFYING
    else:
        stratum = Stratum.RISKY
    return EditAudit(
        category=category,
        stratum=stratum,
        edit_distance=distance,
        multiset_preserving_reorder=category is ErrorCategory.WORD_ORDER,
        distance_cap_exceeded=distance > cap,
    )


def reordered_token_count(input, prediction, profile: LanguageProfile) -> int:
    """Tokens that were both removed somewhere and added elsewhere: the
    signature of a move rather than a local substitution."""
    return _moved_tokens(_Pair(input, prediction, profile))


def _moved_tokens(pair: _Pair) -> int:
    a, b = pair.texts()
    removed: Counter = Counter()
    added: Counter = Counter()
    for tag, i1, i2, j1, j2 in pair.ops():
        if tag in ("delete", "replace"):
            removed.update(a[i1:i2])
        if tag in ("insert", "replace"):
            added.update(b[j1:j2])
    return sum((removed & added).values())


def _reconcile_audited(input, cand_a, cand_b, profile, cap):
    """Returns (side, chosen_text, reason, audit_a, audit_b)."""
    pair_a, pair_b = _Pair(input, cand_a, profile), _Pair(input, cand_b, profile)
    audit_a, audit_b = _audit(pair_a, cap), _audit(pair_b, cap)
    if str(cand_a) == str(cand_b):
        return "a", cand_a, "identical", audit_a, audit_b
    pref_a, pref_b = _PREFERENCE[audit_a.stratum], _PREFERENCE[audit_b.stratum]
    if pref_a != pref_b:
        winner = "a" if pref_a < pref_b else "b"
        strata = (audit_a.stratum.value, audit_b.stratum.value)
        reason = f"stratum:{strata[0] if winner == 'a' else strata[1]}"
    elif audit_a.edit_distance != audit_b.edit_distance:
        winner = "a" if audit_a.edit_distance < audit_b.edit_distance else "b"
        reason = "edit_distance"
    else:
        moves_a, moves_b = _moved_tokens(pair_a), _moved_tokens(pair_b)
        if moves_a != moves_b:
            winner = "a" if moves_a < moves_b else "b"
            reason = "reordering"
        else:
            winner, reason = "a", "positional"
    chosen = cand_a if winner == "a" else cand_b
    return winner, chosen, reason, audit_a, audit_b


def reconcile(
    input, cand_a, cand_b, profile: LanguageProfile, cap: int = DEFAULT_DISTANCE_CAP
) -> tuple[str, str]:
    """Pick one of two candidate corrections.

    Order: rectifying > redundant > risky > none; ties go to the lower
    token edit distance, then to the candidate with fewer moved tokens,
    then to cand_a.
    """
    _check_cap(cap)
    _, chosen, reason, _, _ = _reconcile_audited(input, cand_a, cand_b, profile, cap)
    return chosen, reason


def dual_report(
    triples, profile: LanguageProfile, cap: int = DEFAULT_DISTANCE_CAP
) -> DualReport:
    """Aggregate two candidate streams: category agreement matrix, strata
    cross-matrix, union/intersection/conflict counts, and per-pair picks."""
    _check_cap(cap)
    triples = list(triples)
    if not triples:
        raise InputError("dual_report needs at least one (input, cand_a, cand_b) triple")
    cat_index = {cat: i for i, cat in enumerate(CATEGORY_ORDER)}
    stratum_index = {s: i for i, s in enumerate(STRATA_ORDER)}
    agreement = [[0] * len(CATEGORY_ORDER) for _ in CATEGORY_ORDER]
    strata_cross = [[0] * len(STRATA_ORDER) for _ in STRATA_ORDER]
    union = intersection = conflict = 0
    resolutions = []
    for row, (input, cand_a, cand_b) in enumerate(triples):
        side, chosen, reason, audit_a, audit_b = _reconcile_audited(
            input, cand_a, cand_b, profile, cap
        )
        agreement[cat_index[audit_a.category]][cat_index[audit_b.category]] += 1
        if audit_a.stratum in stratum_index and audit_b.stratum in stratum_index:
            strata_cross[stratum_index[audit_a.stratum]][stratum_index[audit_b.stratum]] += 1
        edits_a = audit_a.category not in NON_EDITS
        edits_b = audit_b.category not in NON_EDITS
        if edits_a or edits_b:
            union += 1
        if edits_a and edits_b:
            if audit_a.category is audit_b.category:
                intersection += 1
            else:
                conflict += 1
        resolutions.append(
            {"row": row, "chosen": side, "text": str(chosen), "reason": reason}
        )
    return DualReport(
        agreement=tuple(tuple(r) for r in agreement),
        strata_cross=tuple(tuple(r) for r in strata_cross),
        union_count=union,
        intersection_count=intersection,
        conflict_count=conflict,
        resolutions=tuple(resolutions),
    )
