"""Auditing of model outputs against their inputs: functional strata
(redundant / rectifying / risky), guardrail flags, and dual-candidate
reconciliation.

audit_pair returns the pair's row of the audit report as a plain dict,
without its row index: category, stratum, edit_distance,
multiset_preserving_reorder and distance_cap_exceeded.
"""
from __future__ import annotations

from collections import Counter

from .alignment import Opcode, levenshtein
from .classifier import CATEGORY_ORDER, NON_EDITS, _classify, _Pair
from .errors import InputError
from .tokenizer import LanguageProfile

DEFAULT_DISTANCE_CAP = 5  # tokens; beyond this an edit counts as drift


# The strata of a pair with an edit; a pair with none gets "none".
STRATA = ("redundant", "rectifying", "risky")

# reconcile prefers substantive local fixes, then surface fixes, then
# anything over nothing.
_PREFERENCE = {"rectifying": 0, "redundant": 1, "risky": 2, "none": 3}


def audit_pair(
    input, prediction, profile: LanguageProfile, cap: int = DEFAULT_DISTANCE_CAP
) -> dict:
    """Classify input→prediction and bind the result to a functional stratum."""
    return _audit(_Pair(input, prediction, profile), cap)


def _audit(pair: _Pair, cap: int) -> dict:
    if cap < 0:
        raise InputError(f"cap must be >= 0, got {cap}")
    category = _classify(pair)[0]
    distance = levenshtein(*pair.texts())
    if category in NON_EDITS:
        stratum = "none"
    elif category == "punct_whitespace":
        stratum = "redundant"
    elif category == "word_order":
        stratum = "risky"
    elif distance <= cap:
        stratum = "rectifying"
    else:
        stratum = "risky"
    return {
        "category": category,
        "stratum": stratum,
        "edit_distance": distance,  # token-level, over all tokens
        "multiset_preserving_reorder": category == "word_order",
        "distance_cap_exceeded": distance > cap,
    }


def reordered_token_count(a: list[str], b: list[str], ops: list[Opcode]) -> int:
    """Tokens that ops, the opcodes of align(a, b), both remove from a
    somewhere and add to b elsewhere: the signature of a move rather than a
    local substitution. reconcile breaks an edit-distance tie on it."""
    removed: Counter = Counter()
    added: Counter = Counter()
    for tag, i1, i2, j1, j2 in ops:
        if tag in ("delete", "replace"):
            removed.update(a[i1:i2])
        if tag in ("insert", "replace"):
            added.update(b[j1:j2])
    return sum((removed & added).values())


def _reconcile_audited(input, cand_a, cand_b, profile, cap):
    """Returns (side, chosen_text, reason, audit_a, audit_b); the text is
    the chosen candidate as audited, with None read as ""."""
    pair_a, pair_b = _Pair(input, cand_a, profile), _Pair(input, cand_b, profile)
    audit_a = _audit(pair_a, cap)
    if pair_a.out == pair_b.out:  # one text, so one audit for both sides
        return "a", pair_a.out, "identical", audit_a, audit_a
    audit_b = _audit(pair_b, cap)
    pref_a, pref_b = _PREFERENCE[audit_a["stratum"]], _PREFERENCE[audit_b["stratum"]]
    if pref_a != pref_b:
        winner = "a" if pref_a < pref_b else "b"
        reason = "stratum:" + (audit_a if winner == "a" else audit_b)["stratum"]
    elif audit_a["edit_distance"] != audit_b["edit_distance"]:
        winner = "a" if audit_a["edit_distance"] < audit_b["edit_distance"] else "b"
        reason = "edit_distance"
    else:
        moves_a = reordered_token_count(*pair_a.texts(), pair_a.ops())
        moves_b = reordered_token_count(*pair_b.texts(), pair_b.ops())
        if moves_a != moves_b:
            winner = "a" if moves_a < moves_b else "b"
            reason = "reordering"
        else:
            winner, reason = "a", "positional"
    chosen = pair_a.out if winner == "a" else pair_b.out
    return winner, chosen, reason, audit_a, audit_b


def reconcile(
    input, cand_a, cand_b, profile: LanguageProfile, cap: int = DEFAULT_DISTANCE_CAP
) -> tuple[str, str]:
    """Pick one of two candidate corrections.

    Order: rectifying > redundant > risky > none; ties go to the lower
    token edit distance, then to the candidate with fewer moved tokens
    (reordered_token_count over the pair's one tokenization and alignment),
    then to cand_a.
    """
    _, chosen, reason, _, _ = _reconcile_audited(input, cand_a, cand_b, profile, cap)
    return chosen, reason


def dual_report(triples, profile: LanguageProfile, cap: int = DEFAULT_DISTANCE_CAP) -> dict:
    """Aggregate two candidate streams into the dual-audit report body:
    category agreement matrix (candidate A rows x candidate B columns),
    strata cross-matrix over redundant/rectifying/risky (none omitted),
    union/intersection/conflict counts, and per-pair picks."""
    triples = list(triples)
    if not triples:
        raise InputError("dual_report needs at least one (input, cand_a, cand_b) triple")
    cat_index = {cat: i for i, cat in enumerate(CATEGORY_ORDER)}
    stratum_index = {s: i for i, s in enumerate(STRATA)}
    agreement = [[0] * len(CATEGORY_ORDER) for _ in CATEGORY_ORDER]
    strata_cross = [[0] * len(STRATA) for _ in STRATA]
    union = intersection = conflict = 0
    resolutions = []
    for row, (input, cand_a, cand_b) in enumerate(triples):
        side, chosen, reason, audit_a, audit_b = _reconcile_audited(
            input, cand_a, cand_b, profile, cap
        )
        cat_a, cat_b = audit_a["category"], audit_b["category"]
        stratum_a, stratum_b = audit_a["stratum"], audit_b["stratum"]
        agreement[cat_index[cat_a]][cat_index[cat_b]] += 1
        if stratum_a in stratum_index and stratum_b in stratum_index:
            strata_cross[stratum_index[stratum_a]][stratum_index[stratum_b]] += 1
        edits_a = cat_a not in NON_EDITS
        edits_b = cat_b not in NON_EDITS
        if edits_a or edits_b:
            union += 1
        if edits_a and edits_b:
            if cat_a == cat_b:
                intersection += 1
            else:
                conflict += 1
        resolutions.append({"row": row, "chosen": side, "text": chosen, "reason": reason})
    return {
        "categories": list(CATEGORY_ORDER),
        "agreement": agreement,
        "strata": list(STRATA),
        "strata_cross": strata_cross,
        "union_count": union,
        "intersection_count": intersection,
        "conflict_count": conflict,
        "resolutions": resolutions,
    }
