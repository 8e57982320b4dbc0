import json
import random
from pathlib import Path

import pytest

from gec_forge import (
    CATEGORY_ORDER,
    InputError,
    audit_pair,
    classify_pair,
    dual_report,
    load_pairs,
    reconcile,
)
from gec_forge.audit import STRATA, reordered_token_count

import _oracles as ref
from _gen import HI_WORDS, edit_tokens, long_pairs, mutate, random_pairs

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def test_punct_only_fix_is_redundant(hi):
    audit = audit_pair("नमस्ते ।", "नमस्ते.", hi)
    assert audit["category"] == "punct_whitespace"
    assert audit["stratum"] == "redundant"


@pytest.mark.parametrize("inp,out", [("राम α", "राम β"), ("राम Zo\u00eb", "राम Zo\u00e8")])
def test_edit_outside_the_word_classes_is_redundant(hi, inp, out):
    audit = audit_pair(inp, out, hi)
    assert audit["category"] == "punct_whitespace"
    assert audit["stratum"] == "redundant"
    assert not audit["multiset_preserving_reorder"]


def test_none_input_is_null_empty_with_token_distance(hi):
    audit = audit_pair(None, "राम है", hi)
    assert audit["category"] == "null_empty"
    assert audit["stratum"] == "none"
    assert audit["edit_distance"] == 2


def test_identical_prediction_is_none(hi):
    audit = audit_pair("राम खाता है", "राम खाता है", hi)
    assert audit["stratum"] == "none"
    assert audit["edit_distance"] == 0
    assert not audit["multiset_preserving_reorder"]


def test_blank_prediction_is_none_stratum(hi):
    audit = audit_pair("राम खाता है", "", hi)
    assert audit["category"] == "null_empty"
    assert audit["stratum"] == "none"


def test_full_permutation_is_risky(hi):
    inp = "एक दो तीन चार पाँच छह"
    pred = "छह पाँच चार तीन दो एक"
    audit = audit_pair(inp, pred, hi)
    assert audit["category"] == "word_order"
    assert audit["stratum"] == "risky"
    assert audit["multiset_preserving_reorder"] is True


def test_rectifying_within_cap(hi):
    audit = audit_pair("राम खाता", "राम खाता है", hi, cap=5)
    assert audit["stratum"] == "rectifying"
    assert audit["edit_distance"] == 1
    assert not audit["distance_cap_exceeded"]


def test_cap_boundary_moves_to_risky(hi):
    inp = "क ख ग"
    pred = "घ ङ च छ ज झ"  # token distance 6
    capped = audit_pair(inp, pred, hi, cap=5)
    assert capped["edit_distance"] == 6
    assert capped["stratum"] == "risky"
    assert capped["distance_cap_exceeded"]
    relaxed = audit_pair(inp, pred, hi, cap=6)
    assert relaxed["stratum"] == "rectifying"
    assert not relaxed["distance_cap_exceeded"]  # distance == cap is within it


def test_raising_cap_never_moves_rectifying_to_risky(hi):
    for inp, pred in random_pairs(31337, 200, "hi"):
        low = audit_pair(inp, pred, hi, cap=3)
        high = audit_pair(inp, pred, hi, cap=8)
        if low["stratum"] == "rectifying":
            assert high["stratum"] == "rectifying"


def test_none_stratum_iff_no_edit_category(hi):
    for inp, pred in random_pairs(112233, 300, "hi"):
        audit = audit_pair(inp, pred, hi)
        assert audit["category"] in CATEGORY_ORDER
        assert audit["stratum"] in (*STRATA, "none")
        no_edit = audit["category"] in ("no_error", "null_empty")
        assert (audit["stratum"] == "none") == no_edit
        if audit["multiset_preserving_reorder"]:
            assert audit["category"] == "word_order"


def test_negative_cap_rejected(hi):
    with pytest.raises(InputError):
        audit_pair("क", "ख", hi, cap=-1)
    with pytest.raises(InputError):
        reconcile("क", "ख", "ग", hi, cap=-1)
    with pytest.raises(InputError):
        dual_report([("क", "ख", "ग")], hi, cap=-1)


def test_five_thousand_token_pair_has_exact_distance(hi):
    # Each fresh token occurs nowhere in the source, so it costs at least one
    # edit; k substitutions reach the candidate, so the distance is exactly k.
    rng = random.Random(5000)
    source = [rng.choice(HI_WORDS) for _ in range(5000)]
    positions = range(37, 5000, 250)
    fresh = ["झ" + letter for letter in "कखगघचछजटठडढतथदधनपफबभ"]
    assert len(fresh) == len(positions) and not set(fresh) & set(source)
    candidate = list(source)
    for pos, token in zip(positions, fresh):
        candidate[pos] = token
    inp, pred = " ".join(source), " ".join(candidate)
    assert audit_pair(inp, pred, hi)["edit_distance"] == len(positions)
    assert classify_pair(inp, pred, hi)[0] in CATEGORY_ORDER


def test_reconcile_prefers_rectifying_over_redundant(hi):
    inp = "राम खाता"
    redundant = "राम खाता."
    rectifying = "राम खाता है"
    chosen, reason = reconcile(inp, redundant, rectifying, hi)
    assert chosen == rectifying
    assert reason == "stratum:rectifying"
    # swap-invariant when strata differ
    chosen_swapped, _ = reconcile(inp, rectifying, redundant, hi)
    assert chosen_swapped == rectifying


def test_reconcile_identical_candidates(hi):
    chosen, reason = reconcile("क ख", "क ख ग", "क ख ग", hi)
    assert chosen == "क ख ग"
    assert reason == "identical"


def test_reconcile_lower_distance_wins(hi):
    inp = "राम सेब खाता"
    near = "राम आम खाता"  # one token replaced
    far = "राम आम खाता अच्छा कल"  # replacement plus two insertions
    chosen, reason = reconcile(inp, far, near, hi)
    assert chosen == near
    assert reason == "edit_distance"


def test_reconcile_fewer_moves_wins(hi):
    # Both candidates are rectifying at token distance 3; only the amount of
    # token movement differs.
    inp = "एक दो तीन चार"
    moved = "दो एक तीन पाँच"  # swaps the first two tokens and edits the last
    edited = "एक दो पाँच छह ज"  # local edits only, nothing moves
    assert audit_pair(inp, moved, hi)["edit_distance"] == 3
    assert audit_pair(inp, edited, hi)["edit_distance"] == 3
    assert reordered_token_count(inp, moved, hi) > reordered_token_count(inp, edited, hi)
    chosen, reason = reconcile(inp, moved, edited, hi)
    assert chosen == edited
    assert reason == "reordering"


def test_reconcile_positional_tiebreak(hi):
    inp = "राम सेब खाता"
    cand_a = "राम आम खाता"
    cand_b = "राम फल खाता"
    chosen, reason = reconcile(inp, cand_a, cand_b, hi)
    assert chosen == cand_a
    assert reason == "positional"


def test_none_candidate_is_read_as_empty_text(hi):
    # As in audit_pair, a None candidate is the empty text, never the text "None".
    assert reconcile("राम", None, "None", hi) == ("", "positional")
    assert reconcile("राम", None, "", hi) == ("", "identical")
    assert ref.reconcile("राम", None, "None", ref.profile_dict(hi)) == ("", "positional")
    report = dual_report([("राम", None, "None"), ("राम", "None", None)], hi)
    assert report["resolutions"] == [
        {"row": 0, "chosen": "a", "text": "", "reason": "positional"},
        {"row": 1, "chosen": "a", "text": "None", "reason": "positional"},
    ]


def test_audit_is_the_report_row(hi):
    # audit --in writes each pair's audit_pair dict as its row of "pairs",
    # with the row index added.
    rows = json.loads((GOLDEN / "audit_hi_fixture.json").read_text(encoding="utf-8"))["pairs"]
    pairs = load_pairs(FIXTURES / "hi_fixture.csv")
    assert [audit_pair(inp, out, hi) for inp, out in pairs] == [
        {key: value for key, value in row.items() if key != "row"} for row in rows
    ]


def test_dual_report_hand_tally(hi):
    triples = [
        ("क ख", "क ख", "क ख"),
        ("नमस्ते ।", "नमस्ते.", "नमस्ते ।"),
        ("राम खाता", "राम खाता है", "राम खाता है"),
        ("शब्द एक दो", "दो शब्द एक", "शब्द एक दो ।"),
    ]
    report = dual_report(triples, hi)
    idx = {cat: i for i, cat in enumerate(CATEGORY_ORDER)}
    expected_cells = {
        (idx["no_error"], idx["no_error"]): 1,
        (idx["punct_whitespace"], idx["no_error"]): 1,
        (idx["syntax_agreement"], idx["syntax_agreement"]): 1,
        (idx["word_order"], idx["punct_whitespace"]): 1,
    }
    for i, row in enumerate(report["agreement"]):
        for j, value in enumerate(row):
            assert value == expected_cells.get((i, j), 0)
    assert sum(map(sum, report["agreement"])) == len(triples)
    assert report["union_count"] == 3
    assert report["intersection_count"] == 1
    assert report["conflict_count"] == 1
    # strata cross covers only pairs where both strata are substantive
    assert sum(map(sum, report["strata_cross"])) == 2
    assert report["resolutions"][0]["reason"] == "identical"
    assert report["resolutions"][3]["chosen"] == "b"  # redundant beats risky


def test_dual_report_tells_intersection_from_conflict(hi):
    agree = ("राम खाता", "राम खाता है", "राम खाता है")  # syntax on both sides
    differ = ("शब्द एक दो", "दो शब्द एक", "शब्द एक दो ।")  # word order vs punct
    report = dual_report([agree, agree, differ], hi)
    assert report["union_count"] == 3
    assert report["intersection_count"] == 2
    assert report["conflict_count"] == 1


def test_dual_report_counting_identity(hi):
    triples = [(inp, out, out) for inp, out in random_pairs(777, 60, "hi")]
    report = dual_report(triples, hi)
    assert sum(map(sum, report["agreement"])) == len(triples)
    assert report["intersection_count"] <= report["union_count"]


def test_dual_report_transposes_when_candidates_swap(hi):
    triples = [
        (inp, out_a, out_b)
        for (inp, out_a), (_, out_b) in zip(
            random_pairs(88, 50, "hi"), random_pairs(99, 50, "hi")
        )
    ]
    forward = dual_report(triples, hi)
    backward = dual_report([(i, b, a) for i, a, b in triples], hi)
    transposed = [list(row) for row in zip(*forward["agreement"])]
    assert backward["agreement"] == transposed
    assert backward["union_count"] == forward["union_count"]
    assert backward["conflict_count"] == forward["conflict_count"]


def test_dual_report_identical_candidates_mass_on_no_error(hi):
    triples = [("क ख ग", "क ख ग", "क ख ग")] * 3
    report = dual_report(triples, hi)
    idx = CATEGORY_ORDER.index("no_error")
    assert report["agreement"][idx][idx] == 3
    assert report["union_count"] == 0


def test_dual_report_empty_rejected(hi):
    with pytest.raises(InputError):
        dual_report([], hi)


@pytest.mark.parametrize("lang", ["hi", "ml"])
def test_audit_and_reconcile_match_straight_line_reference(lang, request):
    profile = request.getfixturevalue(lang)
    prof = ref.profile_dict(profile)
    rng = random.Random(2024)
    triples = [(inp, out, mutate(rng, inp, lang)) for inp, out in random_pairs(2024, 1000, lang)]
    reasons = set()
    for inp, cand_a, cand_b in triples:
        for cand in (cand_a, cand_b):
            audit = audit_pair(inp, cand, profile)
            got = (audit["category"], audit["edit_distance"], audit["stratum"])
            assert got == ref.audit(inp, cand, prof), (inp, cand)
        chosen, reason = reconcile(inp, cand_a, cand_b, profile)
        assert (chosen, reason) == ref.reconcile(inp, cand_a, cand_b, prof), (inp, cand_a, cand_b)
        reasons.add(reason.split(":")[0])
    # Every branch of the reconcile order was exercised.
    assert reasons == {"identical", "stratum", "edit_distance", "reordering", "positional"}


def test_long_pairs_match_straight_line_reference(hi, ml):
    # At 200 tokens and more, difflib's autojunk heuristic would treat every
    # word of the small vocabulary as popular and align differently; the
    # package and the reference both align with it off.
    reasons = set()
    for profile, lang in ((hi, "hi"), (ml, "ml")):
        prof = ref.profile_dict(profile)
        pairs = long_pairs(5, 50, lang)
        differ = []
        for k, (inp, out) in enumerate(pairs):
            if classify_pair(inp, out, profile) != ref.classify_evidence(inp, out, prof):
                differ.append(k)
        assert differ == [], lang
        # The reference's token distance is a pure-Python table, so the
        # audit sample stays small.
        rng = random.Random(5)
        for inp, cand_a in pairs[:2]:
            cand_b = edit_tokens(rng, inp, lang)
            for cand in (cand_a, cand_b):
                audit = audit_pair(inp, cand, profile)
                got = (audit["category"], audit["edit_distance"], audit["stratum"])
                assert got == ref.audit(inp, cand, prof), lang
            chosen, reason = reconcile(inp, cand_a, cand_b, profile)
            assert (chosen, reason) == ref.reconcile(inp, cand_a, cand_b, prof), lang
            reasons.add(reason.split(":")[0])
    # Every reason that needs both audits was reached.
    assert reasons == {"stratum", "edit_distance", "reordering"}
