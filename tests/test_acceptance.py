"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` for the line-per-criterion
view. The distribution-reproduction criterion uses the official datasets when
INDICGEC_DATA_DIR points at them and otherwise falls back to the bundled
synthetic fixture, whose tally must match exactly.
"""
import itertools
import json
import os
import random
import time
import unicodedata
from pathlib import Path

import pytest

from gec_forge import (
    CATEGORY_ORDER,
    align,
    alnum_projection,
    analyze,
    classify_pair,
    gleu_corpus,
    levenshtein,
    load_pairs,
    normalize_text,
    postprocess_hypothesis,
    profile_for,
)
from gec_forge.cli import run
from gec_forge.textnorm import POLICY_CHOICES, NormalizationPolicy

from _gen import random_pairs
from _oracles import (
    apply_opcodes,
    gleu_brute,
    levenshtein_recursive,
    profile_dict,
    projection_filter,
    validate_opcodes,
)
from _oracles import classify_evidence as straightline_evidence

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def _announce(name):
    print(f"ACCEPTANCE PASS: {name}")


# --- Criterion 1: classifier precedence suite -------------------------------

CATEGORY_FIXTURES_HI = [
    ("", "कुछ नहीं", "null_empty"),
    ("वाक्य", "NaN", "null_empty"),
    ("वही वाक्य।", "वही वाक्य।", "no_error"),
    ("12 km", "12 km", "no_error"),
    ("नमस्ते ।", "नमस्ते.", "punct_whitespace"),
    ("क  ख", "क ख", "punct_whitespace"),
    ("शब्द एक दो", "दो शब्द एक", "word_order"),
    ("एक दो तीन ।", "तीन एक दो ।", "word_order"),
    ("राम खाता", "राम फल खाता", "missing_extra_word"),
    ("वह घर गया", "वह गया", "missing_extra_word"),
    ("राम खाता", "राम खाता है", "syntax_agreement"),
    ("राम ने खाया", "राम को खाया", "syntax_agreement"),
    ("लड़का सोता", "लड़के सोता", "morphology"),
    ("मेरा कमरा", "मेरे कमरे", "morphology"),
    ("कमल गर", "कमल घर", "spelling"),
    ("राम पुसतक", "राम पुस्तक", "spelling"),
    ("राम पुस्तकालय", "राम विद्यालय", "grammar_syntax"),
    ("वह अत्यधिक", "वह बिल्कुल", "grammar_syntax"),
]

CATEGORY_FIXTURES_ML = [
    ("", "കുറച്ച്", "null_empty"),
    ("അതേ വാക്യം.", "അതേ വാക്യം.", "no_error"),
    ("നന്ദി .", "നന്ദി.", "punct_whitespace"),
    ("അവൻ വീട്ടിൽ പോയി", "വീട്ടിൽ അവൻ പോയി", "word_order"),
    ("അവൻ പോയി", "അവൻ വീട്ടിൽ പോയി", "missing_extra_word"),
    ("അവൻ വന്നു", "അവൻ വന്നു ഇല്ല", "syntax_agreement"),
    ("വീടിൽ നിന്നു", "വീട്ടിൽ നിന്നു", "morphology"),
    ("അവൻ പോയ", "അവൻ പോയി", "spelling"),
    ("അവൻ പുസ്തകം", "അവൻ മാമ്പഴം", "grammar_syntax"),
]

# One constructed conflict per dominance edge; the earlier/stronger rule must
# win each time.
CONFLICT_FIXTURES_HI = [
    # Null/Empty beats No Error even on identical sentinel strings.
    ("nan", "nan", "null_empty"),
    ("", "", "null_empty"),
    # Punct/WS beats Word Order when a duplicate-token sentence only gains
    # punctuation (the non-punct multiset is unchanged and reordered-equal).
    ("एक एक", "एक एक ।", "punct_whitespace"),
    # Word Order beats alignment typing even when an auxiliary moves.
    ("राम है", "है राम", "word_order"),
    # Insert/Delete beats Replace (a morphology-cued replace is present).
    ("लड़का घर", "लड़के घर फल", "missing_extra_word"),
    # Syntax beats Missing/Extra within insert/delete.
    ("राम खाता", "राम फल खाता है", "syntax_agreement"),
    # Syntax beats Morphology within replace.
    ("लड़का है", "लड़के था", "syntax_agreement"),
    # Morphology beats Spelling across replace segments.
    ("लड़का घर कल", "लड़के घर कम", "morphology"),
    # Spelling beats Grammar across replace segments.
    ("कमल गर पुस्तकालय", "कमल घर विद्यालय", "spelling"),
]


def test_criterion_classifier_precedence_suite(hi, ml):
    started = time.perf_counter()
    failures = []
    for inp, out, expected in CATEGORY_FIXTURES_HI + CONFLICT_FIXTURES_HI:
        got = classify_pair(inp, out, hi)[0]
        if got != expected:
            failures.append((inp, out, expected, got))
    for inp, out, expected in CATEGORY_FIXTURES_ML:
        got = classify_pair(inp, out, ml)[0]
        if got != expected:
            failures.append((inp, out, expected, got))
    elapsed = time.perf_counter() - started
    assert not failures, failures
    assert elapsed < 1.0, f"precedence suite took {elapsed:.3f}s"
    per_category = dict.fromkeys(CATEGORY_ORDER, 0)
    for _, _, expected in CATEGORY_FIXTURES_HI + CATEGORY_FIXTURES_ML:
        per_category[expected] += 1
    assert all(n >= 2 for n in per_category.values())
    _announce(
        f"classifier precedence suite "
        f"({len(CATEGORY_FIXTURES_HI) + len(CATEGORY_FIXTURES_ML)} category fixtures, "
        f"{len(CONFLICT_FIXTURES_HI)} conflict fixtures, {elapsed * 1000:.0f} ms)"
    )


# --- Criterion 2: oracle equivalence on 1,000 random pairs ------------------


def test_criterion_classifier_oracle_equivalence(hi, ml):
    disagreements = 0
    total = 0
    for profile, lang, seed in ((hi, "hi", 424242), (ml, "ml", 434343)):
        prof = profile_dict(profile)
        for inp, out in random_pairs(seed, 500, lang):
            total += 1
            if classify_pair(inp, out, profile) != straightline_evidence(inp, out, prof):
                disagreements += 1
    assert total == 1000
    assert disagreements == 0
    _announce("classifier oracle equivalence (1000/1000 random pairs agree on category and evidence)")


# --- Criterion 3: GLEU identity and toy-corpus oracle ------------------------

TOY_SRC = (FIXTURES / "toy_src.txt").read_text(encoding="utf-8").splitlines()
TOY_HYP = (FIXTURES / "toy_hyp.txt").read_text(encoding="utf-8").splitlines()
TOY_REF = (FIXTURES / "toy_ref.txt").read_text(encoding="utf-8").splitlines()
TOY_SCORE = 0.5233175696960528  # frozen output of the brute-force oracle


def test_criterion_gleu_identity():
    lines = ["क ख ग घ ङ च", "अ आ इ ई उ ऊ", "ल व श ष स ह"]
    assert gleu_corpus(lines, lines, lines)["corpus_score"] == 1.0
    src = ["p q r s t", "u v w x y"]
    ref = ["a b c d e", "f g h i j"]
    assert gleu_corpus(src, src, ref)["corpus_score"] == 0.0
    got = gleu_corpus(TOY_SRC, TOY_HYP, TOY_REF, 4)["corpus_score"]
    assert got == pytest.approx(TOY_SCORE, abs=1e-9)
    assert got == pytest.approx(gleu_brute(TOY_SRC, TOY_HYP, TOY_REF, 4), abs=1e-9)
    _announce("GLEU identity, zero, and toy-corpus oracle match (<=1e-9)")


# --- Criterion 4: GLEU property suite on 100 randomized fixtures -------------


def _random_corpus(rng):
    vocab = "abcdefgh"

    def sentence():
        return " ".join(rng.choice(vocab) for _ in range(rng.randint(4, 9)))

    n = rng.randint(1, 5)
    src = [sentence() for _ in range(n)]
    ref = [sentence() for _ in range(n)]
    hyp = []
    for r in ref:
        tokens = r.split()
        for _ in range(rng.randint(0, 2)):
            tokens[rng.randrange(len(tokens))] = rng.choice(vocab)
        hyp.append(" ".join(tokens))
    return src, hyp, ref


def test_criterion_gleu_property_suite():
    rng = random.Random(616161)
    for _ in range(100):
        src, hyp, ref = _random_corpus(rng)
        once = gleu_corpus(src, hyp, ref)["corpus_score"]
        assert gleu_corpus(src * 2, hyp * 2, ref * 2)["corpus_score"] == once
    rng = random.Random(717171)
    for _ in range(100):
        ref_tokens = [rng.choice("abcdefgh") for _ in range(rng.randint(5, 9))]
        src_tokens = list(ref_tokens)
        pos = rng.randrange(len(src_tokens))
        src_tokens[pos] = "Z"  # the error the reference corrects
        hyp_good = list(ref_tokens)
        before = gleu_corpus([" ".join(src_tokens)], [" ".join(hyp_good)],
                             [" ".join(ref_tokens)])["corpus_score"]
        hyp_bad = list(ref_tokens)
        hyp_bad[pos] = "Z"
        after = gleu_corpus([" ".join(src_tokens)], [" ".join(hyp_bad)],
                            [" ".join(ref_tokens)])["corpus_score"]
        assert after <= before + 1e-12
    _announce("GLEU duplication invariance and source-penalty monotonicity (100+100)")


# --- Criterion 5: Levenshtein exhaustive + align reconstruction --------------


def test_criterion_levenshtein_exhaustive_and_align_reconstruction():
    alphabet = "abc"
    strings = [""]
    for length in range(1, 5):
        strings.extend("".join(p) for p in itertools.product(alphabet, repeat=length))
    assert len(strings) == 121
    for a in strings:
        for b in strings:
            assert levenshtein(a, b) == levenshtein_recursive(a, b)
    rng = random.Random(838383)
    for _ in range(1000):
        a = [rng.choice("abcdef") for _ in range(rng.randint(0, 12))]
        b = [rng.choice("abcdef") for _ in range(rng.randint(0, 12))]
        ops = align(a, b)
        validate_opcodes(ops, a, b)
        assert apply_opcodes(ops, a, b) == b
    _announce("levenshtein exhaustive (14641 pairs) and align reconstruction (1000 pairs)")


# --- Criterion 6: normalizer property suites ---------------------------------

_PUNCT_POOL = " \t।॥.,;:!?()[]\"'-_/"
_CHAR_POOL = (
    "abcXYZ019 \t.,;:!?()।॥​‌‍﻿­"
    "कखगघचजटतदनपबमयरलवशसहािीुूेैोौंँ़्"
    "അആഇഉകഖഗചജടതദനപബമയരലവശസഹാിീുെേൊോംൽൻ്"
    "१२३४५६७८९०൧൨൩ﬁ１ "
)


def _random_policies(rng):
    return NormalizationPolicy(
        invisibles_policy=rng.choice(POLICY_CHOICES["invisibles_policy"]),
        collapse_whitespace=rng.random() < 0.5,
        unify_terminal_punct=rng.random() < 0.5,
        danda_policy=rng.choice(POLICY_CHOICES["danda_policy"]),
        digit_policy=rng.choice(POLICY_CHOICES["digit_policy"]),
    )


def _random_text(rng, pool=_CHAR_POOL, max_len=40):
    return "".join(rng.choice(pool) for _ in range(rng.randint(0, max_len)))


def test_criterion_normalizer_property_suites():
    rng = random.Random(909090)
    for _ in range(1000):
        s = _random_text(rng)
        policy = _random_policies(rng)
        once = normalize_text(s, policy)
        assert normalize_text(once, policy) == once
    for _ in range(1000):
        s = _random_text(rng)
        mutated = s
        for _ in range(rng.randint(1, 5)):
            pos = rng.randint(0, len(mutated))
            mutated = mutated[:pos] + rng.choice(_PUNCT_POOL) + mutated[pos:]
        assert alnum_projection(mutated) == alnum_projection(s)
        assert alnum_projection(s) == projection_filter(s)
    for _ in range(500):
        s = _random_text(rng)
        assert alnum_projection(postprocess_hypothesis(s)) == alnum_projection(s)
    _announce("normalizer idempotence (1000), projection stability (1000), "
              "postprocess projection preservation (500)")


# --- Criterion 7: distribution reproduction ----------------------------------

EXPECTED_FIXTURE_TALLY = {
    "null_empty": 1, "no_error": 1, "punct_whitespace": 2, "word_order": 1,
    "missing_extra_word": 1, "syntax_agreement": 1, "morphology": 1,
    "spelling": 1, "grammar_syntax": 1,
}

# Published reference distributions for the official datasets (with-null
# accounting). Totals are binding; per-category counts are reported
# informationally because they depend on unpublished lexica.
OFFICIAL_SPLITS = {
    ("hi", "train"): (600, {
        "null_empty": 1, "punct_whitespace": 199, "word_order": 15,
        "missing_extra_word": 129, "syntax_agreement": 130, "morphology": 43,
        "spelling": 22, "grammar_syntax": 8, "no_error": 53,
    }),
    ("hi", "dev"): (107, {
        "null_empty": 0, "punct_whitespace": 41, "word_order": 1,
        "missing_extra_word": 17, "syntax_agreement": 19, "morphology": 3,
        "spelling": 2, "grammar_syntax": 2, "no_error": 22,
    }),
    ("ml", "train"): (300, {
        "null_empty": 4, "punct_whitespace": 151, "word_order": 84,
        "missing_extra_word": 20, "syntax_agreement": 1, "morphology": 14,
        "spelling": 8, "grammar_syntax": 16, "no_error": 2,
    }),
    ("ml", "dev"): (50, {
        "null_empty": 0, "punct_whitespace": 18, "word_order": 15,
        "missing_extra_word": 2, "syntax_agreement": 0, "morphology": 8,
        "spelling": 4, "grammar_syntax": 3, "no_error": 0,
    }),
}

_DATA_DIR = os.environ.get("INDICGEC_DATA_DIR")
_LANG_DIRS = {"hi": "hindi", "ml": "malayalam"}


def _official_csv(lang, split):
    if not _DATA_DIR:
        return None
    path = Path(_DATA_DIR) / _LANG_DIRS[lang] / f"{split}.csv"
    return path if path.exists() else None


def test_criterion_distribution_reproduction(hi, ml):
    profiles = {"hi": hi, "ml": ml}
    available = {
        key: _official_csv(*key) for key in OFFICIAL_SPLITS if _official_csv(*key)
    }
    if not available:
        pairs = load_pairs(FIXTURES / "hi_fixture.csv")
        report = analyze(pairs, hi, "train")
        assert report["total"] == 10
        assert report["counts"] == EXPECTED_FIXTURE_TALLY
        _announce("distribution reproduction (synthetic 10-pair fixture, exact tally; "
                  "official CSVs not present)")
        return
    for (lang, split), path in sorted(available.items()):
        expected_total, reference_counts = OFFICIAL_SPLITS[(lang, split)]
        report = analyze(load_pairs(path), profiles[lang], split)
        assert report["total"] == expected_total, (
            f"{lang}/{split}: ingested {report['total']} pairs, expected {expected_total}"
        )
        assert sum(report["counts"].values()) == report["total"]
        diffs = {
            cat: (report["counts"][cat], reference_counts[cat])
            for cat in CATEGORY_ORDER
            if report["counts"][cat] != reference_counts[cat]
        }
        if diffs:
            print(f"NOTE {lang}/{split}: per-category differences vs reference "
                  f"(got, reference): {diffs}")
    _announce(f"distribution reproduction (official splits: {sorted(available)})")


# --- Criterion 8: end-to-end determinism with golden files -------------------


def test_criterion_end_to_end_determinism(tmp_path):
    outputs = []
    for name in ("first", "second"):
        dist = tmp_path / f"dist-{name}.json"
        gleu_report = tmp_path / f"gleu-{name}.json"
        prompt = tmp_path / f"prompt-{name}.txt"
        labels = tmp_path / f"labels-{name}.csv"
        audit = tmp_path / f"audit-{name}.json"
        dual = tmp_path / f"dual-{name}.json"
        assert run(["classify", "--lang", "hi", "--evidence",
                    "--in", str(FIXTURES / "hi_fixture.csv"),
                    "--out", str(labels)]) == 0
        assert run(["analyze", "--lang", "hi", "--split", "train",
                    "--in", str(FIXTURES / "hi_fixture.csv"),
                    "--report", str(dist)]) == 0
        assert run(["score",
                    "--src", str(FIXTURES / "toy_src.txt"),
                    "--hyp", str(FIXTURES / "toy_hyp.txt"),
                    "--ref", str(FIXTURES / "toy_ref.txt"),
                    "--report", str(gleu_report)]) == 0
        assert run(["synth-prompt", "--dist", str(dist),
                    "--out", str(prompt)]) == 0
        assert run(["audit", "--lang", "hi",
                    "--in", str(FIXTURES / "hi_fixture.csv"),
                    "--report", str(audit)]) == 0
        assert run(["audit", "--lang", "hi",
                    "--dual", str(FIXTURES / "hi_fixture.csv"),
                    str(FIXTURES / "hi_fixture_b.csv"),
                    "--report", str(dual)]) == 0
        outputs.append(
            (dist.read_bytes(), gleu_report.read_bytes(), prompt.read_bytes(),
             labels.read_bytes(), audit.read_bytes(), dual.read_bytes())
        )
    assert outputs[0] == outputs[1]
    golden_pairs = [
        (outputs[0][0], GOLDEN / "dist_hi_fixture.json"),
        (outputs[0][1], GOLDEN / "gleu_toy.json"),
        (outputs[0][2], GOLDEN / "prompt_hi_fixture.txt"),
        (outputs[0][3], GOLDEN / "labels_hi_fixture.csv"),
        (outputs[0][4], GOLDEN / "audit_hi_fixture.json"),
        (outputs[0][5], GOLDEN / "dual_audit_hi_fixture.json"),
    ]
    for produced, golden_path in golden_pairs:
        assert produced == golden_path.read_bytes(), f"drift vs {golden_path.name}"
    _announce("end-to-end determinism (repeated runs and golden files byte-identical)")
