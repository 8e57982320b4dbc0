import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gec_forge import InputError, gleu_corpus
from gec_forge.gleu import MAX_N_LIMIT

from _oracles import gleu_brute, gleu_tallies

TOY_SRC = ["राम ने कल सेब खाया ।", "वह घर जाता हो ।", "बच्चा पानी पिता है ।"]
TOY_HYP = ["राम ने कल आम खाया ।", "वह घर जाता हो ।", "बच्चा पानी पिया है ।"]
TOY_REF = ["राम ने कल आम खाया ।", "वह घर जाता है ।", "बच्चा पानी पीता है ।"]
# Frozen from the brute-force n-gram oracle on the toy corpus above.
TOY_SCORE = 0.5233175696960528


def test_perfect_hypothesis_scores_exactly_one():
    lines = ["क ख ग घ ङ च", "अ आ इ ई उ ऊ", "प फ ब भ म य"]
    assert gleu_corpus(lines, lines, lines).corpus_score == 1.0


def test_unchanged_hypothesis_with_zero_overlap_scores_zero():
    src = ["p q r s", "t u v w"]
    ref = ["a b c d", "e f g h"]
    assert gleu_corpus(src, src, ref).corpus_score == 0.0


def test_toy_corpus_matches_frozen_oracle_value():
    report = gleu_corpus(TOY_SRC, TOY_HYP, TOY_REF, 4)
    assert report.corpus_score == pytest.approx(TOY_SCORE, abs=1e-9)
    assert report.corpus_score == pytest.approx(
        gleu_brute(TOY_SRC, TOY_HYP, TOY_REF, 4), abs=1e-12
    )


def test_report_structure():
    report = gleu_corpus(TOY_SRC, TOY_HYP, TOY_REF, 4)
    assert report.max_n == 4
    assert len(report.per_sentence) == 3
    assert all(0.0 <= s <= 1.0 for s in report.per_sentence)
    assert [s["n"] for s in report.ngram_stats] == [1, 2, 3, 4]
    assert report.hyp_tokens == sum(len(line.split()) for line in TOY_HYP)
    payload = report.to_dict()
    assert payload["corpus_score_x100"] == round(report.corpus_score * 100, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.corpus_score = 1.0


def test_corpus_score_is_pooled_not_mean():
    report = gleu_corpus(TOY_SRC, TOY_HYP, TOY_REF, 4)
    mean = sum(report.per_sentence) / len(report.per_sentence)
    assert abs(report.corpus_score - mean) > 1e-3


def _random_corpus(rng, sentences=4, vocab="abcdefgh", min_len=4, max_len=9):
    def sentence():
        return " ".join(rng.choice(vocab) for _ in range(rng.randint(min_len, max_len)))

    src = [sentence() for _ in range(sentences)]
    ref = [sentence() for _ in range(sentences)]
    hyp = []
    for s, r in zip(src, ref):
        base = list(r.split())
        for _ in range(rng.randint(0, 2)):
            pos = rng.randrange(len(base))
            base[pos] = rng.choice(vocab)
        hyp.append(" ".join(base))
    return src, hyp, ref


def test_duplication_invariance_on_random_fixtures():
    rng = random.Random(2468)
    for _ in range(100):
        src, hyp, ref = _random_corpus(rng)
        once = gleu_corpus(src, hyp, ref).corpus_score
        twice = gleu_corpus(src * 2, hyp * 2, ref * 2).corpus_score
        assert once == twice


def test_source_match_penalty_monotonicity():
    rng = random.Random(1357)
    for _ in range(100):
        vocab = "abcdefgh"
        ref_tokens = [rng.choice(vocab) for _ in range(rng.randint(5, 9))]
        src_tokens = list(ref_tokens)
        # source keeps an error token that the reference corrected away
        error_token = "Z"
        err_pos = rng.randrange(len(src_tokens))
        src_tokens[err_pos] = error_token
        hyp_tokens = list(ref_tokens)
        before = gleu_corpus(
            [" ".join(src_tokens)], [" ".join(hyp_tokens)], [" ".join(ref_tokens)]
        ).corpus_score
        hyp_tokens[err_pos] = error_token  # undo the correction
        after = gleu_corpus(
            [" ".join(src_tokens)], [" ".join(hyp_tokens)], [" ".join(ref_tokens)]
        ).corpus_score
        assert after <= before + 1e-12


def test_random_corpora_match_brute_oracle():
    rng = random.Random(97531)
    for _ in range(200):
        src, hyp, ref = _random_corpus(rng, sentences=rng.randint(1, 5))
        got = gleu_corpus(src, hyp, ref).corpus_score
        want = gleu_brute(src, hyp, ref)
        assert got == pytest.approx(want, abs=1e-12)


@st.composite
def _small_alphabet_corpora(draw):
    alphabet = "abc"[: draw(st.integers(1, 3))]
    line = st.lists(st.sampled_from(alphabet), max_size=30).map(" ".join)
    triples = draw(st.lists(st.tuples(line, line, line), min_size=1, max_size=4))
    return [list(side) for side in zip(*triples)]


@settings(max_examples=300)
@given(corpus=_small_alphabet_corpora(), max_n=st.integers(1, MAX_N_LIMIT))
def test_tallies_match_oracle_on_every_order(corpus, max_n):
    # Few symbols make n-grams repeat within and across sides, so overlap,
    # penalty and the per-order clip all get exercised, on every order.
    report = gleu_corpus(*corpus, max_n)
    want = gleu_tallies(*corpus, max_n)
    assert report.ngram_stats == tuple(
        {"n": n + 1, "matches": want["matches"][n], "hyp_ngrams": want["hyp_ngrams"][n]}
        for n in range(max_n)
    )
    assert (report.hyp_tokens, report.ref_tokens) == (want["hyp_tokens"], want["ref_tokens"])
    assert report.per_sentence == pytest.approx(want["per_sentence"], rel=0, abs=1e-12)


def test_determinism():
    first = gleu_corpus(TOY_SRC, TOY_HYP, TOY_REF)
    second = gleu_corpus(TOY_SRC, TOY_HYP, TOY_REF)
    assert first == second


def test_length_mismatch_rejected():
    with pytest.raises(InputError):
        gleu_corpus(["a"], ["a", "b"], ["a"])


def test_empty_corpus_rejected():
    with pytest.raises(InputError):
        gleu_corpus([], [], [])


@pytest.mark.parametrize("max_n", [0, -1, MAX_N_LIMIT + 1, 10**6])
def test_max_n_outside_limit_rejected(max_n):
    with pytest.raises(InputError, match="max_n"):
        gleu_corpus(["a"], ["a"], ["a"], max_n=max_n)


def test_max_n_limit_accepted():
    assert MAX_N_LIMIT == 16  # the documented limit; the other tests read the name
    report = gleu_corpus(["a b"], ["a b"], ["a b"], max_n=MAX_N_LIMIT)
    assert len(report.ngram_stats) == MAX_N_LIMIT


def test_short_sentences_zero_not_crash():
    # max_n exceeds every sentence length: a pooled order has no n-grams.
    assert gleu_corpus(["a b"], ["a b"], ["a b"], max_n=4).corpus_score == 0.0
