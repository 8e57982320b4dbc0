"""Corpus-level GLEU with a single reference per sentence, fixed weights
("without tuning").

Per order n, a sentence contributes
    match_n = max(0, sum_g min(h_g, r_g) - sum_g min(h_g, max(0, s_g - r_g)))
over hypothesis n-gram counts h, reference counts r, and source counts s;
the denominator is the total hypothesis n-gram count. Counts pool over the
corpus before any ratio is taken, and the score is
    BP * exp(mean_n log(match_n / total_n)),  BP = min(1, exp(1 - |ref|/|hyp|))
on pooled token lengths. Any pooled zero tally makes the corpus score 0.
"""
from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from itertools import chain

from .errors import InputError

# Highest accepted n-gram order. Each order costs time, memory and a report
# entry per corpus, and an order longer than every hypothesis pools a zero
# tally, which makes the corpus score 0.
MAX_N_LIMIT = 16

DEFAULT_MAX_N = 4  # the order scored when none is given


def _ngram_counts(tokens: Sequence[str], max_n: int) -> Counter:
    """Counts of the n-grams of every order 1..max_n in one Counter.

    Keys are n-gram tuples, so len(key) is the order; an order longer than
    tokens contributes no keys.
    """
    return Counter(chain.from_iterable(
        zip(*[tokens[k:] for k in range(n)]) for n in range(1, max_n + 1)
    ))


def _sentence_tallies(src, hyp, ref, max_n):
    """Per-order (match, total) pairs for one sentence.

    One pass over the hypothesis n-grams of all orders adds
    min(h, r) - min(h, max(0, s - r)) to its order's net; each order's net
    is then clipped at zero separately.
    """
    r_counts = _ngram_counts(ref, max_n)
    s_counts = _ngram_counts(src, max_n)
    net = [0] * (max_n + 1)
    for gram, h in _ngram_counts(hyp, max_n).items():
        r = r_counts.get(gram, 0)
        overlap = h if h < r else r
        # Penalize hypothesis n-grams that echo source material the
        # reference removed.
        extra = s_counts.get(gram, 0) - r
        penalty = (h if h < extra else extra) if extra > 0 else 0
        net[len(gram)] += overlap - penalty
    return [(max(net[n], 0), max(len(hyp) - n + 1, 0)) for n in range(1, max_n + 1)]


def _score(tallies, hyp_len: int, ref_len: int, smooth: bool) -> float:
    """Combine pooled tallies into a score; smoothing (sentence-level only)
    replaces zero tallies and lengths with one."""
    nums = [m for m, _ in tallies]
    dens = [t for _, t in tallies]
    if smooth:
        nums = [m or 1 for m in nums]
        dens = [t or 1 for t in dens]
        hyp_len = hyp_len or 1
        ref_len = ref_len or 1
    if hyp_len == 0 or any(m == 0 for m in nums) or any(t == 0 for t in dens):
        return 0.0
    log_precision = sum(math.log(m / t) for m, t in zip(nums, dens)) / len(tallies)
    brevity = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    return brevity * math.exp(log_precision)


def gleu_corpus(
    sources: Sequence[str],
    hypotheses: Sequence[str],
    references: Sequence[str],
    max_n: int = DEFAULT_MAX_N,
) -> dict:
    """Score a corpus of whitespace-tokenizable lines; returns the GLEU
    report body.

    Lines are split on whitespace as-is; apply textnorm normalization
    upstream when scoring should ignore script-specific surface variation.
    """
    if not (len(sources) == len(hypotheses) == len(references)):
        raise InputError(
            f"source/hypothesis/reference lengths differ: "
            f"{len(sources)}/{len(hypotheses)}/{len(references)}"
        )
    if not sources:
        raise InputError("empty corpus")
    if not 1 <= max_n <= MAX_N_LIMIT:
        raise InputError(f"max_n must be in 1..{MAX_N_LIMIT}, got {max_n}")

    pooled = [[0, 0] for _ in range(max_n)]
    hyp_tokens = ref_tokens = 0
    per_sentence = []
    for src_line, hyp_line, ref_line in zip(sources, hypotheses, references):
        src, hyp, ref = src_line.split(), hyp_line.split(), ref_line.split()
        tallies = _sentence_tallies(src, hyp, ref, max_n)
        for slot, (m, t) in zip(pooled, tallies):
            slot[0] += m
            slot[1] += t
        per_sentence.append(_score(tallies, len(hyp), len(ref), smooth=True))
        hyp_tokens += len(hyp)
        ref_tokens += len(ref)

    corpus_score = _score([tuple(s) for s in pooled], hyp_tokens, ref_tokens, smooth=False)
    return {
        "corpus_score": corpus_score,
        "corpus_score_x100": round(corpus_score * 100, 2),
        "per_sentence": per_sentence,
        "max_n": max_n,
        "ngram_stats": [
            {"n": n, "matches": m, "hyp_ngrams": t} for n, (m, t) in enumerate(pooled, start=1)
        ],
        "hyp_tokens": hyp_tokens,
        "ref_tokens": ref_tokens,
    }
