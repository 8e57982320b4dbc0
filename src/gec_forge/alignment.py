"""Alignment of token sequences into difflib edit opcodes, plus the intra-token
comparators (Levenshtein distance, common-prefix suffix-tail test) consumed
by the error classifier.

align() is difflib's Ratcliff/Obershelp matcher with autojunk off: it
anchors on the longest common contiguous block (earliest in `a`, then in `b`,
on ties) and recurses on both sides, with no item ever treated as junk.

levenshtein() is the bit-parallel unit-cost edit distance of Myers (1999),
in the global-distance form of Hyyrö (2003), on Python ints: one column of
the DP matrix is two bit vectors of vertical deltas, updated with about ten
integer operations per item of the longer side. Items are compared as dict
keys, so they must be hashable.
"""
from __future__ import annotations

from difflib import SequenceMatcher
from typing import Sequence

from .tokenizer import LanguageProfile

Opcode = tuple[str, int, int, int, int]  # (tag, i1, i2, j1, j2), as difflib


def align(a: Sequence, b: Sequence) -> list[Opcode]:
    """Align two sequences of hashable items (token texts, strings, ints)
    into difflib opcodes whose spans tile both sequences in order."""
    # autojunk=False: with the default, a side of 200 or more items treats
    # items that occur in over 1% of it as junk, which would change the
    # opcodes of long pairs.
    return SequenceMatcher(None, a, b, autojunk=False).get_opcodes()


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Unit-cost edit distance; works on strings and on token-text lists.

    Myers, "A fast bit-vector algorithm for approximate string matching
    based on dynamic programming" (JACM 1999), with the global-distance
    boundary of Hyyrö, "A bit-vector algorithm for computing Levenshtein and
    Damerau edit distances" (Nordic J. Computing 2003). Bit i of `pv`/`mv`
    says that D[i+1][j] - D[i][j] is +1/-1 in the current column j, with the
    shorter side along i; `peq[x]` marks where x occurs on that side. The
    cost is O(max(n, m)) operations on ints of min(n, m) bits. Items are
    compared as dict keys, so they must be hashable.
    """
    if len(a) < len(b):
        a, b = b, a
    m = len(b)
    if m == 0:
        return len(a)
    peq: dict = {}
    bit = 1
    for x in b:
        peq[x] = peq.get(x, 0) | bit
        bit <<= 1
    mask, last = bit - 1, bit >> 1
    pv, mv, dist = mask, 0, m
    for x in a:
        eq = peq.get(x, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        # Row 0 of the matrix is D[0][j] = j: a +1 enters at the bottom bit.
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return dist


def suffix_tail_change(a: str, b: str, suffixes: Sequence[str]) -> bool:
    """After the longest common prefix, do the tails differ with either tail
    ending in a listed suffix? Symmetric in a and b; False when a == b.

    Prefix comparison is per codepoint, not per grapheme cluster, because the
    suffix cues are codepoint strings.
    """
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    tail_a, tail_b = a[k:], b[k:]
    if tail_a == tail_b:
        return False
    sfx = tuple(suffixes)
    return tail_a.endswith(sfx) or tail_b.endswith(sfx)


def touches_syntax(segment: Sequence[str], profile: LanguageProfile) -> bool:
    """True iff any token in the segment is an auxiliary or postposition."""
    return not (profile.auxiliaries.isdisjoint(segment)
                and profile.postpositions.isdisjoint(segment))
