"""Alignment of token sequences into difflib edit opcodes, plus the intra-token
comparators (Levenshtein distance, common-prefix suffix-tail test) consumed
by the error classifier.

align() returns the opcodes of difflib's SequenceMatcher with no junk
(autojunk=False, no isjunk), from the same Ratcliff/Obershelp recursion run
on plain tuples. difflib's longest-block scan costs about wa*wb/V steps on a
window of wa by wb items over a vocabulary of V, so wide windows build a
suffix automaton (Blumer et al., "The smallest automaton recognizing the
subwords of a text", 1985) on the window of `b` and walk the window of `a`
along it, at about wa+wb steps; a block wins only by being longer, as in the
scan. A window lies inside its parent, so the scan stops at the first block
as long as the parent's.

levenshtein() is the bit-parallel unit-cost edit distance of Myers (1999),
in the global-distance form of Hyyrö (2003), on Python ints: one column of
the DP matrix is two bit vectors of vertical deltas, updated with about ten
integer operations per item of the longer side.
"""
from __future__ import annotations

from typing import Sequence

from .tokenizer import LanguageProfile

Opcode = tuple[str, int, int, int, int]  # (tag, i1, i2, j1, j2), as difflib

# The scan takes about one step per equal pair a[i] == b[j] of a window, the
# automaton one per item: windows of more cells take it, unless the parent's
# block had one item and the scan stops at the first equal pair.
_AUTOMATON_CELLS = 4096


def align(a: Sequence, b: Sequence) -> list[Opcode]:
    """Align two sequences of hashable items (token texts, strings, ints)
    into difflib opcodes whose spans tile both sequences in order.

    The opcodes equal SequenceMatcher(None, a, b, autojunk=False)
    .get_opcodes(). Each window of `a` against `b` gives up its longest
    common contiguous block, earliest in `a` and then in `b` on ties, and the
    parts left and right of the block become windows in turn, with the
    block's size as their `cap` (-1 at the root). Wide windows are searched
    with a suffix automaton, the others with difflib's scan, which stops at a
    block of size `cap`; both give the same block. No item is junk: with
    difflib's default autojunk, a side of 200 or more items would treat items
    that occur in over 1% of it as junk, which changes the opcodes of long
    pairs. The common prefix and suffix are not trimmed first: on a=[x, y],
    b=[x, q, x, y] the longest block is [x, y], while trimming would keep the
    leading x and insert [q, x].
    """
    la, lb = len(a), len(b)
    b2j: dict = {}
    for j, x in enumerate(b):
        b2j.setdefault(x, []).append(j)
    blocks = []
    windows = [(0, la, 0, lb, -1)]
    while windows:
        alo, ahi, blo, bhi, cap = windows.pop()
        if cap != 1 and (ahi - alo) * (bhi - blo) > _AUTOMATON_CELLS:
            i, j, k = _longest_by_automaton(a, b, alo, ahi, blo, bhi)
        else:
            i, j, k = _longest_by_scan(a, b2j, alo, ahi, blo, bhi, cap)
        if k:
            blocks.append((i, j, k))
            if alo < i and blo < j:
                windows.append((alo, i, blo, j, k))
            if i + k < ahi and j + k < bhi:
                windows.append((i + k, ahi, j + k, bhi, k))
    # difflib merges blocks that touch; without junk no two do. Each block is
    # the longest in its window, so it cannot be extended within the window,
    # and two blocks from windows that do not nest have the block that split
    # them in between.
    blocks.sort()
    blocks.append((la, lb, 0))
    ops: list[Opcode] = []
    i = j = 0
    for ai, bj, size in blocks:
        if i < ai:
            ops.append(("replace" if j < bj else "delete", i, ai, j, bj))
        elif j < bj:
            ops.append(("insert", i, ai, j, bj))
        i, j = ai + size, bj + size
        if size:
            ops.append(("equal", ai, i, bj, j))
    return ops


def _longest_by_scan(a, b2j, alo, ahi, blo, bhi, cap):
    """difflib's find_longest_match without junk: j2len[j] is the length of
    the common run ending at a[i-1] and b[j]. Only a longer run beats the
    best, so ties keep the earliest i, then j; one of size `cap` ends it."""
    besti, bestj, bestsize = alo, blo, 0
    j2len: dict = {}
    for i in range(alo, ahi):
        get = j2len.get
        j2len = {}
        for j in b2j.get(a[i], ()):
            if j < blo:
                continue
            if j >= bhi:
                break
            k = j2len[j] = get(j - 1, 0) + 1
            if k > bestsize:
                besti, bestj, bestsize = i - k + 1, j - k + 1, k
                if k == cap:
                    return besti, bestj, k
    return besti, bestj, bestsize


def _longest_by_automaton(a, b, alo, ahi, blo, bhi):
    """The block _longest_by_scan finds, from a suffix automaton of
    b[blo:bhi] walked along a[alo:ahi].

    The walk keeps the longest suffix of a[alo:i+1] that occurs in the
    window of `b`, and the state's first end gives that suffix's earliest
    occurrence there. Only a longer block beats the best: the first i to
    reach a size is the earliest start in `a`, and the first end its
    earliest start in `b`.
    """
    trans, link, length, first_end = _suffix_automaton(b, blo, bhi)
    besti, bestj, bestsize = alo, blo, 0
    s = k = 0
    for i in range(alo, ahi):
        x = a[i]
        while s and x not in trans[s]:
            s = link[s]
            k = length[s]
        s = trans[s].get(x, 0)
        if s:
            k += 1
            if k > bestsize:
                besti, bestj, bestsize = i - k + 1, first_end[s] - k + 1, k
        else:
            k = 0
    return besti, bestj, bestsize


def _suffix_automaton(seq, lo, hi):
    """The suffix automaton of seq[lo:hi] (Blumer et al. 1985), as parallel
    lists indexed by state: transitions, suffix links, the length of the
    longest string of the state, and the end of that string's first
    occurrence in seq (a clone copies it from the state it splits). State 0
    is the empty string, which has no end and no suffix link."""
    trans: list[dict] = [{}]
    link, length, first_end = [-1], [0], [None]
    last = 0
    for p in range(lo, hi):
        x = seq[p]
        cur = len(length)
        trans.append({})
        link.append(0)
        length.append(length[last] + 1)
        first_end.append(p)
        s = last
        while s != -1 and x not in trans[s]:
            trans[s][x] = cur
            s = link[s]
        if s != -1:
            q = trans[s][x]
            if length[q] == length[s] + 1:
                link[cur] = q
            else:
                clone = len(length)
                trans.append(trans[q].copy())
                link.append(link[q])
                length.append(length[s] + 1)
                first_end.append(first_end[q])
                while s != -1 and trans[s].get(x) == q:
                    trans[s][x] = clone
                    s = link[s]
                link[q] = link[cur] = clone
        last = cur
    return trans, link, length, first_end


def levenshtein(a: Sequence, b: Sequence) -> int:
    """Unit-cost edit distance; works on strings and on token-text lists.

    Myers, "A fast bit-vector algorithm for approximate string matching
    based on dynamic programming" (JACM 1999), with the global-distance
    boundary of Hyyrö, "A bit-vector algorithm for computing Levenshtein and
    Damerau edit distances" (Nordic J. Computing 2003). Bit i of `pv`/`mv`
    says that D[i+1][j] - D[i][j] is +1/-1 in the current column j, with the
    shorter side along i; `peq[x]` marks where x occurs on that side. The
    common prefix and then the common suffix are trimmed first, since edit
    distance does not change under that trim; the cost is O(max(n, m))
    operations on ints of min(n, m) bits, for what is left. Items are
    compared with == in the trim and as dict keys in the loop, so they must
    be hashable.
    """
    if len(a) < len(b):
        a, b = b, a
    lo, n, m = 0, len(a), len(b)
    while lo < m and a[lo] == b[lo]:
        lo += 1
    # The suffix stops at the prefix: "aba" and "aa" share one "a", not two.
    while m > lo and a[n - 1] == b[m - 1]:
        n -= 1
        m -= 1
    a, b = a[lo:n], b[lo:m]
    m -= lo
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
