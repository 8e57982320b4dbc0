"""Token-sequence alignment into edit opcodes, plus the intra-token
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

from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import Sequence

from .errors import InputError
from .tokenizer import LanguageProfile, Token, _text_of

OPCODE_TAGS = ("equal", "insert", "delete", "replace")


@dataclass(frozen=True)
class EditOp:
    tag: str
    a_start: int
    a_end: int
    b_start: int
    b_end: int

    def astuple(self) -> tuple:
        return (self.tag, self.a_start, self.a_end, self.b_start, self.b_end)


@dataclass(frozen=True)
class EditScript:
    """Ordered opcodes whose spans tile both sequences in order."""

    ops: tuple[EditOp, ...]

    def validate(self, a: Sequence, b: Sequence) -> None:
        """Raise InputError unless the script is a well-formed edit of a→b."""
        ai = bi = 0
        prev_tag = None
        for op in self.ops:
            if op.tag not in OPCODE_TAGS:
                raise InputError(f"unknown opcode tag {op.tag!r}")
            if (op.a_start, op.b_start) != (ai, bi):
                raise InputError("opcode spans do not tile the sequences")
            if op.tag == prev_tag:
                raise InputError(f"adjacent {op.tag!r} opcodes are not merged")
            a_len, b_len = op.a_end - op.a_start, op.b_end - op.b_start
            if op.tag == "equal":
                if a_len != b_len or a_len == 0:
                    raise InputError("equal opcode with mismatched or empty spans")
                if list(a[op.a_start:op.a_end]) != list(b[op.b_start:op.b_end]):
                    raise InputError("equal opcode over unequal content")
            elif op.tag == "insert":
                if a_len != 0 or b_len == 0:
                    raise InputError("bad insert spans")
            elif op.tag == "delete":
                if a_len == 0 or b_len != 0:
                    raise InputError("bad delete spans")
            elif op.tag == "replace":
                if a_len == 0 or b_len == 0:
                    raise InputError("bad replace spans")
            ai, bi = op.a_end, op.b_end
            prev_tag = op.tag
        if ai != len(a) or bi != len(b):
            raise InputError("opcodes do not cover both sequences")

    def apply(self, a: Sequence, b: Sequence) -> list:
        """Reconstruct b from a plus the b-side material of the script."""
        out: list = []
        for op in self.ops:
            if op.tag == "equal":
                out.extend(a[op.a_start:op.a_end])
            elif op.tag in ("insert", "replace"):
                out.extend(b[op.b_start:op.b_end])
        return out


def align(a: Sequence, b: Sequence) -> EditScript:
    """Align two sequences of hashable items (token texts, strings, ints)."""
    # autojunk=False: with the default, a side of 200 or more items treats
    # items that occur in over 1% of it as junk, which would change the
    # opcodes of long pairs.
    matcher = SequenceMatcher(None, a, b, autojunk=False)
    return EditScript(tuple(EditOp(*op) for op in matcher.get_opcodes()))


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
    return any(tail_a.endswith(s) or tail_b.endswith(s) for s in suffixes)


def touches_syntax(segment: Sequence[Token | str], profile: LanguageProfile) -> bool:
    """True iff any token in the segment is an auxiliary or postposition."""
    return any(
        _text_of(t) in profile.auxiliaries or _text_of(t) in profile.postpositions
        for t in segment
    )
