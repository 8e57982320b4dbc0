"""Tokenization into script words, digit runs, and punctuation/symbol
residue, plus script membership tests and the per-language profiles.

Tokenization is script-universal across the supported scripts (Devanagari,
Malayalam, Latin) and takes no profile, so code-mixed pairs still align
token-by-token; the profile contributes lexica and labels.

The per-token work runs in C-level regex calls: tokenize() is one findall,
and token_script() one search per script; it accepts any string, token or
not.
"""
from __future__ import annotations

import os
import re
import unicodedata
from dataclasses import dataclass
from typing import Iterable

from .errors import InputError
from .reports import DATA_DIR, read_text

# Script blocks recognized as word material. Danda, abbreviation signs, and
# the archaic Malayalam number/date signs sit inside these blocks but carry
# punctuation/symbol categories, so block membership alone is not enough:
# a script character must also be a letter or combining mark.
SCRIPT_BLOCKS: dict[str, tuple[int, int]] = {
    "deva": (0x0900, 0x097F),
    "mlym": (0x0D00, 0x0D7F),
}
DEVANAGARI_DIGITS = (0x0966, 0x096F)
MALAYALAM_DIGITS = (0x0D66, 0x0D6F)

SYNTAX_LABELS = {"hi": "Syntax/Case/Agreement", "ml": "Syntax/Agreement"}


def _check_lang(lang: str) -> None:
    if lang not in SYNTAX_LABELS:
        raise InputError(f"unknown language: {lang!r} (expected hi or ml)")


@dataclass(frozen=True)
class LanguageProfile:
    """Per-language lexica, immutable after load."""

    name: str  # "hi" | "ml"
    auxiliaries: frozenset[str]
    postpositions: frozenset[str]
    suffixes: tuple[str, ...]  # deduplicated, longest-first

    def __post_init__(self):
        _check_lang(self.name)
        if self.name == "ml" and self.postpositions:
            raise InputError("Malayalam profiles use [suffixes], not [postpositions]")


def _letters_and_marks(lo: int, hi: int) -> str:
    # Letters and combining marks of a block; its digits, danda and signs
    # carry Nd/P*/S* categories and fall to the digit or punct groups.
    return "".join(
        chr(cp) for cp in range(lo, hi + 1)
        if unicodedata.category(chr(cp))[0] in "LM"
    )


_DIGITS = "0-9" + "".join(
    f"{chr(lo)}-{chr(hi)}" for lo, hi in (DEVANAGARI_DIGITS, MALAYALAM_DIGITS)
)
_WORD_CLASSES = {"latn": "A-Za-z"} | {
    script: _letters_and_marks(lo, hi) for script, (lo, hi) in SCRIPT_BLOCKS.items()
}
_NONPUNCT_CHARS = _DIGITS + "".join(_WORD_CLASSES.values())
# A token is a maximal run of one character class, and whitespace only
# separates; anything else that is not whitespace is punct. The classes are
# disjoint, so the non-punct runs of a string are exactly its non-punct
# tokens, in order, and a string holds a class iff one search finds it.
_CLASS_RUNS = [f"[{chars}]+" for chars in (_DIGITS, *_WORD_CLASSES.values())]
_NONPUNCT_RUN = re.compile("|".join(_CLASS_RUNS))
_TOKEN_RE = re.compile("|".join(_CLASS_RUNS + [f"[^\\s{_NONPUNCT_CHARS}]+"]))
_SCRIPT_CHAR = {script: re.compile(f"[{chars}]") for script, chars in _WORD_CLASSES.items()}


def tokenize(s: str) -> list[str]:
    """Split s into maximal same-class runs; whitespace only separates."""
    return _TOKEN_RE.findall(s)


def token_script(tok: str) -> str | None:
    """The one script whose letters or marks occur in tok, or None when
    letters of two scripts occur or none do; digits and punct are ignored."""
    found = [script for script, char in _SCRIPT_CHAR.items() if char.search(tok)]
    return found[0] if len(found) == 1 else None


def same_script(a: str, b: str) -> bool:
    """True iff both tokens' letters fall within the same single script."""
    sa = token_script(a)
    return sa is not None and sa == token_script(b)


def _order_suffixes(suffixes: Iterable[str]) -> tuple[str, ...]:
    # Longest-first, ties lexicographic: one order for any input order, so
    # equal lexica give equal profiles.
    return tuple(sorted(set(suffixes), key=lambda s: (-len(s), s)))


def load_lexicon(path) -> dict[str, list[str]]:
    """Parse a lexicon file: [auxiliaries]/[postpositions]/[suffixes] sections,
    one entry per line, '#' comments."""
    sections: dict[str, list[str]] = {"auxiliaries": [], "postpositions": [], "suffixes": []}
    current: str | None = None
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in sections:
                raise InputError(
                    f"{path}: line {lineno}: unknown section [{name}] "
                    f"(expected {sorted(sections)})"
                )
            current = name
            continue
        if current is None:
            raise InputError(f"{path}: line {lineno}: entry before any [section]")
        sections[current].append(line)
    return sections


def _profile_from_sections(name: str, sections: dict[str, list[str]]) -> LanguageProfile:
    return LanguageProfile(
        name=name,
        auxiliaries=frozenset(sections["auxiliaries"]),
        postpositions=frozenset(sections["postpositions"]),
        suffixes=_order_suffixes(sections["suffixes"]),
    )


def profile_for(lang: str, lexicon_path=None) -> LanguageProfile:
    """Build the profile for hi/ml from a lexicon file, by default the
    bundled one."""
    _check_lang(lang)
    if lexicon_path is None:
        lexicon_path = os.path.join(DATA_DIR, f"{lang}.lexicon")
    sections = load_lexicon(lexicon_path)
    try:
        return _profile_from_sections(lang, sections)
    except InputError as exc:  # e.g. [postpositions] entries under ml
        raise InputError(f"{lexicon_path}: {exc}") from exc
