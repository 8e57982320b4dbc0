"""CSV ingestion for sentence-pair corpora, per-split error-distribution
analysis, and classifier-informed prompt synthesis.
"""
from __future__ import annotations

import csv
import re

from .classifier import CATEGORY_ORDER, NON_EDITS, PRECEDENCE, classify_pair, display_label
from .errors import InputError
from .reports import read_text
from .textnorm import DEFAULT_POLICY, NormalizationPolicy, normalize_text
from .tokenizer import SYNTAX_LABELS, LanguageProfile

SPLITS = ("train", "dev", "test")

# Accepted header spellings (case-insensitive, trimmed).
INPUT_HEADERS = {"input sentence", "input"}
OUTPUT_HEADERS = {"output sentence", "output"}

# The lines a file opened with newline="" yields, line ends kept, which is
# what csv.reader expects. A StringIO over the whole text would cost four
# bytes per character.
_FILE_LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")


def _resolve_columns(header: list[str], path) -> tuple[int, int]:
    names = [h.strip().lower() for h in header]
    in_idx = out_idx = None
    for i, name in enumerate(names):
        if name in INPUT_HEADERS and in_idx is None:
            in_idx = i
        elif name in OUTPUT_HEADERS and out_idx is None:
            out_idx = i
    if in_idx is None or out_idx is None:
        raise InputError(
            f"{path}: header {header!r} does not name the two required columns "
            f"(expected one of {sorted(INPUT_HEADERS)} and one of {sorted(OUTPUT_HEADERS)})"
        )
    return in_idx, out_idx


def load_pairs(path, policy: NormalizationPolicy = DEFAULT_POLICY) -> list[tuple[str, str]]:
    """Read a two-column CSV into normalized (input, output) pairs, in data
    row order, so a pair's index is its 0-based data row.

    Null entries stay as empty strings (the classifier maps them to
    Null/Empty).
    """
    # One leading byte-order mark is not part of the header.
    text = read_text(path, newline="").removeprefix("\ufeff")
    reader = csv.reader(m.group() for m in _FILE_LINE.finditer(text))
    pairs: list[tuple[str, str]] = []
    try:
        header = next(reader, None)
        if header is None:
            raise InputError(f"{path}: empty file, expected a CSV header row")
        in_idx, out_idx = _resolve_columns(header, path)
        for row_idx, row in enumerate(reader):
            if len(row) != len(header):
                raise InputError(
                    f"{path}: row {row_idx}: expected {len(header)} fields, got {len(row)}"
                )
            pairs.append(
                (normalize_text(row[in_idx], policy), normalize_text(row[out_idx], policy))
            )
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from exc
    return pairs


def analyze(pairs: list[tuple[str, str]], profile: LanguageProfile, split: str) -> dict:
    """Classify every pair of one split and tally categories into the
    distribution report body; totals include Null/Empty so they equal the
    ingested pair count."""
    if split not in SPLITS:
        raise InputError(f"unknown split: {split!r} (expected one of {SPLITS})")
    if not pairs:
        raise InputError("no pairs to analyze")
    counts = dict.fromkeys(CATEGORY_ORDER, 0)
    for inp, out in pairs:
        counts[classify_pair(inp, out, profile)[0]] += 1
    return {
        "lang": profile.name,
        "split": split,
        "total": len(pairs),
        "counts": counts,
        "display_labels": {cat: display_label(cat, profile.name) for cat in CATEGORY_ORDER},
        "precedence_order": list(PRECEDENCE),
    }


def _check_report(report) -> None:
    """Reject any report body that analyze could not have written."""
    if not isinstance(report, dict) or not isinstance(report.get("counts"), dict):
        raise InputError("bad distribution report: 'counts' must be a JSON object")
    lang, split, total = report.get("lang"), report.get("split"), report.get("total")
    if not isinstance(lang, str) or lang not in SYNTAX_LABELS:
        raise InputError(
            f"bad distribution report: 'lang' must be one of {sorted(SYNTAX_LABELS)}, "
            f"got {lang!r}"
        )
    if split not in SPLITS:
        raise InputError(
            f"bad distribution report: 'split' must be one of {list(SPLITS)}, got {split!r}"
        )
    numbers = {"total": total} | {
        f"counts[{name!r}]": count for name, count in report["counts"].items()
    }
    for key, value in numbers.items():
        if type(value) is not int:  # not a float, bool, string or null
            raise InputError(
                f"bad distribution report: {key} must be an integer, got {value!r}"
            )
        if value < 0:
            raise InputError(f"bad distribution report: {key} must be >= 0, got {value}")
    if total == 0:  # analyze raises on an empty corpus instead
        raise InputError("bad distribution report: 'total' must be >= 1, got 0")
    for name in report["counts"]:
        if name not in CATEGORY_ORDER:
            raise InputError(
                f"bad distribution report: 'counts': {name!r} is not a category "
                f"(expected keys among {list(CATEGORY_ORDER)})"
            )
    counted = sum(report["counts"].values())
    if counted != total:
        raise InputError(
            f"bad distribution report: 'counts' sum to {counted}, but 'total' is {total}"
        )


# Error categories a correction prompt can meaningfully emphasize.
_PROMOTED = ("punct_whitespace", "morphology")
DEPRIORITIZED = ("word_order", "missing_extra_word")

CONSTRAINT_CLAUSES = (
    "Make the fewest possible edits.",
    "Do not paraphrase and do not translate.",
    "Preserve numerals and named entities exactly.",
    "End the sentence with its appropriate terminal punctuation mark.",
)

_LANGUAGE_NAMES = {"hi": "Hindi", "ml": "Malayalam"}

_DEPRIORITIZED_NOTES = {
    "word_order": "do not reorder words unless the sentence is ungrammatical as written",
    "missing_extra_word": "do not add or delete words unless strictly required",
}

_PROMPT_TEMPLATE = """\
You are a careful grammatical error correction system for {language}.
Rewrite the input sentence so that it is grammatically correct while changing as little as possible.

Give priority to fixing, in this order:
{priorities}

Handle with caution:
{cautions}

Rules:
{rules}

Return only the corrected sentence, nothing else.
"""


def synthesize_prompt(report: dict) -> str:
    """Render a distribution report body, as analyze returns it or as read
    back from its file, as the fixed correction prompt text. A report that
    analyze could not have written raises InputError; a category missing
    from its counts reads as 0.

    Categories are ordered by descending count, ties broken by the order
    the classifier tests them (PRECEDENCE), with Punctuation/Whitespace and
    Morphology promoted to the front when present; pure reorderings and word
    additions/deletions are always listed as deprioritized. The text is a
    pure function of the report.
    """
    _check_report(report)
    lang, counts = report["lang"], report["counts"]
    by_count = sorted(  # stable, so ties keep PRECEDENCE order
        (cat for cat in PRECEDENCE if cat not in NON_EDITS and counts.get(cat, 0) > 0),
        key=lambda cat: -counts[cat],
    )
    promoted = [cat for cat in _PROMOTED if counts.get(cat, 0) > 0]
    prioritized = promoted + [cat for cat in by_count if cat not in promoted]
    priorities = "\n".join(
        f"  {i}. {display_label(cat, lang)}" for i, cat in enumerate(prioritized, start=1)
    ) or "  (no category emphasis)"
    cautions = "\n".join(
        f"  - {display_label(cat, lang)}: {_DEPRIORITIZED_NOTES[cat]}" for cat in DEPRIORITIZED
    )
    rules = "\n".join(f"  - {clause}" for clause in CONSTRAINT_CLAUSES)
    return _PROMPT_TEMPLATE.format(
        language=_LANGUAGE_NAMES[lang],
        priorities=priorities,
        cautions=cautions,
        rules=rules,
    )
