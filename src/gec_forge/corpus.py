"""CSV ingestion for sentence-pair corpora, per-split error-distribution
analysis, and classifier-informed prompt synthesis.
"""
from __future__ import annotations

import csv
import re
from dataclasses import dataclass

from .classifier import CATEGORY_ORDER, NON_EDITS, PRECEDENCE, ErrorCategory, classify_pair
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


@dataclass(frozen=True)
class SentencePair:
    input: str
    output: str
    row: int  # 0-based data-row index in the source CSV


@dataclass(frozen=True)
class DistributionReport:
    lang: str
    split: str
    total: int
    counts: dict  # ErrorCategory -> int, every category present

    def to_dict(self) -> dict:
        return {
            "lang": self.lang,
            "split": self.split,
            "total": self.total,
            "counts": {cat.value: self.counts[cat] for cat in CATEGORY_ORDER},
            "display_labels": {
                cat.value: cat.display_label(self.lang) for cat in CATEGORY_ORDER
            },
            "precedence_order": [cat.value for cat in PRECEDENCE],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DistributionReport":
        """Read a report as to_dict writes it, rejecting any report that
        analyze could not have written."""
        if not isinstance(data, dict) or not isinstance(data.get("counts"), dict):
            raise InputError("bad distribution report: 'counts' must be a JSON object")
        lang, split, total = data.get("lang"), data.get("split"), data.get("total")
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
            f"counts[{name!r}]": count for name, count in data["counts"].items()
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
        try:
            counts = {ErrorCategory(name): count for name, count in data["counts"].items()}
        except ValueError as exc:
            raise InputError(
                f"bad distribution report: 'counts': {exc} "
                f"(expected keys among {[cat.value for cat in CATEGORY_ORDER]})"
            ) from exc
        counted = sum(counts.values())
        if counted != total:
            raise InputError(
                f"bad distribution report: 'counts' sum to {counted}, but 'total' is {total}"
            )
        return cls(lang=lang, split=split, total=total,
                   counts={cat: counts.get(cat, 0) for cat in CATEGORY_ORDER})


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


def load_pairs(path, policy: NormalizationPolicy = DEFAULT_POLICY) -> list[SentencePair]:
    """Read a two-column CSV into normalized SentencePairs.

    Null entries stay as empty strings (the classifier maps them to
    Null/Empty).
    """
    # One leading byte-order mark is not part of the header.
    text = read_text(path, newline="").removeprefix("\ufeff")
    reader = csv.reader(m.group() for m in _FILE_LINE.finditer(text))
    pairs: list[SentencePair] = []
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
                SentencePair(
                    input=normalize_text(row[in_idx], policy),
                    output=normalize_text(row[out_idx], policy),
                    row=row_idx,
                )
            )
    except csv.Error as exc:  # e.g. a cell over csv.field_size_limit()
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from exc
    return pairs


def analyze(
    pairs: list[SentencePair], profile: LanguageProfile, split: str
) -> DistributionReport:
    """Classify every pair of one split and tally categories; totals include
    Null/Empty so they equal the ingested pair count."""
    if split not in SPLITS:
        raise InputError(f"unknown split: {split!r} (expected one of {SPLITS})")
    if not pairs:
        raise InputError("no pairs to analyze")
    counts = {cat: 0 for cat in CATEGORY_ORDER}
    for pair in pairs:
        counts[classify_pair(pair.input, pair.output, profile).category] += 1
    return DistributionReport(lang=profile.name, split=split, total=len(pairs), counts=counts)


# Error categories a correction prompt can meaningfully emphasize.
_PROMOTED = (ErrorCategory.PUNCT_WHITESPACE, ErrorCategory.MORPHOLOGY)
DEPRIORITIZED = (ErrorCategory.WORD_ORDER, ErrorCategory.MISSING_EXTRA_WORD)

CONSTRAINT_CLAUSES = (
    "Make the fewest possible edits.",
    "Do not paraphrase and do not translate.",
    "Preserve numerals and named entities exactly.",
    "End the sentence with its appropriate terminal punctuation mark.",
)

_LANGUAGE_NAMES = {"hi": "Hindi", "ml": "Malayalam"}

_DEPRIORITIZED_NOTES = {
    ErrorCategory.WORD_ORDER: "do not reorder words unless the sentence is ungrammatical as written",
    ErrorCategory.MISSING_EXTRA_WORD: "do not add or delete words unless strictly required",
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


def synthesize_prompt(report: DistributionReport) -> str:
    """Render a distribution report as the fixed correction prompt text.

    Categories are ordered by descending count, ties broken by the order
    the classifier tests them (PRECEDENCE), with Punctuation/Whitespace and
    Morphology promoted to the front when present; pure reorderings and word
    additions/deletions are always listed as deprioritized. The text is a
    pure function of the report.
    """
    if report.total <= 0:
        raise InputError("cannot synthesize a prompt from an empty report")
    by_count = sorted(  # stable, so ties keep PRECEDENCE order
        (cat for cat in PRECEDENCE if cat not in NON_EDITS and report.counts[cat] > 0),
        key=lambda cat: -report.counts[cat],
    )
    promoted = [cat for cat in _PROMOTED if report.counts[cat] > 0]
    prioritized = promoted + [cat for cat in by_count if cat not in promoted]
    labels = {cat: cat.display_label(report.lang) for cat in CATEGORY_ORDER}
    priorities = "\n".join(
        f"  {i}. {labels[cat]}" for i, cat in enumerate(prioritized, start=1)
    ) or "  (no category emphasis)"
    cautions = "\n".join(
        f"  - {labels[cat]}: {_DEPRIORITIZED_NOTES[cat]}" for cat in DEPRIORITIZED
    )
    rules = "\n".join(f"  - {clause}" for clause in CONSTRAINT_CLAUSES)
    return _PROMPT_TEMPLATE.format(
        language=_LANGUAGE_NAMES[report.lang],
        priorities=priorities,
        cautions=cautions,
        rules=rules,
    )
