import csv
import dataclasses
import random
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gec_forge import (
    DigitPolicy,
    ErrorCategory,
    InputError,
    NormalizationPolicy,
    analyze,
    load_pairs,
    synthesize_prompt,
)
from gec_forge.corpus import CONSTRAINT_CLAUSES, DEPRIORITIZED, DistributionReport

C = ErrorCategory
FIXTURE = Path(__file__).parent / "fixtures" / "hi_fixture.csv"

FIXTURE_TALLY = {
    C.NULL_EMPTY: 1,
    C.NO_ERROR: 1,
    C.PUNCT_WHITESPACE: 2,
    C.WORD_ORDER: 1,
    C.MISSING_EXTRA_WORD: 1,
    C.SYNTAX_AGREEMENT: 1,
    C.MORPHOLOGY: 1,
    C.SPELLING: 1,
    C.GRAMMAR_SYNTAX: 1,
}


def _write_csv(path, rows, header="Input sentence,Output sentence"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


def test_load_fixture_rows():
    pairs = load_pairs(FIXTURE)
    assert len(pairs) == 10
    assert [p.row for p in pairs] == list(range(10))
    assert pairs[0].input == ""  # null entry retained as empty string


def test_three_row_file(tmp_path):
    path = _write_csv(tmp_path / "t.csv", ["क,ख", "ग,घ", "ङ,च"])
    pairs = load_pairs(path)
    assert [(p.input, p.output, p.row) for p in pairs] == [
        ("क", "ख", 0), ("ग", "घ", 1), ("ङ", "च", 2)
    ]


def test_headers_matched_by_name_any_order(tmp_path):
    path = _write_csv(tmp_path / "t.csv", ["सही,गलत"],
                      header="Output sentence,Input sentence")
    pairs = load_pairs(path)
    assert pairs[0].input == "गलत" and pairs[0].output == "सही"


def test_first_of_two_columns_wins(tmp_path):
    path = _write_csv(tmp_path / "t.csv", ["सही,गलत,दूसरा,तीसरा"],
                      header="Output sentence,Input sentence,output,input")
    pairs = load_pairs(path)
    assert (pairs[0].input, pairs[0].output) == ("गलत", "सही")


def test_wrong_header_names_rejected(tmp_path):
    path = _write_csv(tmp_path / "t.csv", ["क,ख"], header="source,target")
    with pytest.raises(InputError) as exc:
        load_pairs(path)
    assert "Input sentence".lower() in str(exc.value).lower()


def test_ragged_row_rejected_with_row_number(tmp_path):
    path = _write_csv(tmp_path / "t.csv", ["क,ख", "ग"])
    with pytest.raises(InputError) as exc:
        load_pairs(path)
    assert "row 1" in str(exc.value)


def test_invalid_utf8_reports_offset(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes("Input sentence,Output sentence\nक,".encode("utf-8") + b"\xff\n")
    with pytest.raises(InputError) as exc:
        load_pairs(path)
    assert "offset" in str(exc.value)


def test_invalid_utf8_offset_counts_from_start_of_file(tmp_path):
    # The bad byte lies past the decoder's first 8 KiB chunk.
    good = ("Input sentence,Output sentence\n" + "क,ख\n" * 3000).encode("utf-8")
    path = tmp_path / "bad.csv"
    path.write_bytes(good + b"\xff\n")
    with pytest.raises(InputError) as exc:
        load_pairs(path)
    assert str(exc.value).endswith(f"at offset {len(good)}")


# Leaves the cells below as they are: NFKC does not change these characters.
_RAW = NormalizationPolicy(strip_invisibles=False, collapse_whitespace=False,
                           digit_policy=DigitPolicy.KEEP_NATIVE)


@settings(max_examples=300)
@given(body=st.text(alphabet='ab,"\r\n\x0b\x1c\u2028\u0085 ', max_size=40))
def test_rows_and_cells_match_csv_reading_the_file(body):
    # Only \r, \n and \r\n end a line; \x0b, \x1c, \u2028 and \u0085
    # stay inside cells.
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(("input,output\n" + body).encode("utf-8"))
        with open(path, encoding="utf-8", newline="") as fh:
            try:
                want = list(csv.reader(fh))[1:]
            except csv.Error:
                want = None
        if want is not None and any(len(row) != 2 for row in want):
            want = None
        try:
            got = [[pair.input, pair.output] for pair in load_pairs(path, _RAW)]
        except InputError as exc:  # a csv error or a ragged row, not the header
            assert re.search(r": (row|line) \d+: ", str(exc))
            got = None
    assert got == want


def test_normalization_applied(tmp_path):
    path = _write_csv(tmp_path / "t.csv", ["क‍ख  ग,१२"])
    pairs = load_pairs(path)
    assert pairs[0].input == "कख ग"
    assert pairs[0].output == "12"


def test_pairs_and_reports_are_frozen(tmp_path, hi):
    pairs = load_pairs(_write_csv(tmp_path / "t.csv", ["क,ख"]))
    report = analyze(pairs, hi, "train")
    with pytest.raises(dataclasses.FrozenInstanceError):
        pairs[0].output = "क"
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.total = 2


def test_unknown_split_rejected(tmp_path, hi):
    path = _write_csv(tmp_path / "t.csv", ["क,ख"])
    with pytest.raises(InputError):
        analyze(load_pairs(path), hi, "eval")


def test_analyze_fixture_tally(hi):
    pairs = load_pairs(FIXTURE)
    report = analyze(pairs, hi, "train")
    assert report.total == 10
    assert report.counts == FIXTURE_TALLY
    assert sum(report.counts.values()) == report.total


def test_analyze_order_invariant(hi):
    pairs = load_pairs(FIXTURE)
    shuffled = pairs[:]
    random.Random(5).shuffle(shuffled)
    assert analyze(shuffled, hi, "train").counts == analyze(pairs, hi, "train").counts


def test_analyze_rejects_empty(hi):
    with pytest.raises(InputError):
        analyze([], hi, "train")


def test_report_dict_round_trip(hi):
    report = analyze(load_pairs(FIXTURE), hi, "train")
    again = DistributionReport.from_dict(report.to_dict())
    assert again.counts == report.counts
    assert again.total == report.total
    assert again.lang == "hi" and again.split == "train"


def test_report_missing_category_reads_zero():
    report = DistributionReport.from_dict(
        {"lang": "hi", "split": "train", "total": 2, "counts": {"spelling": 2}}
    )
    assert report.counts == {cat: 2 if cat is C.SPELLING else 0 for cat in C}


def _report(counts, lang="hi", split="train"):
    full = {cat: 0 for cat in C}
    full.update(counts)
    return DistributionReport(lang=lang, split=split, total=sum(full.values()), counts=full)


def _priorities(prompt):
    """Labels of the prompt's numbered priority lines, checked to be
    numbered 1, 2, ... in order."""
    lines = re.findall(r"^  (\d+)\. (.+)$", prompt, flags=re.MULTILINE)
    assert [int(number) for number, _ in lines] == list(range(1, len(lines) + 1))
    return [label for _, label in lines]


def _labels(categories, lang):
    return [cat.display_label(lang) for cat in categories]


def test_prompt_priorities_sorted_with_promotion():
    # Distribution shaped like a real Hindi training split: punctuation and
    # morphology promoted, everything else by descending count.
    report = _report({
        C.NULL_EMPTY: 1, C.PUNCT_WHITESPACE: 199, C.WORD_ORDER: 15,
        C.MISSING_EXTRA_WORD: 129, C.SYNTAX_AGREEMENT: 130, C.MORPHOLOGY: 43,
        C.SPELLING: 22, C.GRAMMAR_SYNTAX: 8, C.NO_ERROR: 53,
    })
    prompt = synthesize_prompt(report)
    assert _priorities(prompt) == _labels((
        C.PUNCT_WHITESPACE, C.MORPHOLOGY, C.SYNTAX_AGREEMENT,
        C.MISSING_EXTRA_WORD, C.SPELLING, C.WORD_ORDER, C.GRAMMAR_SYNTAX,
    ), "hi")
    assert DEPRIORITIZED == (C.WORD_ORDER, C.MISSING_EXTRA_WORD)
    cautions = prompt.split("Handle with caution:\n", 1)[1].split("\n\n", 1)[0]
    assert re.findall(r"^  - ([^:]+):", cautions, flags=re.MULTILINE) == _labels(
        DEPRIORITIZED, "hi"
    )
    assert len(CONSTRAINT_CLAUSES) == 4
    assert "Syntax/Case/Agreement" in prompt


def test_prompt_ties_break_by_precedence_order():
    report = _report({C.SPELLING: 5, C.WORD_ORDER: 5, C.GRAMMAR_SYNTAX: 5})
    prompt = synthesize_prompt(report)
    assert _priorities(prompt) == _labels((C.WORD_ORDER, C.SPELLING, C.GRAMMAR_SYNTAX), "hi")
    # The classifier tests syntax before missing/extra word, unlike enum order.
    prompt = synthesize_prompt(_report({C.MISSING_EXTRA_WORD: 3, C.SYNTAX_AGREEMENT: 3}))
    assert _priorities(prompt) == _labels((C.SYNTAX_AGREEMENT, C.MISSING_EXTRA_WORD), "hi")


def test_prompt_degenerate_distribution():
    report = _report({C.NO_ERROR: 7})
    prompt = synthesize_prompt(report)
    assert _priorities(prompt) == []
    assert "(no category emphasis)" in prompt
    assert all(f"  - {clause}\n" in prompt for clause in CONSTRAINT_CLAUSES)


def test_prompt_rendering_deterministic():
    report = _report({C.PUNCT_WHITESPACE: 18, C.WORD_ORDER: 15, C.MORPHOLOGY: 8,
                      C.SPELLING: 4, C.GRAMMAR_SYNTAX: 3, C.MISSING_EXTRA_WORD: 2},
                     lang="ml", split="dev")
    first = synthesize_prompt(report)
    assert first == synthesize_prompt(report)
    assert _priorities(first) == _labels((
        C.PUNCT_WHITESPACE, C.MORPHOLOGY, C.WORD_ORDER, C.SPELLING,
        C.GRAMMAR_SYNTAX, C.MISSING_EXTRA_WORD,
    ), "ml")
    assert "Malayalam" in first


def test_prompt_of_a_one_pair_report():
    prompt = synthesize_prompt(_report({C.SPELLING: 1}))
    assert _priorities(prompt) == _labels((C.SPELLING,), "hi")


def test_prompt_empty_report_rejected():
    with pytest.raises(InputError):
        synthesize_prompt(_report({}))
