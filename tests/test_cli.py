import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gec_forge.classifier import CATEGORY_ORDER
from gec_forge.cli import build_parser, run
from gec_forge.gleu import MAX_N_LIMIT
from gec_forge.textnorm import DEFAULT_POLICY, POLICY_KEYS

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_CSV = FIXTURES / "hi_fixture.csv"
GOLDEN_DIST = Path(__file__).parent / "golden" / "dist_hi_fixture.json"
SRC = Path(__file__).parents[1] / "src"
HI_LEXICON = SRC / "gec_forge" / "data" / "hi.lexicon"


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_version(capsys):
    assert run(["--version"]) == 0
    assert "gec-forge" in capsys.readouterr().out


def test_run_leaves_the_root_logger_alone():
    # In a fresh interpreter: pytest's own root handlers would hide a
    # logging.basicConfig call made in this process.
    code = (f"import logging, sys; sys.path.insert(0, {str(SRC)!r}); "
            "import gec_forge.cli; gec_forge.cli.run(['--version']); "
            "print(logging.getLogger().handlers)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


def test_importing_the_cli_does_not_load_hashlib():
    # hashlib loads OpenSSL's _hashlib; only synth-prompt needs it. -I keeps
    # the user's site packages and environment out of the fresh interpreter.
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
            "import gec_forge, gec_forge.cli; "
            "gec_forge.profile_for('hi'); gec_forge.profile_for('ml'); "
            "print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.splitlines()[-1] == "[]"


def test_no_command_prints_usage(capsys):
    assert run([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand(capsys):
    assert run(["frobnicate"]) == 1
    err = capsys.readouterr().err.lower()
    assert "usage" in err


def test_score_identical_files(tmp_path, capsys):
    lines = "क ख ग घ ङ\nअ आ इ ई उ\n"
    src = _write(tmp_path / "s.txt", lines)
    report_path = tmp_path / "r.json"
    code = run(["score", "--src", src, "--hyp", src, "--ref", src,
                "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["corpus_score"] == 1.0
    assert report["schema_version"] == "1"
    assert report["kind"] == "gleu"
    assert capsys.readouterr().out == "GLEU: 1.000000 (100.00)\n"


def test_score_toy_corpus_value(tmp_path, capsys):
    report_path = tmp_path / "toy.json"
    code = run(["score",
                "--src", str(FIXTURES / "toy_src.txt"),
                "--hyp", str(FIXTURES / "toy_hyp.txt"),
                "--ref", str(FIXTURES / "toy_ref.txt"),
                "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["corpus_score"] == pytest.approx(0.5233175696960528, abs=1e-9)
    assert report["corpus_score_x100"] == 52.33


def test_analyze_missing_file(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    code = run(["analyze", "--lang", "hi", "--split", "train",
                "--in", str(missing), "--report", str(tmp_path / "r.json")])
    assert code == 1
    assert str(missing) in capsys.readouterr().err


def test_analyze_fixture_counts(tmp_path):
    report_path = tmp_path / "dist.json"
    code = run(["analyze", "--lang", "hi", "--split", "train",
                "--in", str(FIXTURE_CSV), "--report", str(report_path)])
    assert code == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["total"] == 10
    assert report["counts"]["punct_whitespace"] == 2
    assert sum(report["counts"].values()) == report["total"]
    assert report["normalization"]["digit_policy"] == "to_ascii"


@pytest.mark.parametrize("rows, total, dropped", [
    (["क,ख", "क,ख", "ग,घ"], 2, 1),
    (["क,ख", "ग,घ"], 2, 0),
])
def test_analyze_dedup_names_the_dropped_count(tmp_path, capsys, rows, total, dropped):
    pairs = _write(tmp_path / "t.csv",
                   "Input sentence,Output sentence\n" + "\n".join(rows) + "\n")
    report_path = tmp_path / "dist.json"
    assert run(["analyze", "--lang", "hi", "--split", "train", "--dedup",
                "--in", pairs, "--report", str(report_path)]) == 0
    assert json.loads(report_path.read_text(encoding="utf-8"))["total"] == total
    assert capsys.readouterr().out == (
        f"analyzed {total} pairs ({dropped} exact duplicates dropped) -> {report_path}\n")


def test_classify_then_analyze_consistency(tmp_path, hi):
    labels_path = tmp_path / "labels.csv"
    dist_path = tmp_path / "dist.json"
    assert run(["classify", "--lang", "hi", "--in", str(FIXTURE_CSV),
                "--out", str(labels_path)]) == 0
    assert run(["analyze", "--lang", "hi", "--split", "train",
                "--in", str(FIXTURE_CSV), "--report", str(dist_path)]) == 0
    with open(labels_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    tally: dict = {}
    for row in rows:
        tally[row["category"]] = tally.get(row["category"], 0) + 1
    counts = json.loads(dist_path.read_text(encoding="utf-8"))["counts"]
    assert tally == {k: v for k, v in counts.items() if v}


def test_bom_prefixed_csv_gives_identical_classify_and_analyze(tmp_path):
    bom_csv = tmp_path / "bom.csv"
    bom_csv.write_bytes(b"\xef\xbb\xbf" + FIXTURE_CSV.read_bytes())
    outputs = {}
    for name, path in (("plain", FIXTURE_CSV), ("bom", bom_csv)):
        labels, dist = tmp_path / f"{name}_labels.csv", tmp_path / f"{name}_dist.json"
        assert run(["classify", "--lang", "hi", "--evidence", "--in", str(path),
                    "--out", str(labels)]) == 0
        assert run(["analyze", "--lang", "hi", "--split", "train", "--in", str(path),
                    "--report", str(dist)]) == 0
        outputs[name] = labels.read_bytes(), dist.read_bytes()
    assert outputs["bom"] == outputs["plain"]


def test_classify_evidence_column(tmp_path):
    labels_path = tmp_path / "labels.csv"
    assert run(["classify", "--lang", "hi", "--in", str(FIXTURE_CSV),
                "--out", str(labels_path), "--evidence"]) == 0
    with open(labels_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    evidence = json.loads(rows[0]["evidence"])
    assert evidence["stage"] == 1


# A blank line is a row with no fields: skipping it would renumber the rows
# after it, so it exits 1 as a ragged row.
@pytest.mark.parametrize("rows, row", [("क,ख\n\nग,घ\n", 1), ("क,ख\nग,घ\n\n", 2)],
                         ids=["middle", "trailing"])
def test_blank_line_in_pair_csv_exits_1_naming_file_and_row(tmp_path, capsys, rows, row):
    path = _write(tmp_path / "pairs.csv", "input,output\n" + rows)
    assert run(["classify", "--lang", "hi", "--in", path, "--out", str(tmp_path / "l.csv")]) == 1
    assert f"error: {path}: row {row}: expected 2 fields, got 0\n" in capsys.readouterr().err
    assert not (tmp_path / "l.csv").exists()


def test_normalize_roundtrip(tmp_path):
    src = _write(tmp_path / "in.txt", "क‍ख  ग १२\nवाक्य ।।\n")
    out_path = tmp_path / "out.txt"
    assert run(["normalize", "--in", src, "--out", str(out_path)]) == 0
    assert out_path.read_text(encoding="utf-8") == "कख ग 12\nवाक्य ।।\n"


def test_normalize_post_mode(tmp_path):
    src = _write(tmp_path / "in.txt", "PROMPT: ठीक करो\nवाक्य ।।\n")
    out_path = tmp_path / "out.txt"
    assert run(["normalize", "--in", src, "--out", str(out_path), "--post",
                "--prompt-prefix", "PROMPT: ठीक करो"]) == 0
    assert out_path.read_text(encoding="utf-8") == "\nवाक्य।\n"


def test_normalize_policy_flags(tmp_path):
    src = _write(tmp_path / "in.txt", "क। १२\n")
    out_path = tmp_path / "out.txt"
    assert run(["normalize", "--in", src, "--out", str(out_path),
                "--danda-policy", "map_danda_to_period",
                "--digit-policy", "keep_native"]) == 0
    assert out_path.read_text(encoding="utf-8") == "क. १२\n"


# Each option, and each value of the enum options.
@pytest.mark.parametrize("flags, key, value", [
    ([], None, None),
    (["--danda-policy", "map_danda_to_period"], "danda_policy", "map_danda_to_period"),
    (["--invisibles-policy", "keep"], "invisibles_policy", "keep"),
    (["--digit-policy", "to_ascii"], "digit_policy", "to_ascii"),
    (["--no-collapse-whitespace"], "collapse_whitespace", False),
    (["--unify-terminal-punct"], "unify_terminal_punct", True),
    (["--invisibles-policy", "keep_joiners"], "invisibles_policy", "keep_joiners"),
    (["--danda-policy", "map_period_to_danda"], "danda_policy", "map_period_to_danda"),
    (["--digit-policy", "keep_native"], "digit_policy", "keep_native"),
    (["--danda-policy", "keep_danda"], "danda_policy", "keep_danda"),
    (["--invisibles-policy", "strip"], "invisibles_policy", "strip"),
])
def test_each_policy_flag_sets_exactly_its_key(tmp_path, flags, key, value):
    report_path = tmp_path / "dist.json"
    assert run(["analyze", "--lang", "hi", "--split", "train", "--in", str(FIXTURE_CSV),
                "--report", str(report_path), *flags]) == 0
    expected = asdict(DEFAULT_POLICY)
    if key is not None:
        expected[key] = value
    assert json.loads(report_path.read_text(encoding="utf-8"))["normalization"] == expected


# str.splitlines would also end a line at each of these.
@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                  "\u2028", "\u2029"])
def test_only_newlines_end_a_line(tmp_path, char):
    src = _write(tmp_path / "src.txt", f"राम{char}खाता\nहै\n")
    plain = _write(tmp_path / "plain.txt", "राम खाता\nहै\n")
    out_path = tmp_path / "out.txt"
    assert run(["normalize", "--in", src, "--out", str(out_path)]) == 0
    with open(out_path, encoding="utf-8", newline="") as fh:
        assert len(fh.read().split("\n")) == 3  # two lines, each ending in \n
    report_path = tmp_path / "gleu.json"
    assert run(["score", "--src", src, "--hyp", plain, "--ref", plain,
                "--report", str(report_path)]) == 0
    assert len(json.loads(report_path.read_text(encoding="utf-8"))["per_sentence"]) == 2


def test_crlf_and_cr_still_end_lines(tmp_path):
    src = tmp_path / "in.txt"
    src.write_bytes("क\r\nख\rग\n\n".encode("utf-8"))
    out_path = tmp_path / "out.txt"
    assert run(["normalize", "--in", str(src), "--out", str(out_path)]) == 0
    assert out_path.read_bytes() == "क\nख\nग\n\n".encode("utf-8")


def test_user_lexicon_changes_label(tmp_path):
    # A lexicon without है turns an inserted-auxiliary pair into Missing/Extra.
    lexicon = tmp_path / "tiny.lexicon"
    lexicon.write_text("[auxiliaries]\nथा\n[postpositions]\n[suffixes]\nा\n",
                       encoding="utf-8")
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("Input sentence,Output sentence\nराम खाता,राम खाता है\n",
                     encoding="utf-8")
    out_default = tmp_path / "default.csv"
    out_user = tmp_path / "user.csv"
    assert run(["classify", "--lang", "hi", "--in", str(pairs),
                "--out", str(out_default)]) == 0
    assert run(["classify", "--lang", "hi", "--lexicon", str(lexicon), "--in", str(pairs),
                "--out", str(out_user)]) == 0
    assert "syntax_agreement" in out_default.read_text(encoding="utf-8")
    assert "missing_extra_word" in out_user.read_text(encoding="utf-8")


def test_synth_prompt_writes_prompt_and_hash(tmp_path, capsys):
    dist_path = tmp_path / "dist.json"
    assert run(["analyze", "--lang", "hi", "--split", "train",
                "--in", str(FIXTURE_CSV), "--report", str(dist_path)]) == 0
    prompt_path = tmp_path / "prompt.txt"
    assert run(["synth-prompt", "--dist", str(dist_path),
                "--out", str(prompt_path)]) == 0
    prompt = prompt_path.read_text(encoding="utf-8")
    assert "Hindi" in prompt
    assert "fewest possible edits" in prompt
    digest_line = (tmp_path / "prompt.txt.sha256").read_text(encoding="utf-8")
    import hashlib

    digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
    assert digest_line == f"{digest}  prompt.txt\n"
    assert capsys.readouterr().out.splitlines()[-1] == f"prompt ({digest[:12]}) -> {prompt_path}"


def test_audit_single(tmp_path):
    report_path = tmp_path / "audit.json"
    assert run(["audit", "--lang", "hi", "--in", str(FIXTURE_CSV),
                "--cap", "5", "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["total"] == 10
    assert report["strata_counts"]["redundant"] == 2
    assert len(report["pairs"]) == 10
    # Each fixture pair is audited as classified, so the tally is analyze's.
    assert report["category_counts"] == json.loads(GOLDEN_DIST.read_text("utf-8"))["counts"]


def test_audit_dual(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("Input sentence,Output sentence\nराम खाता,राम खाता है\n",
                 encoding="utf-8")
    b.write_text("Input sentence,Output sentence\nराम खाता,राम खाता.\n",
                 encoding="utf-8")
    report_path = tmp_path / "dual.json"
    assert run(["audit", "--lang", "hi", "--dual", str(a), str(b),
                "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["kind"] == "dual_audit"
    assert report["union_count"] == 1
    assert report["resolutions"][0]["chosen"] == "a"
    # Reports are UTF-8 JSON: sentence text is written as it is, not escaped.
    assert '"text": "राम खाता है"' in report_path.read_text(encoding="utf-8")


def test_audit_dual_mismatched_inputs(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    a.write_text("Input sentence,Output sentence\nक,ख\n", encoding="utf-8")
    b.write_text("Input sentence,Output sentence\nग,घ\n", encoding="utf-8")
    assert run(["audit", "--lang", "hi", "--dual", str(a), str(b),
                "--report", str(tmp_path / "d.json")]) == 1
    assert "row 0" in capsys.readouterr().err


def test_audit_negative_cap_rejected_before_reading_rows(tmp_path, capsys):
    # A header-only CSV has no row for a per-pair check to reject.
    preds = _write(tmp_path / "preds.csv", "Input sentence,Output sentence\n")
    report_path = tmp_path / "audit.json"
    assert run(["audit", "--lang", "hi", "--in", preds, "--cap", "-1",
                "--report", str(report_path)]) == 1
    assert "--cap: must be >= 0, got -1" in capsys.readouterr().err
    assert not report_path.exists()


@pytest.mark.parametrize("command, argv, flag", [
    ("classify", ["--out", "{tmp}/l.csv"], "--lang"),
    ("analyze", ["--split", "train", "--report", "{tmp}/d.json"], "--lang"),
    ("audit", ["--report", "{tmp}/a.json"], "--lang"),
    ("audit", ["--lang", "hi", "--cap", "-1", "--report", "{tmp}/a.json"], "--cap"),
    ("audit", ["--lang", "hi", "--cap", "x", "--report", "{tmp}/a.json"], "--cap"),
    ("classify", ["--lang", "xx", "--out", "{tmp}/l.csv"], "--lang"),
    ("normalize", ["--danda-policy", "bogus", "--out", "{tmp}/n.txt"], "--danda-policy"),
    ("analyze", ["--lang", "hi", "--split", "train", "--digit-policy", "roman",
                 "--report", "{tmp}/d.json"], "--digit-policy"),
    ("classify", ["--lang", "hi", "--invisibles-policy", "true", "--out", "{tmp}/l.csv"],
     "--invisibles-policy"),
])
def test_bad_flag_exits_1_naming_it_before_reading_files(tmp_path, capsys, command, argv,
                                                         flag):
    missing = str(tmp_path / "missing.txt")
    assert run([command, "--in", missing, *(a.format(tmp=tmp_path) for a in argv)]) == 1
    err = capsys.readouterr().err
    error = err.strip().splitlines()[-1]  # the usage text above lists every flag
    assert "usage:" in err and error.startswith("error:") and flag in error
    assert missing not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flag, value, key", [
    ("score", "--max-n", 1, "max_n"),
    ("score", "--max-n", MAX_N_LIMIT, "max_n"),
    ("audit", "--cap", 0, "cap"),
])
def test_flag_values_at_their_limits_are_accepted(tmp_path, command, flag, value, key):
    base = _base_commands(tmp_path)[command]
    assert run([*base, flag, str(value)]) == 0
    report = Path(base[base.index("--report") + 1])
    assert json.loads(report.read_text(encoding="utf-8"))[key] == value


@pytest.mark.parametrize("max_n", [0, MAX_N_LIMIT + 1])
def test_score_max_n_outside_limit_rejected_before_reading_files(tmp_path, capsys, max_n):
    # The line files do not exist: the flag is checked before any is read.
    missing = str(tmp_path / "missing.txt")
    report_path = tmp_path / "gleu.json"
    assert run(["score", "--src", missing, "--hyp", missing, "--ref", missing,
                "--max-n", str(max_n), "--report", str(report_path)]) == 1
    err = capsys.readouterr().err
    assert f"--max-n: must be in 1..{MAX_N_LIMIT}, got {max_n}" in err
    assert not report_path.exists()


def test_postpositions_lexicon_under_ml_names_the_file(tmp_path, capsys):
    # Every subcommand that builds a profile rejects it before reading a row.
    missing = str(tmp_path / "missing.csv")
    for argv in (["classify", "--in", missing, "--out", str(tmp_path / "l.csv")],
                 ["analyze", "--split", "train", "--in", missing,
                  "--report", str(tmp_path / "d.json")],
                 ["audit", "--in", missing, "--report", str(tmp_path / "a.json")]):
        assert run([*argv, "--lang", "ml", "--lexicon", str(HI_LEXICON)]) == 1
        err = capsys.readouterr().err
        assert str(HI_LEXICON) in err and "[postpositions]" in err
        assert missing not in err


# Each subcommand takes exactly the values it reads: the normalization flags
# where text is normalized, --lang/--lexicon where a profile is built.
_NORMALIZATION_DESTS = set(POLICY_KEYS)
_LANGUAGE_DESTS = {"lang", "lexicon"}
_SUBCOMMAND_DESTS = {
    "classify": _NORMALIZATION_DESTS | _LANGUAGE_DESTS | {"infile", "outfile", "evidence"},
    "analyze": _NORMALIZATION_DESTS | _LANGUAGE_DESTS | {"infile", "split", "report",
                                                         "dedup"},
    "score": _NORMALIZATION_DESTS | {"src", "hyp", "ref", "max_n", "report", "raw"},
    "normalize": _NORMALIZATION_DESTS | {"infile", "outfile", "post", "prompt_prefix"},
    "synth-prompt": {"dist", "outfile"},
    "audit": _NORMALIZATION_DESTS | _LANGUAGE_DESTS | {"infile", "dual", "cap", "report"},
}


def test_each_subcommand_takes_exactly_the_values_it_reads():
    subs = next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    dests = {
        name: {action.dest for action in sub._actions if action.dest != "help"}
        for name, sub in subs.choices.items()
    }
    assert dests == _SUBCOMMAND_DESTS
    assert sum(map(len, dests.values())) == 54


def _base_commands(tmp):
    line = _write(tmp / "line.txt", "राम खाता है\n")
    return {
        "classify": ["classify", "--lang", "hi", "--in", str(FIXTURE_CSV),
                     "--out", str(tmp / "l.csv")],
        "analyze": ["analyze", "--lang", "hi", "--split", "train", "--in", str(FIXTURE_CSV),
                    "--report", str(tmp / "d.json")],
        "audit": ["audit", "--lang", "hi", "--in", str(FIXTURE_CSV),
                  "--report", str(tmp / "a.json")],
        "synth-prompt": ["synth-prompt", "--dist", str(GOLDEN_DIST),
                         "--out", str(tmp / "p.txt")],
        "score": ["score", "--src", line, "--hyp", line, "--ref", line,
                  "--report", str(tmp / "g.json")],
        "normalize": ["normalize", "--in", line, "--out", str(tmp / "n.txt")],
    }


@pytest.mark.parametrize("command, flag", [
    ("classify", "--out"), ("normalize", "--out"), ("synth-prompt", "--out"),
    ("analyze", "--report"), ("score", "--report"), ("audit", "--report"),
])
def test_output_in_missing_directory_exits_1_naming_the_path(tmp_path, capsys, monkeypatch,
                                                            command, flag):
    monkeypatch.chdir(tmp_path)  # an empty path resolves against the working directory
    temp_dirs = []

    def mkstemp(*args, real=tempfile.mkstemp, **kwargs):
        temp_dirs.append(kwargs["dir"])
        return real(*args, **kwargs)

    monkeypatch.setattr("gec_forge.reports.tempfile.mkstemp", mkstemp)
    for path in (str(tmp_path / "nodir" / "out"), ""):
        argv = _base_commands(tmp_path)[command]
        argv[argv.index(flag) + 1] = path
        temp_dirs.clear()
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert f"No such file or directory: {path!r}" in err
        assert ".tmp-" not in err
        # An empty path is rejected before a temp file is made anywhere: its
        # absolute form names the working directory, whose parent would get it.
        assert temp_dirs == ([str(tmp_path / "nodir")] if path else [])
    assert [p.name for p in tmp_path.iterdir()] == ["line.txt"]


@pytest.mark.parametrize("command, flag", [
    ("classify", "--out"), ("normalize", "--out"), ("synth-prompt", "--out"),
    ("analyze", "--report"), ("score", "--report"), ("audit", "--report"),
    ("audit --dual", "--report"),
])
def test_output_path_that_is_not_utf8_prints_on_a_strict_stdout(tmp_path, monkeypatch,
                                                                command, flag):
    # argv gives the name's byte 0xfd as the lone surrogate U+DCFD. Outside
    # the C and POSIX locales, or under PYTHONIOENCODING=utf-8:strict, stdout
    # cannot encode it, and the summary line must not fail once the file is
    # written.
    path = tmp_path / os.fsdecode(b"\xfd.out")
    commands = _base_commands(tmp_path)
    commands["audit --dual"] = ["audit", "--lang", "hi", "--dual", str(FIXTURE_CSV),
                                str(FIXTURE_CSV), "--report", ""]
    argv = commands[command]
    argv[argv.index(flag) + 1] = str(path)
    stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run(argv) == 0
    assert path.exists()
    if command == "synth-prompt":  # the checksum line names the file by its bytes
        assert Path(f"{path}.sha256").read_bytes().endswith(b"  \xfd.out\n")
    stdout.flush()
    if command != "score":  # score prints the GLEU value, not its report path
        assert b" -> " + str(tmp_path).encode() + b"/\\xfd.out\n" in stdout.buffer.getvalue()


def _stderr(monkeypatch):
    """A stderr that encodes as Python's own does, escaping what UTF-8
    cannot hold, in place of pytest's capture, which raises on it."""
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="backslashreplace")
    monkeypatch.setattr(sys, "stderr", stderr)

    def text():
        stderr.flush()
        return stderr.buffer.getvalue().decode("utf-8")
    return text


@pytest.mark.parametrize("kind", ["missing file", "malformed csv"])
def test_input_name_that_is_not_utf8_reads_as_its_byte_on_stderr(tmp_path, monkeypatch, kind):
    # An OSError's text spells the name with repr and an InputError's holds
    # the surrogates themselves; the error line shows each byte as \xfd
    # either way, as the summary line on stdout does. 0x80 and 0xff are the
    # ends of the bytes a name's surrogates stand for.
    path = tmp_path / os.fsdecode(b"\x80\xfd\xffin.csv")
    if kind == "malformed csv":
        path.write_text("input,output\nक\n", encoding="utf-8")
    err = _stderr(monkeypatch)
    assert run(["classify", "--lang", "hi", "--in", str(path),
                "--out", str(tmp_path / "l.csv")]) == 1
    assert str(tmp_path) + "/\\x80\\xfd\\xffin.csv" in err() and "\\udc" not in err()


@pytest.mark.parametrize("flag", ["--in", "--out"])
def test_surrogate_outside_the_byte_range_exits_1_with_one_error_line(tmp_path, monkeypatch,
                                                                      capsys, flag):
    # No real argv holds U+D800, but an in-process run may be given it: the
    # path is invalid, and the error line naming it must still print.
    argv = _base_commands(tmp_path)["normalize"]
    argv[argv.index(flag) + 1] = str(tmp_path / "\ud800.txt")
    err = _stderr(monkeypatch)
    assert run(argv) == 1
    assert capsys.readouterr().out == ""
    assert err().startswith("error: ") and err().count("\n") == 1


@pytest.mark.parametrize("command, flag, value", [
    ("classify", "--split", "dev"),
    ("audit", "--split", "test"),
    ("synth-prompt", "--lang", "hi"),
    ("synth-prompt", "--lexicon", "{lexicon}"),
    ("synth-prompt", "--config", "{config}"),
    ("score", "--lang", "hi"),
    ("normalize", "--lexicon", "{lexicon}"),
    ("classify", "--config", "{config}"),
    ("analyze", "--config", "{config}"),
    ("score", "--config", "{config}"),
    ("normalize", "--config", "{config}"),
    ("audit", "--config", "{config}"),
    ("score", "--seed", "7"),
    ("score", "--iterations", "500"),
    # Each would set its key to the value it has by default.
    ("analyze", "--strip-invisibles", None),
    ("normalize", "--strip-invisibles", None),
    ("classify", "--collapse-whitespace", None),
    ("score", "--collapse-whitespace", None),
    # Replaced by --invisibles-policy.
    ("normalize", "--no-strip-invisibles", None),
    ("analyze", "--keep-joiners", None),
])
def test_removed_flag_exits_1_with_usage(tmp_path, capsys, command, flag, value):
    base = _base_commands(tmp_path)[command]
    assert run(base) == 0  # the command itself is valid
    capsys.readouterr()
    config = _write(tmp_path / "config.json", "{}")
    values = [] if value is None else [value.format(lexicon=HI_LEXICON, config=config)]
    assert run([*base, flag, *values]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and f"unrecognized arguments: {flag}" in err


NORMALIZATION_FLAGS = [
    ["--invisibles-policy", "keep"], ["--no-collapse-whitespace"], ["--unify-terminal-punct"],
    ["--danda-policy", "keep_danda"], ["--digit-policy", "keep_native"],
]
# The two flags that --invisibles-policy replaced. Beside --post or --raw they
# are rejected as unrecognized, as they are alone.
REPLACED_NORMALIZATION_FLAGS = [["--no-strip-invisibles"], ["--keep-joiners"]]


@pytest.mark.parametrize("command, skipper", [("normalize", "--post"), ("score", "--raw")])
@pytest.mark.parametrize("unread", NORMALIZATION_FLAGS + REPLACED_NORMALIZATION_FLAGS,
                         ids=lambda flag: flag[0])
def test_normalization_flag_that_would_be_skipped_exits_1_with_usage(
        tmp_path, capsys, command, skipper, unread):
    # --post and --raw skip normalization, so a normalization flag beside
    # them would be taken and never read.
    replaced = unread in REPLACED_NORMALIZATION_FLAGS
    base = _base_commands(tmp_path)[command]
    assert run([*base, skipper, *unread]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    if replaced:
        assert f"error: unrecognized arguments: {unread[0]}" in err
    else:
        assert f"error: argument {unread[0]}: not allowed with argument {skipper}" in err
    assert [p.name for p in tmp_path.iterdir()] == ["line.txt"]
    assert run([*base, skipper]) == 0
    assert run([*base, *unread]) == (1 if replaced else 0)  # a current flag alone is valid


def test_skipped_flag_cases_cover_every_normalization_option():
    # The error message spells the flag with the function that declares it;
    # the case above checks that spelling for each option, one per key.
    subs = next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
    options = {action.dest: action.option_strings
               for action in subs.choices["normalize"]._actions
               if action.dest in _NORMALIZATION_DESTS}
    assert sorted(options) == sorted(POLICY_KEYS)
    assert sorted(sum(options.values(), [])) == sorted(flag[0] for flag in NORMALIZATION_FLAGS)


def test_prompt_prefix_without_post_exits_1_with_usage(tmp_path, capsys):
    base = _base_commands(tmp_path)["normalize"]
    assert run([*base, "--prompt-prefix", "P:"]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "error: argument --prompt-prefix: only read with argument --post" in err
    assert not (tmp_path / "n.txt").exists()


@pytest.mark.parametrize("command, flag", [
    ("classify", "--in"), ("classify", "--out"),
    ("analyze", "--in"), ("analyze", "--split"), ("analyze", "--report"),
    ("score", "--src"), ("score", "--hyp"), ("score", "--ref"),
    ("normalize", "--in"), ("normalize", "--out"),
    ("synth-prompt", "--dist"), ("synth-prompt", "--out"),
    ("audit", "--report"),
])
def test_missing_required_flag_exits_1_with_usage(tmp_path, capsys, command, flag):
    base = _base_commands(tmp_path)[command]
    i = base.index(flag)
    assert run(base[:i] + base[i + 2:]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and "the following arguments are required: " + flag in err
    assert [p.name for p in tmp_path.iterdir()] == ["line.txt"]


def test_internal_error_exits_2(tmp_path, capsys, monkeypatch):
    def broken(line, policy):
        raise RuntimeError("broken layer")

    monkeypatch.setattr("gec_forge.cli.normalize_text", broken)
    assert run(_base_commands(tmp_path)["normalize"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):\n")
    assert err.endswith("RuntimeError: broken layer\ninternal error: broken layer\n")


def test_audit_requires_exactly_one_mode(tmp_path, capsys):
    assert run(["audit", "--lang", "hi", "--report", str(tmp_path / "r.json")]) == 1


@pytest.mark.parametrize("mode, message", [
    ([], "one of the arguments --in --dual is required"),
    (["--in", "", "--dual", str(FIXTURE_CSV), str(FIXTURE_CSV)],
     "argument --dual: not allowed with argument --in"),
])
def test_audit_mode_is_checked_before_any_file_is_read(tmp_path, capsys, mode, message):
    missing = str(tmp_path / "missing.lex")
    report = tmp_path / "r.json"
    assert run(["audit", "--lang", "hi", "--lexicon", missing, *mode,
                "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert "usage:" in err and message in err and missing not in err
    assert not report.exists()


def test_reports_byte_identical_across_runs(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for target in (first, second):
        assert run(["analyze", "--lang", "hi", "--split", "train",
                    "--in", str(FIXTURE_CSV), "--report", str(target)]) == 0
    assert first.read_bytes() == second.read_bytes()


def _oversize_cell_csv(tmp_path):
    path = _write(tmp_path / "big.csv", "input,output\n" + "क" * 131073 + ",ख\n")
    return ["analyze", "--lang", "hi", "--split", "train", "--in", path,
            "--report", str(tmp_path / "r.json")], path


def _non_json_dist(tmp_path):
    path = _write(tmp_path / "dist.json", "not json")
    return ["synth-prompt", "--dist", path, "--out", str(tmp_path / "p.txt")], path


def _list_counts_dist(tmp_path):
    body = {"lang": "hi", "split": "train", "total": 1, "counts": []}
    path = _write(tmp_path / "dist.json", json.dumps(body))
    return ["synth-prompt", "--dist", path, "--out", str(tmp_path / "p.txt")], path


def _list_lang_dist(tmp_path):
    body = {"lang": ["hi"], "split": "train", "total": 1, "counts": {}}
    path = _write(tmp_path / "dist.json", json.dumps(body))
    return ["synth-prompt", "--dist", path, "--out", str(tmp_path / "p.txt")], path


def _synth_prompt_with_dist(tmp_path, body):
    path = _write(tmp_path / "dist.json", body)
    return ["synth-prompt", "--dist", path, "--out", str(tmp_path / "p.txt")], path


def _infinite_total_dist(tmp_path):
    body = '{"lang": "hi", "split": "train", "total": 1e400, "counts": {}}'
    return (*_synth_prompt_with_dist(tmp_path, body), "total")


def _infinite_count_dist(tmp_path):
    body = '{"lang": "hi", "split": "train", "total": 1, "counts": {"spelling": 1e400}}'
    return (*_synth_prompt_with_dist(tmp_path, body), "counts['spelling']")


def _boolean_count_dist(tmp_path):
    body = '{"lang": "hi", "split": "train", "total": 1, "counts": {"spelling": true}}'
    return (*_synth_prompt_with_dist(tmp_path, body), "counts['spelling']")


def _negative_count_dist(tmp_path):
    # The counts sum to total, so only the sign of a count is wrong.
    body = ('{"lang": "hi", "split": "train", "total": 7, '
            '"counts": {"spelling": 10, "morphology": -3}}')
    return (*_synth_prompt_with_dist(tmp_path, body), "counts['morphology']")


def _counts_not_summing_to_total_dist(tmp_path):
    body = '{"lang": "hi", "split": "train", "total": 1, "counts": {"spelling": 10}}'
    return (*_synth_prompt_with_dist(tmp_path, body), "'counts'", "'total'")


def _unknown_lang_dist(tmp_path):
    body = '{"lang": "xx", "split": "train", "total": 1, "counts": {"spelling": 1}}'
    return (*_synth_prompt_with_dist(tmp_path, body), "'lang'")


def _unknown_split_dist(tmp_path):
    body = '{"lang": "hi", "split": "nope", "total": 1, "counts": {"spelling": 1}}'
    return (*_synth_prompt_with_dist(tmp_path, body), "'split'")


def _empty_dist(tmp_path):
    body = '{"lang": "hi", "split": "train", "total": 0, "counts": {}}'
    return (*_synth_prompt_with_dist(tmp_path, body), "'total'")


def _unknown_category_dist(tmp_path):
    body = '{"lang": "hi", "split": "train", "total": 1, "counts": {"bogus": 1}}'
    return (*_synth_prompt_with_dist(tmp_path, body), "'counts'", "'bogus'", "'spelling'")


def _deep_array_dist(tmp_path):
    return _synth_prompt_with_dist(tmp_path, "[" * 100_000 + "]" * 100_000)


def _deep_object_dist(tmp_path):
    body = '{"counts": ' + '{"a": ' * 100_000 + "{}" + "}" * 100_000 + "}"
    return _synth_prompt_with_dist(tmp_path, body)


def _postpositions_lexicon_under_ml(tmp_path):
    path = str(HI_LEXICON)
    return ["classify", "--lang", "ml", "--lexicon", path, "--in", str(FIXTURE_CSV),
            "--out", str(tmp_path / "l.csv")], path, "[postpositions]"


def _non_utf8(tmp_path, name="bad.bin"):
    path = tmp_path / name
    path.write_bytes(b"\xff\xfe{}\n")
    return str(path)


def _non_utf8_dist(tmp_path):
    path = _non_utf8(tmp_path)
    return ["synth-prompt", "--dist", path, "--out", str(tmp_path / "p.txt")], path


def _non_utf8_lexicon(tmp_path):
    path = _non_utf8(tmp_path)
    return ["analyze", "--lang", "hi", "--lexicon", path, "--split", "train",
            "--in", str(FIXTURE_CSV), "--report", str(tmp_path / "r.json")], path


def _score_with_non_utf8(tmp_path, flag):
    path = _non_utf8(tmp_path)
    files = {f: _write(tmp_path / f"{f[2:]}.txt", "क\n") for f in ("--src", "--hyp", "--ref")}
    files[flag] = path
    return ["score", *(x for item in files.items() for x in item)], path


def _non_utf8_score_src(tmp_path):
    return _score_with_non_utf8(tmp_path, "--src")


def _non_utf8_score_hyp(tmp_path):
    return _score_with_non_utf8(tmp_path, "--hyp")


def _non_utf8_score_ref(tmp_path):
    return _score_with_non_utf8(tmp_path, "--ref")


def _non_utf8_normalize_in(tmp_path):
    path = _non_utf8(tmp_path)
    return ["normalize", "--in", path, "--out", str(tmp_path / "o.txt")], path


def _score_files(tmp_path, src, hyp, ref):
    """A score run over the three texts; it names the first file, and the
    other two as fields."""
    paths = [_write(tmp_path / f"{name}.txt", text)
             for name, text in (("src", src), ("hyp", hyp), ("ref", ref))]
    argv = ["score", "--src", paths[0], "--hyp", paths[1], "--ref", paths[2]]
    return argv, *paths


def _score_lengths_differ(tmp_path):
    return (*_score_files(tmp_path, "क\nख\n", "क\n", "क\nख\n"), "lengths differ")


def _score_empty_corpus(tmp_path):
    return (*_score_files(tmp_path, "", "", ""), "empty corpus")


def _analyze_header_only(tmp_path):
    path = _write(tmp_path / "pairs.csv", "input,output\n")
    return ["analyze", "--lang", "hi", "--split", "train", "--in", path,
            "--report", str(tmp_path / "r.json")], path, "no pairs"


def _classify_header_only(tmp_path):
    path = _write(tmp_path / "pairs.csv", "input,output\n")
    return ["classify", "--lang", "hi", "--in", path,
            "--out", str(tmp_path / "l.csv")], path, "no pairs"


def _audit_header_only(tmp_path):
    path = _write(tmp_path / "pairs.csv", "input,output\n")
    return ["audit", "--lang", "hi", "--in", path,
            "--report", str(tmp_path / "r.json")], path, "no pairs"


def _dual_files(tmp_path, rows_a, rows_b):
    """An audit --dual run over two CSVs; it names the first file, and the
    second as a field."""
    paths = [_write(tmp_path / f"{name}.csv", "input,output\n" + "".join(rows))
             for name, rows in (("a", rows_a), ("b", rows_b))]
    argv = ["audit", "--lang", "hi", "--dual", *paths, "--report", str(tmp_path / "r.json")]
    return argv, *paths


def _dual_lengths_differ(tmp_path):
    return (*_dual_files(tmp_path, ["क,ख\n"], ["क,ख\n", "ग,घ\n"]), "differ in length")


def _dual_inputs_differ(tmp_path):
    return (*_dual_files(tmp_path, ["क,ख\n"], ["ग,ख\n"]), "row 0", "input sentence")


def _dual_header_only(tmp_path):
    return (*_dual_files(tmp_path, [], []), "at least one")


def _nul_in_path(flag):
    """A case whose `flag` names a path with a NUL byte in it."""
    def case(tmp_path):
        path = str(tmp_path / "a\0b")
        line = _write(tmp_path / "line.txt", "क\n")
        report = str(tmp_path / "r.json")
        analyze = ["analyze", "--lang", "hi", "--split", "train", "--in", str(FIXTURE_CSV)]
        argv = {
            "--in": ["normalize", "--in", path, "--out", str(tmp_path / "o.txt")],
            "--out": ["normalize", "--in", line, "--out", path],
            "--report": [*analyze, "--report", path],
            "--lexicon": [*analyze, "--lexicon", path, "--report", report],
            "--src": ["score", "--src", path, "--hyp", line, "--ref", line],
            "--hyp": ["score", "--src", line, "--hyp", path, "--ref", line],
            "--ref": ["score", "--src", line, "--hyp", line, "--ref", path],
            "--dist": ["synth-prompt", "--dist", path, "--out", str(tmp_path / "p.txt")],
            "--dual": ["audit", "--lang", "hi", "--dual", str(FIXTURE_CSV), path,
                       "--report", report],
        }[flag]
        return argv, path
    case.__name__ = f"_nul_in_{flag[2:]}_path"
    return case


@pytest.mark.parametrize("case", [_oversize_cell_csv, _non_json_dist, _list_counts_dist,
                                  _list_lang_dist, _infinite_total_dist, _infinite_count_dist,
                                  _boolean_count_dist, _non_utf8_dist, _non_utf8_lexicon,
                                  _non_utf8_score_src, _non_utf8_score_hyp,
                                  _non_utf8_score_ref, _non_utf8_normalize_in,
                                  _negative_count_dist, _counts_not_summing_to_total_dist,
                                  _unknown_lang_dist, _unknown_split_dist, _empty_dist,
                                  _unknown_category_dist, _deep_array_dist, _deep_object_dist,
                                  _postpositions_lexicon_under_ml,
                                  _score_lengths_differ, _score_empty_corpus,
                                  _analyze_header_only, _classify_header_only,
                                  _audit_header_only, _dual_lengths_differ,
                                  _dual_inputs_differ, _dual_header_only,
                                  *map(_nul_in_path, ["--in", "--out", "--report", "--lexicon",
                                                      "--src", "--hyp", "--ref", "--dist",
                                                      "--dual"])])
def test_malformed_input_exits_1_naming_the_file(tmp_path, capsys, case):
    argv, path, *fields = case(tmp_path)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert path in err
    for field in fields:
        assert field in err
    assert not list(tmp_path.glob(".tmp-*.part"))


# Arbitrary JSON: huge and non-finite floats, negative and huge integers,
# bools, strings, and nested lists and objects; the edge values are drawn
# often on their own as well.
_EDGES = st.sampled_from([1e400, -1e400, 1e308, 2.5, -1, 2**70, True, "", "4", "\0", [], {}])
_JSON = _EDGES | st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8) | _EDGES,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=6,
)
def _run_quietly(argv, out_dir):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = run(argv)
    assert code in (0, 1)
    assert "internal error" not in err.getvalue()
    assert not list(Path(out_dir).glob(".tmp-*.part"))


# Arbitrary text for each range-checked or enumerated flag, plus valid
# values, near misses and an integer past int_max_str_digits. The value is
# passed as --flag=TEXT so that text starting with "-" is still the value.
_FLAG_COMMANDS = {
    "--max-n": "score", "--cap": "audit", "--lang": "audit",
    "--danda-policy": "score", "--digit-policy": "audit",
}
_FLAG_TEXT = st.text(max_size=12) | st.sampled_from([
    "0", "1", "4", "16", "17", "-1", " 5 ", "+2", "1.0", "1e3", "", "hi", "ml", "xx", "HI",
    "keep_danda", "map_period_to_danda", "to_ascii", "keep_native", "1" * 5000,
])


@settings(max_examples=200)
@given(flag=st.sampled_from(sorted(_FLAG_COMMANDS)), text=_FLAG_TEXT)
def test_fuzzed_flag_value_exits_0_or_1(flag, text):
    with tempfile.TemporaryDirectory() as tmp:
        line = _write(Path(tmp) / "line.txt", "राम खाता है.\n")
        preds = _write(Path(tmp) / "preds.csv", "input,output\nराम खाता,राम खाता है\n")
        argv = {
            "score": ["score", "--src", line, "--hyp", line, "--ref", line,
                      "--report", str(Path(tmp) / "gleu.json")],
            "audit": ["audit", "--in", preds, "--report", str(Path(tmp) / "r.json")]
                     + ([] if flag == "--lang" else ["--lang", "hi"]),
        }[_FLAG_COMMANDS[flag]]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run([*argv, f"{flag}={text}"])
        assert code in (0, 1)
        if code == 1:
            assert f"argument {flag}:" in err.getvalue()
        assert not list(Path(tmp).glob(".tmp-*.part"))


@settings(max_examples=200)
@given(
    lang=st.sampled_from(["hi", "ml"]),
    counts=st.dictionaries(st.sampled_from(CATEGORY_ORDER),
                           st.integers(0, 5), max_size=4),
    field=st.sampled_from(["lang", "total", "counts", "counts.spelling"]),
    value=_JSON,
)
def test_fuzzed_dist_exits_0_or_1(lang, counts, field, value):
    # total starts consistent with counts, so the arbitrary value is the
    # one that gets checked.
    body = {"lang": lang, "split": "train", "total": sum(counts.values()), "counts": counts}
    if field == "counts.spelling":
        counts["spelling"] = value
    else:
        body[field] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp) / "dist.json", json.dumps(body))
        _run_quietly(["synth-prompt", "--dist", path,
                      "--out", str(Path(tmp) / "p.txt")], tmp)


# Pair CSVs: known, missing, duplicate and BOM-prefixed headers; rows that
# are ragged, quoted, carry stray quotes, NULs or a cell past the csv
# module's field size limit. Half the headers and rows are well formed, so
# many files get as far as classification.
_CSV_HEADERS = st.sampled_from([
    "input,output", "Input sentence,Output sentence", "output,input",
    "input,output,input",
]) | st.sampled_from([
    "input", "input,input", "source,target", "", '"input,output', "\0input,output",
])
_CSV_CELLS = st.text(alphabet=st.sampled_from('कखग है ,."\'\0\r\n।१a'), max_size=8) | \
    st.text(max_size=6) | st.sampled_from(["nan", '""', '"', "क" * 131073])


@settings(max_examples=200)
@given(bom=st.sampled_from([False, False, True]), header=_CSV_HEADERS,
       rows=st.lists(st.lists(_CSV_CELLS, min_size=2, max_size=2)
                     | st.lists(_CSV_CELLS, max_size=4), max_size=4),
       quoted=st.booleans())
def test_fuzzed_pairs_csv_exits_0_or_1(bom, header, rows, quoted):
    if quoted:  # cells quoted as csv writes them, ragged rows kept ragged
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        body = buf.getvalue()
    else:
        body = "".join(",".join(row) + "\n" for row in rows)
    with tempfile.TemporaryDirectory() as tmp:
        pairs = Path(tmp) / "pairs.csv"
        pairs.write_bytes((("\ufeff" if bom else "") + header + "\n" + body).encode("utf-8"))
        _run_quietly(["classify", "--lang", "hi", "--evidence", "--in", str(pairs),
                      "--out", str(Path(tmp) / "labels.csv")], tmp)


# Lexicon files: known and unknown sections, entries before any section,
# comments, and lines that break UTF-8; [postpositions] entries are valid
# under hi and rejected under ml.
_LEXICON_LINES = st.lists(
    st.sampled_from(["[auxiliaries]", "[postpositions]", "[suffixes]", "[ Suffixes ]",
                     "[bogus]", "[]", "[", "# comment", "", "है", "ने", "ा", "ाण്",
                     "ആണ്", "x # trailing comment", "\0", "\r"]) | st.text(max_size=6),
    max_size=8,
)
_FUZZ_PAIRS = ("input,output\nराम खाता,राम खाता है\nराम ने खाया,राम को खाया\n"
               "लड़का,लड़के\nഅവൻ വന്നു,അവൻ വന്നു ആണ്\n")


@settings(max_examples=200)
@given(lang=st.sampled_from(["hi", "ml"]),
       first=st.sampled_from(["[auxiliaries]", "[postpositions]", "[suffixes]", ""]),
       lines=_LEXICON_LINES, bad_byte_at=st.none() | st.integers(0, 8))
def test_fuzzed_lexicon_exits_0_or_1(lang, first, lines, bad_byte_at):
    encoded = [line.encode("utf-8") for line in [first, *lines]]
    if bad_byte_at is not None:
        encoded.insert(min(bad_byte_at, len(encoded)), b"\xff\xfe")
    with tempfile.TemporaryDirectory() as tmp:
        lexicon = Path(tmp) / "fuzz.lexicon"
        lexicon.write_bytes(b"\n".join(encoded))
        pairs = _write(Path(tmp) / "pairs.csv", _FUZZ_PAIRS)
        _run_quietly(["classify", "--lang", lang, "--lexicon", str(lexicon), "--in", pairs,
                      "--out", str(Path(tmp) / "labels.csv")], tmp)


# Random file bytes: raw bytes, and text over pair-file, lexicon and JSON
# characters encoded with its lone surrogates kept, so some files decode and
# parse and others fail at either step. Half start with a pair-file header.
_FILE_TEXT = st.text(alphabet=st.sampled_from('कखग है ,."\'\0\r\n।१a[]#{}:0') | st.characters(),
                     max_size=32)
_FILE_BYTES = st.tuples(
    st.sampled_from([b"", b"input,output\n"]),
    st.binary(max_size=48) | _FILE_TEXT.map(lambda text: text.encode("utf-8", "surrogatepass")),
).map(b"".join)


def _fuzz_argv(tmp):
    """The eight command forms, each reading the file `fuzz` in tmp, and
    classify reading it as its --lexicon."""
    line, pairs, fuzz, out = (str(tmp / name)
                              for name in ("line.txt", "pairs.csv", "fuzz", "out"))
    return {
        "classify": ["classify", "--lang", "hi", "--evidence", "--in", fuzz, "--out", out],
        "analyze": ["analyze", "--lang", "hi", "--split", "train", "--dedup", "--in", fuzz,
                    "--report", out],
        "score": ["score", "--src", line, "--hyp", fuzz, "--ref", line, "--report", out],
        "normalize": ["normalize", "--in", fuzz, "--out", out],
        "normalize --post": ["normalize", "--post", "--in", fuzz, "--out", out],
        "synth-prompt": ["synth-prompt", "--dist", fuzz, "--out", out],
        "audit": ["audit", "--lang", "hi", "--in", fuzz, "--report", out],
        "audit --dual": ["audit", "--lang", "hi", "--dual", pairs, fuzz, "--report", out],
        "--lexicon": ["classify", "--lang", "hi", "--lexicon", fuzz, "--in", pairs,
                      "--out", out],
    }


@settings(max_examples=250)
@given(form=st.sampled_from(sorted(_fuzz_argv(Path()))), data=_FILE_BYTES)
def test_random_file_bytes_exit_0_or_1_naming_the_file(form, data):
    with tempfile.TemporaryDirectory() as tmp:
        _write(Path(tmp) / "line.txt", "राम खाता है\n")
        _write(Path(tmp) / "pairs.csv", _FUZZ_PAIRS)
        fuzz = Path(tmp) / "fuzz"
        fuzz.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = run(_fuzz_argv(Path(tmp))[form])
        assert code in (0, 1)
        if code == 1:
            assert err.getvalue().startswith("error: ") and str(fuzz) in err.getvalue()
