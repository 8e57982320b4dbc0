import csv
import json
from pathlib import Path

import pytest

from gec_forge.cli import run

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE_CSV = FIXTURES / "hi_fixture.csv"


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_version(capsys):
    assert run(["--version"]) == 0
    assert "gec-forge" in capsys.readouterr().out


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


def test_score_seed_and_iterations_accepted_and_ignored(tmp_path, capsys, caplog):
    src = _write(tmp_path / "s.txt", "क ख ग घ\n")
    code = run(["score", "--src", src, "--hyp", src, "--ref", src,
                "--seed", "7", "--iterations", "500"])
    assert code == 0
    assert "ignored" in caplog.text


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


def test_classify_evidence_column(tmp_path):
    labels_path = tmp_path / "labels.csv"
    assert run(["classify", "--lang", "hi", "--in", str(FIXTURE_CSV),
                "--out", str(labels_path), "--evidence"]) == 0
    with open(labels_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    evidence = json.loads(rows[0]["evidence"])
    assert evidence["stage"] == 1


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


def test_config_file_with_flag_override(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "lang": "hi",
        "normalization": {"digit_policy": "keep_native"},
    }), encoding="utf-8")
    src = _write(tmp_path / "in.txt", "१२\n")
    out_path = tmp_path / "out.txt"
    assert run(["normalize", "--config", str(config), "--in", src,
                "--out", str(out_path)]) == 0
    assert out_path.read_text(encoding="utf-8") == "१२\n"
    # flag overrides config
    assert run(["normalize", "--config", str(config), "--in", src,
                "--out", str(out_path), "--digit-policy", "to_ascii"]) == 0
    assert out_path.read_text(encoding="utf-8") == "12\n"


def test_bad_config_rejected(tmp_path, capsys):
    config = _write(tmp_path / "config.json", '{"bogus": 1}')
    src = _write(tmp_path / "in.txt", "क\n")
    assert run(["normalize", "--config", config, "--in", src,
                "--out", str(tmp_path / "o.txt")]) == 1


def test_lexicon_env_fallback(tmp_path, monkeypatch):
    # A lexicon without है turns an inserted-auxiliary pair into Missing/Extra.
    lexicon = tmp_path / "tiny.lexicon"
    lexicon.write_text("[auxiliaries]\nथा\n[postpositions]\n[suffixes]\nा\n",
                       encoding="utf-8")
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("Input sentence,Output sentence\nराम खाता,राम खाता है\n",
                     encoding="utf-8")
    out_default = tmp_path / "default.csv"
    out_env = tmp_path / "env.csv"
    assert run(["classify", "--lang", "hi", "--in", str(pairs),
                "--out", str(out_default)]) == 0
    monkeypatch.setenv("GEC_FORGE_LEXICON", str(lexicon))
    assert run(["classify", "--lang", "hi", "--in", str(pairs),
                "--out", str(out_env)]) == 0
    assert "syntax_agreement" in out_default.read_text(encoding="utf-8")
    assert "missing_extra_word" in out_env.read_text(encoding="utf-8")


def test_synth_prompt_writes_prompt_and_hash(tmp_path):
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

    assert digest_line.split()[0] == hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def test_audit_single(tmp_path):
    report_path = tmp_path / "audit.json"
    assert run(["audit", "--lang", "hi", "--in", str(FIXTURE_CSV),
                "--cap", "5", "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text(encoding="utf-8"))
    assert report["total"] == 10
    assert report["strata_counts"]["redundant"] == 2
    assert len(report["pairs"]) == 10


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
    assert "--cap" in capsys.readouterr().err
    assert not report_path.exists()


def test_audit_requires_exactly_one_mode(tmp_path, capsys):
    assert run(["audit", "--lang", "hi", "--report", str(tmp_path / "r.json")]) == 1


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


def _non_integer_config(tmp_path):
    path = _write(tmp_path / "config.json", '{"max_n": "abc"}')
    src = _write(tmp_path / "s.txt", "क\n")
    return ["score", "--config", path, "--src", src, "--hyp", src, "--ref", src], path


def _non_json_dist(tmp_path):
    path = _write(tmp_path / "dist.json", "not json")
    return ["synth-prompt", "--dist", path, "--out", str(tmp_path / "p.txt")], path


def _list_counts_dist(tmp_path):
    body = {"lang": "hi", "split": "train", "total": 1, "counts": []}
    path = _write(tmp_path / "dist.json", json.dumps(body))
    return ["synth-prompt", "--dist", path, "--out", str(tmp_path / "p.txt")], path


def _analyze_with_config(tmp_path, body):
    path = _write(tmp_path / "config.json", body)
    return ["analyze", "--config", path, "--split", "train", "--in", str(FIXTURE_CSV),
            "--report", str(tmp_path / "r.json")], path


def _bad_enum_config(tmp_path):
    return _analyze_with_config(tmp_path, '{"lang": "hi", "danda_policy": "bogus"}')


def _non_object_normalization_config(tmp_path):
    return _analyze_with_config(tmp_path, '{"lang": "hi", "normalization": "x"}')


def _list_lang_config(tmp_path):
    return _analyze_with_config(tmp_path, '{"lang": ["hi"]}')


def _integer_lexicon_path_config(tmp_path):
    return _analyze_with_config(tmp_path, '{"lang": "hi", "lexicon_path": 5}')


def _negative_cap_config(tmp_path):
    path = _write(tmp_path / "config.json", '{"lang": "hi", "cap": -1}')
    preds = _write(tmp_path / "preds.csv", "Input sentence,Output sentence\n")
    return ["audit", "--config", path, "--in", preds,
            "--report", str(tmp_path / "r.json")], path


def _list_lang_dist(tmp_path):
    body = {"lang": ["hi"], "split": "train", "total": 1, "counts": {}}
    path = _write(tmp_path / "dist.json", json.dumps(body))
    return ["synth-prompt", "--dist", path, "--out", str(tmp_path / "p.txt")], path


@pytest.mark.parametrize("case", [_oversize_cell_csv, _non_integer_config,
                                  _non_json_dist, _list_counts_dist,
                                  _bad_enum_config, _non_object_normalization_config,
                                  _list_lang_config, _integer_lexicon_path_config,
                                  _negative_cap_config, _list_lang_dist])
def test_malformed_input_exits_1_naming_the_file(tmp_path, capsys, case):
    argv, path = case(tmp_path)
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "internal error" not in err
    assert path in err
