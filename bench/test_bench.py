"""The benchmark's own tests: the checker rejects wrong outputs, and tiny
runs complete.

    python3 -m pytest bench/test_bench.py
"""
import contextlib
import csv
import dataclasses
import io
import json
import os
import tempfile
import unittest
from unittest import mock

import check
import gen
import run


def _last_json_line(text):
    return json.loads(text.strip().splitlines()[-1])


class CheckerRejectsWrongOutputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = run.import_cli()
        cls.tmp = tempfile.TemporaryDirectory()
        cls.dir = cls.tmp.name
        w = run.WORKLOADS["hi-short"]
        rows = w.make(7, 60)
        run.write_inputs(cls.dir, rows)
        failed, _ = run.first_pass(run.chain(w, cls.dir))
        assert failed == 0
        with contextlib.redirect_stdout(io.StringIO()):
            cls.cli.run(["normalize", "--in", os.path.join(cls.dir, "src_norm.txt"),
                         "--out", os.path.join(cls.dir, "src_norm_again.txt")])
        lexicon = os.path.join(run.SRC, "gec_forge", "data", "hi.lexicon")
        cls.expected = check.Expected(rows, "hi", lexicon, False, gen.PROMPT_PREFIX)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()

    def _rewrite_json(self, name, edit):
        """Problems found after edit() changes output `name`; restores it."""
        path = os.path.join(self.dir, name)
        with open(path, encoding="utf-8") as fh:
            original = fh.read()
        report = json.loads(original)
        edit(report)
        try:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(report, fh)
            return check.check_outputs(self.expected, self.dir)
        finally:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(original)

    def test_true_outputs_pass(self):
        self.assertEqual(check.check_outputs(self.expected, self.dir), [])

    def test_category_count_moved_by_one(self):
        def move(report):
            counts = report["counts"]
            donor = next(k for k, v in counts.items() if v > 0)
            taker = next(k for k in counts if k != donor)
            counts[donor] -= 1
            counts[taker] += 1

        problems = self._rewrite_json("dist.json", move)
        self.assertTrue(any(p.startswith("analyze:") for p in problems), problems)

    def test_gleu_ngram_tally_off_by_one(self):
        def bump(report):
            report["ngram_stats"][1]["matches"] += 1

        problems = self._rewrite_json("gleu.json", bump)
        self.assertTrue(any(p.startswith("score:") for p in problems), problems)

    def test_evidence_detail_differs(self):
        path = os.path.join(self.dir, "labels.csv")
        with open(path, encoding="utf-8", newline="") as fh:
            original = fh.read()
        records = list(csv.reader(io.StringIO(original)))
        i = next(i for i, rec in enumerate(records) if rec[1] == "syntax_agreement")
        evidence = json.loads(records[i][3])
        evidence["detail"]["hits"] = evidence["detail"]["hits"][:-1]
        records[i][3] = json.dumps(evidence, ensure_ascii=False)
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(records)
            problems = check.check_outputs(self.expected, self.dir)
        finally:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(original)
        self.assertTrue(any(p.startswith("classify:") for p in problems), problems)

    def test_resolution_picks_the_other_candidate(self):
        def flip(report):
            i = next(i for i, r in enumerate(report["resolutions"]) if r["reason"] != "identical")
            res = report["resolutions"][i]
            other = "b" if res["chosen"] == "a" else "a"
            res["chosen"] = other
            res["text"] = (self.expected.ref if other == "a" else self.expected.hyp)[i]

        problems = self._rewrite_json("dual.json", flip)
        self.assertTrue(any(p.startswith("dual:") for p in problems), problems)

    def test_resolution_text_is_neither_candidate(self):
        def swap(report):
            report["resolutions"][0]["text"] = "neither candidate"

        problems = self._rewrite_json("dual.json", swap)
        self.assertTrue(any(p.startswith("dual:") for p in problems), problems)


class TinyRunsComplete(unittest.TestCase):
    def _run(self, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(run.main(list(argv)), 0)
        result = _last_json_line(out.getvalue())
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 16)
        return result["metrics"]

    def _run_tiny(self, workload, rows, trace):
        tiny = dataclasses.replace(run.WORKLOADS[workload], rows=rows)
        with mock.patch.dict(run.WORKLOADS, {workload: tiny}):
            return self._run("--workload", workload, "--seed", "3", "--seconds", "0",
                             "--trace", str(trace))

    def test_every_workload_untraced(self):
        for workload, rows in (("hi-short", 30), ("ml-noisy", 30), ("hi-long", 3)):
            with self.subTest(workload=workload):
                metrics = self._run_tiny(workload, rows, 0)
                self.assertIn("setup_s", metrics)
                self.assertTrue(all(m["value"] > 0 for m in metrics.values()), metrics)

    def test_traced(self):
        metrics = self._run_tiny("ml-noisy", 30, 1)
        self.assertIn("tracing.overhead_s", metrics)
        self.assertGreaterEqual(metrics["tokenize.calls"]["value"], 1)


if __name__ == "__main__":
    unittest.main()
