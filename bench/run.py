#!/usr/bin/env python3
"""gec-forge benchmark: the CLI subcommand chain on seeded corpora.

    python3 bench/run.py --workload hi-short --seed 1 --seconds 30 --trace 0

Generates the workload's corpus from --seed, writes it to a temporary
directory under .bench_work/, and drives the gec-forge subcommands
through gec_forge.cli.run, one after another. The first pass of the chain
runs in a fresh interpreter, which reports its peak resident memory, and
its outputs are checked against the oracles in bench/oracles.py. Then
passes repeat in-process, in this one single-threaded process, until
--seconds have gone by, each one's outputs compared byte for byte with the
first. Every timed step is scaled to reference seconds by
bench/calibration.py.

The last line of standard output is one JSON object with the keys correct,
attempted, failed (counted in subcommand invocations) and metrics. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer ones, from passes traced by bench/tracing.py and interleaved with
untraced passes. See bench/README.md.
"""
import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Callable

import calibration
import check
import gen
import oracles
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


@dataclass(frozen=True)
class Workload:
    lang: str
    make: Callable
    rows: int
    dedup: bool  # analyze --dedup


WORKLOADS = {
    "hi-short": Workload("hi", gen.hi_short, 4000, False),
    "ml-noisy": Workload("ml", gen.ml_noisy, 4000, True),
    "hi-long": Workload("hi", gen.hi_long, 24, False),
}

# Step -> end-to-end metric; every throughput counts rows of the input.
STEP_METRICS = {
    "normalize": ("normalize_lines_per_s", "lines/s"),
    "postprocess": ("postprocess_lines_per_s", "lines/s"),
    "analyze": ("analyze_pairs_per_s", "pairs/s"),
    "classify": ("classify_pairs_per_s", "pairs/s"),
    "audit": ("audit_pairs_per_s", "pairs/s"),
    "dual_audit": ("dual_audit_triples_per_s", "triples/s"),
    "score": ("score_lines_per_s", "lines/s"),
}
OUTPUTS = (
    "src_norm.txt", "hyp_post.txt", "dist.json", "prompt.txt",
    "prompt.txt.sha256", "labels.csv", "audit.json", "dual.json", "gleu.json",
)

# A fresh interpreter runs the chain once, the checked first pass, and
# reports each step's exit code and its peak resident memory: the figure
# holds the program's memory and none of the benchmark's (corpus, oracles,
# calibration, tracing).
FIRST_PASS_CODE = """\
import contextlib, io, json, resource, sys
sys.path.insert(0, sys.argv[1])
import gec_forge.cli
codes = []
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(gec_forge.cli.run(argv))
print(json.dumps({"codes": codes,
                  "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))
"""

SETUP_REPEATS = 9
# A fresh interpreter times importing the package (and the CLI module the
# benchmark drives) plus building the workload's language profile.
SETUP_CODE = """\
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import gec_forge, gec_forge.cli
gec_forge.profile_for(sys.argv[2])
print(time.perf_counter() - t)
"""

# Layers called often enough on every workload for p50/p99 to have a tail;
# traced passes repeat until each has MIN_PERCENTILE_CALLS calls.
PERCENTILE_LAYERS = ("normalize_text", "alnum_projection", "tokenize")
MIN_PERCENTILE_CALLS = 1000


def import_cli():
    """gec_forge.cli from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    try:
        import gec_forge.cli as cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import gec_forge from {SRC}: {exc}")
    if os.path.dirname(os.path.abspath(cli.__file__)) != os.path.join(SRC, "gec_forge"):
        raise SystemExit(f"bench: gec_forge was imported from outside {SRC}")
    return cli


def measure_setup(lang, cal):
    """Median scaled set-up time over SETUP_REPEATS fresh interpreters."""
    samples = []
    before = cal.sample()
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_CODE, SRC, lang],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
        )
        after = cal.sample()
        if i:  # the first one writes bytecode caches
            samples.append(calibration.scaled(float(proc.stdout), before, after))
        before = after
    return statistics.median(samples)


def write_inputs(d, rows):
    for name, col in (("src.txt", 0), ("ref.txt", 1), ("hyp_line.txt", 3)):
        with open(os.path.join(d, name), "w", encoding="utf-8", newline="") as fh:
            fh.write("".join(row[col] + "\n" for row in rows))
    for name, col in (("pairs.csv", 1), ("preds.csv", 2)):
        with open(os.path.join(d, name), "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["input", "output"])
            writer.writerows((row[0], row[col]) for row in rows)


def chain(w, d):
    """The subcommand chain as (step, argv): reference = candidate A,
    hypothesis = candidate B, source = the input column."""
    def p(name):
        return os.path.join(d, name)

    lang = ["--lang", w.lang]
    cap = ["--cap", str(check.CAP)]
    return [
        ("normalize", ["normalize", "--in", p("src.txt"), "--out", p("src_norm.txt")]),
        ("postprocess", ["normalize", "--post", "--prompt-prefix", gen.PROMPT_PREFIX,
                         "--in", p("hyp_line.txt"), "--out", p("hyp_post.txt")]),
        ("analyze", ["analyze", *lang, "--split", "train", "--in", p("pairs.csv"),
                     "--report", p("dist.json")] + (["--dedup"] if w.dedup else [])),
        ("synth_prompt", ["synth-prompt", "--dist", p("dist.json"), "--out", p("prompt.txt")]),
        ("classify", ["classify", *lang, "--evidence", "--in", p("pairs.csv"),
                      "--out", p("labels.csv")]),
        ("audit", ["audit", *lang, *cap, "--in", p("preds.csv"), "--report", p("audit.json")]),
        ("dual_audit", ["audit", *lang, *cap, "--dual", p("pairs.csv"), p("preds.csv"),
                        "--report", p("dual.json")]),
        ("score", ["score", "--src", p("src.txt"), "--hyp", p("hyp_post.txt"),
                   "--ref", p("ref.txt"), "--max-n", str(check.MAX_N),
                   "--report", p("gleu.json")]),
    ]


def run_pass(cli, steps, cal):
    """One pass of the chain: (seconds per step, each scaled by calibration
    samples taken just before and after it, plus 'pipeline', their sum, and
    'scale', scaled over raw seconds for the whole pass; failures)."""
    times, failed, raw = {}, 0, 0.0
    before = cal.sample()
    for name, argv in steps:
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.run(argv)
        elapsed = time.perf_counter() - t0
        after = cal.sample()
        times[name] = calibration.scaled(elapsed, before, after)
        raw += elapsed
        before = after
        failed += code != 0
    times["pipeline"] = sum(times.values())
    times["scale"] = times["pipeline"] / raw
    return times, failed


def digest_outputs(d):
    digests = {}
    for name in OUTPUTS:
        try:
            with open(os.path.join(d, name), "rb") as fh:
                digests[name] = hashlib.sha256(fh.read()).hexdigest()
        except FileNotFoundError:
            digests[name] = None
    return digests


def first_pass(steps):
    """Runs the chain once in a fresh interpreter: (failed steps, peak MB)."""
    proc = subprocess.run(
        [sys.executable, "-I", "-c", FIRST_PASS_CODE, SRC,
         json.dumps([argv for _, argv in steps])],
        capture_output=True, text=True, timeout=150, check=True, cwd=ROOT,
    )
    result = json.loads(proc.stdout)
    return sum(code != 0 for code in result["codes"]), result["peak_mb"]


def end_to_end(passes, rows, setup_s, peak_mb):
    """Medians over passes, in reference seconds (see calibration.py)."""
    metrics = {
        "setup_s": (setup_s, "s"),
        "pipeline_s": (statistics.median(p["pipeline"] for p in passes), "s"),
    }
    for step, (name, unit) in STEP_METRICS.items():
        metrics[name] = (statistics.median(rows / p[step] for p in passes), unit)
    metrics["peak_rss_mb"] = (peak_mb, "MB")
    return metrics


def per_layer(summaries, untraced_s, traced_s, rows):
    """Per-layer counts, times in reference seconds, and ratios."""
    n = len(summaries)
    metrics = {}
    for name in tracing.SPAN_NAMES:
        layer = [s["layers"][name] for s in summaries]
        metrics[f"{name}.calls"] = (sum(x["calls"] for x in layer) / n, "count")
        metrics[f"{name}.total_s"] = (statistics.median(x["total_s"] for x in layer), "s")
        metrics[f"{name}.self_s"] = (statistics.median(x["self_s"] for x in layer), "s")
    for name in PERCENTILE_LAYERS:
        durations = [d for s in summaries for d in s["layers"][name]["durations"]]
        cuts = statistics.quantiles(durations, n=100)
        metrics[f"{name}.p50_us"] = (cuts[49] * 1e6, "us")
        metrics[f"{name}.p99_us"] = (cuts[98] * 1e6, "us")
    classify_s = sum(s["layers"]["classify_pair"]["total_s"] for s in summaries)
    for part in ("tokenize", "alnum_projection", "align", "levenshtein"):
        inside = sum(s["classify_split_s"][part] for s in summaries)
        metrics[f"classify_pair.share_{part}"] = (100 * inside / classify_s, "%")
    audit_calls = sum(s["layers"]["audit_pair"]["calls"] for s in summaries)
    metrics["audit_pair.tokenize_calls_per_call"] = (
        sum(s["audit_tokenize_calls"] for s in summaries) / audit_calls, "calls/call")
    metrics["dual_report.align_calls_per_triple"] = (
        sum(s["dual_align_calls"] for s in summaries) / (rows * n), "calls/triple")
    char_calls = sum(s["layers"]["levenshtein.char"]["calls"] for s in summaries)
    metrics["levenshtein.char.within_threshold_ratio"] = (
        sum(s["char_within_threshold"] for s in summaries) / char_calls, "ratio")
    metrics["tracing.overhead_s"] = (
        statistics.median(traced_s) - statistics.median(untraced_s), "s")
    return metrics


def percentile_calls_short(summaries):
    """True while some PERCENTILE_LAYERS layer has too few traced calls."""
    for name in PERCENTILE_LAYERS:
        calls = sum(s["layers"][name]["calls"] for s in summaries)
        if calls == 0:
            raise RuntimeError(f"layer {name} was never called; no percentile possible")
        if calls < MIN_PERCENTILE_CALLS:
            return True
    return False


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    cli = import_cli()
    rows = w.make(args.seed, w.rows)
    cal = calibration.Calibration()
    setup_s = None if args.trace else measure_setup(w.lang, cal)
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as d:
        write_inputs(d, rows)
        steps = chain(w, d)
        # The first pass's outputs are checked in full; every later pass
        # must reproduce them byte for byte.
        failed, peak_mb = first_pass(steps)
        attempted = len(steps)
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run(["normalize", "--in", os.path.join(d, "src_norm.txt"),
                     "--out", os.path.join(d, "src_norm_again.txt")])
        lexicon = os.path.join(SRC, "gec_forge", "data", f"{w.lang}.lexicon")
        expected = check.Expected(rows, w.lang, lexicon, w.dedup, gen.PROMPT_PREFIX)
        problems = check.check_outputs(expected, d)
        digests = digest_outputs(d)

        def measured_pass(tracer=None):
            nonlocal attempted, failed
            with tracer or contextlib.nullcontext():
                times, f = run_pass(cli, steps, cal)
            attempted += len(steps)
            failed += f
            if digest_outputs(d) != digests:
                problems.append("outputs differ from the first pass")
            return times

        deadline = time.perf_counter() + args.seconds
        if not args.trace:
            passes = [measured_pass()]
            while time.perf_counter() < deadline:
                passes.append(measured_pass())
            metrics = end_to_end(passes, len(rows), setup_s, peak_mb)
        else:
            summaries, untraced_s, traced_s = [], [], []
            while not summaries or time.perf_counter() < deadline \
                    or percentile_calls_short(summaries):
                untraced_s.append(measured_pass()["pipeline"])
                tracer = tracing.Tracer()
                times = measured_pass(tracer)
                traced_s.append(times["pipeline"])
                summaries.append(tracing.summarize(
                    tracer.spans, oracles.SPELL_THRESHOLD, times["scale"]))
            metrics = per_layer(summaries, untraced_s, traced_s, len(rows))
    with contextlib.suppress(OSError):
        os.rmdir(work)  # left alone while another run is using it

    print(f"bench: calibration median {statistics.median(cal.samples):.6f} s over "
          f"{len(cal.samples)} samples, reference {calibration.REFERENCE_S} s", file=sys.stderr)
    for problem in problems[:20]:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
