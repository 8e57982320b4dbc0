"""gec-forge command line: classify / analyze / score / normalize /
synth-prompt / audit.

All report files are JSON with a schema_version field, written atomically;
identical arguments and inputs produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import traceback

from . import __version__
from .audit import DEFAULT_DISTANCE_CAP, Stratum, audit_pair, dual_report
from .classifier import CATEGORY_ORDER, SPELL_THRESHOLD, classify_pair
from .corpus import SPLITS, DistributionReport, analyze, load_pairs, synthesize_prompt
from .errors import InputError
from .gleu import DEFAULT_MAX_N, MAX_N_LIMIT, gleu_corpus
from .reports import read_text, write_report, write_text_atomic
from .textnorm import (DEFAULT_POLICY, POLICY_KEYS, NormalizationPolicy, normalize_text,
                       postprocess_hypothesis)
from .tokenizer import SYNTAX_LABELS, profile_for


def _read_lines(path) -> list[str]:
    # Universal newlines turn \r\n and \r into \n, and only \n ends a line:
    # str.splitlines would also break at \x0b, \x0c, \x1c-\x1e, \x85, U+2028
    # and U+2029 inside a line.
    lines = read_text(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


# argparse types: a bad value exits 1 naming the flag, before any file is read.
def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:  # not an integer, or past int_max_str_digits
        raise argparse.ArgumentTypeError(f"expects an integer, got {text!r}") from None


def _max_n(text: str) -> int:
    value = _int(text)
    if not 1 <= value <= MAX_N_LIMIT:
        raise argparse.ArgumentTypeError(f"must be in 1..{MAX_N_LIMIT}, got {value}")
    return value


def _cap(text: str) -> int:
    value = _int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract is usage text + exit 1.
    A flag the subcommand would not read with the others given is bad usage
    too: unread(args) names it."""

    unread = None

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        message = self.unread and self.unread(namespace)
        if message:
            self.error(message)
        return namespace, extras


def _flag(key: str) -> str:
    """The one option that sets a normalization key: a bool option flips
    the key's default, an enum option takes a value."""
    name = key.replace("_", "-")
    return f"--no-{name}" if getattr(DEFAULT_POLICY, key) is True else f"--{name}"


def _add_normalization(sub):
    # Only a flag given sets its key, so a command can tell that one was.
    group = sub.add_argument_group("normalization", argument_default=argparse.SUPPRESS)
    for key in POLICY_KEYS:
        default = getattr(DEFAULT_POLICY, key)
        if isinstance(default, bool):
            group.add_argument(_flag(key), dest=key,
                               action="store_false" if default else "store_true")
        else:
            enum = type(default)
            group.add_argument(_flag(key), type=enum,
                               metavar="{" + ",".join(member.value for member in enum) + "}")


def _given_policy(args) -> dict:
    """The normalization keys set by a flag; the others keep their defaults."""
    return {key: value for key, value in vars(args).items() if key in POLICY_KEYS}


def _policy(args) -> NormalizationPolicy:
    return NormalizationPolicy(**_given_policy(args))


def _policy_flag_with(args, flag: str) -> str | None:
    """Names the first normalization flag given together with flag, which
    makes the command skip normalization."""
    key = next(iter(_given_policy(args)), None)
    if key is None:
        return None
    return f"argument {_flag(key)}: not allowed with argument {flag}"


def _score_unread(args) -> str | None:
    return _policy_flag_with(args, "--raw") if args.raw else None


def _normalize_unread(args) -> str | None:
    if args.post:
        return _policy_flag_with(args, "--post")
    if args.prompt_prefix is not None:
        return "argument --prompt-prefix: only read with argument --post"
    return None


def _add_language(sub):
    sub.add_argument("--lang", choices=SYNTAX_LABELS, required=True, help="language profile")
    sub.add_argument("--lexicon", help="lexicon file used instead of the bundled one")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gec-forge",
                     description="Deterministic GEC analysis toolkit for Hindi and Malayalam")
    parser.add_argument("--version", action="version",
                        version=f"gec-forge {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = subs.add_parser("classify", help="label each (input, output) CSV row")
    _add_normalization(p)
    _add_language(p)
    p.add_argument("--in", dest="infile", required=True, metavar="PAIRS_CSV")
    p.add_argument("--out", dest="outfile", required=True, metavar="LABELS_CSV")
    p.add_argument("--evidence", action="store_true",
                   help="append an evidence JSON column")
    p.set_defaults(func=cmd_classify)

    p = subs.add_parser("analyze", help="error-type distribution for one split")
    _add_normalization(p)
    _add_language(p)
    p.add_argument("--in", dest="infile", required=True, metavar="PAIRS_CSV")
    p.add_argument("--split", choices=SPLITS, required=True)
    p.add_argument("--report", required=True, metavar="DIST_JSON")
    p.add_argument("--dedup", action="store_true",
                   help="drop exact duplicate pairs before counting")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("score", help="corpus GLEU over src/hyp/ref line files")
    _add_normalization(p)
    p.add_argument("--src", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--max-n", type=_max_n, default=DEFAULT_MAX_N,
                   help=f"highest n-gram order, 1..{MAX_N_LIMIT} (default {DEFAULT_MAX_N})")
    p.add_argument("--report", metavar="REPORT_JSON")
    p.add_argument("--raw", action="store_true",
                   help="score lines as-is, skipping normalization")
    p.set_defaults(func=cmd_score)
    p.unread = _score_unread

    p = subs.add_parser("normalize", help="normalize text lines per policy")
    _add_normalization(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--post", action="store_true",
                   help="apply the hypothesis post-processor instead")
    p.add_argument("--prompt-prefix", default=None,
                   help="leading prompt echo removed by --post")
    p.set_defaults(func=cmd_normalize)
    p.unread = _normalize_unread

    p = subs.add_parser("synth-prompt", help="render a prompt from a distribution report")
    p.add_argument("--dist", required=True, metavar="DIST_JSON")
    p.add_argument("--out", dest="outfile", required=True, metavar="PROMPT_TXT")
    p.set_defaults(func=cmd_synth_prompt)

    p = subs.add_parser("audit", help="stratify model edits against guardrails")
    _add_normalization(p)
    _add_language(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--in", dest="infile", metavar="PREDS_CSV",
                      help="single-candidate predictions CSV (input/output columns)")
    mode.add_argument("--dual", nargs=2, metavar=("A_CSV", "B_CSV"),
                      help="two candidate CSVs sharing inputs row-by-row")
    p.add_argument("--cap", type=_cap, default=DEFAULT_DISTANCE_CAP,
                   help=f"token edit-distance cap (default {DEFAULT_DISTANCE_CAP})")
    p.add_argument("--report", required=True, metavar="AUDIT_JSON")
    p.set_defaults(func=cmd_audit)
    return parser


def cmd_classify(args) -> int:
    profile = profile_for(args.lang, args.lexicon)
    pairs = load_pairs(args.infile, _policy(args))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["row", "category", "label"] + (["evidence"] if args.evidence else [])
    writer.writerow(header)
    for pair in pairs:
        result = classify_pair(pair.input, pair.output, profile)
        record = [pair.row, result.category.value, result.category.display_label(args.lang)]
        if args.evidence:
            record.append(json.dumps(
                {"stage": result.stage, "rule": result.rule, "detail": result.detail},
                ensure_ascii=False, sort_keys=True))
        writer.writerow(record)
    write_text_atomic(args.outfile, buf.getvalue())
    print(f"classified {len(pairs)} pairs -> {args.outfile}")
    return 0


def cmd_analyze(args) -> int:
    policy = _policy(args)
    profile = profile_for(args.lang, args.lexicon)
    pairs = load_pairs(args.infile, policy)
    dropped = ""
    if args.dedup:  # keep the first pair of each exact (input, output) repeat
        first = {}
        for pair in pairs:
            first.setdefault((pair.input, pair.output), pair)
        dropped = f" ({len(pairs) - len(first)} exact duplicates dropped)"
        pairs = list(first.values())
    report = analyze(pairs, profile, args.split)
    body = report.to_dict()
    body["normalization"] = policy.to_dict()
    body["classifier_constants"] = {"SPELL_THR": SPELL_THRESHOLD}
    write_report(args.report, "distribution", body)
    print(f"analyzed {report.total} pairs{dropped} -> {args.report}")
    return 0


def cmd_score(args) -> int:
    policy = _policy(args)
    src, hyp, ref = _read_lines(args.src), _read_lines(args.hyp), _read_lines(args.ref)
    if not args.raw:
        src = [normalize_text(line, policy) for line in src]
        hyp = [normalize_text(line, policy) for line in hyp]
        ref = [normalize_text(line, policy) for line in ref]
    report = gleu_corpus(src, hyp, ref, args.max_n)
    if args.report:
        body = report.to_dict()
        body["normalization"] = None if args.raw else policy.to_dict()
        write_report(args.report, "gleu", body)
    print(f"GLEU: {report.corpus_score:.6f} ({report.corpus_score * 100:.2f})")
    return 0


def cmd_normalize(args) -> int:
    policy = _policy(args)
    lines = _read_lines(args.infile)
    if args.post:
        out = [postprocess_hypothesis(line, args.prompt_prefix) for line in lines]
    else:
        out = [normalize_text(line, policy) for line in lines]
    write_text_atomic(args.outfile, "\n".join(out) + ("\n" if out else ""))
    print(f"normalized {len(lines)} lines -> {args.outfile}")
    return 0


def cmd_synth_prompt(args) -> int:
    try:
        data = json.loads(read_text(args.dist))
    except ValueError as exc:  # bad JSON, or an integer past int_max_str_digits
        raise InputError(f"{args.dist}: invalid JSON distribution report: {exc}") from exc
    try:
        report = DistributionReport.from_dict(data)
    except InputError as exc:
        raise InputError(f"{args.dist}: {exc}") from exc
    prompt = synthesize_prompt(report)
    write_text_atomic(args.outfile, prompt)
    digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
    write_text_atomic(args.outfile + ".sha256",
                      f"{digest}  {os.path.basename(args.outfile)}\n")
    print(f"prompt ({digest[:12]}) -> {args.outfile}")
    return 0


def cmd_audit(args) -> int:
    policy = _policy(args)
    profile = profile_for(args.lang, args.lexicon)
    if args.dual:
        pairs_a = load_pairs(args.dual[0], policy)
        pairs_b = load_pairs(args.dual[1], policy)
        if len(pairs_a) != len(pairs_b):
            raise InputError(
                f"candidate files differ in length: {len(pairs_a)} vs {len(pairs_b)}"
            )
        triples = []
        for pa, pb in zip(pairs_a, pairs_b):
            if pa.input != pb.input:
                raise InputError(
                    f"row {pa.row}: candidate files disagree on the input sentence"
                )
            triples.append((pa.input, pa.output, pb.output))
        report = dual_report(triples, profile, args.cap)
        body = report.to_dict()
        body.update({"lang": args.lang, "cap": args.cap, "total": len(triples)})
        write_report(args.report, "dual_audit", body)
        print(f"dual-audited {len(triples)} triples -> {args.report}")
        return 0
    pairs = load_pairs(args.infile, policy)
    audits = [audit_pair(p.input, p.output, profile, args.cap) for p in pairs]
    strata_counts = {s.value: 0 for s in Stratum}
    for a in audits:
        strata_counts[a.stratum.value] += 1
    category_counts = {cat.value: 0 for cat in CATEGORY_ORDER}
    for a in audits:
        category_counts[a.category.value] += 1
    body = {
        "lang": args.lang,
        "cap": args.cap,
        "total": len(audits),
        "strata_counts": strata_counts,
        "category_counts": category_counts,
        "pairs": [dict(row=p.row, **a.to_dict()) for p, a in zip(pairs, audits)],
    }
    write_report(args.report, "audit", body)
    print(f"audited {len(audits)} pairs -> {args.report}")
    return 0


def run(argv=None) -> int:
    """Entry point returning an exit code: 0 ok, 1 input error, 2 internal."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except (InputError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        traceback.print_exc()
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
