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
import logging
import os
import sys
from dataclasses import dataclass, field

from . import __version__
from .audit import DEFAULT_DISTANCE_CAP, Stratum, audit_pair, dual_report
from .classifier import CATEGORY_ORDER, classify_pair, constants
from .corpus import DistributionReport, analyze, load_pairs, synthesize_prompt
from .errors import GecForgeError, InputError, ParseError, SchemaError, UsageError
from .gleu import MAX_N_LIMIT, gleu_corpus, note_ignored_sampling_args
from .reports import read_text, write_report, write_text_atomic
from .textnorm import POLICY_KEYS, NormalizationPolicy, normalize_text, postprocess_hypothesis
from .tokenizer import profile_for

log = logging.getLogger(__name__)

LEXICON_ENV_VAR = "GEC_FORGE_LEXICON"


@dataclass
class RunConfig:
    """Shared knobs; the defaults reproduce the evaluation pipeline."""

    lang: str | None = None
    normalization: NormalizationPolicy = field(default_factory=NormalizationPolicy)
    lexicon_path: str | None = None
    max_n: int = 4
    cap: int = DEFAULT_DISTANCE_CAP
    seed: int | None = None


def load_config(path) -> RunConfig:
    """Read a flat key/value JSON config file into a RunConfig."""
    try:
        data = json.loads(read_text(path))
    except ValueError as exc:  # bad JSON, or an integer past int_max_str_digits
        raise InputError(f"{path}: invalid JSON config: {exc}") from exc
    if not isinstance(data, dict):
        raise InputError(f"{path}: config must be a JSON object")
    config = RunConfig()
    norm = data.pop("normalization", {})
    if not isinstance(norm, dict):
        raise SchemaError(f"{path}: config key 'normalization' must be a JSON object")
    for key in list(data):
        if key in POLICY_KEYS:  # flat normalization keys are also accepted
            norm[key] = data.pop(key)
    try:
        config.normalization = NormalizationPolicy.from_dict(norm)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    for key, value in data.items():
        if key in ("lang", "lexicon_path"):
            if value is not None and not isinstance(value, str):
                raise SchemaError(
                    f"{path}: config key {key!r} expects a string, got {value!r}"
                )
            if key == "lexicon_path" and value and "\0" in value:  # open() would raise
                raise SchemaError(f"{path}: config key 'lexicon_path' contains a NUL character")
            setattr(config, key, value)
        elif key == "seed" and value is None:
            config.seed = None
        elif key in ("max_n", "cap", "seed"):
            if type(value) is not int:  # not a float, bool or numeric string
                raise SchemaError(
                    f"{path}: config key {key!r} expects an integer, got {value!r}"
                )
            setattr(config, key, value)
        else:
            raise InputError(f"{path}: unknown config key: {key!r}")
    return config


def _resolve_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "lang", None):
        config.lang = args.lang
    if getattr(args, "lexicon", None):
        config.lexicon_path = args.lexicon
    elif config.lexicon_path is None and os.environ.get(LEXICON_ENV_VAR):
        config.lexicon_path = os.environ[LEXICON_ENV_VAR]
    if getattr(args, "max_n", None) is not None:
        config.max_n = args.max_n
    if not 1 <= config.max_n <= MAX_N_LIMIT:
        source = ("--max-n" if getattr(args, "max_n", None) is not None
                  else f"{args.config}: config key 'max_n'")
        raise InputError(f"{source} must be in 1..{MAX_N_LIMIT}, got {config.max_n}")
    if getattr(args, "cap", None) is not None:
        config.cap = args.cap
    if config.cap < 0:  # checked here, before any input file is read
        source = ("--cap" if getattr(args, "cap", None) is not None
                  else f"{args.config}: config key 'cap'")
        raise InputError(f"{source} must be >= 0, got {config.cap}")
    if getattr(args, "seed", None) is not None:
        config.seed = args.seed
    policy_overrides = {}
    for key in POLICY_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            policy_overrides[key] = value
    if policy_overrides:
        merged = config.normalization.to_dict()
        merged.update(policy_overrides)
        config.normalization = NormalizationPolicy.from_dict(merged)
    return config


def _profile(config: RunConfig):
    if not config.lang:
        raise UsageError("--lang is required (hi or ml)")
    return profile_for(config.lang, config.lexicon_path)


def _read_lines(path) -> list[str]:
    return read_text(path).splitlines()


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; the contract is usage text + exit 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _add_normalization(sub):
    sub.add_argument("--config", help="JSON config file with shared defaults")
    group = sub.add_argument_group("normalization")
    group.add_argument("--strip-invisibles", dest="strip_invisibles",
                       action="store_true", default=None)
    group.add_argument("--no-strip-invisibles", dest="strip_invisibles",
                       action="store_false")
    group.add_argument("--collapse-whitespace", dest="collapse_whitespace",
                       action="store_true", default=None)
    group.add_argument("--no-collapse-whitespace", dest="collapse_whitespace",
                       action="store_false")
    group.add_argument("--unify-terminal-punct", dest="unify_terminal_punct",
                       action="store_true", default=None)
    group.add_argument("--keep-joiners", dest="keep_joiners",
                       action="store_true", default=None)
    group.add_argument("--danda-policy", dest="danda_policy",
                       choices=["keep_danda", "map_danda_to_period", "map_period_to_danda"])
    group.add_argument("--digit-policy", dest="digit_policy",
                       choices=["to_ascii", "keep_native"])


def _add_language(sub):
    sub.add_argument("--lang", choices=["hi", "ml"], help="language profile")
    sub.add_argument(
        "--lexicon",
        help=f"lexicon file overriding the bundled one (or ${LEXICON_ENV_VAR})",
    )


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
    p.add_argument("--split", choices=["train", "dev", "test"], required=True)
    p.add_argument("--report", required=True, metavar="DIST_JSON")
    p.add_argument("--dedup", action="store_true",
                   help="drop exact duplicate pairs before counting")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("score", help="corpus GLEU over src/hyp/ref line files")
    _add_normalization(p)
    p.add_argument("--src", required=True)
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--max-n", dest="max_n", type=int, default=None)
    p.add_argument("--report", metavar="REPORT_JSON")
    p.add_argument("--iterations", type=int, default=None,
                   help="accepted for harness compatibility; ignored")
    p.add_argument("--seed", type=int, default=None,
                   help="accepted for harness compatibility; ignored")
    p.add_argument("--raw", action="store_true",
                   help="score lines as-is, skipping normalization")
    p.set_defaults(func=cmd_score)

    p = subs.add_parser("normalize", help="normalize text lines per policy")
    _add_normalization(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--post", action="store_true",
                   help="apply the hypothesis post-processor instead")
    p.add_argument("--prompt-prefix", default=None,
                   help="leading prompt echo removed by --post")
    p.set_defaults(func=cmd_normalize)

    p = subs.add_parser("synth-prompt", help="render a prompt from a distribution report")
    p.add_argument("--dist", required=True, metavar="DIST_JSON")
    p.add_argument("--out", dest="outfile", required=True, metavar="PROMPT_TXT")
    p.set_defaults(func=cmd_synth_prompt)

    p = subs.add_parser("audit", help="stratify model edits against guardrails")
    _add_normalization(p)
    _add_language(p)
    p.add_argument("--in", dest="infile", metavar="PREDS_CSV",
                   help="single-candidate predictions CSV (input/output columns)")
    p.add_argument("--dual", nargs=2, metavar=("A_CSV", "B_CSV"),
                   help="two candidate CSVs sharing inputs row-by-row")
    p.add_argument("--cap", type=int, default=None,
                   help=f"token edit-distance cap (default {DEFAULT_DISTANCE_CAP})")
    p.add_argument("--report", required=True, metavar="AUDIT_JSON")
    p.set_defaults(func=cmd_audit)
    return parser


def cmd_classify(args) -> int:
    config = _resolve_config(args)
    profile = _profile(config)
    pairs = load_pairs(args.infile, config.normalization)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["row", "category", "label"] + (["evidence"] if args.evidence else [])
    writer.writerow(header)
    for pair in pairs:
        result = classify_pair(pair.input, pair.output, profile)
        record = [pair.row, result.category.value, result.category.display_label(config.lang)]
        if args.evidence:
            record.append(json.dumps(
                {"stage": result.evidence.stage, "rule": result.evidence.rule,
                 "detail": result.evidence.detail},
                ensure_ascii=False, sort_keys=True))
        writer.writerow(record)
    write_text_atomic(args.outfile, buf.getvalue())
    print(f"classified {len(pairs)} pairs -> {args.outfile}")
    return 0


def cmd_analyze(args) -> int:
    config = _resolve_config(args)
    profile = _profile(config)
    pairs = load_pairs(args.infile, config.normalization, drop_duplicates=args.dedup)
    report = analyze(pairs, profile, args.split)
    body = report.to_dict()
    body["normalization"] = config.normalization.to_dict()
    body["classifier_constants"] = constants()
    write_report(args.report, "distribution", body)
    print(f"analyzed {report.total} pairs -> {args.report}")
    return 0


def cmd_score(args) -> int:
    config = _resolve_config(args)
    note_ignored_sampling_args(args.iterations, config.seed)
    src, hyp, ref = _read_lines(args.src), _read_lines(args.hyp), _read_lines(args.ref)
    if not args.raw:
        src = [normalize_text(line, config.normalization) for line in src]
        hyp = [normalize_text(line, config.normalization) for line in hyp]
        ref = [normalize_text(line, config.normalization) for line in ref]
    report = gleu_corpus(src, hyp, ref, config.max_n)
    if args.report:
        body = report.to_dict()
        body["normalization"] = None if args.raw else config.normalization.to_dict()
        write_report(args.report, "gleu", body)
    print(f"GLEU: {report.corpus_score:.6f} ({report.corpus_score * 100:.2f})")
    return 0


def cmd_normalize(args) -> int:
    config = _resolve_config(args)
    lines = _read_lines(args.infile)
    if args.post:
        out = [postprocess_hypothesis(line, args.prompt_prefix) for line in lines]
    else:
        out = [normalize_text(line, config.normalization) for line in lines]
    write_text_atomic(args.outfile, "\n".join(out) + ("\n" if out else ""))
    print(f"normalized {len(lines)} lines -> {args.outfile}")
    return 0


def cmd_synth_prompt(args) -> int:
    try:
        data = json.loads(read_text(args.dist))
    except ValueError as exc:  # bad JSON, or an integer past int_max_str_digits
        raise ParseError(f"{args.dist}: invalid JSON distribution report: {exc}") from exc
    try:
        report = DistributionReport.from_dict(data)
    except SchemaError as exc:
        raise SchemaError(f"{args.dist}: {exc}") from exc
    prompt = synthesize_prompt(report)
    write_text_atomic(args.outfile, prompt)
    digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
    write_text_atomic(args.outfile + ".sha256",
                      f"{digest}  {os.path.basename(args.outfile)}\n")
    print(f"prompt ({digest[:12]}) -> {args.outfile}")
    return 0


def cmd_audit(args) -> int:
    config = _resolve_config(args)
    profile = _profile(config)
    if bool(args.infile) == bool(args.dual):
        raise UsageError("audit needs exactly one of --in or --dual")
    if args.dual:
        pairs_a = load_pairs(args.dual[0], config.normalization)
        pairs_b = load_pairs(args.dual[1], config.normalization)
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
        report = dual_report(triples, profile, config.cap)
        body = report.to_dict()
        body.update({"lang": config.lang, "cap": config.cap, "total": len(triples)})
        write_report(args.report, "dual_audit", body)
        print(f"dual-audited {len(triples)} triples -> {args.report}")
        return 0
    pairs = load_pairs(args.infile, config.normalization)
    audits = [audit_pair(p.input, p.output, profile, config.cap) for p in pairs]
    strata_counts = {s.value: 0 for s in Stratum}
    for a in audits:
        strata_counts[a.stratum.value] += 1
    category_counts = {cat.value: 0 for cat in CATEGORY_ORDER}
    for a in audits:
        category_counts[a.category.value] += 1
    body = {
        "lang": config.lang,
        "cap": config.cap,
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
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s",
                        stream=sys.stderr)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (GecForgeError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        log.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
