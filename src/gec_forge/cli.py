"""gec-forge command line: classify / analyze / score / normalize /
synth-prompt / audit.

All report files are JSON with a schema_version field, written atomically;
identical arguments and inputs produce byte-identical outputs.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys

from . import __version__
from .audit import DEFAULT_DISTANCE_CAP, STRATA, audit_pair, dual_report
from .classifier import CATEGORY_ORDER, SPELL_THRESHOLD, classify_pair, display_label
from .corpus import SPLITS, analyze, load_pairs, synthesize_prompt
from .errors import InputError
from .gleu import DEFAULT_MAX_N, MAX_N_LIMIT, gleu_corpus
from .reports import read_text, write_report, write_text_atomic
from .textnorm import (DEFAULT_POLICY, POLICY_CHOICES, POLICY_KEYS, NormalizationPolicy,
                       normalize_text, postprocess_hypothesis)
from .tokenizer import SYNTAX_LABELS, profile_for


def _read_lines(path) -> list[str]:
    # Universal newlines turn \r\n and \r into \n, and only \n ends a line:
    # str.splitlines would also break at \x0b, \x0c, \x1c-\x1e, \x85, U+2028
    # and U+2029 inside a line.
    lines = read_text(path).split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _shown(line: str) -> str:
    """line as run prints it, on stdout or stderr. A byte of a file name that
    is not UTF-8 reaches Python as a lone surrogate U+DC80-U+DCFF, which a
    strict stream cannot encode; it is shown as that byte, \\xfd. Any other
    lone surrogate, which only an in-process argv can hold, is shown as
    \\ud800. Every str gives a line that encodes as UTF-8."""
    return "".join(f"\\x{ord(c) - 0xDC00:02x}" if "\udc80" <= c <= "\udcff" else c
                   for c in line).encode("utf-8", "backslashreplace").decode("utf-8")


@contextlib.contextmanager
def _naming(*paths):
    """Prefix an InputError raised inside with the files its input came from."""
    try:
        yield
    except InputError as exc:
        raise InputError(f"{', '.join(paths)}: {exc}") from exc


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
    the key's default, a named policy's option takes a value."""
    name = key.replace("_", "-")
    return f"--no-{name}" if getattr(DEFAULT_POLICY, key) is True else f"--{name}"


def _add_normalization(sub):
    # Only a flag given sets its key, so a command can tell that one was.
    group = sub.add_argument_group("normalization", argument_default=argparse.SUPPRESS)
    for key in POLICY_KEYS:
        if key in POLICY_CHOICES:
            group.add_argument(_flag(key), choices=POLICY_CHOICES[key])
        else:
            action = "store_false" if getattr(DEFAULT_POLICY, key) else "store_true"
            group.add_argument(_flag(key), dest=key, action=action)


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
    subs = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

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


def cmd_classify(args) -> str:
    profile = profile_for(args.lang, args.lexicon)
    pairs = load_pairs(args.infile, _policy(args))
    if not pairs:
        raise InputError(f"{args.infile}: no pairs to classify")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = ["row", "category", "label"] + (["evidence"] if args.evidence else [])
    writer.writerow(header)
    for row, (inp, out) in enumerate(pairs):
        category, stage, rule, detail = classify_pair(inp, out, profile)
        record = [row, category, display_label(category, args.lang)]
        if args.evidence:
            record.append(json.dumps({"stage": stage, "rule": rule, "detail": detail},
                                     ensure_ascii=False, sort_keys=True))
        writer.writerow(record)
    write_text_atomic(args.outfile, buf.getvalue())
    return f"classified {len(pairs)} pairs -> {args.outfile}"


def cmd_analyze(args) -> str:
    policy = _policy(args)
    profile = profile_for(args.lang, args.lexicon)
    pairs = load_pairs(args.infile, policy)
    dropped = ""
    if args.dedup:  # keep the first pair of each exact (input, output) repeat
        kept = list(dict.fromkeys(pairs))
        dropped = f" ({len(pairs) - len(kept)} exact duplicates dropped)"
        pairs = kept
    with _naming(args.infile):
        body = analyze(pairs, profile, args.split)
    body["normalization"] = policy._asdict()
    body["classifier_constants"] = {"SPELL_THR": SPELL_THRESHOLD}
    write_report(args.report, "distribution", body)
    return f"analyzed {body['total']} pairs{dropped} -> {args.report}"


def cmd_score(args) -> str:
    policy = _policy(args)
    src, hyp, ref = _read_lines(args.src), _read_lines(args.hyp), _read_lines(args.ref)
    if not args.raw:
        src = [normalize_text(line, policy) for line in src]
        hyp = [normalize_text(line, policy) for line in hyp]
        ref = [normalize_text(line, policy) for line in ref]
    with _naming(args.src, args.hyp, args.ref):
        body = gleu_corpus(src, hyp, ref, args.max_n)
    if args.report is not None:
        body["normalization"] = None if args.raw else policy._asdict()
        write_report(args.report, "gleu", body)
    score = body["corpus_score"]
    return f"GLEU: {score:.6f} ({score * 100:.2f})"


def cmd_normalize(args) -> str:
    policy = _policy(args)
    lines = _read_lines(args.infile)
    if args.post:
        out = [postprocess_hypothesis(line, args.prompt_prefix) for line in lines]
    else:
        out = [normalize_text(line, policy) for line in lines]
    write_text_atomic(args.outfile, "\n".join(out) + ("\n" if out else ""))
    return f"normalized {len(lines)} lines -> {args.outfile}"


def cmd_synth_prompt(args) -> str:
    # ValueError: bad JSON, or an integer past int_max_str_digits;
    # RecursionError: arrays or objects nested past the recursion limit.
    try:
        report = json.loads(read_text(args.dist))
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{args.dist}: invalid JSON distribution report: {exc}") from exc
    with _naming(args.dist):
        prompt = synthesize_prompt(report)
    write_text_atomic(args.outfile, prompt)
    import hashlib  # loads OpenSSL; only this command needs it
    digest = hashlib.sha256(prompt.encode("utf-8")).hexdigest()
    write_text_atomic(args.outfile + ".sha256",
                      f"{digest}  {os.path.basename(args.outfile)}\n")
    return f"prompt ({digest[:12]}) -> {args.outfile}"


def cmd_audit(args) -> str:
    policy = _policy(args)
    profile = profile_for(args.lang, args.lexicon)
    if args.dual:
        pairs_a = load_pairs(args.dual[0], policy)
        pairs_b = load_pairs(args.dual[1], policy)
        with _naming(*args.dual):
            if len(pairs_a) != len(pairs_b):
                raise InputError(
                    f"candidate files differ in length: {len(pairs_a)} vs {len(pairs_b)}"
                )
            triples = []
            for row, ((inp, out_a), (inp_b, out_b)) in enumerate(zip(pairs_a, pairs_b)):
                if inp != inp_b:
                    raise InputError(f"row {row}: candidate files disagree on the input sentence")
                triples.append((inp, out_a, out_b))
            body = dual_report(triples, profile, args.cap)
        body.update({"lang": args.lang, "cap": args.cap, "total": len(triples)})
        write_report(args.report, "dual_audit", body)
        return f"dual-audited {len(triples)} triples -> {args.report}"
    pairs = load_pairs(args.infile, policy)
    if not pairs:
        raise InputError(f"{args.infile}: no pairs to audit")
    audits = [audit_pair(inp, out, profile, args.cap) for inp, out in pairs]
    strata_counts = dict.fromkeys((*STRATA, "none"), 0)
    category_counts = dict.fromkeys(CATEGORY_ORDER, 0)
    for a in audits:
        strata_counts[a["stratum"]] += 1
        category_counts[a["category"]] += 1
    body = {
        "lang": args.lang,
        "cap": args.cap,
        "total": len(audits),
        "strata_counts": strata_counts,
        "category_counts": category_counts,
        "pairs": [{"row": row, **a} for row, a in enumerate(audits)],
    }
    write_report(args.report, "audit", body)
    return f"audited {len(audits)} pairs -> {args.report}"


def run(argv=None) -> int:
    """Entry point returning an exit code: 0 ok, 1 input error, 2 internal.
    The command's summary line goes to stdout, an error line to stderr; run
    prints both, each through _shown, so a file name reads the same on
    either stream."""
    try:
        args = build_parser().parse_args(argv)
        print(_shown(args.func(args)))
        return 0
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    except (InputError, OSError) as exc:
        message = str(exc)
        if getattr(exc, "filename", None) is not None:  # str() spells the name with repr
            message = f"[Errno {exc.errno}] {exc.strerror}: '{exc.filename}'"
        print(_shown(f"error: {message}"), file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        import traceback  # loads textwrap; only a bug reaches here
        traceback.print_exc()
        print(_shown(f"internal error: {exc}"), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
