"""Output checker: compares every file one pass of the subcommand chain
writes against the oracles, and returns the list of problems found (empty
when the outputs are correct)."""
import csv
import hashlib
import json
import os

import oracles

CAP = 5
MAX_N = 4


class Expected:
    """Oracle view of one workload's inputs, computed once per run."""

    def __init__(self, rows, lang, lexicon_path, dedup, prompt_prefix):
        lex = oracles.read_lexicon(lexicon_path)
        self.lang = lang
        self.prompt_prefix = prompt_prefix
        self.rows = rows
        self.src = [oracles.normalize(r[0]) for r in rows]
        self.ref = [oracles.normalize(r[1]) for r in rows]
        self.hyp = [oracles.normalize(r[2]) for r in rows]
        self.cat_ref = [oracles.classify(s, a, lex) for s, a in zip(self.src, self.ref)]
        self.cat_hyp = [oracles.classify(s, b, lex)[0] for s, b in zip(self.src, self.hyp)]
        self.dist_ref = [self._distance(s, a) for s, a in zip(self.src, self.ref)]
        self.dist_hyp = [self._distance(s, b) for s, b in zip(self.src, self.hyp)]
        self.strata_ref = [oracles.stratum(c, d, CAP) for (c, _), d in zip(self.cat_ref, self.dist_ref)]
        self.strata_hyp = [oracles.stratum(c, d, CAP) for c, d in zip(self.cat_hyp, self.dist_hyp)]
        self.resolutions = [
            oracles.resolve(s, a, b, strata, distances)
            for s, a, b, strata, distances in zip(
                self.src, self.ref, self.hyp,
                zip(self.strata_ref, self.strata_hyp), zip(self.dist_ref, self.dist_hyp))
        ]
        self.kept_rows = list(range(len(rows)))
        if dedup:  # first occurrence of each normalized (input, output)
            first = {}
            for i, key in enumerate(zip(self.src, self.ref)):
                first.setdefault(key, i)
            self.kept_rows = sorted(first.values())

    @staticmethod
    def _distance(a, b):
        return oracles.levenshtein(oracles.tokenize(a), oracles.tokenize(b))


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read().splitlines()


def _json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _tally(items, keys):
    counts = {k: 0 for k in keys}
    for item in items:
        counts[item] += 1
    return counts


def check_normalize(exp, d, problems):
    out = _lines(os.path.join(d, "src_norm.txt"))
    if out != exp.src:
        problems.append("normalize: output differs from the reference normalization")
    if any(ch in oracles.INVENTORY for line in out for ch in line):
        problems.append("normalize: inventory characters survive")
    with open(os.path.join(d, "src_norm.txt"), "rb") as a, \
            open(os.path.join(d, "src_norm_again.txt"), "rb") as b:
        if a.read() != b.read():
            problems.append("normalize: not idempotent")


def check_postprocess(exp, d, problems):
    out = _lines(os.path.join(d, "hyp_post.txt"))
    if len(out) != len(exp.rows):
        problems.append(f"post: {len(out)} lines for {len(exp.rows)} inputs")
        return
    for i, (row, line) in enumerate(zip(exp.rows, out)):
        echo_free = oracles.strip_echo(row[3], exp.prompt_prefix)
        if oracles.projection(line) != oracles.projection(echo_free):
            problems.append(f"post: line {i} changed letters or digits")
        elif " ".join(line.split()) != line or line.startswith(exp.prompt_prefix):
            problems.append(f"post: line {i} keeps an echo or a whitespace fault")


def check_analyze(exp, d, problems):
    report = _json(os.path.join(d, "dist.json"))
    want = _tally((exp.cat_ref[i][0] for i in exp.kept_rows), oracles.CATEGORIES)
    if report.get("total") != len(exp.kept_rows):
        problems.append(f"analyze: total {report.get('total')} != {len(exp.kept_rows)} kept rows")
    if report.get("counts") != want:
        problems.append("analyze: category counts differ from the oracle tally")
    if sum(report.get("counts", {}).values()) != report.get("total"):
        problems.append("analyze: counts do not sum to the total")


def check_prompt(exp, d, problems):
    with open(os.path.join(d, "prompt.txt"), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    with open(os.path.join(d, "prompt.txt.sha256"), encoding="utf-8") as fh:
        if fh.read() != f"{digest}  prompt.txt\n":
            problems.append("synth-prompt: sidecar does not match the prompt's SHA-256")


def check_classify(exp, d, problems):
    with open(os.path.join(d, "labels.csv"), encoding="utf-8", newline="") as fh:
        records = list(csv.reader(fh))
    if records[:1] != [["row", "category", "label", "evidence"]] or \
            len(records) != len(exp.rows) + 1:
        problems.append("classify: bad header or row count")
        return
    for i, (rec, (cat, evidence)) in enumerate(zip(records[1:], exp.cat_ref)):
        if rec[:3] != [str(i), cat, oracles.label(cat, exp.lang)]:
            problems.append(f"classify: row {i}: {rec[:3]} != oracle {cat}")
        elif json.loads(rec[3]) != evidence:
            problems.append(f"classify: row {i}: evidence {rec[3]} != oracle {evidence}")


def check_audit(exp, d, problems):
    report = _json(os.path.join(d, "audit.json"))
    n = len(exp.rows)
    pairs = report.get("pairs", [])
    if report.get("total") != n or len(pairs) != n or report.get("cap") != CAP:
        problems.append("audit: total, pair count or cap is wrong")
        return
    for i, (p, cat, dist, stratum) in enumerate(
            zip(pairs, exp.cat_hyp, exp.dist_hyp, exp.strata_hyp)):
        want = {
            "row": i,
            "category": cat,
            "stratum": stratum,
            "edit_distance": dist,
            "multiset_preserving_reorder": cat == "word_order",
            "distance_cap_exceeded": dist > CAP,
        }
        if p != want:
            problems.append(f"audit: row {i}: {p} != {want}")
    if report.get("category_counts") != _tally(exp.cat_hyp, oracles.CATEGORIES):
        problems.append("audit: category counts differ from the oracle tally")
    if report.get("strata_counts") != _tally(exp.strata_hyp, ("redundant", "rectifying", "risky", "none")):
        problems.append("audit: strata counts differ from the oracle tally")


def check_dual(exp, d, problems):
    report = _json(os.path.join(d, "dual.json"))
    n = len(exp.rows)
    index = {c: i for i, c in enumerate(oracles.CATEGORIES)}
    strata_index = {s: i for i, s in enumerate(("redundant", "rectifying", "risky"))}
    agreement = [[0] * len(index) for _ in index]
    strata_cross = [[0] * len(strata_index) for _ in strata_index]
    union = both = same = 0
    for (cat_a, _), cat_b, s_a, s_b in zip(exp.cat_ref, exp.cat_hyp, exp.strata_ref, exp.strata_hyp):
        agreement[index[cat_a]][index[cat_b]] += 1
        if s_a in strata_index and s_b in strata_index:
            strata_cross[strata_index[s_a]][strata_index[s_b]] += 1
        edits_a, edits_b = cat_a not in oracles.NON_EDITS, cat_b not in oracles.NON_EDITS
        union += edits_a or edits_b
        both += edits_a and edits_b
        same += edits_a and edits_b and cat_a == cat_b
    if report.get("total") != n or sum(map(sum, report.get("agreement", []))) != n:
        problems.append("dual: agreement matrix does not sum to the row count")
    if report.get("agreement") != agreement:
        problems.append("dual: agreement matrix differs from the oracle categories")
    if report.get("strata_cross") != strata_cross:
        problems.append("dual: strata matrix differs from the oracle strata")
    counts = (report.get("union_count"), report.get("intersection_count"),
              report.get("conflict_count"))
    if counts != (union, same, both - same):
        problems.append(f"dual: union/intersection/conflict {counts} != oracle")
    resolutions = report.get("resolutions", [])
    if len(resolutions) != n:
        problems.append("dual: one resolution per row expected")
        return
    for i, (res, a, b, (side, reason)) in enumerate(
            zip(resolutions, exp.ref, exp.hyp, exp.resolutions)):
        if res.get("text") not in (a, b):
            problems.append(f"dual: row {i}: chosen text is neither candidate")
        elif res != {"row": i, "chosen": side, "text": a if side == "a" else b, "reason": reason}:
            problems.append(f"dual: row {i}: {res} != oracle pick {side} ({reason})")


def check_score(exp, d, problems):
    report = _json(os.path.join(d, "gleu.json"))
    hyp = [oracles.normalize(line) for line in _lines(os.path.join(d, "hyp_post.txt"))]
    want = oracles.gleu(exp.src, hyp, exp.ref, MAX_N)
    stats = [
        {"n": n + 1, "matches": want["matches"][n], "hyp_ngrams": want["hyp_ngrams"][n]}
        for n in range(MAX_N)
    ]
    if report.get("ngram_stats") != stats:
        problems.append(f"score: n-gram stats {report.get('ngram_stats')} != {stats}")
    if (report.get("hyp_tokens"), report.get("ref_tokens")) != \
            (want["hyp_tokens"], want["ref_tokens"]):
        problems.append("score: token totals differ from the oracle")
    if abs(report.get("corpus_score", -1.0) - want["corpus_score"]) > 1e-12:
        problems.append(f"score: GLEU {report.get('corpus_score')} != {want['corpus_score']}")
    if len(report.get("per_sentence", [])) != len(exp.rows):
        problems.append("score: one per-sentence score per line expected")


CHECKS = (
    check_normalize, check_postprocess, check_analyze, check_prompt,
    check_classify, check_audit, check_dual, check_score,
)


def check_outputs(exp, d):
    """All problems found in the outputs under directory d."""
    problems = []
    for fn in CHECKS:
        try:
            fn(exp, d, problems)
        except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
            problems.append(f"{fn.__name__}: unreadable output: {exc!r}")
    return problems
