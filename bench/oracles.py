"""Independent oracles the benchmark checks the program's outputs against.

Nothing here imports gec_forge. Each function is written from the
documented behaviour in the plainest form: a straight-line classifier on
difflib.SequenceMatcher, textbook Levenshtein over a full matrix, pooled
GLEU by explicit n-gram counting, and the default ingestion normalization.
The only thing read from the package is its lexicon data file.
"""
import math
from collections import Counter
import unicodedata
from difflib import SequenceMatcher

# Default normalization inventory: zero-width space, ZWNJ, ZWJ, BOM, soft
# hyphen, and the two bidi marks.
INVENTORY = frozenset("\u200b\u200c\u200d\ufeff\u00ad\u200e\u200f")
NATIVE_DIGITS = {0x0966 + i: str(i) for i in range(10)}
NATIVE_DIGITS.update({0x0D66 + i: str(i) for i in range(10)})

SPELL_THRESHOLD = 2
CATEGORIES = (
    "null_empty", "no_error", "punct_whitespace", "word_order",
    "missing_extra_word", "syntax_agreement", "morphology", "spelling",
    "grammar_syntax",
)
LABELS = {
    "null_empty": "Null/Empty Pair",
    "no_error": "No Error",
    "punct_whitespace": "Punctuation/Whitespace",
    "word_order": "Word Order",
    "missing_extra_word": "Missing/Extra Word",
    "syntax_agreement": "Syntax/Agreement",
    "morphology": "Morphology (Inflection/Affix)",
    "spelling": "Spelling/Orthography",
    "grammar_syntax": "Grammar/Syntax",
}
NON_EDITS = ("no_error", "null_empty")


def label(category, lang):
    if category == "syntax_agreement" and lang == "hi":
        return "Syntax/Case/Agreement"
    return LABELS[category]


def normalize(s):
    """Default ingestion policy: drop the inventory, NFKC, ASCII digits,
    collapse whitespace runs to one space and trim."""
    s = "".join(ch for ch in s if ch not in INVENTORY)
    s = unicodedata.normalize("NFKC", s)
    s = s.translate(NATIVE_DIGITS)
    return " ".join(s.split())


def projection(s):
    """Letters, digits and combining marks only."""
    return "".join(
        ch for ch in s if ch.isalnum() or unicodedata.category(ch)[0] == "M"
    )


def strip_echo(s, prefix):
    s = s.lstrip()
    while prefix and s.startswith(prefix):
        s = s[len(prefix):].lstrip()
    return s


def read_lexicon(path):
    """Sections of a lexicon file as sets (suffixes as a list)."""
    lex = {"auxiliaries": set(), "postpositions": set(), "suffixes": []}
    section = None
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#")[0].strip()
            if not line:
                continue
            if line[0] == "[" and line[-1] == "]":
                section = line[1:-1].strip().lower()
            elif section == "suffixes":
                lex["suffixes"].append(line)
            else:
                lex[section].add(line)
    return lex


def nullish(s):
    s = s.strip()
    return s == "" or s.lower() in ("nan", "null", "none")


def char_kind(ch):
    cp = ord(ch)
    if ch in "0123456789" or cp in NATIVE_DIGITS:
        return "digit"
    if "A" <= ch <= "Z" or "a" <= ch <= "z":
        return "latn"
    letter_or_mark = unicodedata.category(ch)[0] in "LM"
    if 0x0900 <= cp <= 0x097F and letter_or_mark:
        return "deva"
    if 0x0D00 <= cp <= 0x0D7F and letter_or_mark:
        return "mlym"
    return "punct"


def tokenize(s):
    """Maximal runs of one character kind; whitespace only separates."""
    tokens, current, kind = [], "", None
    for ch in s:
        if ch.isspace():
            if current:
                tokens.append(current)
            current, kind = "", None
            continue
        k = char_kind(ch)
        if current and k == kind:
            current += ch
        else:
            if current:
                tokens.append(current)
            current, kind = ch, k
    if current:
        tokens.append(current)
    return tokens


def is_punct(tok):
    return all(char_kind(ch) == "punct" for ch in tok)


def same_script(a, b):
    scripts_a = {char_kind(ch) for ch in a} & {"deva", "mlym", "latn"}
    scripts_b = {char_kind(ch) for ch in b} & {"deva", "mlym", "latn"}
    return len(scripts_a) == 1 and scripts_a == scripts_b


def suffix_tail_change(a, b, suffixes):
    k = 0
    while k < min(len(a), len(b)) and a[k] == b[k]:
        k += 1
    tail_a, tail_b = a[k:], b[k:]
    if tail_a == tail_b:
        return False
    return any(tail_a.endswith(s) or tail_b.endswith(s) for s in suffixes)


def levenshtein(a, b):
    """Textbook unit-cost edit distance over the full (n+1) x (m+1) matrix."""
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + (a[i - 1] != b[j - 1]),
            )
    return d[n][m]


def _sorted_nonpunct(tokens):
    return sorted(t for t in tokens if not is_punct(t))


def classify(inp, out, lex):
    """(category, evidence) for one normalized pair; evidence is the
    {"stage", "rule", "detail"} object `classify --evidence` writes."""
    def evidence(stage, rule, **detail):
        return {"stage": stage, "rule": rule, "detail": detail}

    if nullish(inp) or nullish(out):
        return "null_empty", evidence(1, "nullish")
    if inp == out:
        return "no_error", evidence(2, "identical")
    if projection(inp) == projection(out):
        return "punct_whitespace", evidence(3, "equal_projection")
    a, b = tokenize(inp), tokenize(out)
    if a != b and _sorted_nonpunct(a) == _sorted_nonpunct(b):
        return "word_order", evidence(4, "permuted_multiset")

    def syntax(seg):
        return any(t in lex["auxiliaries"] or t in lex["postpositions"] for t in seg)

    insdel = repl = spell = False
    hits, pairs = [], []  # tokens of syntax-touching segments; suffix-changed pairs
    for tag, i1, i2, j1, j2 in opcodes(a, b):
        seg_a, seg_b = a[i1:i2], b[j1:j2]
        if tag == "equal":
            continue
        insdel = insdel or tag != "replace"
        repl = repl or tag == "replace"
        if syntax(seg_a) or syntax(seg_b):
            hits += seg_a + seg_b
        elif tag == "replace":
            for ta, tb in zip(seg_a, seg_b):
                if same_script(ta, tb) and suffix_tail_change(ta, tb, lex["suffixes"]):
                    pairs.append([ta, tb])
                elif levenshtein(ta, tb) <= SPELL_THRESHOLD:
                    spell = True
    if insdel:
        if hits:
            return "syntax_agreement", evidence(5, "insert_delete_syntax", hits=hits)
        return "missing_extra_word", evidence(5, "insert_delete")
    if repl:
        if hits:
            return "syntax_agreement", evidence(5, "replace_syntax", hits=hits)
        if pairs:
            return "morphology", evidence(5, "replace_suffix_tail", pairs=pairs)
        if spell:
            return "spelling", evidence(5, "replace_small_distance", threshold=SPELL_THRESHOLD)
        return "grammar_syntax", evidence(5, "replace_other")
    return "grammar_syntax", evidence(6, "fallback")


def opcodes(a, b):
    # autojunk=False: with the default, tokens that are frequent in a side of
    # 200+ tokens are junked and the opcodes stop matching align().
    return SequenceMatcher(None, a, b, autojunk=False).get_opcodes()


def stratum(category, distance, cap):
    if category in NON_EDITS:
        return "none"
    if category == "punct_whitespace":
        return "redundant"
    if category == "word_order" or distance > cap:
        return "risky"
    return "rectifying"


PREFERENCE = {"rectifying": 0, "redundant": 1, "risky": 2, "none": 3}


def reordered(a, b):
    """Tokens removed somewhere and added elsewhere between token lists."""
    removed, added = Counter(), Counter()
    for tag, i1, i2, j1, j2 in opcodes(a, b):
        if tag in ("delete", "replace"):
            removed.update(a[i1:i2])
        if tag in ("insert", "replace"):
            added.update(b[j1:j2])
    return sum((removed & added).values())


def resolve(src, a, b, strata, distances):
    """(side, reason) of the dual-candidate pick: identical texts go to a;
    then the preferred stratum, the lower token edit distance, the fewer
    moved tokens, and a."""
    if a == b:
        return "a", "identical"
    pref = [PREFERENCE[s] for s in strata]
    if pref[0] != pref[1]:
        side = "a" if pref[0] < pref[1] else "b"
        return side, "stratum:" + strata[side == "b"]
    if distances[0] != distances[1]:
        return ("a" if distances[0] < distances[1] else "b"), "edit_distance"
    src_tokens = tokenize(src)
    moves = [reordered(src_tokens, tokenize(c)) for c in (a, b)]
    if moves[0] != moves[1]:
        return ("a" if moves[0] < moves[1] else "b"), "reordering"
    return "a", "positional"


def _ngrams(tokens, n):
    counts = {}
    for i in range(len(tokens) - n + 1):
        g = tuple(tokens[i:i + n])
        counts[g] = counts.get(g, 0) + 1
    return counts


def gleu(sources, hypotheses, references, max_n):
    """Pooled single-reference GLEU by brute-force n-gram counting."""
    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = ref_len = 0
    for src_line, hyp_line, ref_line in zip(sources, hypotheses, references):
        s, h, r = src_line.split(), hyp_line.split(), ref_line.split()
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, max_n + 1):
            hc, rc, sc = _ngrams(h, n), _ngrams(r, n), _ngrams(s, n)
            overlap = sum(min(c, rc.get(g, 0)) for g, c in hc.items())
            penalty = sum(
                min(hc.get(g, 0), c - rc.get(g, 0))
                for g, c in sc.items() if c > rc.get(g, 0)
            )
            matches[n - 1] += max(overlap - penalty, 0)
            totals[n - 1] += max(len(h) - n + 1, 0)
    if hyp_len == 0 or 0 in matches or 0 in totals:
        score = 0.0
    else:
        log_p = sum(math.log(m / t) for m, t in zip(matches, totals)) / max_n
        score = min(1.0, math.exp(1.0 - ref_len / hyp_len)) * math.exp(log_p)
    return {
        "corpus_score": score,
        "matches": matches,
        "hyp_ngrams": totals,
        "hyp_tokens": hyp_len,
        "ref_tokens": ref_len,
    }
