"""Independent brute-force oracles.

Everything here is written against the contracts directly, in the most
obvious way possible (explicit loops, dict counting, recursion), and stays
independent of the package implementation it checks. The straight-line
classifier, audit and reconcile at the end are built from the per-character
oracles above them and stdlib difflib, so the package and this module can
only agree by computing the same labels.
"""
import json
import math
import re
import unicodedata
from collections import Counter
from difflib import SequenceMatcher
from functools import lru_cache
from pathlib import Path


def levenshtein_recursive(a, b):
    """Memoized textbook recursion for unit-cost edit distance."""

    @lru_cache(maxsize=None)
    def go(i, j):
        if i == 0:
            return j
        if j == 0:
            return i
        sub = 0 if a[i - 1] == b[j - 1] else 1
        return min(go(i - 1, j) + 1, go(i, j - 1) + 1, go(i - 1, j - 1) + sub)

    return go(len(a), len(b))


def levenshtein_matrix(a, b):
    """Full (len(a)+1) x (len(b)+1) edit-distance table, filled row by row;
    items are compared with == only."""
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            sub = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1,
                              table[i - 1][j - 1] + sub)
    return table[len(a)][len(b)]


OPCODE_TAGS = ("equal", "insert", "delete", "replace")


def validate_opcodes(ops, a, b):
    """Raise ValueError unless ops, a list of difflib (tag, i1, i2, j1, j2)
    tuples, is a well-formed edit script of a -> b: known tags, spans that
    tile both sequences in order, no two adjacent opcodes with one tag, and
    each tag's span shape (equal spans over equal content)."""
    ai = bi = 0
    prev_tag = None
    for tag, i1, i2, j1, j2 in ops:
        if tag not in OPCODE_TAGS:
            raise ValueError(f"unknown opcode tag {tag!r}")
        if (i1, j1) != (ai, bi):
            raise ValueError("opcode spans do not tile the sequences")
        if tag == prev_tag:
            raise ValueError(f"adjacent {tag!r} opcodes are not merged")
        a_len, b_len = i2 - i1, j2 - j1
        if tag == "equal":
            if a_len != b_len or a_len == 0:
                raise ValueError("equal opcode with mismatched or empty spans")
            if list(a[i1:i2]) != list(b[j1:j2]):
                raise ValueError("equal opcode over unequal content")
        elif tag == "insert":
            if a_len != 0 or b_len == 0:
                raise ValueError("bad insert spans")
        elif tag == "delete":
            if a_len == 0 or b_len != 0:
                raise ValueError("bad delete spans")
        elif tag == "replace":
            if a_len == 0 or b_len == 0:
                raise ValueError("bad replace spans")
        ai, bi = i2, j2
        prev_tag = tag
    if ai != len(a) or bi != len(b):
        raise ValueError("opcodes do not cover both sequences")


def apply_opcodes(ops, a, b):
    """Rebuild b from a plus the b-side material of the opcodes."""
    out = []
    for tag, i1, i2, j1, j2 in ops:
        if tag == "equal":
            out.extend(a[i1:i2])
        elif tag in ("insert", "replace"):
            out.extend(b[j1:j2])
    return out


def native_digits_to_ascii(s):
    """Map each Devanagari (U+0966-U+096F) and Malayalam (U+0D66-U+0D6F)
    decimal digit to its ASCII digit; leave every other character."""
    out = []
    for ch in s:
        cp = ord(ch)
        if 0x0966 <= cp <= 0x096F:
            out.append(str(cp - 0x0966))
        elif 0x0D66 <= cp <= 0x0D6F:
            out.append(str(cp - 0x0D66))
        else:
            out.append(ch)
    return "".join(out)


def whitespace_collapse(s):
    """Drop leading and trailing whitespace and turn each inner run of
    whitespace characters into one space."""
    words = []
    word = []
    for ch in s:
        if not ch.isspace():
            word.append(ch)
        elif word:
            words.append("".join(word))
            word = []
    if word:
        words.append("".join(word))
    return " ".join(words)


_TERMINAL_RUN = re.compile(r"\s*([.।?!](?:\s*[.।?!])*)\s*$")


def unify_terminal_run(s):
    """The right-anchored regex form of the terminal-run rule: a trailing
    run of sentence-final marks, optionally space-separated, collapses to
    its final mark. Quadratic in the length of a mark run, so only for
    short inputs."""
    m = _TERMINAL_RUN.search(s)
    if not m:
        return s
    marks = [ch for ch in m.group(1) if ch in ".।?!"]
    return s[: m.start()] + marks[-1]


def strip_prompt_echo(s, prompt_prefix):
    """The slicing form of the echo rule: drop leading whitespace, then each
    leading copy of prompt_prefix and the whitespace after it. Each echo
    copies the rest of the line, so quadratic in the number of echoes."""
    s = s.lstrip()
    if prompt_prefix:
        while s.startswith(prompt_prefix):
            s = s[len(prompt_prefix):].lstrip()
    return s


def char_classes(s):
    """Per-character class map used to hand-check tokenization."""
    out = []
    for ch in s:
        cp = ord(ch)
        if ch.isspace():
            out.append("space")
        elif ch in "0123456789" or 0x0966 <= cp <= 0x096F or 0x0D66 <= cp <= 0x0D6F:
            out.append("digit")
        elif "A" <= ch <= "Z" or "a" <= ch <= "z":
            out.append("script:latn")
        elif 0x0900 <= cp <= 0x097F and unicodedata.category(ch)[0] in "LM":
            out.append("script:deva")
        elif 0x0D00 <= cp <= 0x0D7F and unicodedata.category(ch)[0] in "LM":
            out.append("script:mlym")
        else:
            out.append("punct")
    return out


def projection_filter(s):
    """Per-character filter: keep the characters char_classes marks as a
    digit or a script letter or mark."""
    kept = []
    for ch, c in zip(s, char_classes(s)):
        if c == "digit" or c.startswith("script:"):
            kept.append(ch)
    return "".join(kept)


def tokens_by_class(s):
    """Group consecutive equal non-space classes into (text, kind) runs."""
    classes = char_classes(s)
    grouped = []
    i = 0
    while i < len(s):
        if classes[i] == "space":
            i += 1
            continue
        j = i
        while j < len(s) and classes[j] == classes[i]:
            j += 1
        grouped.append((s[i:j], classes[i].split(":")[0]))
        i = j
    return grouped


def is_punct_by_class(s):
    """True iff no character of s is a digit or a script letter or mark."""
    return all(c in ("punct", "space") for c in char_classes(s))


def token_script_by_class(s):
    """The one script among the character classes of s, else None."""
    scripts = set()
    for c in char_classes(s):
        if c.startswith("script:"):
            scripts.add(c.split(":")[1])
    if len(scripts) == 1:
        return scripts.pop()
    return None


def touches_syntax(segment, auxiliaries, postpositions):
    """True iff some token of the segment is in one of the two word sets."""
    for tok in segment:
        if tok in auxiliaries or tok in postpositions:
            return True
    return False


def _ngram_list(tokens, n):
    return [tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1)]


def _count(grams):
    counts = {}
    for g in grams:
        counts[g] = counts.get(g, 0) + 1
    return counts


def gleu_tallies(sources, hypotheses, references, max_n=4):
    """Literal GLEU tallies: per order, reward hypothesis n-grams the
    reference keeps and penalize ones matching only leftover source
    material (source count minus reference count, clipped at zero), each
    order's net clipped at zero. Returns the pooled per-order "matches" and
    "hyp_ngrams", the token totals, and "per_sentence" scores smoothed by
    replacing every zero tally and length with one."""
    nums = [0] * max_n
    dens = [0] * max_n
    hyp_total = ref_total = 0
    per_sentence = []
    for src_line, hyp_line, ref_line in zip(sources, hypotheses, references):
        s, h, r = src_line.split(), hyp_line.split(), ref_line.split()
        hyp_total += len(h)
        ref_total += len(r)
        sentence_nums = []
        sentence_dens = []
        for n in range(1, max_n + 1):
            hc = _count(_ngram_list(h, n))
            rc = _count(_ngram_list(r, n))
            sc = _count(_ngram_list(s, n))
            overlap = 0
            for g, c in hc.items():
                overlap += min(c, rc.get(g, 0))
            penalty = 0
            for g, c in sc.items():
                extra = c - rc.get(g, 0)
                if extra > 0:
                    penalty += min(hc.get(g, 0), extra)
            sentence_nums.append(max(overlap - penalty, 0))
            sentence_dens.append(max(len(h) - n + 1, 0))
        for n in range(max_n):
            nums[n] += sentence_nums[n]
            dens[n] += sentence_dens[n]
        per_sentence.append(_geometric_score(
            [m or 1 for m in sentence_nums], [t or 1 for t in sentence_dens],
            len(h) or 1, len(r) or 1,
        ))
    return {"matches": nums, "hyp_ngrams": dens, "hyp_tokens": hyp_total,
            "ref_tokens": ref_total, "per_sentence": per_sentence}


def _geometric_score(nums, dens, hyp_len, ref_len):
    if hyp_len == 0:
        return 0.0
    for m, t in zip(nums, dens):
        if m == 0 or t == 0:
            return 0.0
    log_mean = sum(math.log(m / t) for m, t in zip(nums, dens)) / len(nums)
    brevity = min(1.0, math.exp(1.0 - ref_len / hyp_len))
    return brevity * math.exp(log_mean)


def gleu_brute(sources, hypotheses, references, max_n=4):
    """Corpus GLEU from the pooled gleu_tallies, with no smoothing."""
    t = gleu_tallies(sources, hypotheses, references, max_n)
    return _geometric_score(t["matches"], t["hyp_ngrams"], t["hyp_tokens"], t["ref_tokens"])


_INVISIBLE_TABLE = Path(__file__).parents[1] / "src" / "gec_forge" / "data" / "invisible_chars.json"


def invisible_filter(s, keep_joiners):
    """Drop every code point listed in the invisible-character table,
    except the listed joiners when keep_joiners is set."""
    table = json.loads(_INVISIBLE_TABLE.read_text(encoding="utf-8"))
    drop = {int(cp[2:], 16) for cp in table["codepoints"]}
    if keep_joiners:
        drop -= {int(cp[2:], 16) for cp in table["joiners"]}
    return "".join(ch for ch in s if ord(ch) not in drop)


# ---------------------------------------------------------------------------
# Straight-line classifier, audit and dual-candidate reconciliation.

SPELL_THR = 2
CAP = 5
_SENTINELS = {"nan", "null", "none"}
_NO_EDIT = ("no_error", "null_empty")
_RANK = {"rectifying": 0, "redundant": 1, "risky": 2, "none": 3}


def nullish(x):
    s = "" if x is None else str(x).strip()
    return s == "" or s.lower() in _SENTINELS


def suffix_tail_change(a, b, suffixes):
    """True iff the tails after the common prefix differ and one of them
    ends with a listed suffix."""
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    ta, tb = a[k:], b[k:]
    if ta == tb:
        return False
    return any(ta.endswith(s) or tb.endswith(s) for s in suffixes)


def profile_dict(profile):
    """Adapt a package LanguageProfile into the plain dict this module uses."""
    return {
        "auxiliaries": set(profile.auxiliaries),
        "postpositions": set(profile.postpositions),
        "suffixes": list(profile.suffixes),
    }


def _token_texts(s):
    return [text for text, _ in tokens_by_class("" if s is None else str(s))]


def _opcodes(a, b):
    return SequenceMatcher(None, a, b, autojunk=False).get_opcodes()


def classify_pair(inp, out, prof):
    """Returns the category as a machine name string."""
    return classify_evidence(inp, out, prof)[0]


def classify_evidence(inp, out, prof):
    """Returns (category, stage, rule, detail): the category as a machine
    name string and the evidence `classify --evidence` writes for it, with
    the rule names of the README precedence list."""
    # (1) Null/Empty
    if nullish(inp) or nullish(out):
        return "null_empty", 1, "nullish", {}
    inp, out = str(inp), str(out)

    # (2) No Error
    if inp == out:
        return "no_error", 2, "identical", {}

    # (3) Punctuation/Whitespace
    if projection_filter(inp) == projection_filter(out):
        return "punct_whitespace", 3, "equal_projection", {}

    # (4) Word Order
    runs_a, runs_b = tokens_by_class(inp), tokens_by_class(out)
    words_a = Counter(text for text, kind in runs_a if kind != "punct")
    words_b = Counter(text for text, kind in runs_b if kind != "punct")
    if words_a == words_b:
        return "word_order", 4, "permuted_multiset", {}

    # (5) Alignment-driven typing
    A, B = [text for text, _ in runs_a], [text for text, _ in runs_b]
    aux, post = prof["auxiliaries"], prof["postpositions"]
    saw_insdel = False
    saw_spell = False
    hits = []
    morph_pairs = []
    for tag, i1, i2, j1, j2 in _opcodes(A, B):
        segA, segB = A[i1:i2], B[j1:j2]
        if tag in ("insert", "delete"):
            saw_insdel = True
            if touches_syntax(segA, aux, post) or touches_syntax(segB, aux, post):
                hits += segA + segB
        elif tag == "replace":
            if touches_syntax(segA, aux, post) or touches_syntax(segB, aux, post):
                hits += segA + segB
                continue
            for ta, tb in zip(segA, segB):
                script = token_script_by_class(ta)
                if (script is not None and script == token_script_by_class(tb)
                        and suffix_tail_change(ta, tb, prof["suffixes"])):
                    morph_pairs.append([ta, tb])
                elif levenshtein_matrix(ta, tb) <= SPELL_THR:
                    saw_spell = True

    if saw_insdel:
        if hits:
            return "syntax_agreement", 5, "insert_delete_syntax", {"hits": hits}
        return "missing_extra_word", 5, "insert_delete", {}
    if hits:
        return "syntax_agreement", 5, "replace_syntax", {"hits": hits}
    if morph_pairs:
        return "morphology", 5, "replace_suffix_tail", {"pairs": morph_pairs}
    if saw_spell:
        return "spelling", 5, "replace_small_distance", {"threshold": SPELL_THR}
    return "grammar_syntax", 5, "replace_other", {}


def audit(inp, pred, prof, cap=CAP):
    """Returns (category, token edit distance, stratum)."""
    category = classify_pair(inp, pred, prof)
    distance = levenshtein_matrix(_token_texts(inp), _token_texts(pred))
    if category in _NO_EDIT:
        stratum = "none"
    elif category == "punct_whitespace":
        stratum = "redundant"
    elif category == "word_order":
        stratum = "risky"
    elif distance <= cap:
        stratum = "rectifying"
    else:
        stratum = "risky"
    return category, distance, stratum


def moved_tokens(inp, pred):
    """Tokens that an edit both removes and adds back elsewhere."""
    A, B = _token_texts(inp), _token_texts(pred)
    removed = Counter()
    added = Counter()
    for tag, i1, i2, j1, j2 in _opcodes(A, B):
        if tag in ("delete", "replace"):
            removed.update(A[i1:i2])
        if tag in ("insert", "replace"):
            added.update(B[j1:j2])
    return sum((removed & added).values())


def reconcile(inp, cand_a, cand_b, prof, cap=CAP):
    """Returns (chosen text, reason)."""
    if str(cand_a) == str(cand_b):
        return cand_a, "identical"
    _, dist_a, stratum_a = audit(inp, cand_a, prof, cap)
    _, dist_b, stratum_b = audit(inp, cand_b, prof, cap)
    if _RANK[stratum_a] < _RANK[stratum_b]:
        return cand_a, "stratum:" + stratum_a
    if _RANK[stratum_b] < _RANK[stratum_a]:
        return cand_b, "stratum:" + stratum_b
    if dist_a < dist_b:
        return cand_a, "edit_distance"
    if dist_b < dist_a:
        return cand_b, "edit_distance"
    moves_a = moved_tokens(inp, cand_a)
    moves_b = moved_tokens(inp, cand_b)
    if moves_a < moves_b:
        return cand_a, "reordering"
    if moves_b < moves_a:
        return cand_b, "reordering"
    return cand_a, "positional"
