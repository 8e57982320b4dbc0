"""Straight-line reference classifier used as the equivalence oracle.

A deliberately naive, flat transcription of the classification procedure:
stdlib SequenceMatcher for alignment, plain dicts and loops everywhere,
no shared code with the package. The two routes can only agree by
computing the same labels.
"""
import unicodedata
from collections import Counter
from difflib import SequenceMatcher

SPELL_THR = 2

_SENTINELS = {"nan", "null", "none"}


def nullish(x):
    s = "" if x is None else str(x).strip()
    return s == "" or s.lower() in _SENTINELS


def char_kind(ch):
    cp = ord(ch)
    if ch in "0123456789" or 0x0966 <= cp <= 0x096F or 0x0D66 <= cp <= 0x0D6F:
        return "digit"
    if "A" <= ch <= "Z" or "a" <= ch <= "z":
        return "latn"
    if 0x0900 <= cp <= 0x097F and unicodedata.category(ch)[0] in "LM":
        return "deva"
    if 0x0D00 <= cp <= 0x0D7F and unicodedata.category(ch)[0] in "LM":
        return "mlym"
    return "punct"


def tokenize(s):
    tokens = []
    current = ""
    current_kind = None
    for ch in str(s):
        if ch.isspace():
            if current:
                tokens.append(current)
            current, current_kind = "", None
            continue
        kind = char_kind(ch)
        if current and kind == current_kind:
            current += ch
        else:
            if current:
                tokens.append(current)
            current, current_kind = ch, kind
    if current:
        tokens.append(current)
    return tokens


def is_punct(tok):
    return all(char_kind(ch) == "punct" for ch in tok)


def alnum_projection(s):
    return "".join(t for t in tokenize(s) if not is_punct(t))


def token_script(tok):
    scripts = set()
    for ch in tok:
        kind = char_kind(ch)
        if kind in ("deva", "mlym", "latn"):
            scripts.add(kind)
    if len(scripts) == 1:
        return scripts.pop()
    return None


def same_script(a, b):
    sa = token_script(a)
    return sa is not None and sa == token_script(b)


def multiset_nonpunct(tokens):
    return Counter(t for t in tokens if not is_punct(t))


def levenshtein(a, b):
    n, m = len(a), len(b)
    if n == 0:
        return m
    if m == 0:
        return n
    dp = list(range(m + 1))
    for i in range(1, n + 1):
        prev, dp[0] = dp[0], i
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            prev, dp[j] = dp[j], min(dp[j] + 1, dp[j - 1] + 1, prev + cost)
    return dp[m]


def suffix_tail_cha(a, b, suffixes):
    k = 0
    for x, y in zip(a, b):
        if x == y:
            k += 1
        else:
            break
    ta, tb = a[k:], b[k:]
    if ta == tb:
        return False
    return any(ta.endswith(s) or tb.endswith(s) for s in suffixes)


def touches_syntax(segment, prof):
    return any(t in prof["auxiliaries"] or t in prof["postpositions"] for t in segment)


def profile_dict(profile):
    """Adapt a package LanguageProfile into the plain dict this module uses."""
    return {
        "name": profile.name,
        "auxiliaries": set(profile.auxiliaries),
        "postpositions": set(profile.postpositions),
        "suffixes": list(profile.suffixes),
    }


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
    if alnum_projection(inp) == alnum_projection(out):
        return "punct_whitespace", 3, "equal_projection", {}

    # (4) Word Order
    A, B = tokenize(inp), tokenize(out)
    if multiset_nonpunct(A) == multiset_nonpunct(B) and A != B:
        return "word_order", 4, "permuted_multiset", {}

    # (5) Alignment-driven typing
    ops = SequenceMatcher(a=A, b=B).get_opcodes()
    touched_syn = False
    saw_insdel = False
    saw_repl = False
    saw_spell = False
    hits = []
    morph_pairs = []

    for tag, i1, i2, j1, j2 in ops:
        segA, segB = A[i1:i2], B[j1:j2]
        if tag in ("insert", "delete"):
            if touches_syntax(segA, prof) or touches_syntax(segB, prof):
                touched_syn = True
                hits += segA + segB
            saw_insdel = True
        elif tag == "replace":
            saw_repl = True
            if touches_syntax(segA, prof) or touches_syntax(segB, prof):
                touched_syn = True
                hits += segA + segB
            else:
                for ta, tb in zip(segA, segB):
                    if same_script(ta, tb) and suffix_tail_cha(ta, tb, prof["suffixes"]):
                        morph_pairs.append([ta, tb])
                    elif levenshtein(ta, tb) <= SPELL_THR:
                        saw_spell = True

    if saw_insdel:
        if touched_syn:
            return "syntax_agreement", 5, "insert_delete_syntax", {"hits": hits}
        return "missing_extra_word", 5, "insert_delete", {}

    if saw_repl:
        if touched_syn:
            return "syntax_agreement", 5, "replace_syntax", {"hits": hits}
        if morph_pairs:
            return "morphology", 5, "replace_suffix_tail", {"pairs": morph_pairs}
        if saw_spell:
            return "spelling", 5, "replace_small_distance", {"threshold": SPELL_THR}
        return "grammar_syntax", 5, "replace_other", {}

    # (6) Grammar/Syntax fallback
    return "grammar_syntax", 6, "fallback", {}


# ---------------------------------------------------------------------------
# Audit and dual-candidate reconciliation, transcribed the same flat way.

CAP = 5
_NO_EDIT = ("no_error", "null_empty")
_RANK = {"rectifying": 0, "redundant": 1, "risky": 2, "none": 3}


def audit(inp, pred, prof, cap=CAP):
    """Returns (category, token edit distance, stratum)."""
    category = classify_pair(inp, pred, prof)
    A = tokenize("" if inp is None else inp)
    B = tokenize("" if pred is None else pred)
    distance = levenshtein(A, B)
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
    A = tokenize("" if inp is None else inp)
    B = tokenize("" if pred is None else pred)
    removed = Counter()
    added = Counter()
    for tag, i1, i2, j1, j2 in SequenceMatcher(None, A, B, autojunk=False).get_opcodes():
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
