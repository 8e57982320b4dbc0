"""Seeded corpus generator for the benchmark workloads.

Started as a copy of the test suite's generator so that editing the test
helpers cannot change the benchmark's inputs. Every workload yields rows of
(source, reference, hypothesis, hypothesis_line): the source is the input
column, the reference is candidate A, the hypothesis is candidate B as it
appears in prediction CSVs, and hypothesis_line is the raw model output line
handed to `normalize --post` (with prompt echoes on ml-noisy).

The same seed always yields the same rows.
"""
import random

HI_WORDS = [
    "राम", "सीता", "घर", "फल", "किताब", "पानी", "बच्चा", "गाड़ी", "शहर",
    "लड़का", "लड़के", "लड़कों", "लड़की", "लड़कियाँ",
    "खाता", "खाती", "खाया", "गया", "गई", "जाता", "सोता", "पढ़ता", "पढ़ा",
    "है", "हैं", "था", "थी", "रहा", "रही",
    "ने", "को", "से", "में", "पर", "का", "की", "के",
    "अच्छा", "अच्छे", "बड़ा", "बड़े", "कल", "कम", "गर", "घर",
]
ML_WORDS = [
    "രാമൻ", "വീട്", "വീട്ടിൽ", "വീടിൽ", "പുസ്തകം", "കുട്ടി", "കുട്ടികൾ",
    "മരം", "മരത്തിൽ", "അവൻ", "അവൾ", "അവന്റെ", "നല്ല", "വലിയ",
    "പോയി", "പോയ", "വന്നു", "പറഞ്ഞു", "നോക്കി", "നിന്നു",
    "ആണ്", "ഇല്ല", "ഉണ്ട്", "ആയി", "ചെയ്തു",
]
# Malayalam inflection endings appended by the suffix-swap mutation, so that
# replaced tokens reach the suffix-driven morphology rule.
ML_ENDINGS = ["ിൽ", "യിൽ", "ിന്റെ", "യുടെ", "ും", "ുന്നു", "ിച്ചു"]
# The auxiliaries and postpositions among HI_WORDS (see the Hindi lexicon).
HI_FUNCTION_WORDS = frozenset([
    "है", "हैं", "था", "थी", "रहा", "रही", "गया", "गई",
    "ने", "को", "से", "में", "पर", "का", "की", "के",
])
LATIN_WORDS = ["abc", "km", "Delhi", "ok"]
DIGIT_TOKENS = ["12", "2024", "७", "१२३", "൧൨"]
PUNCT_TOKENS = ["।", ".", ",", "?", "!", ";", "-"]
SENTINELS = ["", "  ", "nan", "NaN", "null", "NONE"]

# ml-noisy injections. Every one of them is undone by default ingestion
# normalization, which is what lets `analyze --dedup` merge noisy copies.
INVISIBLES = ["\u200d", "\u200c", "\u200b", "\ufeff", "\u00ad"]
WHITESPACE_RUNS = ["  ", "\t", " \u00a0 ", "\u3000", "   "]
ML_DIGITS = str.maketrans("0123456789", "൦൧൨൩൪൫൬൭൮൯")
# Leading echo of the correction prompt that model outputs sometimes carry.
PROMPT_PREFIX = "തിരുത്തിയ വാക്യം:"


def _vocab(lang):
    base = HI_WORDS if lang == "hi" else ML_WORDS
    return base + LATIN_WORDS + DIGIT_TOKENS


def make_sentence(rng, lang, min_len=1, max_len=8):
    n = rng.randint(min_len, max_len)
    words = [rng.choice(_vocab(lang)) for _ in range(n)]
    if rng.random() < 0.5:
        words.append(rng.choice(PUNCT_TOKENS))
    return " ".join(words)


def _corrupt_token(rng, tok):
    if not tok:
        return tok
    mode = rng.randrange(3)
    pos = rng.randrange(len(tok))
    if mode == 0 and len(tok) > 1:  # delete a char
        return tok[:pos] + tok[pos + 1:]
    if mode == 1:  # duplicate a char
        return tok[:pos] + tok[pos] + tok[pos:]
    donor = rng.choice(_vocab("hi") + _vocab("ml"))
    return tok[:pos] + rng.choice(donor) + tok[pos + 1:]


def mutate(rng, sentence, lang):
    tokens = sentence.split()
    mode = rng.randrange(11 if lang == "ml" else 10)
    if mode == 0:
        return sentence  # identical
    if mode == 1:
        return rng.choice(SENTINELS)
    if mode == 2:  # punctuation/whitespace noise only
        s = sentence
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(3)
            if kind == 0:
                s = s + " " + rng.choice(PUNCT_TOKENS)
            elif kind == 1:
                pos = rng.randint(0, len(s))
                s = s[:pos] + " " + s[pos:]
            else:
                s = s.replace("।", ".", 1) if "।" in s else s + rng.choice(PUNCT_TOKENS)
        return s
    if mode == 3 and len(tokens) > 1:  # shuffle
        shuffled = tokens[:]
        rng.shuffle(shuffled)
        return " ".join(shuffled)
    if mode == 4 and tokens:  # drop a token
        pos = rng.randrange(len(tokens))
        return " ".join(tokens[:pos] + tokens[pos + 1:])
    if mode == 5:  # insert a token
        pos = rng.randint(0, len(tokens))
        return " ".join(tokens[:pos] + [rng.choice(_vocab(lang))] + tokens[pos:])
    if mode == 6 and tokens:  # replace a token with another vocab word
        pos = rng.randrange(len(tokens))
        tokens[pos] = rng.choice(_vocab(lang))
        return " ".join(tokens)
    if mode == 7 and tokens:  # corrupt characters inside one token
        pos = rng.randrange(len(tokens))
        tokens[pos] = _corrupt_token(rng, tokens[pos])
        return " ".join(tokens)
    if mode == 8 and tokens:  # two stacked edits
        s = mutate(rng, " ".join(tokens), lang)
        return mutate(rng, s, lang)
    if mode == 10 and tokens:  # Malayalam suffix swap on one word
        pos = rng.randrange(len(tokens))
        tokens[pos] = tokens[pos] + rng.choice(ML_ENDINGS)
        return " ".join(tokens)
    # cross-script swap
    if tokens:
        pos = rng.randrange(len(tokens))
        other = "ml" if lang == "hi" else "hi"
        tokens[pos] = rng.choice(_vocab(other))
        return " ".join(tokens)
    return sentence


def _short_triple(rng, lang):
    left = make_sentence(rng, lang)
    ref = mutate(rng, left, lang)
    hyp = mutate(rng, left, lang)
    if rng.random() < 0.1:
        left, ref = ref, left
    return left, ref, hyp


def hi_short(seed, count):
    """Clean Hindi triples of 1-9 tokens; mutations reach every stage."""
    rng = random.Random(seed)
    rows = []
    for _ in range(count):
        src, ref, hyp = _short_triple(rng, "hi")
        rows.append((src, ref, hyp, hyp))
    return rows


def _noise(rng, s):
    """Inject 1-3 normalization-removable faults into 9 lines out of 10."""
    if rng.random() >= 0.9:
        return s
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(3)
        if kind == 1:  # whitespace run in place of a space, or at an edge
            if " " in s and rng.random() < 0.7:
                pos = rng.choice([i for i, ch in enumerate(s) if ch == " "])
                s = s[:pos] + rng.choice(WHITESPACE_RUNS) + s[pos + 1:]
            else:
                s = rng.choice(WHITESPACE_RUNS) + s + rng.choice(WHITESPACE_RUNS)
        elif kind == 2 and any("0" <= ch <= "9" for ch in s):  # native digits
            s = s.translate(ML_DIGITS)
        else:  # invisible character anywhere
            pos = rng.randint(0, len(s))
            s = s[:pos] + rng.choice(INVISIBLES) + s[pos:]
    return s


def _surface_faults(rng, s):
    """Spacing faults the hypothesis post-processor repairs."""
    kind = rng.randrange(4)
    if kind == 0:
        return s + " ."
    if kind == 1:
        return s.replace(" ", ",", 1) if " " in s else s + " ,"
    if kind == 2:
        return s + "..!"
    return s + "  " + rng.choice(PUNCT_TOKENS)


def ml_noisy(seed, count):
    """Short Malayalam triples with invisibles, native digits, whitespace
    runs and prompt echoes; one row in five re-emits an earlier row's text
    under fresh noise, so normalization makes it a duplicate."""
    rng = random.Random(seed)
    bases = []
    rows = []
    for _ in range(count):
        if bases and rng.random() < 0.2:
            src, ref, hyp = rng.choice(bases)
        else:
            src, ref, hyp = _short_triple(rng, "ml")
            bases.append((src, ref, hyp))
        hyp_noisy = _noise(rng, hyp)
        line = _surface_faults(rng, hyp_noisy) if rng.random() < 0.8 else hyp_noisy
        if rng.random() < 0.8:
            line = (PROMPT_PREFIX + rng.choice(WHITESPACE_RUNS)) * rng.randint(1, 2) + line
        rows.append((_noise(rng, src), _noise(rng, ref), hyp_noisy, line))
    return rows


def _scatter_edits(rng, tokens, lang, content_only=False, modes=4):
    """Apply 3-8 edits at random positions: replace, corrupt, drop or insert
    (modes=2 keeps to the first two). With content_only, edits touch and
    bring in no Hindi auxiliary or postposition."""
    tokens = tokens[:]
    vocab = [w for w in _vocab(lang) if not content_only or w not in HI_FUNCTION_WORDS]
    for _ in range(rng.randint(3, 8)):
        pos = rng.choice([
            i for i, tok in enumerate(tokens)
            if not content_only or tok not in HI_FUNCTION_WORDS
        ])
        mode = rng.randrange(modes)
        if mode == 0:
            tokens[pos] = rng.choice(vocab)
        elif mode == 1:
            tokens[pos] = _corrupt_token(rng, tokens[pos])
        elif mode == 2 and len(tokens) > 1:
            del tokens[pos]
        elif mode == 3:
            tokens.insert(pos, rng.choice(vocab))
    return tokens


def hi_long(seed, count, min_len=100, max_len=400):
    """Hindi triples of min_len-max_len tokens with scattered edits on both
    candidates. No side is blank. max_len stays far below the lengths at
    which alignment recursion fails or slows (see README).

    Source lengths are spread evenly over the range and only their order
    depends on the seed: the quadratic distance cost of a small corpus
    would otherwise swing with the seed's draw of lengths. Rows take turns
    at three kinds of edits, so that long pairs reach several categories:
    any edit (which nearly always touches an auxiliary or a postposition),
    content-word edits of every mode, and content-word replacements only."""
    rng = random.Random(seed)
    vocab = _vocab("hi")
    step = (max_len - min_len) / max(count - 1, 1)
    lengths = [min_len + round(i * step) for i in range(count)]
    rng.shuffle(lengths)
    kinds = ({}, {"content_only": True}, {"content_only": True, "modes": 2})
    rows = []
    for i, n in enumerate(lengths):
        src = []
        for _ in range(n):
            src.append(rng.choice(vocab))
            if rng.random() < 0.06:
                src.append(rng.choice(["।", ","]))
        kind = kinds[i % len(kinds)]
        ref = " ".join(_scatter_edits(rng, src, "hi", **kind))
        hyp = " ".join(_scatter_edits(rng, src, "hi", **kind))
        rows.append((" ".join(src), ref, hyp, hyp))
    return rows


WORKLOADS = {"hi-short": hi_short, "ml-noisy": ml_noisy, "hi-long": hi_long}
