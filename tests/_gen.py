"""Seeded random sentence-pair generator covering both scripts.

Mutations are chosen to exercise every precedence stage: identity, blanking,
punctuation/whitespace noise, shuffles, token drops/inserts/replacements,
character corruption, and suffix swaps.
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
LATIN_WORDS = ["abc", "km", "Delhi", "ok"]
DIGIT_TOKENS = ["12", "2024", "७", "१२३", "൧൨"]
PUNCT_TOKENS = ["।", ".", ",", "?", "!", ";", "-"]
SENTINELS = ["", "  ", "nan", "NaN", "null", "NONE"]


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
    mode = rng.randrange(10)
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
    # cross-script swap
    if tokens:
        pos = rng.randrange(len(tokens))
        other = "ml" if lang == "hi" else "hi"
        tokens[pos] = rng.choice(_vocab(other))
        return " ".join(tokens)
    return sentence


def random_pairs(seed, count, lang):
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        left = make_sentence(rng, lang)
        right = mutate(rng, left, lang)
        if rng.random() < 0.1:
            left, right = right, left
        pairs.append((left, right))
    return pairs


def edit_tokens(rng, sentence, lang):
    """Apply 1 to 6 token edits, each a drop, an insert, a swap for another
    word or a character corruption at a random position."""
    tokens = sentence.split()
    words = HI_WORDS if lang == "hi" else ML_WORDS
    for _ in range(rng.randint(1, 6)):
        pos = rng.randrange(len(tokens))
        mode = rng.randrange(4)
        if mode == 0 and len(tokens) > 1:
            del tokens[pos]
        elif mode == 1:
            tokens.insert(pos, rng.choice(words))
        elif mode == 2:
            tokens[pos] = rng.choice(words)
        else:
            tokens[pos] = _corrupt_token(rng, tokens[pos])
    return " ".join(tokens)


def long_pairs(seed, count, lang):
    """Pairs of 200 to 400 words of one language, a few token edits apart:
    long enough that difflib's autojunk heuristic would mark every word of
    the small vocabulary as popular."""
    rng = random.Random(seed)
    words = HI_WORDS if lang == "hi" else ML_WORDS
    pairs = []
    for _ in range(count):
        left = " ".join(rng.choice(words) for _ in range(rng.randint(200, 400)))
        pairs.append((left, edit_tokens(rng, left, lang)))
    return pairs
