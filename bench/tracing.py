"""Layer tracing from outside the package.

Tracer.install() replaces each layer function at every binding of that
function object in the loaded gec_forge.* modules, so a call stays counted
whichever module it is made from; uninstall() puts the originals back.
Spans (name, start, end, parent) are kept in memory; summarize() turns
them into per-layer call counts, total and self times, call durations and
the ratios the README lists.
"""
import functools
import sys
import time

# Layer name -> (defining module, function name). levenshtein is one
# function but two layers: on str arguments it is the intra-token spelling
# test (levenshtein.char), on token lists the audit distance
# (levenshtein.token).
LAYERS = {
    "normalize_text": ("gec_forge.textnorm", "normalize_text"),
    "postprocess_hypothesis": ("gec_forge.textnorm", "postprocess_hypothesis"),
    "alnum_projection": ("gec_forge.textnorm", "alnum_projection"),
    "tokenize": ("gec_forge.tokenizer", "tokenize"),
    "align": ("gec_forge.alignment", "align"),
    "levenshtein": ("gec_forge.alignment", "levenshtein"),
    "classify_pair": ("gec_forge.classifier", "classify_pair"),
    "audit_pair": ("gec_forge.audit", "audit_pair"),
    "reordered_token_count": ("gec_forge.audit", "reordered_token_count"),
    "dual_report": ("gec_forge.audit", "dual_report"),
    "gleu_corpus": ("gec_forge.gleu", "gleu_corpus"),
    "load_pairs": ("gec_forge.corpus", "load_pairs"),
    "analyze": ("gec_forge.corpus", "analyze"),
    "synthesize_prompt": ("gec_forge.corpus", "synthesize_prompt"),
    "write_report": ("gec_forge.reports", "write_report"),
}
SPAN_NAMES = tuple(
    n for layer in LAYERS
    for n in (("levenshtein.char", "levenshtein.token") if layer == "levenshtein" else (layer,))
)

NAME, START, END, PARENT, RESULT = range(5)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, result]
        self._stack = []
        self._patched = []  # (module, attribute, original)

    def _wrap(self, layer, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep_result = layer == "levenshtein"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if keep_result:
                name = "levenshtein.char" if isinstance(args[0], str) else "levenshtein.token"
            else:
                name = layer
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if keep_result:
                span[RESULT] = result
            return result

        return traced

    def install(self):
        for layer, (module_name, attr) in LAYERS.items():
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(layer, original)
            for name, module in list(sys.modules.items()):
                if module is None or not (name == "gec_forge" or name.startswith("gec_forge.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def _has_ancestor(spans, span, name):
    parent = span[PARENT]
    while parent >= 0:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False


def summarize(spans, spell_threshold, scale=1.0):
    """Per-layer calls, total_s, self_s and call durations, plus the raw
    numerators and denominators of the ratios, for one traced pass. Times
    are multiplied by scale (reference over raw seconds for the pass)."""
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    layers = {n: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []} for n in SPAN_NAMES}
    in_classify = {"tokenize": 0.0, "alnum_projection": 0.0, "align": 0.0, "levenshtein": 0.0}
    audit_tokenize = dual_align = char_within = 0
    for i, span in enumerate(spans):
        name = span[NAME]
        dur = (span[END] - span[START]) * scale
        layer = layers[name]
        layer["calls"] += 1
        layer["total_s"] += dur
        layer["self_s"] += dur - child[i] * scale
        layer["durations"].append(dur)
        key = name.split(".")[0]
        if key in in_classify and _has_ancestor(spans, span, "classify_pair"):
            in_classify[key] += dur
        if name == "tokenize" and _has_ancestor(spans, span, "audit_pair"):
            audit_tokenize += 1
        if name == "align" and _has_ancestor(spans, span, "dual_report"):
            dual_align += 1
        if name == "levenshtein.char" and span[RESULT] <= spell_threshold:
            char_within += 1
    return {
        "layers": layers,
        "classify_split_s": in_classify,
        "audit_tokenize_calls": audit_tokenize,
        "dual_align_calls": dual_align,
        "char_within_threshold": char_within,
    }
