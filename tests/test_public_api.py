import importlib
import importlib.util
from pathlib import Path

import pytest

import gec_forge

PUBLIC_NAMES = [
    "CATEGORY_ORDER", "Classification", "DEFAULT_POLICY", "DandaPolicy", "DigitPolicy",
    "DistributionReport", "DualReport", "EditAudit", "ErrorCategory", "GleuReport",
    "InputError", "LanguageProfile", "NormalizationPolicy", "SentencePair", "Stratum",
    "__version__", "align", "alnum_projection", "analyze", "audit_pair", "classify_pair",
    "dual_report", "gleu_corpus", "levenshtein", "load_lexicon", "load_pairs",
    "normalize_text", "nullish", "postprocess_hypothesis", "profile_for", "reconcile",
    "same_script", "suffix_tail_change", "synthesize_prompt", "tokenize", "touches_syntax",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(gec_forge.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 36
    for name in PUBLIC_NAMES:
        assert hasattr(gec_forge, name), name


def _traced_layers():
    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


# The traced benchmark looks each layer up by module and name, so a layer
# deleted from the package would otherwise fail only there.
LAYERS = _traced_layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_every_traced_layer_resolves(layer):
    module_name, attr = LAYERS[layer]
    assert callable(getattr(importlib.import_module(module_name), attr))
