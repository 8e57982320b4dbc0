import contextlib
import importlib
import importlib.util
import io
import re
import shutil
from pathlib import Path

import pytest

import gec_forge

ROOT = Path(__file__).parents[1]

PUBLIC_NAMES = [
    "CATEGORY_ORDER", "DEFAULT_POLICY", "InputError", "LanguageProfile", "NormalizationPolicy",
    "__version__", "align", "alnum_projection", "analyze", "audit_pair", "classify_pair",
    "display_label", "dual_report", "gleu_corpus", "levenshtein", "load_lexicon", "load_pairs",
    "normalize_text", "nullish", "postprocess_hypothesis", "profile_for", "reconcile",
    "same_script", "suffix_tail_change", "synthesize_prompt", "tokenize", "touches_syntax",
]


def test_public_names_are_pinned_and_resolve():
    assert sorted(gec_forge.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 27
    for name in PUBLIC_NAMES:
        assert hasattr(gec_forge, name), name


def _traced_layers():
    path = ROOT / "bench" / "tracing.py"
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


README_BLOCKS = re.findall(r"^```python\n(.*?)^```",
                           (ROOT / "README.md").read_text(encoding="utf-8"),
                           re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 3


# Each block runs on its own, in a directory holding the train.csv it reads,
# with the toy corpus bound to the names it leaves undefined.
@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path, monkeypatch):
    fixtures = ROOT / "tests" / "fixtures"
    shutil.copy(fixtures / "hi_fixture.csv", tmp_path / "train.csv")
    monkeypatch.chdir(tmp_path)
    names = {
        name: (fixtures / f"toy_{side}.txt").read_text(encoding="utf-8").splitlines()
        for name, side in [("sources", "src"), ("hypotheses", "hyp"), ("references", "ref")]
    }
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, "README.md", "exec"), names)
