"""The oracles are the independent side of the behaviour lock: a check
against them means nothing if they share code with the package."""
import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).parent


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""


# Every helper module: the oracles, the generator that feeds both sides and
# the deadline.
HELPERS = sorted(path.name for path in TESTS.glob("_*.py"))


def test_helper_glob_finds_the_oracles():
    assert "_oracles.py" in HELPERS


@pytest.mark.parametrize("name", HELPERS)
def test_oracle_module_imports_no_package_code(name):
    modules = list(_imported_modules(TESTS / name))
    assert modules, "no imports found: the walk is not reading the module"
    assert [m for m in modules if m.split(".")[0] == "gec_forge"] == []
