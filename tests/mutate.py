"""Mutation sweep of one package module.

    python tests/mutate.py MODULE

MODULE names a file under src/gec_forge (for example `cli`). Each mutant
changes one node of that module:
- a comparison flipped (`<` <-> `<=`, `>` <-> `>=`, `==` <-> `!=`,
  `in` <-> `not in`, `is` <-> `is not`);
- `and` <-> `or`;
- an integer constant plus one;
- `True` <-> `False`.

The mutated module is written with ast.unparse into a temporary copy of the
repository, and pytest -x runs there, the module's own test file first.
One copy is tested per CPU this process may run on.
A mutant that passes every test survives. Survivors listed in EQUIVALENT
are reported apart: no input tells them from the original. An entry of
EQUIVALENT for MODULE that matches none of its mutants is reported as
stale. The exit code is 1 when a survivor is not listed there, or when an
entry is stale; tests/test_mutate.py checks for stale entries without a
sweep. The repository itself is never written. pytest does not collect
this file.
"""
from __future__ import annotations

import argparse
import ast
import os
import queue
import shutil
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gec_forge"

_FLIP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}

_SWITCH = (
    "the switch only picks which of the two block searches runs on a window, "
    "and both give the same block; the property tests run both"
)
_EMPTY_WINDOW = (
    "the extra window has an empty side, so its search finds no block and "
    "it adds nothing"
)

# (module, source line of the mutated node, index of the mutant among that
# line's mutants, mutant as "before -> after") -> why no input tells the
# mutant from the original. The line is stripped of its indentation, so the
# key holds while the code around it moves; the index tells apart two
# mutants of one line that print the same change.
EQUIVALENT = {
    ("cli", "return int(exc.code or 0)", 0, "exc.code or 0 -> exc.code and 0"):
        "argparse raises SystemExit only for --help and --version, with code 0 "
        "(its usage errors raise InputError), so both forms return 0",
    ("gleu", "net = [0] * (max_n + 1)", 1, "1 -> 2"):
        "n-gram orders run from 1 to max_n, so the added last slot is never "
        "written or read",
    ("gleu", "overlap = h if h < r else r", 0, "h < r -> h <= r"):
        "the two branches are equal when h == r, so the minimum is the same",
    ("gleu", "penalty = (h if h < extra else extra) if extra > 0 else 0", 0,
     "extra > 0 -> extra >= 0"):
        "when extra == 0 the inner expression gives min(h, 0), which is 0 for "
        "a hypothesis count h >= 1, as the else branch does",
    ("gleu", "penalty = (h if h < extra else extra) if extra > 0 else 0", 2,
     "h < extra -> h <= extra"):
        "the two branches are equal when h == extra, so the minimum is the same",
    ("audit", '_PREFERENCE = {"rectifying": 0, "redundant": 1, "risky": 2, "none": 3}', 3,
     "3 -> 4"):
        'reconcile only compares preferences, and "none" stays the largest',
    ("audit", 'winner = "a" if pref_a < pref_b else "b"', 0, "pref_a < pref_b -> pref_a <= pref_b"):
        "the branch runs only when pref_a != pref_b, so < and <= agree",
    ("audit", 'winner = "a" if audit_a["edit_distance"] < audit_b["edit_distance"] else "b"', 0,
     "audit_a['edit_distance'] < audit_b['edit_distance'] -> "
     "audit_a['edit_distance'] <= audit_b['edit_distance']"):
        "the branch runs only when the two distances differ, so < and <= agree",
    ("audit", 'winner = "a" if moves_a < moves_b else "b"', 0, "moves_a < moves_b -> moves_a <= moves_b"):
        "the branch runs only when moves_a != moves_b, so < and <= agree",
    ("alignment", "if len(a) < len(b):", 0, "len(a) < len(b) -> len(a) <= len(b)"):
        "with equal lengths the swap only makes the other side the shorter "
        "one, and the distance is exact and symmetric, so it is the same",
    ("alignment", "_AUTOMATON_CELLS = 4096", 0, "4096 -> 4097"):
        _SWITCH,
    ("alignment", "windows = [(0, la, 0, lb, -1)]", 2, "1 -> 2"):
        "the root's cap of -2 is, like -1, a size that no block reaches, so "
        "the root's scan never stops early",
    ("alignment", "if cap != 1 and (ahi - alo) * (bhi - blo) > _AUTOMATON_CELLS:", 3,
     "(ahi - alo) * (bhi - blo) > _AUTOMATON_CELLS -> "
     "(ahi - alo) * (bhi - blo) >= _AUTOMATON_CELLS"):
        _SWITCH,
    ("alignment", "if alo < i and blo < j:", 0, "alo < i and blo < j -> alo < i or blo < j"):
        _EMPTY_WINDOW,
    ("alignment", "if alo < i and blo < j:", 1, "alo < i -> alo <= i"):
        _EMPTY_WINDOW,
    ("alignment", "if alo < i and blo < j:", 2, "blo < j -> blo <= j"):
        _EMPTY_WINDOW,
    ("alignment", "if i + k < ahi and j + k < bhi:", 0,
     "i + k < ahi and j + k < bhi -> i + k < ahi or j + k < bhi"):
        _EMPTY_WINDOW,
    ("alignment", "if i + k < ahi and j + k < bhi:", 1, "i + k < ahi -> i + k <= ahi"):
        _EMPTY_WINDOW,
    ("alignment", "if i + k < ahi and j + k < bhi:", 2, "j + k < bhi -> j + k <= bhi"):
        _EMPTY_WINDOW,
    ("alignment", "length.append(length[last] + 1)", 0, "1 -> 2"):
        "the test length[q] == length[s] + 1 then never holds for a state "
        "made from a new item, so each such state is split: a clone of a "
        "state that needed no split recognizes the same strings with the "
        "same first end, and every state the walk reads a length from is "
        "then a clone or the root, whose lengths stay exact",
    ("alignment", "while s != -1 and trans[s].get(x) == q:", 2, "1 -> 2"):
        "past the root, s is -1 and trans[-1] is the clone just appended, "
        "whose transitions are copied from q; no state has a transition to "
        "itself, so the loop stops there as it does at -1",
    ("tokenizer", '"mlym": (0x0D00, 0x0D7F),', 1, "3455 -> 3456"):
        "U+0D80 is unassigned (category Cn) in the Unicode tables of every "
        "supported Python, so the block gains no letter or mark",
    ("tokenizer", 'line = raw.split("#", 1)[0].strip()', 0, "1 -> 2"):
        "the text before the first '#' is the same whatever the split limit",
}


def _mutations(node: ast.AST):
    """The one-node changes of node, each as its replacement node."""
    if isinstance(node, ast.Compare):
        for i, op in enumerate(node.ops):
            if type(op) in _FLIP:
                ops = list(node.ops)
                ops[i] = _FLIP[type(op)]()
                yield ast.Compare(node.left, ops, node.comparators)
    elif isinstance(node, ast.BoolOp):
        yield ast.BoolOp(ast.Or() if isinstance(node.op, ast.And) else ast.And(), node.values)
    elif isinstance(node, ast.Constant) and type(node.value) is bool:
        yield ast.Constant(not node.value)
    elif isinstance(node, ast.Constant) and type(node.value) is int:
        yield ast.Constant(node.value + 1)


class _Site(ast.NodeTransformer):
    """Walks the tree in a fixed order; collects every mutation, or applies
    the one numbered target."""

    def __init__(self, target: int | None = None):
        self.target, self.count, self.found = target, 0, []

    def visit(self, node):
        for mutant in _mutations(node):
            index, self.count = self.count, self.count + 1
            if self.target is None:
                self.found.append(
                    (node.lineno, f"{ast.unparse(node)} -> {ast.unparse(mutant)}"))
            elif index == self.target:
                return ast.copy_location(mutant, node)
        return self.generic_visit(node)


def mutants(source: str) -> list[tuple[int, int, str]]:
    """(line number, index among that line's mutants, "before -> after")
    for each mutant."""
    site = _Site()
    site.visit(ast.parse(source))
    per_line: Counter = Counter()
    found = []
    for line, change in site.found:
        found.append((line, per_line[line], change))
        per_line[line] += 1
    return found


def mutant_keys(module: str, source: str) -> list[tuple[str, str, int, str]]:
    """The EQUIVALENT key of each mutant of the module's source, in order."""
    lines = source.splitlines()
    return [(module, lines[line - 1].strip(), index, change)
            for line, index, change in mutants(source)]


def stale_entries(module: str, keys: list[tuple[str, str, int, str]]) -> list[tuple]:
    """The EQUIVALENT entries for module that match none of its mutant keys."""
    known = set(keys)
    return [key for key in EQUIVALENT if key[0] == module and key not in known]


def mutate(source: str, index: int) -> str:
    tree = _Site(index).visit(ast.parse(source))
    return ast.unparse(ast.fix_missing_locations(tree)) + "\n"


def _copy_repo(dest: Path) -> None:
    for name in ("src", "tests", "bench", "pyproject.toml", "README.md"):
        path = ROOT / name
        if path.is_dir():
            shutil.copytree(path, dest / name, ignore=shutil.ignore_patterns(
                "__pycache__", ".hypothesis", ".pytest_cache"))
        else:
            shutil.copy2(path, dest / name)


def _run_tests(copy: Path, module: str, timeout: float) -> str:
    """'killed', 'survived' or 'timeout' for the module text now in copy."""
    first = [f"tests/test_{module}.py"] if (copy / f"tests/test_{module}.py").exists() else []
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    # test_mutate.py checks EQUIVALENT against the source text, which the
    # copy holds only as ast.unparse gives it back; main checks it instead.
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             "--ignore=tests/test_mutate.py", *first, "tests"],
            cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if proc.returncode == 0 else "killed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="module name under src/gec_forge, e.g. cli")
    module = parser.parse_args(argv).module.removesuffix(".py")
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    found = mutants(source)
    keys = mutant_keys(module, source)
    jobs = len(os.sched_getaffinity(0))

    with tempfile.TemporaryDirectory(prefix="gec-forge-mutate-") as tmp:
        copies = [Path(tmp) / f"copy{j}" for j in range(jobs)]
        for copy in copies:
            _copy_repo(copy)
        # The unparsed but unmutated module must pass, and sets the timeout.
        target = copies[0] / "src" / "gec_forge" / f"{module}.py"
        target.write_text(ast.unparse(ast.parse(source)) + "\n", encoding="utf-8")
        start = time.perf_counter()
        if _run_tests(copies[0], module, timeout=3600) != "survived":
            print("the unmutated module fails the tests; nothing to sweep", file=sys.stderr)
            return 2
        timeout = 5 * (time.perf_counter() - start) + 30

        free: queue.Queue[Path] = queue.Queue()
        for copy in copies:
            free.put(copy)

        def test_one(index: int) -> str:
            copy = free.get()
            try:
                (copy / "src" / "gec_forge" / f"{module}.py").write_text(
                    mutate(source, index), encoding="utf-8")
                return _run_tests(copy, module, timeout)
            finally:
                free.put(copy)

        with ThreadPoolExecutor(jobs) as pool:
            results = list(pool.map(test_one, range(len(found))))

    survivors = equivalent = 0
    for (line, _, change), key, result in zip(found, keys, results):
        if result != "survived":
            continue
        reason = EQUIVALENT.get(key)
        if reason:
            equivalent += 1
            print(f"equivalent {module}.py:{line} {key[1]}: {change}  ({reason})")
        else:
            survivors += 1
            print(f"SURVIVED   {module}.py:{line} {key[1]}: {change}")
    stale = stale_entries(module, keys)
    for key in stale:
        print(f"STALE      EQUIVALENT entry {key!r} matches no mutant")
    timeouts = results.count("timeout")
    print(f"{module}: {len(found)} mutants, {len(found) - survivors - equivalent} killed "
          f"({timeouts} by timeout), {equivalent} equivalent, {survivors} survived, "
          f"{len(stale)} stale")
    return 1 if survivors or stale else 0


if __name__ == "__main__":
    sys.exit(main())
