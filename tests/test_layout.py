"""The library holds what the program runs.

Every top-level function and class, and every method, in ``src/mixsep`` is
named by other code of the package, unless ``mixsep.__all__`` exports it
or the benchmark under ``perfbench/`` uses it (by name in its code or in
the tracer's list of traced functions). References the tests compare
against live in ``tests/reference.py``. Names count as AST names and
attributes, never as words in docstrings or comments; dunder methods run
implicitly and are not checked.
"""

import ast
from collections import Counter
from pathlib import Path

import mixsep

ROOT = Path(__file__).resolve().parents[1]


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def definitions(tree: ast.Module):
    """``(name, node)`` of every top-level function and class and every method."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, defs):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]):
                    yield item.name, item


def references(tree: ast.AST) -> Counter:
    """How often each identifier is named as a variable or an attribute."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
    return counts


def benchmark_names() -> set:
    """Identifiers the benchmark's code names or imports, and the traced functions."""
    names = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = parse(path)
        names |= set(references(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
            ):
                names |= {attr for _, attr, _ in ast.literal_eval(node.value)}
    return names


def unreferenced(src: Path, exempt: set | None = None) -> list:
    """``module.name`` of every definition no other package code names,
    other than the ``exempt`` names (by default those of ``mixsep.__all__``
    and the benchmark)."""
    trees = {path.stem: parse(path) for path in sorted(src.glob("*.py"))}
    total = sum((references(tree) for tree in trees.values()), Counter())
    if exempt is None:
        exempt = set(mixsep.__all__) | benchmark_names()
    found = []
    for module, tree in trees.items():
        for name, node in definitions(tree):
            if name.startswith("__") and name.endswith("__") or name in exempt:
                continue
            if total[name] - references(node)[name] == 0:
                found.append(f"{module}.{name}")
    return found


def test_every_definition_is_used_by_the_program():
    assert unreferenced(ROOT / "src" / "mixsep") == []


def test_benchmark_names_alone_keep_these_definitions():
    # the older whole-array kernels of the EM, and a metric, that only the
    # benchmark names (every other definition is used, as the test above
    # checks); a new benchmark-only definition fails here, and the benchmark
    # change that stops naming one removes it from this list
    kept = unreferenced(ROOT / "src" / "mixsep", exempt=set(mixsep.__all__))
    assert set(kept) == {
        "cacg.cacg_log_pdf_stack",
        "cacg.normalize_observations",
        "metrics.si_sdr",
        "numerics.chol_logdet_quad",
    }
