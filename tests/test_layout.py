"""The library holds what the program runs, and its modules meet at public names.

Every top-level function and class, and every method, in ``src/mixsep`` is
named by other code of the package, unless the benchmark under
``perfbench/`` uses it (by name in its code or in the tracer's list of
traced functions); an export in ``mixsep.__all__`` alone does not keep it. References the tests compare
against live in ``tests/reference.py``. Names count as AST names and
attributes, never as words in docstrings or comments; dunder methods run
implicitly and are not checked.

No module of the package imports another's ``_``-prefixed name or reads one
off an imported package module; a module's own ``_``-prefixed aliases of
package modules (``from . import cacg as _cacg``) are its local names.
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
    other than the ``exempt`` names (by default the benchmark's)."""
    trees = {path.stem: parse(path) for path in sorted(src.glob("*.py"))}
    total = sum((references(tree) for tree in trees.values()), Counter())
    if exempt is None:
        exempt = benchmark_names()
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


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(src: Path) -> list:
    """``module: read`` of every ``_``-prefixed name a package module imports
    from another (``from .x import _y``) or reads as an attribute of an
    imported package module (``x._y``)."""
    modules = {path.stem for path in src.glob("*.py")}
    found = []
    for path in sorted(src.glob("*.py")):
        tree = parse(path)
        imported = set()  # local names bound to package modules
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                if not node.level and not node.module.startswith("mixsep"):
                    continue  # numpy and the standard library
                package = node.module in (None, "mixsep")
                for alias in node.names:
                    if package and alias.name in modules:
                        imported.add(alias.asname or alias.name)
                    elif private(alias.name):
                        found.append(f"{path.stem}: from {node.module} import {alias.name}")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("mixsep."):
                        imported.add(alias.asname or alias.name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and private(node.attr):
                owner = ast.unparse(node.value)
                if owner in imported:
                    found.append(f"{path.stem}: {owner}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_names():
    assert private_reads(ROOT / "src" / "mixsep") == []


def test_private_reads_sees_imports_and_attributes(tmp_path):
    (tmp_path / "a.py").write_text("def _f():\n    pass\n")
    (tmp_path / "b.py").write_text(
        "from . import a as _a\nfrom .a import _f\nfrom mixsep.a import _g\n"
        "import mixsep.a\n_a._f()\nmixsep.a._h\n_a.__name__\n"
    )
    assert sorted(private_reads(tmp_path)) == [
        "b: _a._f", "b: from a import _f", "b: from mixsep.a import _g", "b: mixsep.a._h"
    ]
