"""Every annealkit name the benchmark harness imports exists.

perfbench/ imports the library inside its functions, some of them only on
a traced run, so a renamed or removed name breaks the harness without
failing anything at start-up.  This reads the harness's imports with ast
and resolves each one.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _annealkit_imports():
    """(file, module, name) of every import from annealkit; name is None
    for a plain `import annealkit.x`."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "annealkit":
                found.update((path.name, node.module, alias.name)
                             for alias in node.names)
            elif isinstance(node, ast.Import):
                found.update((path.name, alias.name, None)
                             for alias in node.names
                             if alias.name.split(".")[0] == "annealkit")
    return sorted(found, key=lambda item: (item[0], item[1], item[2] or ""))


IMPORTS = _annealkit_imports()


def test_the_harness_imports_annealkit_modules():
    modules = {module for _, module, _ in IMPORTS}
    assert {"annealkit.fermion", "annealkit.ensemble"} <= modules


@pytest.mark.parametrize(
    "source, module, name", IMPORTS,
    ids=[f"{source}:{module}.{name}" if name else f"{source}:import {module}"
         for source, module, name in IMPORTS])
def test_imported_name_exists(source, module, name):
    imported = importlib.import_module(module)
    if name is not None:
        assert hasattr(imported, name) or importlib.util.find_spec(
            f"{module}.{name}") is not None, f"{source}: {module}.{name}"


def _span_targets():
    """(module, attribute path) of every FUNCTION_SPANS and HOT_SPANS
    entry of perfbench/tracer.py."""
    tree = ast.parse((BENCH / "tracer.py").read_text())
    spans = {node.targets[0].id: ast.literal_eval(node.value)
             for node in tree.body if isinstance(node, ast.Assign)
             and getattr(node.targets[0], "id", None) in ("FUNCTION_SPANS",
                                                          "HOT_SPANS")}
    return [(module, attrs) for table in spans.values()
            for module, *attrs in table.values()]


def test_span_targets_resolve_but_the_known_stale_ones():
    """A rename in the library fails here instead of silently zeroing a
    span; the three stale targets are listed until they are re-pointed."""
    targets = _span_targets()
    assert len(targets) > 20
    missing = set()
    for module, attrs in targets:
        owner = importlib.import_module(module)
        for attr in attrs:
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.add(".".join([module.removeprefix("annealkit."), *attrs]))
    assert missing == {"ensemble._one_realization", "noise.SignalBank.eval_at",
                       "fermion._Rhs.__call__"}
