"""No module of ``qdid``, test or script imports a name it does not use.

A ``qdid`` module may keep the names that the benchmark tracer
(bench/tracer.py) rebinds in it: a traced run reaches them through that
module, so they stay until the tracer lets go. ``bench/`` is not scanned."""

import ast
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qdid"

_spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def dead_imports(source: str) -> set[str]:
    """Names a module's imports bind that nothing in it reads; a name listed
    in ``__all__`` is read (it is exported)."""
    tree = ast.parse(source)
    imported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return imported - used - {"annotations"}  # from __future__ import annotations


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_a_module_imports_only_what_it_uses_or_the_tracer_rebinds(path):
    module = "qdid" if path.stem == "__init__" else f"qdid.{path.stem}"
    traced = {name for owner, name, _ in tracer.FUNCTIONS if owner == module}
    dead = dead_imports(path.read_text(encoding="utf-8"))
    assert not dead - traced, f"unused imports in {module}: {sorted(dead - traced)}"


@pytest.mark.parametrize(
    "path", sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("scripts/*.py")),
    ids=lambda p: p.relative_to(ROOT).as_posix(),
)
def test_a_test_or_script_imports_only_what_it_uses(path):
    dead = dead_imports(path.read_text(encoding="utf-8"))
    assert not dead, f"unused imports in {path.relative_to(ROOT)}: {sorted(dead)}"


def test_an_unused_import_is_found():
    assert dead_imports("import os\nfrom a import b, c as d\nprint(d)\n") == {"os", "b"}
    assert dead_imports("from x import y\n__all__ = ['y']\n") == set()
