"""Every module of the package uses each name it imports.

No linter runs on this project, so this is its unused-import check: each
src/convexdual/*.py except __init__.py (whose imports are its exports) is
parsed with ast, and a name bound by an import must appear somewhere else
in the module. An import statement marked "# noqa: F401" is exempt, but
only for a name that the benchmark's layer trace (perfbench/layertrace.py)
patches on that module, so that such an import cannot outlive the tracer.
"""

import ast
import importlib
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "convexdual"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imports(path: Path):
    """(name, line, marked) for every name an import statement binds, marked
    meaning the statement carries "# noqa: F401"."""
    text = path.read_text()
    lines = text.splitlines()
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        marked = any("# noqa: F401" in line
                     for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            yield alias.asname or alias.name.split(".")[0], node.lineno, marked


def _unused_imports(path: Path) -> list:
    imported = {name: line for name, line, marked in _imports(path) if not marked}
    used = {n.id for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_module_uses_its_imports(path):
    assert _unused_imports(path) == []


def test_check_sees_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("import math\nimport numpy as np  # noqa: F401\n"
                   "from os import path, sep\n\nx = path.join(sep)\n")
    assert _unused_imports(mod) == ["math (line 1)"]


def _traced_attributes() -> set:
    """(module name, attribute) for every module attribute that the layer
    trace patches; the patches are undone before returning."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        layertrace = importlib.import_module("layertrace")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        return {(owner.__name__, attr) for owner, attr, *_ in tracer._undo
                if isinstance(owner, types.ModuleType)}
    finally:
        tracer.uninstall()


def test_kept_imports_are_traced():
    kept = {(f"convexdual.{path.stem}", name)
            for path in MODULES for name, _, marked in _imports(path) if marked}
    assert kept  # the check below must not pass vacuously
    assert kept <= _traced_attributes()
