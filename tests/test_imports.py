"""Every module of the package uses each name it imports.

No linter runs on this project, so this is its unused-import check: each
src/convexdual/*.py except __init__.py (whose imports are its exports) is
parsed with ast, and a name bound by an import must appear somewhere else
in the module. An import statement marked "# noqa: F401" is exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "convexdual"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(path: Path) -> list:
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
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
