"""Every top-level import in the package is used by the module that makes it.

No linter ships with the test dependencies, so this reads each module's
syntax tree: a name bound by a top-level ``import`` or ``from ... import``
must appear as a name somewhere in the module, or in its ``__all__`` (which
is how ``__init__`` re-exports).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "covertuav"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_what_it_should():
    source = ("from __future__ import annotations\nimport math\nimport numpy as np\n"
              "from os import path, sep\n__all__ = ['sep']\nx = np.pi\n")
    assert unused_imports(source) == ["math (line 2)", "path (line 4)"]
