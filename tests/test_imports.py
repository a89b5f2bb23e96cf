"""Static checks of the package's modules.

No linter ships with the test dependencies, so these read each module's
syntax tree:

- every top-level import is used: a name bound by a top-level ``import`` or
  ``from ... import`` must appear as a name somewhere in the module, or in
  its ``__all__`` (which is how ``__init__`` re-exports);
- no function takes a module-level UPPER_CASE constant as a default argument
  value: such a default is frozen at import, so a test that monkeypatches the
  constant would not reach it. Code reads its constants at call time.
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


def constant_defaults(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    constants = {name for name in bound if name.lstrip("_").isupper()}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            defaults = node.args.defaults + [d for d in node.args.kw_defaults if d]
            for name in (n for d in defaults for n in ast.walk(d)):
                if isinstance(name, ast.Name) and name.id in constants:
                    found.append(f"{getattr(node, 'name', 'lambda')}: {name.id} "
                                 f"(line {name.lineno})")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_constant_defaults(path):
    assert constant_defaults(path.read_text(encoding="utf-8")) == []


def test_constant_checker_flags_what_it_should():
    source = ("from math import pi as PI\nTOL = 1e-7\n_CAP: int = 3\nscale = 2.0\n"
              "def f(x, tol=TOL, *, cap=_CAP + 1):\n    return x * TOL\n"
              "def g(x, s=scale, n=None):\n    return lambda y=PI: y\n")
    assert constant_defaults(source) == [
        "f: TOL (line 5)", "f: _CAP (line 5)", "lambda: PI (line 8)"]
