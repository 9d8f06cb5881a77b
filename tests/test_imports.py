"""Every import in `src/` and `tests/` is used.

A name an import binds counts as used when the module loads it as a bare
name (an attribute chain `a.b` loads `a`), or lists it in `__all__`.
`from __future__` imports bind nothing.  No linter ships with the
project, so this walks the AST itself.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bound_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each import, with its line number."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def _used_names(tree: ast.Module) -> set[str]:
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(paths) -> list[str]:
    out = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = _used_names(tree)
        out += [
            f"{path}:{line}: {name}"
            for name, line in _bound_names(tree).items()
            if name not in used
        ]
    return out


def test_unused_import_is_flagged(tmp_path):
    (tmp_path / "m.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\nimport numpy as np\nfrom math import exp, log\n"
        "__all__ = ['log']\nprint(os.sep)\n"
    )
    found = [s.split(": ")[1] for s in unused_imports([tmp_path / "m.py"])]
    assert sorted(found) == ["exp", "np"]


def test_no_unused_imports():
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert unused_imports(paths) == []
