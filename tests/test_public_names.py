"""Every public top-level name of the package has a caller.

A name counts as used when some code refers to it by name: its own
module outside the name's definition, another module of the package
(the re-exports of `__init__` do not count), or the benchmark in
`perfbench/`.  Tests do not count: an API only its tests call is dead
code with a test attached, and an oracle the tests need lives in
`tests/`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qplancherel"


def _public_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    out[t.id] = node
    return {name: node for name, node in out.items() if not name.startswith("_")}


def _referenced_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names loaded as a bare name or an attribute, outside `skip`."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused_public_names() -> list[str]:
    modules = {
        p.stem: _parse(p) for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"
    }
    bench = set()
    for p in sorted((ROOT / "perfbench").glob("*.py")):
        bench |= _referenced_names(_parse(p))
    elsewhere = {
        stem: set().union(
            *(_referenced_names(t) for other, t in modules.items() if other != stem)
        )
        for stem in modules
    }
    unused = []
    for stem, tree in modules.items():
        for name, node in _public_definitions(tree).items():
            if name in bench or name in elsewhere[stem]:
                continue
            if name not in _referenced_names(tree, skip=node):
                unused.append(f"{stem}.{name}")
    return unused


def test_every_public_name_has_a_caller():
    assert unused_public_names() == []
