"""Package layout: no unused import and no module the CLI cannot reach."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "corrkit"


def _trees() -> dict[str, ast.Module]:
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) for every import in the module, nested ones too."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names]
    return out


def _local_imports(tree: ast.Module) -> set[str]:
    """Sibling modules named by `from .x import ...` or `from . import x`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(a.name for a in node.names)
    return out


def test_no_unused_imports():
    unused = []
    for mod, tree in _trees().items():
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{mod}.py:{line} {name}" for name, line in _imported_names(tree) if name not in used]
    assert unused == []


def test_every_module_is_reached_from_the_cli():
    trees = _trees()
    reached, todo = set(), ["cli"]
    while todo:
        mod = todo.pop()
        if mod not in reached:
            reached.add(mod)
            todo += sorted(_local_imports(trees[mod]) & set(trees))
    assert sorted(set(trees) - reached - {"__init__"}) == []
