"""Every name a rellink module imports is used, and the package exports what it imports."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "rellink"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree: ast.Module) -> list[str]:
    """Names bound by the module's imports, ``from __future__`` aside."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.append(alias.asname or alias.name.split(".")[0])
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    if path.name == "__init__.py":
        unexported = [name for name in _imported(tree) if name not in _exported(tree)]
        assert unexported == [], f"__init__.py imports names missing from __all__: {unexported}"
        return
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in _imported(tree) if name not in loaded | _exported(tree)]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"
