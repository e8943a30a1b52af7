"""Every name a rellink module imports is used, the package root exports
nothing, every public definition has a caller outside the tests, every private
definition is used in its own module, and input lines are read in one place."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rellink"
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in _imported(tree) if name not in loaded]
    assert unused == [], f"{path.name} imports names it never uses: {unused}"


def test_package_root_exports_nothing():
    # Callers import each name from its module, the one way to reach it.
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert _imported(tree) == [], "import from the rellink modules, not the package root"


def _loaded(tree: ast.Module) -> set[str]:
    """Names a module reads: bare names and attribute names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_public_definition_has_a_caller():
    """A public function or class that only tests reach is dead weight; the
    benchmark's modules count as callers, its tests do not."""
    callers = [*MODULES, *sorted((ROOT / "perfbench").glob("*.py"))]
    loaded = set().union(*(_loaded(ast.parse(p.read_text(encoding="utf-8"))) for p in callers))
    uncalled = [
        f"{path.name}:{node.name}"
        for path in MODULES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in loaded
    ]
    assert uncalled == [], f"public definitions with no caller outside the tests: {uncalled}"


def _private_definitions(tree: ast.Module) -> list[tuple[str, bool]]:
    """``(name, is_method)`` for each module-level private function, class or
    constant, and each private method; dunder names are not private."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append((node.name, False))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((t.id, False) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            found.extend(
                (item.name, True)
                for item in node.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return [(n, m) for n, m in found if n.startswith("_") and not n.endswith("__")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_definition_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    unused = [
        name
        for name, is_method in _private_definitions(tree)
        if name not in (attributes if is_method else loaded)
    ]
    assert unused == [], f"{path.name} defines private names it never uses: {unused}"


def _line_reading_calls(tree: ast.Module) -> list[str]:
    """Each ``json.loads`` call and each ``enumerate`` numbering from 1."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = ast.unparse(node.func)
        starts = node.args[1:] + [k.value for k in node.keywords if k.arg == "start"]
        if func == "json.loads" or func == "enumerate" and any(
            ast.unparse(start) == "1" for start in starts
        ):
            found.append(f"{func} at line {node.lineno}")
    return found


def test_input_lines_are_read_in_one_place():
    calls = {path.name: _line_reading_calls(ast.parse(path.read_text(encoding="utf-8")))
             for path in MODULES}
    elsewhere = {name: found for name, found in calls.items() if found and name != "terms.py"}
    assert elsewhere == {}, "read input lines through terms.read_lines and terms.json_record"
    assert len(calls["terms.py"]) == 2
