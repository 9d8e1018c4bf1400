"""Source hygiene: no module imports a name it never uses, and package
modules import each other at module level, never inside a function."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ramseykit").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))

# (file, name) pairs imported on purpose without being used in the file.
KEPT = {
    # perfbench/tracing.py wraps ramseykit.anneal.list_copies by this name
    ("anneal.py", "list_copies"),
}


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    exported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{path.name}:{line}: {name}"
        for name, line in sorted(imported.items(), key=lambda item: item[1])
        if name not in used | exported and (path.name, name) not in KEPT
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_scan_flags_an_unused_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Any, Sequence\n"
        "__all__ = ['Any']\n"
        "def f(x: Sequence) -> None:\n"
        "    return None\n"
    )
    assert unused_imports(mod) == ["mod.py:2: os"]


def nested_relative_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = {
        (node.lineno, "." * node.level + (node.module or ""))
        for func in ast.walk(tree)
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(func)
        if isinstance(node, ast.ImportFrom) and node.level
    }
    return [f"{path.name}:{line}: {module}" for line, module in sorted(found)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_relative_import_inside_a_function(path):
    assert nested_relative_imports(path) == []


def test_scan_flags_a_nested_relative_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from .graphs import Graph\n"
        "def f():\n"
        "    import multiprocessing\n"
        "    def g():\n"
        "        from . import sat\n"
        "    from .targets import clique\n"
    )
    assert nested_relative_imports(mod) == ["mod.py:5: .", "mod.py:6: .targets"]
