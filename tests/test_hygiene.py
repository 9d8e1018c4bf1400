"""Source hygiene: no module imports a name it never uses, package modules
import only the standard library and each other, at module level, never
inside a function, and every package function is named somewhere in the
package or in perfbench outside its own body."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ramseykit").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# where a package function may be named: the package itself and perfbench,
# which wraps some by name. An export in __init__.py does not count, so a
# function only the tests call, exported or not, is not part of the program.
USERS = [p for p in PACKAGE if p.name != "__init__.py"]
USERS += sorted((ROOT / "perfbench").rglob("*.py"))

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


def non_stdlib_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top not in sys.stdlib_module_names:
                found.add((node.lineno, top))
    return [f"{path.name}:{line}: {top}" for line, top in sorted(found)]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_package_imports_only_the_standard_library(path):
    assert non_stdlib_imports(path) == []


def test_scan_flags_a_non_stdlib_import(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from . import sat\n"
        "from .graphs import Graph\n"
        "from scipy.sparse import csr_matrix\n"
        "def f():\n"
        "    import multiprocessing\n"
        "    import hypothesis.strategies\n"
    )
    assert non_stdlib_imports(mod) == [
        "mod.py:2: numpy",
        "mod.py:5: scipy",
        "mod.py:8: hypothesis",
    ]


def _names(node: ast.AST, inside: frozenset[str] = frozenset()):
    """Identifiers named under ``node`` as a variable, an attribute, an
    imported name or a whole string constant, except a function's own name
    inside its body."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        inside |= {node.name}
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.alias):
        name = node.name
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value
    else:
        name = None
    if name is not None and name not in inside:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _names(child, inside)


def unnamed_functions(package: list[Path], users: list[Path]) -> list[str]:
    named: set[str] = set()
    for path in users:
        named.update(_names(ast.parse(path.read_text(encoding="utf-8"))))
    found = []
    for path in package:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (node.name.startswith("__") and node.name.endswith("__"))
                and node.name not in named
            ):
                found.append(f"{path.name}:{node.lineno}: {node.name}")
    return found


def test_every_function_is_named_outside_its_body():
    assert unnamed_functions(PACKAGE, USERS) == []


def test_scan_flags_an_unnamed_function(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def used():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 1\n"
        "def unused(x):\n"
        "    return unused(x - 1) if x else 0\n"
        "class A:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "    def method(self):\n"
        "        return 'wrapped'\n"
        "    def wrapped(self):\n"
        "        return None\n"
    )
    caller = tmp_path / "caller.py"
    caller.write_text("from mod import used\nused()\n")
    assert unnamed_functions([mod], [mod, caller]) == [
        "mod.py:5: unused",
        "mod.py:10: method",
    ]
    # an export names a function only if the exporting file is a user
    init = tmp_path / "__init__.py"
    init.write_text("from .mod import unused\n__all__ = ['method']\n")
    assert unnamed_functions([mod], [mod, caller, init]) == []
    assert all(p.name != "__init__.py" for p in USERS)
