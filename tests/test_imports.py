"""Tooling: every module of the package reads each name it imports, and
the package reads each private name its modules define."""
import ast
from functools import cache
from pathlib import Path

import pytest

import sqpclab

MODULES = sorted(p for p in Path(sqpclab.__file__).parent.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_a_module_imports_only_what_it_uses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert imported <= read, f"{path.name} imports {sorted(imported - read)} and never reads them"


def _module_names(tree) -> set[str]:
    """The names a module's top-level statements bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


@cache
def _read_anywhere() -> frozenset[str]:
    """Every name and attribute that some module of the package reads."""
    read = set()
    for path in Path(sqpclab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return frozenset(read)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_private_name_is_read_in_the_package(path):
    """A module-level name that starts with `_` is read somewhere in the
    package, so no private helper outlives its last caller. Public names
    may serve only the tests and the benchmark; dunders the interpreter."""
    tree = ast.parse(path.read_text(), filename=str(path))
    private = {n for n in _module_names(tree) if n.startswith("_") and not n.endswith("__")}
    unread = private - _read_anywhere()
    assert not unread, f"{path.name} defines {sorted(unread)} and the package never reads them"
