"""No library module imports a name it never uses or defines a private
one the package never reads, and the two decision routes import nothing
from each other.  ``terms.frozen`` alone decides how a value object is
built: no class it makes writes its own ``__init__``, and no other module
reads a slot's setter.

``__init__.py`` is exempt: importing is how it exports.  A name counts as
used when it is read anywhere in the module, also inside a string
annotation such as ``"EvalTree"``.

Every evaluation-tree node the library makes is an insert into a unique
table.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import condalg

PACKAGE = sorted(Path(condalg.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of that import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # A string annotation is an expression; other strings that
            # happen to parse add names, which can only hide an unused one.
            try:
                used |= used_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), str(path))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: imported but never used: {unused}"


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each ``_name`` (not a dunder) a module's top level binds by def,
    class or assignment, with the line that binds it."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound = [
                n.id
                for t in targets
                for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            ]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                names[name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_private_definition_is_read(path):
    read = set().union(*(used_names(ast.parse(p.read_text(), str(p))) for p in PACKAGE))
    defined = private_definitions(ast.parse(path.read_text(), str(path)))
    dead = {name: line for name, line in defined.items() if name not in read}
    assert not dead, f"{path.name}: defined but never read: {dead}"


def imported_modules(tree: ast.Module) -> set[str]:
    """The package modules an import names, by their last dotted part:
    ``from .normalform import bf`` and ``import condalg.normalform``
    both name ``normalform``; ``from . import normalform`` does too."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {alias.name.rpartition(".")[2] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.module == "condalg":
                names |= {alias.name for alias in node.names}
            else:
                names.add(node.module.rpartition(".")[2])
    return names


# The tree route (evaluation trees and their transforms) and the
# normal-form route decide each congruence independently: the tests check
# that they agree, which shared code could make vacuous.
TREE_ROUTE = ("evaltrees", "treetransform")


@pytest.mark.parametrize("module", [*TREE_ROUTE, "normalform"])
def test_the_two_routes_import_nothing_from_each_other(module):
    others = {"normalform"} if module in TREE_ROUTE else set(TREE_ROUTE)
    path = Path(condalg.__file__).parent / f"{module}.py"
    shared = imported_modules(ast.parse(path.read_text(), str(path))) & others
    assert not shared, f"{module}.py imports from {sorted(shared)}"


def frozen_classes(tree: ast.Module) -> list[ast.ClassDef]:
    """The classes decorated with ``frozen``, with or without arguments."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(d, ast.Name) and d.id == "frozen"
            or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "frozen"
            for d in node.decorator_list
        )
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_frozen_class_writes_its_own_init(path):
    tree = ast.parse(path.read_text(), str(path))
    own = [
        cls.name
        for cls in frozen_classes(tree)
        if any(isinstance(d, ast.FunctionDef) and d.name == "__init__" for d in cls.body)
    ]
    assert not own, f"{path.name}: frozen classes with their own __init__: {own}"


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_terms_reads_a_slot_setter(path):
    tree = ast.parse(path.read_text(), str(path))
    lines = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Attribute) and n.attr == "__set__"]
    assert path.name == "terms.py" or not lines, f"{path.name} reads __set__ at lines {lines}"


def test_every_node_is_a_unique_table_insert():
    # ``nodes[key] = Node(...)``: each ``Node`` call is the value of an
    # assignment with a subscript among its targets, so equal trees built
    # through one table are one object.
    loose = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(), str(path))
        inserts = {
            id(node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign) and any(isinstance(t, ast.Subscript) for t in node.targets)
        }
        loose += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "Node"
            and id(node) not in inserts
        ]
    assert not loose, f"Node(...) built outside a unique table at {loose}"
