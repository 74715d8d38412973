"""No library function calls itself, directly or through another.

Each module is parsed with ``ast``.  A function, method or nested
function is a node named by its module and name; a name a module imports
from another condalg module stands for that module's function.  A call
``f(...)`` or ``x.f(...)`` (but not ``super().f(...)``) inside a function
is an edge to every node the name ``f`` stands for in that module.  Any
cycle fails the test, named in call order.

The graph cannot see the ``__eq__`` and ``__hash__`` that dataclasses
generate.  The classes whose fields nest (``Cond``, ``Node`` and the
short-circuit expressions) replace both with loops, which
tests/test_deep_input.py runs on deep objects.
"""

from __future__ import annotations

import ast
from pathlib import Path

import condalg

PACKAGE = Path(condalg.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

Node = tuple[str, str]  # (module, function name)


def definitions(tree: ast.Module) -> list[ast.FunctionDef]:
    """Every function the module defines, at any level."""
    return [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]


def called_names(func: ast.FunctionDef) -> set[str]:
    """The names ``func`` calls in its own body, not in functions nested
    in it (those are nodes of their own)."""
    names = set()
    pending = list(ast.iter_child_nodes(func))
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name):
                names.add(node.func.id)
            elif isinstance(node.func, ast.Attribute) and not is_super(node.func.value):
                names.add(node.func.attr)
        pending.extend(ast.iter_child_nodes(node))
    return names


def is_super(node: ast.expr) -> bool:
    # ``super().f(...)`` calls the base class's ``f``, not this one.
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "super"


def imports(tree: ast.Module) -> dict[str, Node]:
    """Each name imported from another condalg module, as the node it
    names there."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                names[alias.asname or alias.name] = (node.module, alias.name)
    return names


def call_graph() -> dict[Node, set[Node]]:
    trees = {m: ast.parse((PACKAGE / f"{m}.py").read_text(), f"{m}.py") for m in MODULES}
    defined = {m: {f.name for f in definitions(tree)} for m, tree in trees.items()}
    graph: dict[Node, set[Node]] = {}
    for module, tree in trees.items():
        imported = imports(tree)
        for func in definitions(tree):
            edges = graph.setdefault((module, func.name), set())
            for name in called_names(func):
                if name in defined[module]:
                    edges.add((module, name))
                target = imported.get(name)
                if target is not None and target[1] in defined.get(target[0], ()):
                    edges.add(target)
    return graph


def cycle_through(graph: dict[Node, set[Node]], start: Node) -> list[Node] | None:
    """A shortest path of calls from ``start`` back to itself, if any."""
    parents: dict[Node, Node] = {}
    frontier = [start]
    while frontier:
        following = []
        for node in frontier:
            for callee in sorted(graph.get(node, ())):
                if callee == start:
                    path = [node]
                    while path[-1] != start:
                        path.append(parents[path[-1]])
                    return [start, *reversed(path[:-1]), start]
                if callee not in parents:
                    parents[callee] = node
                    following.append(callee)
        frontier = following
    return None


def cycles(graph: dict[Node, set[Node]]) -> list[str]:
    """One cycle per group of functions that call each other, as text."""
    found, covered = [], set()
    for node in sorted(graph):
        if node in covered:
            continue
        cycle = cycle_through(graph, node)
        if cycle is not None:
            covered.update(cycle)
            found.append(" -> ".join(f"{m}.{f}" for m, f in cycle))
    return found


def test_the_graph_sees_calls_across_modules():
    graph = call_graph()
    assert ("evaltrees", "_se") in graph[("evaltrees", "se")]
    assert ("evaltrees", "se") in graph[("treetransform", "mse")]
    assert ("terms", "fold") in graph[("evaltrees", "tree_to_term")]


def test_no_library_function_recurses():
    found = cycles(call_graph())
    assert not found, "functions that recurse:\n" + "\n".join(found)
