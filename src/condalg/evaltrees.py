"""Evaluation trees: binary trees recording every possible short-circuit run.

Internal nodes carry an atom; the left branch is taken when the atom
evaluates true, the right branch when it evaluates false.  Leaves carry
the final result.

The trees ``se`` and the transforms build share subtrees, so a tree's
text can be far larger than its objects.  The ascii and json writers of
``render_tree`` take time linear in the text: they write with
``terms.render_shared``, which builds the text of each node reached from
more than one parent once and keeps no other subtree's text.  No writer
recurses, so any depth renders at the default recursion limit.
"""

from __future__ import annotations

import json
from operator import attrgetter
from typing import Callable, Union

from .terms import (
    Atom,
    AtomTerm,
    Cond,
    FALSE,
    FalseConst,
    Term,
    TRUE,
    TrueConst,
    fold,
    format_atom,
    frozen,
    render_shared,
)


@frozen
class Leaf:
    value: bool

    def __repr__(self) -> str:
        return "T" if self.value else "F"


@frozen(deep=True)
class Node:
    """Post-conditional composition: left branch on true, right on false."""

    atom: Atom
    left: "EvalTree"
    right: "EvalTree"

    def __repr__(self) -> str:
        return render_tree(self)


EvalTree = Union[Leaf, Node]

LEAF_T = Leaf(True)
LEAF_F = Leaf(False)


@frozen
class Evaluation:
    """One complete root-to-leaf walk: queried atoms with their answers,
    plus the final result."""

    path: tuple[tuple[Atom, bool], ...]
    result: bool

    @property
    def path_text(self) -> str:
        if not self.path:
            return "-"
        return " ".join(
            f"{format_atom(a)}{'T' if v else 'F'}" for a, v in self.path
        )

    def __str__(self) -> str:
        return f"({self.path_text}, {'T' if self.result else 'F'})"


AtomOracle = Callable[[Atom], bool]


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _se(t: Term, kt: EvalTree, kf: EvalTree, nodes: dict) -> EvalTree:
    # ``se(t)`` with its true leaves replaced by kt and its false leaves by
    # kf, built directly: the branches' trees are built onto kt and kf and
    # become the condition's continuations, and the condition is the next
    # step.  A branch that is a constant or an atom is built in place; one
    # that is a conditional waits on ``stack``, innermost last, as
    # (conditional, kt, kf) while its true branch is built, then as
    # (condition, true branch's tree, None) while its false branch is.
    # Each node comes from ``nodes`` (see ``se``).
    stack: list[tuple] = []
    while True:
        cls = t.__class__
        if cls is Cond:
            p = t.true_branch
            cls = p.__class__
            if cls is Cond:
                stack.append((t, kt, kf))
                t = p
                continue
            if cls is AtomTerm:
                key = (p.atom.name, id(kt), id(kf))
                left = nodes.get(key)
                if left is None:
                    left = nodes[key] = Node(p.atom, kt, kf)
            else:
                left = kt if cls is TrueConst else kf
        else:
            if cls is AtomTerm:
                key = (t.atom.name, id(kt), id(kf))
                x = nodes.get(key)
                if x is None:
                    x = nodes[key] = Node(t.atom, kt, kf)
            else:
                x = kt if cls is TrueConst else kf
            if not stack:
                return x
            t, kt, kf = stack.pop()
            if kf is None:
                kf = x
                continue
            left = x
        r = t.false_branch
        cls = r.__class__
        if cls is Cond:
            stack.append((t.condition, left, None))
            t = r
            continue
        if cls is AtomTerm:
            key = (r.atom.name, id(kt), id(kf))
            right = nodes.get(key)
            if right is None:
                right = nodes[key] = Node(r.atom, kt, kf)
            kf = right
        elif cls is TrueConst:
            kf = kt
        kt = left
        t = t.condition


def se(t: Term, nodes: dict | None = None) -> EvalTree:
    """The evaluation tree of a term under short-circuit evaluation.

    The tree of ``P <| Q |> R`` is the condition's tree with its true
    leaves replaced by P's tree and its false leaves by R's, built in one
    pass that shares those trees.  Every node comes from ``nodes``, a
    unique table keyed on (atom name, ``id(left)``, ``id(right)``), fresh
    if none is given, so equal subtrees are one object; trees built
    through one table are equal exactly when they are one object.
    """
    return _se(t, LEAF_T, LEAF_F, {} if nodes is None else nodes)


# ---------------------------------------------------------------------------
# Inspection
# ---------------------------------------------------------------------------


def evaluations(x: EvalTree) -> list[Evaluation]:
    """All complete root-to-leaf walks, true branch enumerated first.

    A bare leaf yields the single empty-path evaluation.
    """
    out: list[Evaluation] = []
    path: list[tuple[Atom, bool]] = []
    # Pending subtrees, last first, each with the length of the path above
    # it and the step into it (None for the root).
    stack: list = [(x, 0, None)]
    while stack:
        node, depth, step = stack.pop()
        del path[depth:]
        if step is not None:
            path.append(step)
        if isinstance(node, Leaf):
            out.append(Evaluation(tuple(path), node.value))
        else:
            depth = len(path)
            stack += ((node.right, depth, (node.atom, False)), (node.left, depth, (node.atom, True)))
    return out


def tree_children(x: EvalTree) -> tuple[EvalTree, ...]:
    """A node's left and right subtrees; none for a leaf."""
    return (x.left, x.right) if x.__class__ is Node else ()


def tree_to_term(x: EvalTree) -> Term:
    """The unique basic form whose evaluation tree is ``x``.  A subtree
    shared in ``x`` gives one shared subterm."""
    return fold(x, tree_children, _term_of)


def _term_of(x: EvalTree, kids: list[Term]) -> Term:
    return Cond(kids[0], AtomTerm(x.atom), kids[1]) if kids else TRUE if x.value else FALSE


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


_NODE_CHILDREN = attrgetter("left", "right")


def _write(
    x: EvalTree,
    leaves: tuple[str, str],
    close: str,
    around: Callable[[Atom], tuple[str, str]],
) -> str:
    # The text of a tree, a node written as ``opening``, its left subtree,
    # ``joint``, its right subtree and ``close``, where ``around(atom)``
    # is ``(opening, joint)`` and ``leaves`` the texts of F and T.
    arounds: dict[str, tuple[str, str]] = {}  # atom name -> around(atom)
    closed = (leaves[0] + close, leaves[1] + close)

    def pieces(x: Node) -> list:
        right, left = x.right, x.left
        out = [close, right] if right.__class__ is Node else [closed[right.value]]
        opening = arounds.get(x.atom.name)
        if opening is None:
            opening = arounds[x.atom.name] = around(x.atom)
        out.append(opening[1])
        if left.__class__ is Node:
            out += (left, opening[0])
        else:
            out += (leaves[left.value], opening[0])
        return out

    if x.__class__ is not Node:
        return leaves[x.value]
    return render_shared(x, Node, _NODE_CHILDREN, pieces)


def _ascii_around(a: Atom) -> tuple[str, str]:
    return "(", f" <{format_atom(a)}> "


def _json_around(a: Atom) -> tuple[str, str]:
    return f'{{"atom":{json.dumps(a.name)},"t":', ',"f":'


def _dot(x: EvalTree) -> str:
    lines = ["digraph evaltree {"]
    edges: list[str] = []
    # Pending work, last first: an edge, written once the subtree it leads
    # to is, or (subtree, its parent's number, the edge's label).  A node's
    # number is its place in preorder.
    stack: list = [(x, None, None)]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            edges.append(item)
            continue
        node, parent, label = item
        ident = len(lines) - 1
        if parent is not None:
            stack.append(f'  n{parent} -> n{ident} [label="{label}"];')
        if isinstance(node, Leaf):
            value = "T" if node.value else "F"
            lines.append(f'  n{ident} [label="{value}", shape=box];')
        else:
            lines.append(f'  n{ident} [label="{node.atom.name}"];')
            stack += ((node.right, ident, "F"), (node.left, ident, "T"))
    lines.extend(edges)
    lines.append("}")
    return "\n".join(lines)


def render_tree(x: EvalTree, fmt: str = "ascii") -> str:
    """Render an evaluation tree.

    Formats: ``ascii`` (inline, ``(T <a> F)``), ``dot`` (digraph, nodes
    numbered in preorder, edges labeled T/F), ``json`` (nested objects,
    leaves as the strings "T"/"F").  Every format writes the tree in full,
    shared subtrees once per occurrence.
    """
    if fmt == "ascii":
        return _write(x, ("F", "T"), ")", _ascii_around)
    if fmt == "json":
        return _write(x, ('"F"', '"T"'), "}", _json_around)
    if fmt == "dot":
        return _dot(x)
    raise ValueError(f"unknown tree format: {fmt!r}")


# ---------------------------------------------------------------------------
# Operational evaluation
# ---------------------------------------------------------------------------


def evaluate_with_oracle(t: Term, oracle: AtomOracle) -> bool:
    """Run a term left to right, asking the oracle once per atom visit.

    The condition is evaluated first and selects which branch runs; the
    other branch is never visited.  With a stateless oracle this follows
    one root-to-leaf path of ``se(t)``; a stateful oracle may answer
    repeat queries differently.
    """
    pending: list[Cond] = []  # conditionals whose condition is running
    while True:
        while isinstance(t, Cond):
            pending.append(t)
            t = t.condition
        if isinstance(t, TrueConst):
            value = True
        elif isinstance(t, FalseConst):
            value = False
        else:
            value = bool(oracle(t.atom))
        if not pending:
            return value
        cond = pending.pop()
        t = cond.true_branch if value else cond.false_branch
