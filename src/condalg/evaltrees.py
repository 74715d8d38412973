"""Evaluation trees: binary trees recording every possible short-circuit run.

Internal nodes carry an atom; the left branch is taken when the atom
evaluates true, the right branch when it evaluates false.  Leaves carry
the final result.

The trees ``se`` and the transforms build share subtrees, so a tree's
text can be far larger than its objects.  The ascii writer of
``render_tree`` takes time linear in the text: it writes with
``terms.render_shared``, which builds the text of each node reached from
more than one parent once and keeps no other subtree's text.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
    format_atom,
    render_shared,
)


@dataclass(frozen=True, slots=True)
class Leaf:
    value: bool

    def __repr__(self) -> str:
        return "T" if self.value else "F"


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


def leaf_replace(x: EvalTree, for_true: EvalTree, for_false: EvalTree) -> EvalTree:
    """Replace every true leaf of ``x`` with ``for_true`` and every false
    leaf with ``for_false``.  Replacement subtrees are shared, not copied."""
    if isinstance(x, Leaf):
        return for_true if x.value else for_false
    return Node(
        x.atom,
        leaf_replace(x.left, for_true, for_false),
        leaf_replace(x.right, for_true, for_false),
    )


def _se(t: Term, kt: EvalTree, kf: EvalTree) -> EvalTree:
    # ``leaf_replace(se(t), kt, kf)``, built directly: the branches' trees
    # are built onto kt and kf and become the condition's continuations.
    if isinstance(t, Cond):
        return _se(t.condition, _se(t.true_branch, kt, kf), _se(t.false_branch, kt, kf))
    if isinstance(t, AtomTerm):
        return Node(t.atom, kt, kf)
    return kt if isinstance(t, TrueConst) else kf


def se(t: Term) -> EvalTree:
    """The evaluation tree of a term under short-circuit evaluation.

    The tree of ``P <| Q |> R`` is the condition's tree with its true
    leaves replaced by P's tree and its false leaves by R's
    (``leaf_replace``), built in one pass that shares those trees.
    """
    return _se(t, LEAF_T, LEAF_F)


# ---------------------------------------------------------------------------
# Inspection
# ---------------------------------------------------------------------------


def evaluations(x: EvalTree) -> list[Evaluation]:
    """All complete root-to-leaf walks, true branch enumerated first.

    A bare leaf yields the single empty-path evaluation.
    """
    out: list[Evaluation] = []
    prefix: list[tuple[Atom, bool]] = []

    def walk(node: EvalTree) -> None:
        if isinstance(node, Leaf):
            out.append(Evaluation(tuple(prefix), node.value))
            return
        prefix.append((node.atom, True))
        walk(node.left)
        prefix.pop()
        prefix.append((node.atom, False))
        walk(node.right)
        prefix.pop()

    walk(x)
    return out


def same_tree(x: EvalTree, y: EvalTree) -> bool:
    """Whether two evaluation trees are equal, as ``x == y``.

    Trees built by ``se`` and the transforms share subtrees, and ``==``
    walks them as trees, which can take exponentially long.  This walk
    stops at identical objects and compares each pair of objects once, so
    it takes time linear in the pairs of shared nodes it meets.
    """
    seen: set[tuple[int, int]] = set()
    pending: list[tuple[EvalTree, EvalTree]] = []
    while True:
        # Descend along left branches, leaving the right pairs pending.
        if x is not y:
            if not (isinstance(x, Node) and isinstance(y, Node)):
                if x != y:
                    return False
            elif x.atom.name != y.atom.name:
                return False
            elif (id(x), id(y)) not in seen:
                seen.add((id(x), id(y)))
                pending.append((x.right, y.right))
                x, y = x.left, y.left
                continue
        if not pending:
            return True
        x, y = pending.pop()


def tree_to_term(x: EvalTree) -> Term:
    """The unique basic form whose evaluation tree is ``x``."""
    if isinstance(x, Leaf):
        return TRUE if x.value else FALSE
    return Cond(tree_to_term(x.left), AtomTerm(x.atom), tree_to_term(x.right))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


_NODE_CHILDREN = attrgetter("left", "right")


def _ascii(x: EvalTree) -> str:
    joints: dict[str, str] = {}  # atom name -> " <atom> "

    def pieces(x: Node) -> list:
        right, left = x.right, x.left
        out = [")", right] if right.__class__ is Node else ["T)" if right.value else "F)"]
        joint = joints.get(x.atom.name)
        if joint is None:
            joint = joints[x.atom.name] = f" <{format_atom(x.atom)}> "
        out.append(joint)
        if left.__class__ is Node:
            out += (left, "(")
        else:
            out += ("T" if left.value else "F", "(")
        return out

    if x.__class__ is not Node:
        return "T" if x.value else "F"
    return render_shared(x, Node, _NODE_CHILDREN, pieces)


def _json_obj(x: EvalTree):
    if isinstance(x, Leaf):
        return "T" if x.value else "F"
    return {"atom": x.atom.name, "t": _json_obj(x.left), "f": _json_obj(x.right)}


def _dot(x: EvalTree) -> str:
    lines = ["digraph evaltree {"]
    edges: list[str] = []
    counter = 0

    def visit(node: EvalTree) -> int:
        nonlocal counter
        ident = counter
        counter += 1
        if isinstance(node, Leaf):
            label = "T" if node.value else "F"
            lines.append(f'  n{ident} [label="{label}", shape=box];')
        else:
            lines.append(f'  n{ident} [label="{node.atom.name}"];')
            left = visit(node.left)
            edges.append(f'  n{ident} -> n{left} [label="T"];')
            right = visit(node.right)
            edges.append(f'  n{ident} -> n{right} [label="F"];')
        return ident

    visit(x)
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
        return _ascii(x)
    if fmt == "json":
        return json.dumps(_json_obj(x), separators=(",", ":"))
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
    while isinstance(t, Cond):
        t = t.true_branch if evaluate_with_oracle(t.condition, oracle) else t.false_branch
    if isinstance(t, TrueConst):
        return True
    if isinstance(t, FalseConst):
        return False
    return bool(oracle(t.atom))
