"""Transformations on evaluation trees, one per valuation congruence.

Each transform rewrites a plain evaluation tree so that two terms are
congruent exactly when their transformed trees are equal:

* ``rp``  — a repeated atom answers the same way twice in a row;
* ``cr``  — immediately repeated atoms collapse to a single query;
* ``mem`` — the first answer for each atom is remembered for the walk;
* ``sse`` — memorizing over a fixed atom order, which yields the full
  binary tree a truth table describes.

``mem`` (and so ``mse`` and ``sse``) is one walk that carries the answers
given so far, in time proportional to its output counted as a tree; the
paper's definition, ``_walk`` with ``mem_tree_aux``, walks the rest of the
tree again below every node.
"""

from __future__ import annotations

from typing import Callable

from .evaltrees import EvalTree, Leaf, Node, se, tree_children
from .normalform import check_alphabet, e_sigma
from .terms import Atom, Cond, Sigma, TRUE, Term, fold


def _walk(x: EvalTree, aux: Callable[[bool, Atom, EvalTree], EvalTree]) -> EvalTree:
    # Rewrite each subtree with the one-sided helper ``aux`` for the answer
    # that leads into it, then recurse into the result.
    if isinstance(x, Leaf):
        return x
    left = _walk(aux(True, x.atom, x.left), aux)
    right = _walk(aux(False, x.atom, x.right), aux)
    if left is x.left and right is x.right:
        return x
    return Node(x.atom, left, right)


# ---------------------------------------------------------------------------
# Repetition-proof
# ---------------------------------------------------------------------------


def rp_tree_aux(side: bool, a: Atom, x: EvalTree) -> EvalTree:
    """One-sided helper of ``rp``: duplicates the surviving branch when the
    root repeats ``a``; leaves and other roots pass through."""
    if isinstance(x, Node) and x.atom == a:
        sub = rp_tree_aux(side, a, x.left if side else x.right)
        return Node(a, sub, sub)
    return x


def rp(x: EvalTree) -> EvalTree:
    """Repetition-proof transform of an evaluation tree."""
    return _walk(x, rp_tree_aux)


def rpse(t: Term) -> EvalTree:
    """Repetition-proof evaluation tree of a term."""
    return rp(se(t))


# ---------------------------------------------------------------------------
# Contractive
# ---------------------------------------------------------------------------


def cr_tree_aux(side: bool, a: Atom, x: EvalTree) -> EvalTree:
    """One-sided helper of ``cr``: strips repeated root queries of ``a``."""
    while isinstance(x, Node) and x.atom == a:
        x = x.left if side else x.right
    return x


def cr(x: EvalTree) -> EvalTree:
    """Contractive transform of an evaluation tree."""
    return _walk(x, cr_tree_aux)


def cse(t: Term) -> EvalTree:
    """Contractive evaluation tree of a term."""
    return cr(se(t))


# ---------------------------------------------------------------------------
# Memorizing
# ---------------------------------------------------------------------------


def mem_tree_aux(side: bool, a: Atom, x: EvalTree) -> EvalTree:
    """One-sided helper of ``mem``: resolves every later query of ``a`` to
    the remembered answer, in time linear in the objects of ``x``."""

    def step(x: EvalTree, kids: list[EvalTree]) -> EvalTree:
        if not kids:
            return x
        left, right = kids
        if x.atom == a:
            return left if side else right
        return x if left is x.left and right is x.right else Node(x.atom, left, right)

    return fold(x, tree_children, step)


def mem(x: EvalTree) -> EvalTree:
    """Memorizing transform of an evaluation tree.

    Equal to ``_walk(x, mem_tree_aux)``, the paper's definition, but built
    in one walk that carries the answers given so far: a query already
    answered is skipped to the remembered branch.  Time is proportional to
    the output counted as a tree (plus the skipped queries), and subtrees
    that need no change are returned as they are.
    """
    answers: dict[str, bool] = {}

    def walk(x: EvalTree) -> EvalTree:
        while isinstance(x, Node):
            answer = answers.get(x.atom.name)
            if answer is None:
                break
            x = x.left if answer else x.right
        if isinstance(x, Leaf):
            return x
        name = x.atom.name
        answers[name] = True
        left = walk(x.left)
        answers[name] = False
        right = walk(x.right)
        del answers[name]
        if left is x.left and right is x.right:
            return x
        return Node(x.atom, left, right)

    return walk(x)


def mse(t: Term) -> EvalTree:
    """Memorizing evaluation tree of a term."""
    return mem(se(t))


# ---------------------------------------------------------------------------
# Static
# ---------------------------------------------------------------------------


def sse(sigma: Sigma, t: Term) -> EvalTree:
    """Static evaluation tree of a term over the order ``sigma``: a full
    binary tree with the last atom of ``sigma`` at the root.

    The output genuinely depends on the order of ``sigma``, not just its
    atoms; every atom of the term must occur in ``sigma``.
    """
    check_alphabet(t, sigma, "sse")
    return mse(Cond(TRUE, e_sigma(sigma), t))
