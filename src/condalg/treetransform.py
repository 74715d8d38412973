"""Transformations on evaluation trees, one per valuation congruence.

Each transform rewrites a plain evaluation tree so that two terms are
congruent exactly when their transformed trees are equal:

* ``rp``  — a repeated atom answers the same way twice in a row;
* ``cr``  — immediately repeated atoms collapse to a single query;
* ``mem`` — the first answer for each atom is remembered for the walk;
* ``sse`` — memorizing over a fixed atom order, which yields the full
  binary tree a truth table describes: ``se(t)`` is layered under one
  node per atom of the order, each with that one tree as both branches,
  and then memorized.

The paper defines each transform by a one-sided helper, which rewrites a
branch whose root repeats its parent's atom, and a walk that applies it
to both branches of every node.  The trees ``se`` builds share subtrees.
``rp`` and ``cr`` run their helper inside one walk over each object of
their input, so their time is linear in the objects of the input plus
the shared tree they build, however large either is counted as a tree.
``mem`` (and so ``mse`` and ``sse``) is one walk that carries the answers
given so far, in time proportional to its output counted as a tree.
"""

from __future__ import annotations

from typing import Callable

from .evaltrees import EvalTree, Node, se
from .normalform import check_alphabet, check_static_budget
from .terms import Sigma, Term


def _walk_once(x: EvalTree, run: Callable[[bool, Node, dict], EvalTree]) -> EvalTree:
    # The paper's walk: rewrite each branch whose root repeats the node's
    # atom with the one-sided helper ``run`` (for the branch's side), then
    # transform the result.  Without recursion, and once per object (keyed
    # on ``id``), so a shared tree costs its objects plus the nodes the
    # helper builds; ``memo`` is the helper's, for this call only.  A
    # subtree that needs no change is returned as it is.
    if x.__class__ is not Node:
        return x
    root = x
    done: dict[int, EvalTree] = {}  # id of a walked node -> its transform
    memo: dict = {}
    stack = [x]
    while stack:
        x = stack[-1]
        name = x.atom.name
        left = x.left
        if left.__class__ is Node:
            if left.atom.name == name:
                left = run(True, left, memo)
            new_left = done.get(id(left))
            if new_left is None:
                if left.__class__ is Node:
                    stack.append(left)
                else:  # the helper's run ended at a leaf
                    new_left = left
        else:
            new_left = left
        right = x.right
        if right.__class__ is Node:
            if right.atom.name == name:
                right = run(False, right, memo)
            new_right = done.get(id(right))
            if new_right is None:
                if right.__class__ is Node:
                    stack.append(right)
                else:  # the helper's run ended at a leaf
                    new_right = right
        else:
            new_right = right
        if new_left is None or new_right is None:
            continue
        stack.pop()
        if new_left is x.left and new_right is x.right:
            done[id(x)] = x
        else:
            # A node pushed twice keeps the transform made first.
            done.setdefault(id(x), Node(x.atom, new_left, new_right))
    return done[id(root)]


# ---------------------------------------------------------------------------
# Repetition-proof
# ---------------------------------------------------------------------------


def _rp_run(side: bool, x: Node, memo: dict) -> Node:
    # rp's one-sided helper at x's atom a: down the run of a along
    # ``side``, then back up, building Node(a, sub, sub) at each step.
    # ``memo`` maps (side, id) of each node of a run to its result, and is
    # also the unique table: (atom name, id(sub)) -> the one Node(a, sub, sub).
    # A node whose branches both are already ``sub`` is its own result,
    # so a node built here, walked again, gives itself back.
    out = memo.get((side, id(x)))
    if out is not None:
        return out
    name = x.atom.name
    run = [x]
    sub = x.left if side else x.right
    while sub.__class__ is Node and sub.atom.name == name:
        out = memo.get((side, id(sub)))
        if out is not None:
            break
        run.append(sub)
        sub = sub.left if side else sub.right
    else:
        out = sub
    for y in reversed(run):
        key = (name, id(out))
        if y.left is out is y.right:
            memo.setdefault(key, y)
            node = y
        else:
            node = memo.get(key)
            if node is None:
                node = memo[key] = Node(y.atom, out, out)
        memo[(side, id(y))] = out = node
    return out


def rp(x: EvalTree) -> EvalTree:
    """Repetition-proof transform of an evaluation tree."""
    return _walk_once(x, _rp_run)


def rpse(t: Term) -> EvalTree:
    """Repetition-proof evaluation tree of a term."""
    return rp(se(t))


# ---------------------------------------------------------------------------
# Contractive
# ---------------------------------------------------------------------------


def _cr_run(side: bool, x: Node, memo: dict) -> EvalTree:
    # cr's one-sided helper at x's atom, which strips the run of that atom
    # along ``side``; ``memo`` maps (side, id) of each node of a run to
    # where the run ends.
    out = memo.get((side, id(x)))
    if out is not None:
        return out
    name = x.atom.name
    run = [x]
    out = x.left if side else x.right
    while out.__class__ is Node and out.atom.name == name:
        end = memo.get((side, id(out)))
        if end is not None:
            out = end
            break
        run.append(out)
        out = out.left if side else out.right
    for y in run:
        memo[(side, id(y))] = out
    return out


def cr(x: EvalTree) -> EvalTree:
    """Contractive transform of an evaluation tree."""
    return _walk_once(x, _cr_run)


def cse(t: Term) -> EvalTree:
    """Contractive evaluation tree of a term."""
    return cr(se(t))


# ---------------------------------------------------------------------------
# Memorizing
# ---------------------------------------------------------------------------


def _memorize(x: EvalTree, answers: dict[str, bool]) -> EvalTree:
    # mem of ``x`` below the queries ``answers`` (atom name -> answer)
    # already answered; ``answers`` is restored on return.  ``stack``
    # holds, innermost last, (node, None) while the node's left subtree is
    # walked under its answer True, then (node, left subtree's mem) while
    # its right one is walked under False.
    stack: list[tuple] = []
    while True:
        while x.__class__ is Node:
            answer = answers.get(x.atom.name)
            if answer is None:
                break
            x = x.left if answer else x.right
        if x.__class__ is Node:
            answers[x.atom.name] = True
            stack.append((x, None))
            x = x.left
            continue
        while stack:
            node, left = stack.pop()
            if left is None:
                answers[node.atom.name] = False
                stack.append((node, x))
                x = node.right
                break
            del answers[node.atom.name]
            if left is not node.left or x is not node.right:
                node = Node(node.atom, left, x)
            x = node
        else:
            return x


def mem(x: EvalTree) -> EvalTree:
    """Memorizing transform of an evaluation tree.

    Equal to the paper's definition, whose one-sided helper resolves every
    later query of a node's atom to the branch taken, but built in one
    walk that carries the answers given so far: a query already answered
    is skipped to the remembered branch.  Time is proportional to the
    output counted as a tree (plus the skipped queries), and subtrees that
    need no change are returned as they are.
    """
    return _memorize(x, {})


def mse(t: Term) -> EvalTree:
    """Memorizing evaluation tree of a term."""
    return mem(se(t))


# ---------------------------------------------------------------------------
# Static
# ---------------------------------------------------------------------------


def order_prefix(sigma: Sigma, x: EvalTree) -> EvalTree:
    """``x`` under one ``Node(a, x, x)`` per atom ``a`` of ``sigma``, in
    order: the tree of ``T <| e_sigma |> t`` for ``x`` that of ``t`` (as
    ``e_sigma`` has no T leaf, and both branches of each of its levels
    are one term), and of ``e_sigma`` itself for ``x`` the leaf F."""
    for a in sigma.atoms:
        x = Node(a, x, x)
    return x


def sse(sigma: Sigma, t: Term) -> EvalTree:
    """Static evaluation tree of a term over the order ``sigma``: a full
    binary tree with the last atom of ``sigma`` at the root.

    The paper defines it as ``mse(T <| e_sigma |> t)``: built here as
    ``mem`` of ``order_prefix(sigma, se(t))``.

    The output genuinely depends on the order of ``sigma``, not just its
    atoms; every atom of the term must occur in ``sigma``.  Raises
    NodeBudgetError, before building anything, if the tree has more than
    ``DEFAULT_NODE_BUDGET`` nodes counted as a tree.
    """
    check_alphabet(t, sigma, "sse")
    check_static_budget(sigma, "static tree")
    return mem(order_prefix(sigma, se(t)))
