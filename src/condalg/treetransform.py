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
to both branches of every node.  For ``rp`` and ``cr`` the helper only
makes a node's result depend on the side of such a parent it hangs on,
so each is one walk over (node, context) pairs, the context being that
side or none.  The trees ``se`` builds share subtrees, and each pair is
done once, so their time is linear in the objects of the input plus the
shared tree they build, however large either is counted as a tree.
``mem`` (and so ``mse`` and ``sse``) is one walk that carries the answers
given so far, in time proportional to its output counted as a tree.

Every function here takes the caller's ``nodes``, as ``se`` does: a
unique table keyed on (atom name, ``id(left)``, ``id(right)``) that
every node they build comes from, and that holds its nodes and so keeps
the keyed ids alive.  ``rp`` and ``cr`` also take ``done``, the results
by context (None, True or False) and ``id`` of the nodes walked, which a
caller reuses only with the same transform and over inputs it keeps
alive.  Given no tables, each call makes fresh ones.  Given inputs built
through ``nodes``, every result is too, so equal results are one object:
``equivalent`` and ``check_axioms`` decide by ``is``.
"""

from __future__ import annotations

from .errors import check_static_budget
from .evaltrees import EvalTree, Node, se
from .terms import Sigma, Term, check_alphabet


def _reduce(x: EvalTree, repeat: bool, nodes: dict | None, done: dict | None) -> EvalTree:
    # rp (``repeat``) or cr of ``x``: one walk, without recursion, over
    # (node, context) pairs.  The context is None, or the side of a parent
    # whose atom the node repeats.  In context None a node is rebuilt from
    # its branches' results; on a side it becomes its branch's result on
    # that side, which rp puts on both branches of one node of its atom.
    # Each pair is done once, keyed on ``id`` in its context's table of
    # ``done``, so a shared tree costs its objects, each at most three
    # times.  A subtree that needs no change is returned as it is, and
    # every new node comes from ``nodes`` (see the module docstring).
    if x.__class__ is not Node:
        return x
    if nodes is None:
        nodes = {}
    if done is None:
        done = {None: {}, True: {}, False: {}}
    out = done[None].get(id(x))
    if out is not None:
        return out
    stack: list[tuple[Node, bool | None]] = [(x, None)]
    while stack:
        x, side = stack[-1]
        name = x.atom.name
        if side is None:
            new_left = left = x.left
            if left.__class__ is Node:
                at = True if left.atom.name == name else None
                new_left = done[at].get(id(left))
                if new_left is None:
                    stack.append((left, at))
            new_right = right = x.right
            if right.__class__ is Node:
                at = False if right.atom.name == name else None
                new_right = done[at].get(id(right))
                if new_right is None:
                    stack.append((right, at))
            if new_left is None or new_right is None:
                continue
            stack.pop()
            if id(x) in done[None]:  # pushed twice
                continue
            out = x
            if new_left is not left or new_right is not right:
                key = (name, id(new_left), id(new_right))
                out = nodes.get(key)
                if out is None:
                    out = nodes[key] = Node(x.atom, new_left, new_right)
        else:
            out = y = x.left if side else x.right
            if y.__class__ is Node:
                at = side if y.atom.name == name else None
                out = done[at].get(id(y))
                if out is None:
                    stack.append((y, at))
                    continue
            stack.pop()
            if repeat:
                if x.left is out is x.right:  # so an rp image is its own
                    out = x
                else:
                    key = (name, id(out), id(out))
                    node = nodes.get(key)
                    if node is None:
                        node = nodes[key] = Node(x.atom, out, out)
                    out = node
        done[side][id(x)] = out
    return out  # the root's, done last


# ---------------------------------------------------------------------------
# Repetition-proof
# ---------------------------------------------------------------------------


def rp(x: EvalTree, nodes: dict | None = None, done: dict | None = None) -> EvalTree:
    """Repetition-proof transform of an evaluation tree."""
    return _reduce(x, True, nodes, done)


def rpse(t: Term, nodes: dict | None = None) -> EvalTree:
    """Repetition-proof evaluation tree of a term."""
    return rp(se(t, nodes), nodes)


# ---------------------------------------------------------------------------
# Contractive
# ---------------------------------------------------------------------------


def cr(x: EvalTree, nodes: dict | None = None, done: dict | None = None) -> EvalTree:
    """Contractive transform of an evaluation tree."""
    return _reduce(x, False, nodes, done)


def cse(t: Term, nodes: dict | None = None) -> EvalTree:
    """Contractive evaluation tree of a term."""
    return cr(se(t, nodes), nodes)


# ---------------------------------------------------------------------------
# Memorizing
# ---------------------------------------------------------------------------


def mem(x: EvalTree, nodes: dict | None = None) -> EvalTree:
    """Memorizing transform of an evaluation tree.

    Equal to the paper's definition, whose one-sided helper resolves every
    later query of a node's atom to the branch taken, but built in one
    walk that carries the answers given so far: a query already answered
    is skipped to the remembered branch.  Time is proportional to the
    output counted as a tree (plus the skipped queries), and subtrees that
    need no change are returned as they are.
    """
    # ``answers`` maps the atoms queried on the way down to their answers.
    # ``stack`` holds, innermost last, (node, None) while the node's left
    # subtree is walked under its answer True, then (node, left subtree's
    # mem) while its right one is walked under False.
    if nodes is None:
        nodes = {}
    answers: dict[str, bool] = {}
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
            name = node.atom.name
            del answers[name]
            if left is not node.left or x is not node.right:
                key = (name, id(left), id(x))
                new = nodes.get(key)
                if new is None:
                    new = nodes[key] = Node(node.atom, left, x)
                node = new
            x = node
        else:
            return x


def mse(t: Term, nodes: dict | None = None) -> EvalTree:
    """Memorizing evaluation tree of a term."""
    return mem(se(t, nodes), nodes)


# ---------------------------------------------------------------------------
# Static
# ---------------------------------------------------------------------------


def order_prefix(sigma: Sigma, x: EvalTree, nodes: dict | None = None) -> EvalTree:
    """``x`` under one ``Node(a, x, x)`` per atom ``a`` of ``sigma``, in
    order: the tree of ``T <| e_sigma |> t`` for ``x`` that of ``t`` (as
    ``e_sigma`` has no T leaf, and both branches of each of its levels
    are one term), and of ``e_sigma`` itself for ``x`` the leaf F.  Each
    node comes from ``nodes``, as in the transforms."""
    if nodes is None:
        nodes = {}
    for a in sigma.atoms:
        key = (a.name, id(x), id(x))
        y = nodes.get(key)
        if y is None:
            y = nodes[key] = Node(a, x, x)
        x = y
    return x


def sse(sigma: Sigma, t: Term, nodes: dict | None = None) -> EvalTree:
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
    check_static_budget(sigma, "sse")
    return mem(order_prefix(sigma, se(t, nodes), nodes), nodes)
