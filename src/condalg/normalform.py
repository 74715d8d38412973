"""Syntactic normal forms for each valuation congruence.

``bf`` rewrites any term into a basic form; ``rpbf``, ``cbf`` and ``mbf``
post-process that basic form for the repetition-proof, contractive and
memorizing congruences; ``sbf`` layers a term over a fixed evaluation
order for the static congruence.

Each post-processing step is, in the paper, a one-sided helper that
rewrites a branch whose central atom repeats its parent's, applied to
both branches of every conditional.  For ``rpf`` and ``cf`` the helper
only makes a form's result depend on the side of such a parent it hangs
on, so each is one walk over (form, context) pairs, the context being
that side or none; ``mf`` is one walk that carries the answers given.

``bf`` shares subterms, so the objects it builds are linear in the term,
but counted as a tree a normal form can grow exponentially.  Every
normalizer takes a node budget (default one million nodes) and raises
NodeBudgetError instead of exhausting memory.  The budget bounds the
normalizer's own result counted as a tree, one node per conditional and
per constant; ``rpbf``, ``cbf``, ``mbf`` and ``sbf`` bound only that
result, not the shared basic form before it.  ``rpf`` and ``cf`` (and so
``rpbf`` and ``cbf``) do each (object, context) pair once, in time
linear in the objects of the input plus the shared form they build, and
work out each result object's size counted as a tree once.  ``mf`` (and
so ``mbf`` and ``sbf``) is one walk that carries the answers given so far,
in time proportional to its result counted as a tree.
"""

from __future__ import annotations

from .errors import DEFAULT_NODE_BUDGET, NodeBudgetError, NotBasicFormError, check_static_budget
from .terms import (
    AtomTerm,
    Cond,
    FALSE,
    Sigma,
    TRUE,
    Term,
    TrueConst,
    check_alphabet,
    is_basic_form,
    render_term,
)


def _require_basic(p: Term, func: str) -> None:
    if not is_basic_form(p):
        raise NotBasicFormError(
            f"{func} is defined on basic forms only, got: {render_term(p)}"
        )


# ---------------------------------------------------------------------------
# Basic forms: bf and leaf substitution
# ---------------------------------------------------------------------------


def _bf(t: Term, kt: tuple[Term, int], kf: tuple[Term, int]) -> tuple[Term, int]:
    # (basic form, size counted as a tree) of ``t`` with its T leaves
    # replaced by kt's form and its F leaves by kf's, built in one pass
    # that shares kt and kf rather than copying them: the branches' forms
    # become the condition's continuations, and the condition is the next
    # step.  A branch that is a constant or an atom is built in place; one
    # that is a conditional waits on ``stack``, innermost last, as
    # (conditional, kt, kf) while its true branch is built, then as
    # (condition, true branch's form, None) while its false branch is.
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
                left = Cond(kt[0], p, kf[0]), 1 + kt[1] + kf[1]
            else:
                left = kt if cls is TrueConst else kf
        else:
            if cls is AtomTerm:
                x = Cond(kt[0], t, kf[0]), 1 + kt[1] + kf[1]
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
            kf = Cond(kt[0], r, kf[0]), 1 + kt[1] + kf[1]
        elif cls is TrueConst:
            kf = kt
        kt = left
        t = t.condition


def bf(t: Term, *, node_budget: int = DEFAULT_NODE_BUDGET) -> Term:
    """The basic form of a term: constants stay, an atom becomes
    ``T <| a |> F``, and a conditional substitutes its branches' basic
    forms into its condition's.  Raises NodeBudgetError if the result,
    counted as a tree, has more than ``node_budget`` nodes."""
    form, size = _bf(t, (TRUE, 1), (FALSE, 1))
    if size > node_budget:
        raise NodeBudgetError("bf", size, node_budget)
    return form


def subst_tf(p: Term, for_true: Term, for_false: Term) -> Term:
    """Replace the T leaves of a basic form with ``for_true`` and its F
    leaves with ``for_false``.  All three arguments must be basic forms;
    the result is then a basic form."""
    _require_basic(p, "subst_tf")
    _require_basic(for_true, "subst_tf")
    _require_basic(for_false, "subst_tf")
    # A basic form is its own bf; the sizes are not needed here.
    return _bf(p, (for_true, 0), (for_false, 0))[0]


# ---------------------------------------------------------------------------
# The post-processing walk shared by rpf and cf
# ---------------------------------------------------------------------------


def _reduce(p: Term, repeat: bool, node_budget: int) -> Term:
    # rpf (``repeat``) or cf of the basic form ``p``: one walk, without
    # recursion, over (form, context) pairs.  The context is None, or the
    # side of a parent whose central atom the form repeats.  In context
    # None a conditional is rebuilt from its branches' results; on a side
    # it becomes its branch's result on that side, which rpf puts on both
    # branches of one conditional on its atom (one per atom and result,
    # from ``unique``).  Each pair is done once, keyed on ``id`` in its
    # context's table, so a shared form costs its objects, each at most
    # three times.  Each result's size counted as a tree (constants 1) is
    # worked out once, and the walk raises as soon as one exceeds
    # ``node_budget``, with that size.  A subform that needs no change is
    # returned as it is.
    if p.__class__ is not Cond:
        if node_budget < 1:
            raise NodeBudgetError("rpf" if repeat else "cf", 1, node_budget)
        return p
    done: dict = {None: {}, True: {}, False: {}}  # context -> id -> result
    sizes: dict[int, int] = {}  # id of a result -> its size
    unique: dict[tuple[str, int], Cond] = {}  # (atom name, id(q)) -> q <| a |> q
    stack: list[tuple[Cond, bool | None]] = [(p, None)]
    while stack:
        p, side = stack[-1]
        name = p.condition.atom.name
        if side is None:
            new_left = left = p.true_branch
            if left.__class__ is Cond:
                at = True if left.condition.atom.name == name else None
                new_left = done[at].get(id(left))
                if new_left is None:
                    stack.append((left, at))
            new_right = right = p.false_branch
            if right.__class__ is Cond:
                at = False if right.condition.atom.name == name else None
                new_right = done[at].get(id(right))
                if new_right is None:
                    stack.append((right, at))
            if new_left is None or new_right is None:
                continue
            stack.pop()
            if id(p) in done[None]:  # pushed twice
                continue
            size = sizes.get(id(new_left), 1) + sizes.get(id(new_right), 1) + 1
            if size > node_budget:
                raise NodeBudgetError("rpf" if repeat else "cf", size, node_budget)
            out = p
            if new_left is not left or new_right is not right:
                out = Cond(new_left, p.condition, new_right)
            sizes[id(out)] = size
        else:
            out = q = p.true_branch if side else p.false_branch
            if q.__class__ is Cond:
                at = side if q.condition.atom.name == name else None
                out = done[at].get(id(q))
                if out is None:
                    stack.append((q, at))
                    continue
            stack.pop()
            if repeat:
                size = 2 * sizes.get(id(out), 1) + 1
                if size > node_budget:
                    raise NodeBudgetError("rpf", size, node_budget)
                if p.true_branch is out is p.false_branch:  # so an rpf form is its own
                    out = p
                else:
                    key = (name, id(out))
                    form = unique.get(key)
                    if form is None:
                        form = unique[key] = Cond(out, p.condition, out)
                    out = form
                sizes[id(out)] = size
        done[side][id(p)] = out
    return out  # the root's, done last


# ---------------------------------------------------------------------------
# Repetition-proof normalizer
# ---------------------------------------------------------------------------


def _rpf(p: Term, node_budget: int) -> Term:
    return _reduce(p, True, node_budget)


def rpf(p: Term, *, node_budget: int = DEFAULT_NODE_BUDGET) -> Term:
    """Rewrite a basic form into a repetition-proof basic form."""
    _require_basic(p, "rpf")
    return _rpf(p, node_budget)


def rpbf(t: Term, *, node_budget: int = DEFAULT_NODE_BUDGET) -> Term:
    """Repetition-proof normal form of an arbitrary term."""
    return _rpf(_bf(t, (TRUE, 0), (FALSE, 0))[0], node_budget)


# ---------------------------------------------------------------------------
# Contractive normalizer
# ---------------------------------------------------------------------------


def _cf(p: Term, node_budget: int) -> Term:
    return _reduce(p, False, node_budget)


def cf(p: Term, *, node_budget: int = DEFAULT_NODE_BUDGET) -> Term:
    """Rewrite a basic form into a contractive basic form."""
    _require_basic(p, "cf")
    return _cf(p, node_budget)


def cbf(t: Term, *, node_budget: int = DEFAULT_NODE_BUDGET) -> Term:
    """Contractive normal form of an arbitrary term."""
    return _cf(_bf(t, (TRUE, 0), (FALSE, 0))[0], node_budget)


# ---------------------------------------------------------------------------
# Memorizing normalizer
# ---------------------------------------------------------------------------


def _mf(p: Term, node_budget: int) -> Term:
    # The memorizing form of the basic form ``p``: the paper's reduction,
    # whose helper resolves every later occurrence of a central atom to the
    # side taken, in one walk that carries the answers given so far and
    # skips a repeated central atom to its remembered branch.  ``answers``
    # maps the central atoms met on the way down to their answers, and
    # ``count`` counts the result's nodes as a tree.  ``stack`` holds,
    # innermost last, (form, None) while the form's true branch is walked
    # under its answer True, then (form, true branch's result) while its
    # false branch is walked under False.
    answers: dict[str, bool] = {}
    stack: list[tuple] = []
    count = 0
    while True:
        while p.__class__ is Cond:
            answer = answers.get(p.condition.atom.name)
            if answer is None:
                break
            p = p.true_branch if answer else p.false_branch
        count += 1
        if count > node_budget:
            raise NodeBudgetError("mf", count, node_budget)
        if p.__class__ is Cond:
            answers[p.condition.atom.name] = True
            stack.append((p, None))
            p = p.true_branch
            continue
        while stack:
            form, left = stack.pop()
            if left is None:
                answers[form.condition.atom.name] = False
                stack.append((form, p))
                p = form.false_branch
                break
            del answers[form.condition.atom.name]
            if left is not form.true_branch or p is not form.false_branch:
                form = Cond(left, form.condition, p)
            p = form
        else:
            return p


def mf(p: Term, *, node_budget: int = DEFAULT_NODE_BUDGET) -> Term:
    """Rewrite a basic form into a memorizing basic form.

    One walk, in time proportional to the result counted as a tree (plus
    the repeated queries it skips); raises NodeBudgetError as soon as that
    tree exceeds ``node_budget`` nodes."""
    _require_basic(p, "mf")
    return _mf(p, node_budget)


def mbf(t: Term, *, node_budget: int = DEFAULT_NODE_BUDGET) -> Term:
    """Memorizing normal form of an arbitrary term.  Only the result,
    counted as a tree, is bounded by ``node_budget``: the basic form in
    between shares its subterms, so its objects are linear in ``t``."""
    # The basic form's size is not needed here.
    return _mf(_bf(t, (TRUE, 0), (FALSE, 0))[0], node_budget)


# ---------------------------------------------------------------------------
# Static normalizer
# ---------------------------------------------------------------------------


def e_sigma(sigma: Sigma) -> Term:
    """The all-F term layered in reverse order of ``sigma``; the empty
    order gives F.  T does not occur in it."""
    term: Term = FALSE
    for a in sigma.atoms:
        term = Cond(term, AtomTerm(a), term)
    return term


def sbf(sigma: Sigma, t: Term, *, node_budget: int = DEFAULT_NODE_BUDGET) -> Term:
    """Static normal form of a term over the evaluation order ``sigma``:
    a full binary tree layered in reverse-``sigma`` order.

    The paper defines it as ``mbf(T <| e_sigma |> t)``.  ``e_sigma`` has
    no T leaf, and at each of its levels both branches are one term, so
    the basic form of that prefix is ``bf(t)`` under a chain of
    ``Q <| a |> Q``, one per atom ``a`` of ``sigma`` in order: built here
    as |sigma| objects, then memorized.  Only the memorizing form,
    counted as a tree, is bounded by ``node_budget``, and an order too
    wide for it is refused before anything is built.

    Every atom of the term must occur in ``sigma``.
    """
    check_alphabet(t, sigma, "sbf")
    check_static_budget(sigma, "sbf", node_budget)
    form = _bf(t, (TRUE, 0), (FALSE, 0))[0]
    for a in sigma.atoms:
        form = Cond(form, AtomTerm(a), form)
    return _mf(form, node_budget)
