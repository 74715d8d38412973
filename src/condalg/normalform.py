"""Syntactic normal forms for each valuation congruence.

``bf`` rewrites any term into a basic form; ``rpbf``, ``cbf`` and ``mbf``
post-process that basic form for the repetition-proof, contractive and
memorizing congruences; ``sbf`` layers a term over a fixed evaluation
order for the static congruence.

``bf`` shares subterms, so the objects it builds are linear in the term,
but counted as a tree a normal form can grow exponentially.  Every
normalizer takes a node budget (default one million nodes) and raises
NodeBudgetError instead of exhausting memory.  The budget bounds the
normalizer's own result counted as a tree, one node per conditional and
per constant; ``rpbf``, ``cbf``, ``mbf`` and ``sbf`` bound only that
result, not the shared basic form before it.  ``mf`` (and so ``mbf`` and
``sbf``) is one walk that carries the answers given so far, in time
proportional to its result counted as a tree.
"""

from __future__ import annotations

from typing import Callable

from .errors import AlphabetCoverageError, NodeBudgetError, NotBasicFormError
from .terms import (
    Atom,
    AtomTerm,
    Cond,
    FALSE,
    Sigma,
    TRUE,
    Term,
    TrueConst,
    alphabet,
    fold,
    is_basic_form,
    render_term,
    term_children,
)

DEFAULT_NODE_BUDGET = 1_000_000


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
    # that shares kt and kf rather than copying them.
    if isinstance(t, Cond):
        return _bf(t.condition, _bf(t.true_branch, kt, kf), _bf(t.false_branch, kt, kf))
    if isinstance(t, AtomTerm):
        return Cond(kt[0], t, kf[0]), 1 + kt[1] + kf[1]
    return kt if isinstance(t, TrueConst) else kf


def bf(t: Term, *, node_budget: int = DEFAULT_NODE_BUDGET) -> Term:
    """The basic form of a term: constants stay, an atom becomes
    ``T <| a |> F``, and a conditional substitutes its branches' basic
    forms into its condition's.  Raises NodeBudgetError if the result,
    counted as a tree, has more than ``node_budget`` nodes."""
    form, size = _bf(t, (TRUE, 1), (FALSE, 1))
    if size > node_budget:
        raise NodeBudgetError(
            f"basic form would have {size} nodes, exceeding the budget of {node_budget}"
        )
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
# The post-processing walk shared by rpf, cf and mf
# ---------------------------------------------------------------------------


def _reduce(
    p: Term, aux: Callable[[bool, Atom, Term], Term], node_budget: int, count: int = 0
) -> tuple[Term, int]:
    # (form, ``count`` plus the calls made): rewrite each branch with the
    # one-sided helper ``aux`` for its side of the central atom, then
    # recurse into the result.  Each call returns one node of the form, so
    # counting the calls bounds the form counted as a tree as it grows.
    count += 1
    if count > node_budget:
        raise NodeBudgetError(f"normal form exceeds the node budget of {node_budget}")
    if not isinstance(p, Cond):
        return p, count
    a = p.condition.atom
    left, count = _reduce(aux(True, a, p.true_branch), aux, node_budget, count)
    right, count = _reduce(aux(False, a, p.false_branch), aux, node_budget, count)
    if left is p.true_branch and right is p.false_branch:
        return p, count
    return Cond(left, p.condition, right), count


# ---------------------------------------------------------------------------
# Repetition-proof normalizer
# ---------------------------------------------------------------------------


def _rp(side: bool, a: Atom, p: Term) -> Term:
    # Along one side, a repeated atom's branches collapse to two copies of
    # that side's transformed branch.
    if isinstance(p, Cond) and p.condition.atom == a:
        sub = _rp(side, a, p.true_branch if side else p.false_branch)
        return Cond(sub, p.condition, sub)
    return p


def rp_aux(side: bool, a: Atom, p: Term) -> Term:
    """The one-sided helper of the repetition-proof normalizer.  Rewrites a
    basic form whose central atom repeats ``a`` into the duplicated shape;
    anything else is returned unchanged."""
    _require_basic(p, "rp_aux")
    return _rp(side, a, p)


def _rpf(p: Term, node_budget: int) -> Term:
    return _reduce(p, _rp, node_budget)[0]


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


def _cr(side: bool, a: Atom, p: Term) -> Term:
    while isinstance(p, Cond) and p.condition.atom == a:
        p = p.true_branch if side else p.false_branch
    return p


def cr_aux(side: bool, a: Atom, p: Term) -> Term:
    """The one-sided helper of the contractive normalizer: strips repeated
    central occurrences of ``a`` off a basic form."""
    _require_basic(p, "cr_aux")
    return _cr(side, a, p)


def _cf(p: Term, node_budget: int) -> Term:
    return _reduce(p, _cr, node_budget)[0]


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


def _mem(side: bool, a: Atom, p: Term) -> Term:
    # A fold, so each object of ``p`` is resolved once and its answer
    # reused wherever it is shared: linear in the objects, not the tree.
    def step(p: Term, kids: list[Term]) -> Term:
        if not kids:
            return p
        left, _, right = kids
        if p.condition.atom == a:
            return left if side else right
        if left is p.true_branch and right is p.false_branch:
            return p
        return Cond(left, p.condition, right)

    return fold(p, term_children, step)


def mem_aux(side: bool, a: Atom, p: Term) -> Term:
    """The one-sided helper of the memorizing normalizer: resolves every
    occurrence of ``a`` in a basic form to the chosen side, in time linear
    in the objects of ``p`` even where it shares subterms."""
    _require_basic(p, "mem_aux")
    return _mem(side, a, p)


def _mf(p: Term, node_budget: int) -> Term:
    # The memorizing form of the basic form ``p``: ``_reduce(p, _mem, ...)``
    # in one walk that carries the answers given so far and skips a
    # repeated central atom to its remembered branch.  As in ``_reduce``,
    # each call of ``walk`` returns one node of the form, and is counted.
    answers: dict[str, bool] = {}
    size = 0

    def walk(p: Term) -> Term:
        nonlocal size
        while isinstance(p, Cond):
            answer = answers.get(p.condition.atom.name)
            if answer is None:
                break
            p = p.true_branch if answer else p.false_branch
        size += 1
        if size > node_budget:
            raise NodeBudgetError(f"normal form exceeds the node budget of {node_budget}")
        if not isinstance(p, Cond):
            return p
        name = p.condition.atom.name
        answers[name] = True
        left = walk(p.true_branch)
        answers[name] = False
        right = walk(p.false_branch)
        del answers[name]
        if left is p.true_branch and right is p.false_branch:
            return p
        return Cond(left, p.condition, right)

    return walk(p)


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


def check_alphabet(t: Term, sigma: Sigma, func: str) -> None:
    """Raise AlphabetCoverageError if ``t`` uses atoms outside ``sigma``."""
    missing = alphabet(t) - sigma.alphabet()
    if missing:
        names = ", ".join(sorted(a.name for a in missing))
        raise AlphabetCoverageError(
            f"{func}: atoms not covered by the evaluation order: {names}"
        )


def sbf(sigma: Sigma, t: Term, *, node_budget: int = DEFAULT_NODE_BUDGET) -> Term:
    """Static normal form of a term over the evaluation order ``sigma``:
    a full binary tree layered in reverse-``sigma`` order.

    Every atom of the term must occur in ``sigma``.
    """
    check_alphabet(t, sigma, "sbf")
    return mbf(Cond(TRUE, e_sigma(sigma), t), node_budget=node_budget)
