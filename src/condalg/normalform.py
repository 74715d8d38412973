"""Syntactic normal forms for each valuation congruence.

``bf`` rewrites any term into a basic form; ``rpbf``, ``cbf`` and ``mbf``
post-process that basic form for the repetition-proof, contractive and
memorizing congruences; ``sbf`` layers a term over a fixed evaluation
order for the static congruence.

Each post-processing step is, in the paper, a one-sided helper that
rewrites a branch whose central atom repeats its parent's, applied to
both branches of every conditional; ``rpf``, ``cf`` and ``mf`` run their
helper inside one walk.

``bf`` shares subterms, so the objects it builds are linear in the term,
but counted as a tree a normal form can grow exponentially.  Every
normalizer takes a node budget (default one million nodes) and raises
NodeBudgetError instead of exhausting memory.  The budget bounds the
normalizer's own result counted as a tree, one node per conditional and
per constant; ``rpbf``, ``cbf``, ``mbf`` and ``sbf`` bound only that
result, not the shared basic form before it.  ``rpf`` and ``cf`` (and so
``rpbf`` and ``cbf``) walk each object of their input once, in time
linear in the objects of the input plus the shared form they build, and
work out each result object's size counted as a tree once.  ``mf`` (and
so ``mbf`` and ``sbf``) is one walk that carries the answers given so far,
in time proportional to its result counted as a tree.
"""

from __future__ import annotations

from typing import Callable

from .errors import AlphabetCoverageError, NodeBudgetError, NotBasicFormError
from .terms import (
    AtomTerm,
    Cond,
    FALSE,
    Sigma,
    TRUE,
    Term,
    TrueConst,
    alphabet,
    is_basic_form,
    render_term,
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
# The post-processing walk shared by rpf and cf
# ---------------------------------------------------------------------------


def _over_budget(node_budget: int) -> NodeBudgetError:
    return NodeBudgetError(f"normal form exceeds the node budget of {node_budget}")


def _reduce_once(p: Term, run: Callable[[bool, Cond, dict], Term], node_budget: int) -> Term:
    # The paper's reduction of a basic form: rewrite each branch whose
    # central atom repeats its parent's with the one-sided helper ``run``
    # (for the branch's side), then reduce the result.  Without recursion,
    # and once per object (keyed on ``id``), so a shared form costs its
    # objects plus the conditionals the helper builds; ``memo`` is the
    # helper's, for this call only.  Each form's size counted as a tree
    # (constants 1) is worked out once, and the walk raises as soon as one
    # exceeds ``node_budget``.  A subform that needs no change is
    # returned as it is.
    if p.__class__ is not Cond:
        if node_budget < 1:
            raise _over_budget(node_budget)
        return p
    root = p
    done: dict[int, Term] = {}  # id of a walked form -> its reduction
    sizes: dict[int, int] = {}  # id of a reduction -> its size
    memo: dict = {}
    stack = [p]
    while stack:
        p = stack[-1]
        name = p.condition.atom.name
        left = p.true_branch
        if left.__class__ is Cond:
            if left.condition.atom.name == name:
                left = run(True, left, memo)
            new_left = done.get(id(left))
            if new_left is None:
                if left.__class__ is Cond:
                    stack.append(left)
                else:  # the helper's run ended at a leaf
                    new_left = left
        else:
            new_left = left
        right = p.false_branch
        if right.__class__ is Cond:
            if right.condition.atom.name == name:
                right = run(False, right, memo)
            new_right = done.get(id(right))
            if new_right is None:
                if right.__class__ is Cond:
                    stack.append(right)
                else:  # the helper's run ended at a leaf
                    new_right = right
        else:
            new_right = right
        if new_left is None or new_right is None:
            continue
        stack.pop()
        size = sizes.get(id(new_left), 1) + sizes.get(id(new_right), 1) + 1
        if size > node_budget:
            raise _over_budget(node_budget)
        if new_left is p.true_branch and new_right is p.false_branch:
            form = done[id(p)] = p
        else:
            # A form pushed twice keeps the reduction made first.
            form = done.setdefault(id(p), Cond(new_left, p.condition, new_right))
        sizes[id(form)] = size
    return done[id(root)]


# ---------------------------------------------------------------------------
# Repetition-proof normalizer
# ---------------------------------------------------------------------------


def _rp(side: bool, p: Cond, memo: dict) -> Cond:
    # rpf's one-sided helper at p's central atom a: down the run of a along
    # ``side``, then back up, building Q <| a |> Q at each step.  ``memo``
    # maps (side, id) of each conditional of a run to its result, and is
    # also the unique table: (atom name, id(Q)) -> the one Q <| a |> Q.
    # A conditional whose branches both are already Q is its own result,
    # so a conditional built here, walked again, gives itself back.
    out = memo.get((side, id(p)))
    if out is not None:
        return out
    name = p.condition.atom.name
    run = [p]
    sub = p.true_branch if side else p.false_branch
    while sub.__class__ is Cond and sub.condition.atom.name == name:
        out = memo.get((side, id(sub)))
        if out is not None:
            break
        run.append(sub)
        sub = sub.true_branch if side else sub.false_branch
    else:
        out = sub
    for q in reversed(run):
        key = (name, id(out))
        if q.true_branch is out is q.false_branch:
            memo.setdefault(key, q)
            form = q
        else:
            form = memo.get(key)
            if form is None:
                form = memo[key] = Cond(out, q.condition, out)
        memo[(side, id(q))] = out = form
    return out


def _rpf(p: Term, node_budget: int) -> Term:
    return _reduce_once(p, _rp, node_budget)


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


def _cr(side: bool, p: Cond, memo: dict) -> Term:
    # cf's one-sided helper at p's central atom a, which strips the run of
    # a along ``side``; ``memo`` maps (side, id) of each conditional of a
    # run to where the run ends.
    out = memo.get((side, id(p)))
    if out is not None:
        return out
    name = p.condition.atom.name
    run = [p]
    out = p.true_branch if side else p.false_branch
    while out.__class__ is Cond and out.condition.atom.name == name:
        end = memo.get((side, id(out)))
        if end is not None:
            out = end
            break
        run.append(out)
        out = out.true_branch if side else out.false_branch
    for q in run:
        memo[(side, id(q))] = out
    return out


def _cf(p: Term, node_budget: int) -> Term:
    return _reduce_once(p, _cr, node_budget)


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


def _memorize(p: Term, answers: dict[str, bool], spent: list[int], node_budget: int) -> Term:
    # The memorizing form of the basic form ``p`` below the queries
    # ``answers`` (atom name -> answer) already answered, which is
    # restored on return.  Each call returns one node of the form and is
    # counted in ``spent[0]``, which bounds the form counted as a tree.
    while p.__class__ is Cond:
        answer = answers.get(p.condition.atom.name)
        if answer is None:
            break
        p = p.true_branch if answer else p.false_branch
    spent[0] += 1
    if spent[0] > node_budget:
        raise _over_budget(node_budget)
    if p.__class__ is not Cond:
        return p
    name = p.condition.atom.name
    answers[name] = True
    left = _memorize(p.true_branch, answers, spent, node_budget)
    answers[name] = False
    right = _memorize(p.false_branch, answers, spent, node_budget)
    del answers[name]
    if left is p.true_branch and right is p.false_branch:
        return p
    return Cond(left, p.condition, right)


def _mf(p: Term, node_budget: int) -> Term:
    # The memorizing form of the basic form ``p``: the paper's reduction,
    # whose helper resolves every later occurrence of a central atom to the
    # side taken, in one walk that carries the answers given so far and
    # skips a repeated central atom to its remembered branch.
    return _memorize(p, {}, [0], node_budget)


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
