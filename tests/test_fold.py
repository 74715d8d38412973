"""``terms.fold`` and the walks written on it.

Every walk runs at the default recursion limit on a 5,000-deep chain and
(all but ``truth_table``) on a 60-level shared DAG, which has about 2^60
(or 3^60) nodes counted as a tree.  Results are checked against values
known in closed form, and shared DAGs are compared by identity and by
walking one path, never with ``==``, which would walk them as trees.
The one-sided memorizing helpers and the propositional translation are
the paper's definitions in tests/helpers.py, written on the same fold.
"""

from __future__ import annotations

import sys

import pytest

import condalg as c
from condalg.evaltrees import tree_children
from condalg.terms import fold, term_children
from helpers import (
    PAtom,
    PFalse,
    PTrue,
    SIGMA_AB,
    SIGMA_BA,
    all_terms_upto,
    basic_forms_ab,
    condition_nested,
    paper_is_cr_basic_form,
    paper_is_mem_basic_form,
    paper_is_rp_basic_form,
    paper_is_st_basic_form,
    paper_mem_aux,
    paper_mem_tree_aux,
    paper_to_propositional,
    random_terms,
)

T, F = c.TRUE, c.FALSE
LT, LF = c.LEAF_T, c.LEAF_F

DEEP = 5_000
LEVELS = 60
ATOMS = tuple(c.Atom(f"a{k}") for k in range(DEEP))


@pytest.fixture(autouse=True)
def default_recursion_limit():
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    yield
    sys.setrecursionlimit(before)


def term_chain(n: int, kind: str = "distinct") -> c.Term:
    """``x_{k+1} = x_k <| a_k |> F`` from ``x_0 = T``: a basic form of
    depth n, one object per level; ``kind="same"`` uses the atom a0 at
    every level."""
    t = T
    for k in range(n):
        t = c.Cond(t, c.AtomTerm(ATOMS[k if kind == "distinct" else 0]), F)
    return t


def layered(n: int, kind: str = "distinct") -> c.Term:
    """``x_{k+1} = x_k <| a_k |> x_k`` from ``x_0 = T``: the static basic
    form over a0 .. a(n-1), one object per level; ``kind="same"`` uses the
    atom a0 at every level."""
    t = T
    for k in range(n):
        t = c.Cond(t, c.AtomTerm(ATOMS[k if kind == "distinct" else 0]), t)
    return t


def tree_chain(n: int) -> c.EvalTree:
    """``x_{k+1} = Node(a_k, x_k, F)`` from ``x_0 = T``."""
    x = LT
    for k in range(n):
        x = c.Node(ATOMS[k], x, LF)
    return x


def tree_dag(n: int) -> c.EvalTree:
    """``x_{k+1} = Node(a_k, x_k, x_k)`` from ``x_0 = T``."""
    x = LT
    for k in range(n):
        x = c.Node(ATOMS[k], x, x)
    return x


# ---------------------------------------------------------------------------
# fold itself
# ---------------------------------------------------------------------------


def test_fold_combines_each_distinct_object_once():
    t = condition_nested(LEVELS)
    seen: list[int] = []

    def count(x, kids):
        seen.append(id(x))
        return 1 + sum(kids)

    assert fold(t, term_children, count) == (3 ** (LEVELS + 1) - 1) // 2
    assert len(seen) == len(set(seen)) == LEVELS + 1


def test_fold_passes_child_values_in_order():
    t = c.parse_term("(T <| a |> F) <| b |> (a <| F |> b)")
    text = fold(t, term_children, lambda x, kids: f"({' '.join(kids)})" if kids else repr(x))
    assert text == "((T a F) b (a F b))"
    assert fold(LT, tree_children, lambda x, kids: kids) == ()


# ---------------------------------------------------------------------------
# Structural walks on terms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", ["chain", "dag"])
def test_dual_deep_and_shared(shape):
    if shape == "chain":
        d = c.dual(term_chain(DEEP))
        # x <| a |> F becomes T <| a |> dual(x), down to dual(T) = F
        for _ in range(DEEP):
            assert d.true_branch is T
            d = d.false_branch
        assert d is F
    else:
        d = c.dual(condition_nested(LEVELS, T))
        for _ in range(LEVELS):
            assert d.true_branch is d.condition is d.false_branch
            d = d.condition
        assert d is F


@pytest.mark.parametrize(
    "term, expected",
    [(lambda: term_chain(DEEP), DEEP), (lambda: condition_nested(LEVELS), LEVELS)],
    ids=["chain", "dag"],
)
def test_depth_deep_and_shared(term, expected):
    assert c.depth(term()) == expected


@pytest.mark.parametrize(
    "term, expected",
    [
        (lambda: term_chain(DEEP), 3 * DEEP + 1),
        (lambda: condition_nested(LEVELS), (3 ** (LEVELS + 1) - 1) // 2),
    ],
    ids=["chain", "dag"],
)
def test_term_size_deep_and_shared(term, expected):
    assert c.term_size(term()) == expected


@pytest.mark.parametrize("shape", ["chain", "dag"])
def test_to_propositional_deep_and_shared(shape):
    a = PAtom(ATOMS[0])
    if shape == "chain":
        # x <| a0 |> F is (x ∧ a0) ∨ (¬a0 ∧ F), one a0 object per level
        f = paper_to_propositional(term_chain(DEEP, "same"))
        for _ in range(DEEP):
            assert f.left.right is f.right.left.operand
            assert f.left.right == a and f.right.right == PFalse()
            f = f.left.left
        assert f == PTrue()
    else:
        f = paper_to_propositional(condition_nested(LEVELS, c.AtomTerm(ATOMS[0])))
        for _ in range(LEVELS):
            assert f.left.left is f.left.right is f.right.left.operand is f.right.right
            f = f.left.left
        assert f == a


def test_truth_table_deep():
    # Classically a0.  No shared DAG here: truth_table's fold is linear in
    # the objects, but its alphabet check still walks a DAG as a tree.
    table = c.truth_table(term_chain(DEEP, "same"), c.Sigma((ATOMS[0],)))
    assert table.rows == (((True,), True), ((False,), False))


# ---------------------------------------------------------------------------
# Basic-form predicates
# ---------------------------------------------------------------------------

PREDICATES = {
    "basic": c.is_basic_form,
    "rp": c.is_rp_basic_form,
    "cr": c.is_cr_basic_form,
    "mem": c.is_mem_basic_form,
}

# (shape, term, number of levels, expected verdict per predicate, and for
# is_st_basic_form over a0 .. a(levels-1))
PREDICATE_CASES = [
    ("chain", term_chain, DEEP, dict(basic=True, rp=True, cr=True, mem=True, st=False)),
    (
        "chain-same",
        lambda n: term_chain(n, "same"),
        DEEP,
        dict(basic=True, rp=False, cr=False, mem=False, st=False),
    ),
    ("dag", layered, LEVELS, dict(basic=True, rp=True, cr=True, mem=True, st=True)),
    (
        "dag-same",
        lambda n: layered(n, "same"),
        LEVELS,
        dict(basic=True, rp=True, cr=False, mem=False, st=False),
    ),
    ("deep-dag", layered, DEEP, dict(basic=True, rp=True, cr=True, mem=True, st=True)),
]


@pytest.mark.parametrize("name", [*PREDICATES, "st"])
@pytest.mark.parametrize(
    "build, levels, expected",
    [case[1:] for case in PREDICATE_CASES],
    ids=[case[0] for case in PREDICATE_CASES],
)
def test_basic_form_predicates_deep_and_shared(name, build, levels, expected):
    t = build(levels)
    if name == "st":
        assert c.is_st_basic_form(t, c.Sigma(ATOMS[:levels])) is expected["st"]
    else:
        assert PREDICATES[name](t) is expected[name]


def test_rp_compares_equal_branches_that_are_distinct_objects():
    # Q <| a |> Q' with Q equal to but not the same object as Q', both
    # deep or shared
    a = c.atom("z")
    for build, levels in ((term_chain, DEEP), (layered, LEVELS)):
        q, q_copy, q_short = build(levels), build(levels), build(levels - 1)
        assert c.is_rp_basic_form(c.Cond(c.Cond(q, a, q_copy), a, F))
        assert not c.is_rp_basic_form(c.Cond(c.Cond(q, a, q_short), a, F))


ORACLE_POOLS = {
    "basic_forms_ab(2)": lambda: basic_forms_ab(2),
    "all_terms_upto(3)": lambda: all_terms_upto(3),
    "random_terms()": random_terms,
}

ORACLES = {
    c.is_rp_basic_form: paper_is_rp_basic_form,
    c.is_cr_basic_form: paper_is_cr_basic_form,
    c.is_mem_basic_form: paper_is_mem_basic_form,
}


@pytest.mark.parametrize("pool", ORACLE_POOLS)
@pytest.mark.parametrize("predicate", ORACLES, ids=lambda f: f.__name__)
def test_basic_form_predicates_match_the_recursive_oracles(predicate, pool):
    oracle = ORACLES[predicate]
    for t in ORACLE_POOLS[pool]():
        assert predicate(t) == oracle(t), t


@pytest.mark.parametrize("pool", ORACLE_POOLS)
def test_is_st_basic_form_matches_the_recursive_oracle(pool):
    for t in ORACLE_POOLS[pool]():
        for sigma in (SIGMA_AB, SIGMA_BA):
            assert c.is_st_basic_form(t, sigma) == paper_is_st_basic_form(t, sigma), (t, sigma)


def test_is_st_basic_form_matches_the_recursive_oracle_on_short_orders():
    for t in basic_forms_ab(2):
        for sigma in (c.SIGMA_EMPTY, c.Sigma.of("a"), c.Sigma.of("b")):
            assert c.is_st_basic_form(t, sigma) == paper_is_st_basic_form(t, sigma), (t, sigma)


@pytest.mark.parametrize("sigma", [SIGMA_AB, SIGMA_BA], ids=["ab", "ba"])
def test_is_st_basic_form_accepts_exactly_the_layered_forms(sigma):
    inner, outer = (c.AtomTerm(a) for a in sigma.atoms)
    consts = (T, F)
    forms = [
        c.Cond(c.Cond(w, inner, x), outer, c.Cond(y, inner, z))
        for w in consts
        for x in consts
        for y in consts
        for z in consts
    ]
    for t in forms:
        assert c.is_st_basic_form(t, sigma)
        assert paper_is_st_basic_form(t, sigma)
    other = SIGMA_BA if sigma == SIGMA_AB else SIGMA_AB
    layered_here = {c.render_term(t) for t in forms}
    for t in basic_forms_ab(2):
        expected = c.render_term(t) in layered_here
        assert c.is_st_basic_form(t, sigma) is expected
        assert paper_is_st_basic_form(t, sigma) is expected
    assert not any(c.is_st_basic_form(t, other) for t in forms)


# ---------------------------------------------------------------------------
# Walks on evaluation trees and the one-sided memorizing helpers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape", ["chain", "dag"])
def test_tree_to_term_deep_and_shared(shape):
    if shape == "chain":
        t = c.tree_to_term(tree_chain(DEEP))
        assert c.depth(t) == DEEP and c.term_size(t) == 3 * DEEP + 1
        for _ in range(DEEP):
            t = t.true_branch
        assert t is T
    else:
        t = c.tree_to_term(tree_dag(LEVELS))
        # s_{k+1} = 2 s_k + 2 from s_0 = 1
        assert c.term_size(t) == 3 * 2**LEVELS - 2
        x = t
        for k in reversed(range(LEVELS)):
            assert x.true_branch is x.false_branch
            assert x.condition.atom == ATOMS[k]
            x = x.true_branch
        assert x is T
    assert c.is_basic_form(t)


@pytest.mark.parametrize("side", [True, False])
@pytest.mark.parametrize("shape", ["chain", "dag"])
def test_mem_tree_aux_deep_and_shared(shape, side):
    # a0 is asked only at the bottom; resolving it leaves that answer there
    levels = DEEP if shape == "chain" else LEVELS
    x = tree_chain(levels) if shape == "chain" else tree_dag(levels)
    y = paper_mem_tree_aux(side, ATOMS[0], x)
    for k in reversed(range(1, levels)):
        assert y.atom == ATOMS[k]
        if shape == "dag":
            assert y.left is y.right
        else:
            assert y.right is LF
        y = y.left
    # the bottom (T <a0> F), or (T <a0> T) in the DAG, answers a0
    assert y is (LT if side or shape == "dag" else LF)
    assert paper_mem_tree_aux(side, c.Atom("z"), x) is x


@pytest.mark.parametrize("side", [True, False])
@pytest.mark.parametrize("shape", ["chain", "dag"])
def test_mem_aux_deep_and_shared(shape, side):
    levels = DEEP if shape == "chain" else LEVELS
    t = term_chain(levels) if shape == "chain" else layered(levels)
    y = paper_mem_aux(side, ATOMS[0], t)
    for k in reversed(range(1, levels)):
        assert y.condition.atom == ATOMS[k]
        if shape == "dag":
            assert y.true_branch is y.false_branch
        else:
            assert y.false_branch is F
        y = y.true_branch
    # the bottom T <| a0 |> F (or T <| a0 |> T) answers a0
    assert y is (T if side or shape == "dag" else F)
    assert paper_mem_aux(side, c.Atom("z"), t) is t
