"""Normal-form functions: bf and the per-congruence rewriters."""

from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import condalg as c
from condalg import normalform
from helpers import (
    ATOM_A,
    ATOM_B,
    SIGMA_AB,
    SIGMA_BA,
    STATIC_ORDERS,
    TA,
    TB,
    all_terms_upto,
    basic_forms_ab,
    condition_nested,
    paper_cr_aux,
    paper_leaf_replace,
    paper_mem_aux,
    paper_mf,
    paper_rp_aux,
    paper_se,
    random_terms,
    static_prefix,
    terms_over,
    tree_size,
)

T, F = c.TRUE, c.FALSE
TRUE_SIDE, FALSE_SIDE = True, False


def p(text: str) -> c.Term:
    return c.parse_term(text)


# ---------------------------------------------------------------------------
# subst_tf and bf
# ---------------------------------------------------------------------------


def test_subst_examples():
    q, r = p("T <| b |> F"), F
    assert c.subst_tf(T, q, r) == q
    assert c.subst_tf(p("T <| a |> F"), q, r) == c.Cond(q, TA, r)
    assert c.subst_tf(p("F <| a |> T"), p("T <| b |> F"), F) == p(
        "F <| a |> (T <| b |> F)"
    )


def test_subst_requires_basic_forms():
    with pytest.raises(c.NotBasicFormError):
        c.subst_tf(TA, T, F)
    with pytest.raises(c.NotBasicFormError):
        c.subst_tf(T, TA, F)
    with pytest.raises(c.NotBasicFormError):
        c.subst_tf(T, T, p("a <| (F <| a |> T) |> F"))


def test_bf_examples():
    assert c.bf(TA) == p("T <| a |> F")
    assert c.bf(p("a <| (F <| a |> T) |> F")) == p("F <| a |> (T <| a |> F)")
    already = p("F <| a |> (T <| a |> F)")
    assert c.bf(already) == already


def test_bf_matches_tree_route():
    # the basic form reads back from the evaluation tree
    t = p("a <| (F <| a |> T) |> F")
    assert c.bf(t) == c.tree_to_term(c.se(t))


def test_bf_properties_exhaustive():
    for t in all_terms_upto(3):
        nf = c.bf(t)
        assert c.is_basic_form(nf)
        assert c.bf(nf) == nf
        assert c.se(nf) == c.se(t)


def test_bf_distributes_over_nested_condition():
    # the basic form of a conditional condition equals the basic form of
    # its case split, instantiated over the whole depth-<=1 pool
    pool = basic_forms_ab(1)
    for pp, p1, p2, q1, q2 in itertools.product(pool, repeat=5):
        lhs = c.bf(c.Cond(q1, c.Cond(p1, pp, p2), q2))
        rhs = c.bf(c.Cond(c.Cond(q1, p1, q2), pp, c.Cond(q1, p2, q2)))
        assert lhs == rhs


_ab_terms_st = st.recursive(
    st.sampled_from([T, F, TA, TB]),
    lambda sub: st.builds(c.Cond, sub, sub, sub),
    max_leaves=20,
)


@settings(deadline=None)
@given(_ab_terms_st)
def test_bf_properties_random(t):
    nf = c.bf(t)
    assert c.is_basic_form(nf)
    assert c.bf(nf) == nf
    assert c.se(nf) == c.se(t)


@settings(deadline=None)
@given(_ab_terms_st)
def test_normalizers_land_in_their_families_random(t):
    assert c.is_rp_basic_form(c.rpbf(t))
    assert c.is_cr_basic_form(c.cbf(t))
    assert c.is_mem_basic_form(c.mbf(t))
    assert c.is_st_basic_form(c.sbf(SIGMA_AB, t), SIGMA_AB)


def test_bf_node_budget():
    term = p("a <| a |> a")
    for _ in range(8):
        term = c.Cond(TA, term, TA)
    with pytest.raises(c.NodeBudgetError):
        c.bf(term, node_budget=500)
    assert c.is_basic_form(c.bf(term))  # default budget suffices


def test_bf_node_budget_bounds_the_result_tree_size():
    for t in all_terms_upto(2) + random_terms():
        n = tree_size(paper_se(t))
        c.bf(t, node_budget=n)
        message = f"^bf would have at least {n} nodes, over the budget of {n - 1}$"
        with pytest.raises(c.NodeBudgetError, match=message):
            c.bf(t, node_budget=n - 1)


def test_bf_node_budget_ignores_a_discarded_branch():
    # The condition F selects the false branch; the 7-node true branch's
    # basic form is no part of the result.
    assert c.bf(p("(a <| a |> a) <| F |> F"), node_budget=1) == F


def test_bf_matches_the_paper_definition():
    for t in all_terms_upto(3) + random_terms():
        assert c.bf(t) == c.tree_to_term(paper_se(t))


def test_subst_tf_is_leaf_replacement_on_trees():
    pool = basic_forms_ab(1)
    for x, y, z in itertools.product(pool, repeat=3):
        expected = c.tree_to_term(paper_leaf_replace(c.se(x), c.se(y), c.se(z)))
        assert c.subst_tf(x, y, z) == expected


# ---------------------------------------------------------------------------
# repetition-proof
# ---------------------------------------------------------------------------


def test_rp_aux_examples():
    assert paper_rp_aux(TRUE_SIDE, ATOM_A, T) == T
    assert paper_rp_aux(TRUE_SIDE, ATOM_A, p("T <| a |> F")) == p("T <| a |> T")
    assert paper_rp_aux(FALSE_SIDE, ATOM_A, p("T <| b |> F")) == p("T <| b |> F")


def test_rpf_examples():
    assert c.rpf(p("F <| a |> (T <| a |> F)")) == p("F <| a |> (F <| a |> F)")
    assert c.rpf(T) == T
    assert c.rpf(p("T <| b |> F")) == p("T <| b |> F")


def test_rpbf_examples():
    assert c.rpbf(p("a <| (F <| a |> T) |> F")) == p("F <| a |> (F <| a |> F)")
    assert c.rpbf(p("T <| a |> a")) == c.rpbf(p("T <| a |> (F <| a |> F)"))
    assert c.rpbf(F) == F


def test_rp_absorption_laws():
    for a in (ATOM_A, ATOM_B):
        for t in basic_forms_ab(2):
            ft = paper_rp_aux(TRUE_SIDE, a, t)
            gt = paper_rp_aux(FALSE_SIDE, a, t)
            assert paper_rp_aux(FALSE_SIDE, a, ft) == paper_rp_aux(TRUE_SIDE, a, ft) == ft
            assert paper_rp_aux(TRUE_SIDE, a, gt) == paper_rp_aux(FALSE_SIDE, a, gt) == gt


def test_rpf_fixpoint_on_rp_basic_children():
    for t in basic_forms_ab(2):
        if not (isinstance(t, c.Cond) and c.is_rp_basic_form(t)):
            continue
        a = t.condition.atom
        assert c.rpf(paper_rp_aux(TRUE_SIDE, a, t.true_branch)) == t.true_branch
        assert c.rpf(paper_rp_aux(FALSE_SIDE, a, t.false_branch)) == t.false_branch


def test_rpbf_is_normalization():
    for t in basic_forms_ab(2):
        nf = c.rpbf(t)
        assert c.is_rp_basic_form(nf)
        if c.is_rp_basic_form(t):
            assert nf == t
    for t in random_terms():
        assert c.is_rp_basic_form(c.rpbf(t))


# ---------------------------------------------------------------------------
# contractive
# ---------------------------------------------------------------------------


def test_cr_aux_examples():
    assert paper_cr_aux(TRUE_SIDE, ATOM_A, p("T <| a |> F")) == T
    assert paper_cr_aux(FALSE_SIDE, ATOM_A, p("T <| a |> F")) == F
    assert paper_cr_aux(TRUE_SIDE, ATOM_A, p("T <| b |> F")) == p("T <| b |> F")


def test_cf_cbf_examples():
    assert c.cbf(p("(a <| a |> F) <| a |> F")) == p("T <| a |> F")
    assert c.cf(p("T <| b |> F")) == p("T <| b |> F")
    assert c.cbf(T) == T


def test_cbf_is_normalization():
    for t in basic_forms_ab(2):
        nf = c.cbf(t)
        assert c.is_cr_basic_form(nf)
        if c.is_cr_basic_form(t):
            assert nf == t


def test_cf_fixpoint_on_cr_basic_children():
    for t in basic_forms_ab(2):
        if not (isinstance(t, c.Cond) and c.is_cr_basic_form(t)):
            continue
        a = t.condition.atom
        assert c.cf(paper_cr_aux(TRUE_SIDE, a, t.true_branch)) == t.true_branch
        assert c.cf(paper_cr_aux(FALSE_SIDE, a, t.false_branch)) == t.false_branch


# ---------------------------------------------------------------------------
# memorizing
# ---------------------------------------------------------------------------


def test_mem_aux_examples():
    assert paper_mem_aux(TRUE_SIDE, ATOM_A, p("(T <| a |> F) <| b |> F")) == p(
        "T <| b |> F"
    )
    assert paper_mem_aux(FALSE_SIDE, ATOM_A, p("T <| a |> F")) == F
    assert paper_mem_aux(TRUE_SIDE, ATOM_A, F) == F
    # The basic form of t_6 shares its subterms: far too many nodes to
    # visit counted as a tree, but few objects.
    shared = c.bf(condition_nested(6), node_budget=10**30)
    assert paper_mem_aux(TRUE_SIDE, ATOM_A, shared) == T
    assert paper_mem_aux(FALSE_SIDE, ATOM_B, shared) is shared


def test_mf_mbf_examples():
    assert c.mbf(p("(a <| b |> F) <| a |> F")) == p("(T <| b |> F) <| a |> F")
    assert c.mf(p("T <| a |> F")) == p("T <| a |> F")
    assert c.mbf(F) == F


def test_mem_aux_commutations():
    sides = (TRUE_SIDE, FALSE_SIDE)
    for s1, s2 in itertools.product(sides, repeat=2):
        for t in basic_forms_ab(2):
            one = paper_mem_aux(s1, ATOM_A, paper_mem_aux(s2, ATOM_B, t))
            other = paper_mem_aux(s2, ATOM_B, paper_mem_aux(s1, ATOM_A, t))
            assert one == other


def test_mbf_is_normalization():
    for t in basic_forms_ab(2):
        nf = c.mbf(t)
        assert c.is_mem_basic_form(nf)
        if c.is_mem_basic_form(t):
            assert nf == t


def test_mf_fixpoint_on_mem_basic_children():
    for t in basic_forms_ab(2):
        if not (isinstance(t, c.Cond) and c.is_mem_basic_form(t)):
            continue
        a = t.condition.atom
        assert c.mf(paper_mem_aux(TRUE_SIDE, a, t.true_branch)) == t.true_branch
        assert c.mf(paper_mem_aux(FALSE_SIDE, a, t.false_branch)) == t.false_branch


# ---------------------------------------------------------------------------
# depth monotonicity of all six helpers
# ---------------------------------------------------------------------------


def test_aux_functions_never_increase_depth():
    auxes = (paper_rp_aux, paper_cr_aux, paper_mem_aux)
    for t in basic_forms_ab(2):
        d = c.depth(t)
        for aux, side, a in itertools.product(
            auxes, (TRUE_SIDE, FALSE_SIDE), (ATOM_A, ATOM_B)
        ):
            assert c.depth(aux(side, a, t)) <= d


# ---------------------------------------------------------------------------
# static
# ---------------------------------------------------------------------------


def test_e_sigma_examples():
    assert c.e_sigma(c.SIGMA_EMPTY) == F
    assert c.e_sigma(c.Sigma.of("a")) == p("F <| a |> F")
    assert c.e_sigma(SIGMA_AB) == p("(F <| a |> F) <| b |> (F <| a |> F)")


def test_e_sigma_is_st_basic_and_true_free():
    for sigma in (c.SIGMA_EMPTY, c.Sigma.of("a"), SIGMA_AB, SIGMA_BA):
        term = c.e_sigma(sigma)
        assert c.is_st_basic_form(term, sigma)
        assert "T" not in c.render_term(term)


def test_sbf_examples():
    assert c.sbf(SIGMA_BA, p("(a <| b |> F) <| a |> T")) == p(
        "(T <| b |> F) <| a |> (T <| b |> T)"
    )
    both = p("(F <| a |> F) <| b |> (F <| a |> F)")
    assert c.sbf(SIGMA_AB, p("F <| a |> F")) == both
    assert c.sbf(SIGMA_AB, p("F <| b |> F")) == both
    assert c.sbf(c.SIGMA_EMPTY, T) == T


def test_sbf_output_is_st_basic():
    for t in basic_forms_ab(2):
        for sigma in (SIGMA_AB, SIGMA_BA):
            nf = c.sbf(sigma, t)
            assert c.is_st_basic_form(nf, sigma)
            assert c.sbf(sigma, nf) == nf


def test_sbf_alphabet_coverage():
    with pytest.raises(c.AlphabetCoverageError):
        c.sbf(c.Sigma.of("a"), p("T <| b |> F"))


def _subst_false(base: c.Term, replacement: c.Term) -> c.Term:
    return c.subst_tf(base, T, replacement)


def test_static_substitution_identities():
    # prefixing with the all-F layer is leafwise substitution after bf
    for sigma in (c.Sigma.of("a"), SIGMA_AB, SIGMA_BA):
        pool = c.enumerate_basic_forms(tuple(sigma), 2)
        layered = c.e_sigma(sigma)
        for t in pool:
            lhs = c.bf(c.Cond(T, layered, t))
            assert lhs == _subst_false(layered, c.bf(t))
    # and the memorizing helpers push through that substitution
    for rho, last in ((c.SIGMA_EMPTY, ATOM_A), (c.Sigma.of("a"), ATOM_B), (c.Sigma.of("b"), ATOM_A)):
        base = c.e_sigma(rho)
        for t in basic_forms_ab(2):
            nf = c.bf(t)
            for side in (TRUE_SIDE, FALSE_SIDE):
                lhs = paper_mem_aux(side, last, _subst_false(base, nf))
                rhs = _subst_false(base, paper_mem_aux(side, last, nf))
                assert lhs == rhs


def test_normalizers_reject_non_basic_input():
    for func in (c.rpf, c.cf, c.mf):
        with pytest.raises(c.NotBasicFormError):
            func(p("a <| (F <| a |> T) |> F"))


# ---------------------------------------------------------------------------
# the one-walk memorizing normalizer against the paper's definition
# ---------------------------------------------------------------------------


def test_mf_matches_the_paper_definition():
    for t in basic_forms_ab(2):
        assert c.mf(t) == paper_mf(t)


def test_sbf_matches_the_paper_composition():
    for sigma in STATIC_ORDERS:
        for t in terms_over(sigma):
            form = paper_mf(c.bf(static_prefix(sigma, t)))
            assert c.sbf(sigma, t) == form
            # The budget bounds the paper's form counted as a tree.
            n = tree_size(paper_se(form))
            assert c.sbf(sigma, t, node_budget=n) == form
            message = f"^sbf would have at least {n} nodes, over the budget of {n - 1}$"
            with pytest.raises(c.NodeBudgetError, match=message):
                c.sbf(sigma, t, node_budget=n - 1)


def test_sbf_walks_the_term_not_the_prefix(monkeypatch):
    # The prefix is built without _bf, so _bf's calls do not grow with
    # the order (a tree walk of T <| e_sigma |> t makes 2^|sigma| of them).
    calls = 0
    original = normalform._bf

    def counting(t, kt, kf):
        nonlocal calls
        calls += 1
        return original(t, kt, kf)

    monkeypatch.setattr(normalform, "_bf", counting)
    t = p("a <| b |> F")
    counts = []
    for names in ("ab", "abcdefghijkl"):
        calls = 0
        c.sbf(c.Sigma.of(*names), t)
        counts.append(calls)
    assert counts[0] == counts[1] > 0


def test_sbf_over_a_wide_order_runs_out_of_budget():
    # Over 26 atoms the static form has 2^27 - 1 nodes counted as a tree.
    sigma = c.Sigma.of(*"abcdefghijklmnopqrstuvwxyz")
    message = f"^sbf would have at least {2**27 - 1} nodes, over the budget of 1000000$"
    with pytest.raises(c.NodeBudgetError, match=message):
        c.sbf(sigma, TA)


def test_sbf_budget_is_the_full_tree_over_the_order():
    # Over 2 atoms the static form has 7 nodes counted as a tree (one per
    # conditional and per constant), whatever the term; over 19,
    # 1,048,575, past the default budget.
    for t in (T, TA, p("F <| b |> (a <| a |> T)")):
        assert c.is_st_basic_form(c.sbf(SIGMA_AB, t, node_budget=7), SIGMA_AB)
        with pytest.raises(c.NodeBudgetError, match="^sbf would have at least 7 nodes, over the budget of 6$"):
            c.sbf(SIGMA_AB, t, node_budget=6)
    with pytest.raises(c.NodeBudgetError):
        c.sbf(c.Sigma.of(*"abcdefghijklmnopqrs"), TA)


def test_memorizing_budget_bounds_the_result_tree_size():
    terms = all_terms_upto(2) + random_terms()
    calls = (
        [(normalize, t) for normalize in (c.rpf, c.cf, c.mf) for t in basic_forms_ab(2)]
        + [(normalize, t) for normalize in (c.rpbf, c.cbf, c.mbf) for t in terms]
        + [(functools.partial(c.sbf, SIGMA_BA), t) for t in terms]
    )
    stages = {c.rpf: "rpf", c.rpbf: "rpf", c.cf: "cf", c.cbf: "cf", c.mf: "mf", c.mbf: "mf"}
    for normalize, t in calls:
        form = normalize(t)
        n = tree_size(c.se(form))
        assert normalize(t, node_budget=n) == form
        stage = stages.get(normalize, "sbf")
        message = f"^{stage} would have at least {n} nodes, over the budget of {n - 1}$"
        with pytest.raises(c.NodeBudgetError, match=message):
            normalize(t, node_budget=n - 1)


def test_mbf_budget_is_not_spent_on_the_basic_form():
    # t_{k+1} = t_k <| t_k |> t_k: the basic form of t_6, counted as a
    # tree, is far over any budget, but every query repeats the first.
    t = p("a <| a |> a")
    for _ in range(6):
        t = c.Cond(t, t, t)
    with pytest.raises(c.NodeBudgetError):
        c.bf(t)
    assert c.mbf(t, node_budget=3) == p("T <| a |> F")
    assert c.cbf(t, node_budget=3) == p("T <| a |> F")
