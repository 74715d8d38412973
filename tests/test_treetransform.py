"""Tree transforms and their agreement with the syntactic normalizers."""

from __future__ import annotations

import itertools

import pytest

import condalg as c
from condalg import evaltrees
from helpers import (
    ATOM_A,
    ATOM_B,
    SIGMA_AB,
    SIGMA_BA,
    STATIC_ORDERS,
    all_terms_upto,
    basic_forms_ab,
    deep_tree_pool,
    interned_tree,
    paper_cr,
    paper_cr_tree_aux,
    paper_mem,
    paper_mem_tree_aux,
    paper_rp,
    paper_rp_tree_aux,
    paper_se,
    random_terms,
    static_prefix,
    terms_over,
    tree_pool,
)

T, F = c.TRUE, c.FALSE
LT, LF = c.LEAF_T, c.LEAF_F
TRUE_SIDE, FALSE_SIDE = True, False


def p(text: str) -> c.Term:
    return c.parse_term(text)


def node(a, left, right):
    return c.Node(a, left, right)


# ---------------------------------------------------------------------------
# auxiliary transforms
# ---------------------------------------------------------------------------


def test_rp_tree_aux_examples():
    assert paper_rp_tree_aux(TRUE_SIDE, ATOM_A, LT) == LT
    assert paper_rp_tree_aux(TRUE_SIDE, ATOM_A, node(ATOM_A, LT, LF)) == node(
        ATOM_A, LT, LT
    )
    assert paper_rp_tree_aux(FALSE_SIDE, ATOM_A, node(ATOM_B, LT, LF)) == node(
        ATOM_B, LT, LF
    )


def test_cr_tree_aux_examples():
    assert paper_cr_tree_aux(TRUE_SIDE, ATOM_A, node(ATOM_A, LT, LF)) == LT
    assert paper_cr_tree_aux(FALSE_SIDE, ATOM_A, node(ATOM_A, LT, LF)) == LF
    assert paper_cr_tree_aux(TRUE_SIDE, ATOM_A, LF) == LF


def test_mem_tree_aux_examples():
    assert paper_mem_tree_aux(
        TRUE_SIDE, ATOM_A, node(ATOM_B, node(ATOM_A, LT, LF), LF)
    ) == node(ATOM_B, LT, LF)
    assert paper_mem_tree_aux(FALSE_SIDE, ATOM_A, node(ATOM_A, LT, LF)) == LF
    assert paper_mem_tree_aux(TRUE_SIDE, ATOM_A, LT) == LT


def test_rp_tree_absorption_laws():
    for a in (ATOM_A, ATOM_B):
        for x in deep_tree_pool():
            fx = paper_rp_tree_aux(TRUE_SIDE, a, x)
            gx = paper_rp_tree_aux(FALSE_SIDE, a, x)
            assert paper_rp_tree_aux(FALSE_SIDE, a, fx) == fx
            assert paper_rp_tree_aux(TRUE_SIDE, a, fx) == fx
            assert paper_rp_tree_aux(TRUE_SIDE, a, gx) == gx
            assert paper_rp_tree_aux(FALSE_SIDE, a, gx) == gx


def test_mem_tree_commutations():
    sides = (TRUE_SIDE, FALSE_SIDE)
    for s1, s2 in itertools.product(sides, repeat=2):
        for x in deep_tree_pool():
            one = paper_mem_tree_aux(s1, ATOM_A, paper_mem_tree_aux(s2, ATOM_B, x))
            other = paper_mem_tree_aux(s2, ATOM_B, paper_mem_tree_aux(s1, ATOM_A, x))
            assert one == other


# ---------------------------------------------------------------------------
# main transforms
# ---------------------------------------------------------------------------


def test_rp_example():
    assert c.rp(node(ATOM_A, LF, node(ATOM_A, LT, LF))) == node(
        ATOM_A, LF, node(ATOM_A, LF, LF)
    )
    assert c.rp(LF) == LF
    assert c.rp(node(ATOM_B, LT, LF)) == node(ATOM_B, LT, LF)


def test_rpse_examples():
    assert c.rpse(p("a <| (F <| a |> T) |> F")) == node(
        ATOM_A, LF, node(ATOM_A, LF, LF)
    )
    assert c.rpse(T) == LT
    assert c.rpse(p("T <| a |> a")) == c.rpse(p("T <| a |> (F <| a |> F)"))


def test_cse_examples():
    assert c.cse(p("(a <| a |> F) <| a |> F")) == node(ATOM_A, LT, LF)
    assert c.cr(LT) == LT
    assert c.cse(p("T <| b |> F")) == node(ATOM_B, LT, LF)


def test_mse_examples():
    assert c.mse(p("(a <| b |> F) <| a |> F")) == node(
        ATOM_A, node(ATOM_B, LT, LF), LF
    )
    assert c.mem(LF) == LF
    assert c.mse(p("a")) == node(ATOM_A, LT, LF)


def test_sse_examples():
    term = p("(a <| b |> F) <| a |> T")
    assert c.sse(SIGMA_BA, term) == node(
        ATOM_A, node(ATOM_B, LT, LF), node(ATOM_B, LT, LT)
    )
    assert c.sse(SIGMA_AB, term) == node(
        ATOM_B, node(ATOM_A, LT, LT), node(ATOM_A, LF, LT)
    )
    assert c.sse(SIGMA_BA, p("F <| a |> F")) == node(
        ATOM_A, node(ATOM_B, LF, LF), node(ATOM_B, LF, LF)
    )


def test_sse_identifies_single_atoms_of_different_names():
    assert c.sse(SIGMA_AB, p("F <| a |> F")) == c.sse(SIGMA_AB, p("F <| b |> F"))
    assert c.sse(SIGMA_BA, p("F <| a |> F")) == c.sse(SIGMA_BA, p("F <| b |> F"))


def test_sse_alphabet_coverage():
    with pytest.raises(c.AlphabetCoverageError):
        c.sse(c.Sigma.of("a"), p("T <| b |> F"))


# ---------------------------------------------------------------------------
# agreement with the syntactic route
# ---------------------------------------------------------------------------


def test_transforms_commute_with_normalizers_on_basic_forms():
    for t in basic_forms_ab(2):
        tree = c.se(t)
        assert c.rp(tree) == c.se(c.rpf(t))
        assert c.cr(tree) == c.se(c.cf(t))
        assert c.mem(tree) == c.se(c.mf(t))


def test_transformed_trees_equal_normal_form_trees_on_all_terms():
    for t in all_terms_upto(2) + random_terms():
        assert c.rpse(t) == c.se(c.rpbf(t))
        assert c.cse(t) == c.se(c.cbf(t))
        assert c.mse(t) == c.se(c.mbf(t))
        assert c.sse(SIGMA_AB, t) == c.se(c.sbf(SIGMA_AB, t))
        assert c.sse(SIGMA_BA, t) == c.se(c.sbf(SIGMA_BA, t))


def test_transforms_idempotent_on_images():
    for t in basic_forms_ab(2):
        for transform in (c.rp, c.cr, c.mem):
            image = transform(c.se(t))
            assert transform(image) == image


def _follow(tree: c.EvalTree, env: dict[c.Atom, bool]) -> bool:
    while isinstance(tree, c.Node):
        tree = tree.left if env[tree.atom] else tree.right
    return tree.value


def test_transforms_preserve_stateless_evaluation():
    # a consistent oracle cannot distinguish a tree from any of its
    # transforms: repetition-proofing, contraction and memorization only
    # restate answers the oracle would have repeated anyway
    assignments = [
        {ATOM_A: va, ATOM_B: vb}
        for va in (True, False)
        for vb in (True, False)
    ]
    for t in all_terms_upto(2):
        trees = (
            c.se(t), c.rpse(t), c.cse(t), c.mse(t),
            c.sse(SIGMA_AB, t), c.sse(SIGMA_BA, t),
        )
        for env in assignments:
            expected = c.evaluate_with_oracle(t, lambda atom: env[atom])
            for tree in trees:
                assert _follow(tree, env) == expected


def test_sse_output_is_layered():
    for t in basic_forms_ab(2):
        tree = c.sse(SIGMA_AB, t)
        # root queries b, both children query a, grandchildren are leaves
        assert isinstance(tree, c.Node) and tree.atom == ATOM_B
        for child in (tree.left, tree.right):
            assert isinstance(child, c.Node) and child.atom == ATOM_A
            assert isinstance(child.left, c.Leaf) and isinstance(child.right, c.Leaf)


# ---------------------------------------------------------------------------
# the one-walk memorizing transform against the paper's definition
# ---------------------------------------------------------------------------


def test_mem_matches_the_paper_definition_on_all_trees():
    for x in tree_pool(3):
        assert c.mem(x) == paper_mem(x)


def test_mem_matches_the_paper_definition_on_evaluation_trees():
    for t in all_terms_upto(3) + random_terms():
        x = c.se(t)
        assert c.mem(x) == paper_mem(x)


def test_mem_returns_a_tree_it_leaves_unchanged():
    for x in tree_pool(2):
        if paper_mem(x) == x:
            assert c.mem(x) is x


def test_transforms_through_shared_tables_match_the_paper_and_share_equal_results():
    # As check_axioms runs them: every input built through one unique
    # table, which the transforms build through too, and one table of done
    # (node, context) pairs per transform for all inputs.  Each result is
    # still the paper's, and equal results are one object.
    nodes: dict = {}
    pool = [interned_tree(x, nodes) for x in tree_pool(2)]
    for transform, paper, tables in (
        (c.rp, paper_rp, {"done": {None: {}, True: {}, False: {}}}),
        (c.cr, paper_cr, {"done": {None: {}, True: {}, False: {}}}),
        (c.mem, paper_mem, {}),
    ):
        results = [transform(x, nodes=nodes, **tables) for x in pool]
        for x, y in zip(pool, results):
            assert y == paper(x), (transform.__name__, x)
        for y, z in itertools.combinations(results, 2):
            assert (y is z) == (y == z), (transform.__name__, y, z)


def test_sse_matches_the_paper_composition():
    for sigma in STATIC_ORDERS:
        for t in terms_over(sigma):
            assert c.sse(sigma, t) == paper_mem(paper_se(static_prefix(sigma, t)))


def test_sse_walks_the_term_not_the_prefix(monkeypatch):
    # The prefix is built without se, so se's calls do not grow with the
    # order (a tree walk of T <| e_sigma |> t makes 2^|sigma| of them).
    calls = 0
    original = evaltrees._se

    def counting(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(evaltrees, "_se", counting)
    t = p("a <| b |> F")
    counts = []
    for names in ("ab", "abcdefghijkl"):
        calls = 0
        c.sse(c.Sigma.of(*names), t)
        counts.append(calls)
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("names", ["abcdefghijklmnopqrstuvwxyz", "abcdefghijklmnopqrs"])
def test_static_tree_over_a_wide_order_is_refused_before_it_is_built(names):
    # The static tree over n atoms is the full binary tree of 2^(n+1) - 1
    # nodes counted as a tree: 1,048,575 over 19 atoms, over the default
    # budget, so sse refuses it at once instead of building it.
    sigma = c.Sigma.of(*names)
    message = f"^sse would have at least {(2 << len(names)) - 1} nodes, over the budget of 1000000$"
    with pytest.raises(c.NodeBudgetError, match=message):
        c.sse(sigma, c.AtomTerm(ATOM_A))
    with pytest.raises(c.NodeBudgetError):
        c.equivalent(T, F, c.static(sigma))
    with pytest.raises(c.NodeBudgetError):
        c.check_axioms("CPst", (T, F), c.static(sigma))
    with pytest.raises(c.AlphabetCoverageError):
        c.sse(sigma, c.atom("z0"))
