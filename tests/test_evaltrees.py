"""Evaluation trees: construction, walks, rendering, oracle evaluation."""

from __future__ import annotations

import itertools
import sys

import pytest

import condalg as c
from helpers import (
    ATOM_A,
    ATOM_B,
    TA,
    TB,
    ScriptedOracle,
    all_terms_upto,
    basic_forms_ab,
    interned_tree,
    paper_leaf_replace,
    paper_se,
    random_terms,
    tree_pool,
)

T, F = c.TRUE, c.FALSE
LT, LF = c.LEAF_T, c.LEAF_F


def node(a, left, right):
    return c.Node(a, left, right)


EXAMPLE_TREE = node(ATOM_A, LF, node(ATOM_A, LT, LF))
EXAMPLE_TERM = c.parse_term("a <| (F <| a |> T) |> F")


# ---------------------------------------------------------------------------
# leaf_replace
# ---------------------------------------------------------------------------


def test_leaf_replace_on_leaves():
    y = node(ATOM_B, LT, LF)
    z = node(ATOM_A, LF, LF)
    assert paper_leaf_replace(LT, y, z) == y
    assert paper_leaf_replace(LF, y, z) == z


def test_leaf_replace_one_step():
    y, z = node(ATOM_B, LT, LF), LF
    assert paper_leaf_replace(node(ATOM_A, LT, LF), y, z) == node(ATOM_A, y, z)


def test_leaf_replace_repeated_replacement_instance():
    x = node(ATOM_A, LT, LF)
    y1, z1 = node(ATOM_B, LT, LF), LF
    y2, z2 = LF, LT
    lhs = paper_leaf_replace(paper_leaf_replace(x, y1, z1), y2, z2)
    rhs = paper_leaf_replace(
        x, paper_leaf_replace(y1, y2, z2), paper_leaf_replace(z1, y2, z2)
    )
    assert lhs == rhs == node(ATOM_A, node(ATOM_B, LF, LT), LT)


def test_leaf_replace_repeated_replacement_over_pool():
    def both_sides_agree(x, y1, z1, y2, z2):
        lhs = paper_leaf_replace(paper_leaf_replace(x, y1, z1), y2, z2)
        rhs = paper_leaf_replace(
            x, paper_leaf_replace(y1, y2, z2), paper_leaf_replace(z1, y2, z2)
        )
        assert lhs == rhs

    # every slot over the depth-<=1 trees
    for x, y1, z1, y2, z2 in itertools.product(tree_pool(1), repeat=5):
        both_sides_agree(x, y1, z1, y2, z2)
    # and triples (x, y, z) from a depth-<=2 pool, reusing (y, z) twice
    pool = tree_pool(1) + tuple(
        t for t in tree_pool(2) if isinstance(t, c.Node) and not isinstance(t.left, c.Leaf)
    )[:16]
    for x, y, z in itertools.product(pool, repeat=3):
        both_sides_agree(x, y, z, y, z)


# ---------------------------------------------------------------------------
# se
# ---------------------------------------------------------------------------


def test_se_examples():
    assert c.se(EXAMPLE_TERM) == EXAMPLE_TREE
    assert c.se(TA) == node(ATOM_A, LT, LF)
    assert c.se(c.parse_term("(a <| a |> F) <| a |> F")) == node(
        ATOM_A, node(ATOM_A, node(ATOM_A, LT, LF), LF), LF
    )


def test_se_constants():
    assert c.se(T) == LT
    assert c.se(F) == LF


def test_se_matches_the_paper_definition():
    for t in all_terms_upto(3) + random_terms():
        assert c.se(t) == paper_se(t)


# ---------------------------------------------------------------------------
# evaluations
# ---------------------------------------------------------------------------


def test_evaluations_example():
    evals = c.evaluations(EXAMPLE_TREE)
    assert [(e.path_text, e.result) for e in evals] == [
        ("aT", False),
        ("aF aT", True),
        ("aF aF", False),
    ]


def test_evaluations_of_leaf():
    evals = c.evaluations(LT)
    assert evals == [c.Evaluation((), True)]
    assert evals[0].path_text == "-"
    assert str(evals[0]) == "(-, T)"


def test_evaluations_of_single_atom():
    assert [(e.path_text, e.result) for e in c.evaluations(node(ATOM_A, LT, LF))] == [
        ("aT", True),
        ("aF", False),
    ]


# ---------------------------------------------------------------------------
# tree_to_term
# ---------------------------------------------------------------------------


def test_tree_to_term_examples():
    assert c.tree_to_term(EXAMPLE_TREE) == c.parse_term("F <| a |> (T <| a |> F)")
    assert c.tree_to_term(LF) == F
    assert c.tree_to_term(node(ATOM_B, LT, LT)) == c.Cond(T, TB, T)


def test_tree_to_term_output_is_basic_and_right_inverse():
    seen: set[str] = set()
    for t in all_terms_upto(3):
        tree = c.se(t)
        key = c.render_tree(tree)
        if key in seen:
            continue
        seen.add(key)
        back = c.tree_to_term(tree)
        assert c.is_basic_form(back)
        assert c.se(back) == tree


def test_se_injective_on_basic_forms():
    for t in basic_forms_ab(2):
        assert c.tree_to_term(c.se(t)) == t


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_one_table_makes_equal_trees_one_object():
    # Trees built through one unique table, by hand or by se, are equal
    # exactly when they are one object: the rule ``equivalent`` decides by.
    nodes: dict = {}
    pool = [interned_tree(x, nodes) for x in tree_pool(2)]
    for x, y in itertools.product(pool, repeat=2):
        assert (x is y) == (x == y)
    terms = all_terms_upto(1) + random_terms(n=40)
    trees = [c.se(t, nodes) for t in terms]
    texts = [c.render_tree(x) for x in trees]
    for i, j in itertools.product(range(len(terms)), repeat=2):
        assert (trees[i] is trees[j]) == (texts[i] == texts[j]), (terms[i], terms[j])


def test_tree_equality_compares_shared_subtrees_once():
    # t_{k+1} = t_k <| t_k |> t_k: each se has a few hundred objects but
    # is, counted as a tree, far too large to walk as one; ``==`` compares
    # each pair of objects once.
    t = c.parse_term("a <| a |> a")
    for _ in range(6):
        t = c.Cond(t, t, t)
    other = c.parse_term(c.render_term(t))
    assert c.se(t) == c.se(other)
    assert c.se(t) != c.se(c.Cond(t, t, F))


def test_render_ascii():
    assert c.render_tree(LT) == "T"
    assert c.render_tree(node(ATOM_A, LT, LF)) == "(T <a> F)"
    assert c.render_tree(EXAMPLE_TREE) == "(F <a> (T <a> F))"


def test_render_json():
    assert (
        c.render_tree(EXAMPLE_TREE, "json")
        == '{"atom":"a","t":"F","f":{"atom":"a","t":"T","f":"F"}}'
    )
    assert c.render_tree(LF, "json") == '"F"'


def test_render_dot():
    assert c.render_tree(EXAMPLE_TREE, "dot") == "\n".join(
        [
            "digraph evaltree {",
            '  n0 [label="a"];',
            '  n1 [label="F", shape=box];',
            '  n2 [label="a"];',
            '  n3 [label="T", shape=box];',
            '  n4 [label="F", shape=box];',
            '  n0 -> n1 [label="T"];',
            '  n2 -> n3 [label="T"];',
            '  n2 -> n4 [label="F"];',
            '  n0 -> n2 [label="F"];',
            "}",
        ]
    )


def test_render_unknown_format():
    with pytest.raises(ValueError):
        c.render_tree(LT, "yaml")


# ---------------------------------------------------------------------------
# evaluate_with_oracle
# ---------------------------------------------------------------------------


def _refusing_oracle(atom):
    raise c.OracleError("no atoms expected")


def test_constants_never_consult_the_oracle():
    assert c.evaluate_with_oracle(T, _refusing_oracle) is True
    assert c.evaluate_with_oracle(F, _refusing_oracle) is False


def test_stateless_false_oracle_follows_false_path():
    # both visits of `a` answer False, giving the path (aF aF, F)
    assert c.evaluate_with_oracle(EXAMPLE_TERM, lambda atom: False) is False
    assert c.evaluate_with_oracle(EXAMPLE_TERM, lambda atom: True) is False
    queried = []

    def tracker(atom):
        queried.append(atom)
        return False

    c.evaluate_with_oracle(EXAMPLE_TERM, tracker)
    assert queried == [ATOM_A, ATOM_A]


def test_oracle_errors_propagate():
    with pytest.raises(c.OracleError):
        c.evaluate_with_oracle(TA, _refusing_oracle)


def _follow(tree, path):
    for atom, value in path:
        assert isinstance(tree, c.Node) and tree.atom == atom
        tree = tree.left if value else tree.right
    assert isinstance(tree, c.Leaf)
    return tree.value


def _tree_depth(tree):
    if isinstance(tree, c.Leaf):
        return 0
    return 1 + max(_tree_depth(tree.left), _tree_depth(tree.right))


def test_evaluations_consistent_and_replayable_exhaustively():
    for t in all_terms_upto(3):
        tree = c.se(t)
        evals = c.evaluations(tree)
        assert 1 <= len(evals) <= 2 ** _tree_depth(tree)
        for ev in evals:
            # the path really is a root-to-leaf walk with left=T, right=F
            assert _follow(tree, ev.path) == ev.result
            # and replaying it operationally gives the same verdict
            oracle = ScriptedOracle(ev.path)
            assert c.evaluate_with_oracle(t, oracle) == ev.result
            assert oracle.exhausted()


def test_evaluations_and_the_oracle_run_deep_inputs():
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    try:
        # 2,000 deep: the evaluations' paths add up to n^2/2 steps.
        chain = LT
        for _ in range(2_000):
            chain = node(ATOM_A, chain, LF)
        evals = c.evaluations(chain)
        assert [len(ev.path) for ev in evals] == [2_000] + list(range(2_000, 0, -1))
        assert evals[0].path == ((ATOM_A, True),) * 2_000 and evals[0].result
        assert evals[-1].path == ((ATOM_A, False),) and not evals[-1].result
        # 5,000 conditions deep in the condition position: a is asked
        # first, then b once per level on the way out.
        t = TA
        for _ in range(5_000):
            t = c.Cond(TB, t, F)
        queried = []

        def oracle(atom):
            queried.append(atom)
            return True

        assert c.evaluate_with_oracle(t, oracle) is True
        assert queried == [ATOM_A] + [ATOM_B] * 5_000
    finally:
        sys.setrecursionlimit(before)
