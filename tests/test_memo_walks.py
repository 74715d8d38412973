"""The memoized repetition-proof and contractive walks on both routes.

``rp``/``cr`` (evaluation trees) and ``rpf``/``cf`` (basic forms) do
each (object, context) pair of their input once.  They are checked
against the paper's definitions in tests/helpers.py, which walk a shared
input as a tree, so the shared inputs here stay small enough for those
to finish.  Large shared results are compared with ``same_tree``, ``==``
(both compare each pair of shared objects once) or by identity.
"""

from __future__ import annotations

import sys

import pytest

import condalg as c
from condalg.terms import fold
from helpers import (
    ATOM_A,
    ATOM_B,
    TA,
    TB,
    all_terms_upto,
    basic_forms_ab,
    condition_nested,
    paper_cf,
    paper_cr,
    paper_rp,
    paper_rpf,
    random_terms,
)

T, F = c.TRUE, c.FALSE
LT, LF = c.LEAF_T, c.LEAF_F
RUN = 5_000


@pytest.fixture
def default_recursion_limit():
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    yield
    sys.setrecursionlimit(before)


def duplicated_run(x, children) -> tuple[int, object]:
    """(length, leaf) of the run of nodes from ``x`` whose two children
    are one object, where ``children(x)`` is a node's pair of children and
    None for a leaf; ``leaf`` is None if the run does not end at one.
    Checks by identity and returns no node, so a failure prints no large
    tree."""
    n = 0
    while (kids := children(x)) is not None and kids[0] is kids[1]:
        x = kids[0]
        n += 1
    return n, x if children(x) is None else None


def tree_kids(x):
    return (x.left, x.right) if x.__class__ is c.Node else None


def form_kids(p):
    return (p.true_branch, p.false_branch) if p.__class__ is c.Cond else None


def form_size(p: c.Term) -> int:
    """A basic form's size as the node budget counts it: conditionals and
    constants, counted as a tree."""
    return fold(p, lambda x: form_kids(x) or (), lambda x, sizes: 1 + sum(sizes))


def nested_terms() -> list[c.Term]:
    # t_0 .. t_4 from a, and t_0 .. t_3 from b <| a |> F: shared, but small
    # enough counted as a tree for the paper's definitions.
    terms = [condition_nested(k) for k in range(5)]
    return terms + [condition_nested(k, c.Cond(TB, TA, F)) for k in range(4)]


def test_tree_walks_match_the_paper_definitions():
    trees = [c.se(t) for t in all_terms_upto(2) + random_terms()]
    trees += [c.se(t) for t in basic_forms_ab(2)]
    trees += [c.se(t) for t in nested_terms()]
    for x in trees:
        assert c.same_tree(c.rp(x), paper_rp(x))
        assert c.same_tree(c.cr(x), paper_cr(x))


def test_normalizers_match_the_paper_definitions():
    forms = [c.bf(t) for t in all_terms_upto(2) + random_terms()]
    forms += list(basic_forms_ab(2))
    forms += [c.bf(t) for t in nested_terms()]
    for p in forms:
        assert c.rpf(p) == paper_rpf(p)
        assert c.cf(p) == paper_cf(p)


def test_shared_inputs_give_shared_outputs():
    # b's two branches are one object that each walk must rewrite.
    sub = c.Node(ATOM_A, c.Node(ATOM_A, LT, LF), LF)
    x = c.Node(ATOM_B, sub, sub)
    for transform in (c.rp, c.cr):
        out = transform(x)
        assert out is not x and out.left is out.right
    q = c.Cond(c.Cond(T, TA, F), TA, F)
    p = c.Cond(q, TB, q)
    for normalize in (c.rpf, c.cf):
        out = normalize(p)
        assert out is not p and out.true_branch is out.false_branch
    # rp builds one duplicated node per atom and branch: two a-queries
    # whose false branches repeat a over one shared z, once through one
    # node and once through two, give one object.
    z = c.Node(ATOM_B, LT, LF)
    y1, y2 = c.Node(ATOM_A, LT, z), c.Node(ATOM_A, LF, z)
    for ys in ((y1, y1), (y1, y2)):
        out = c.rp(c.Node(ATOM_B, c.Node(ATOM_A, LF, ys[0]), c.Node(ATOM_A, LT, ys[1])))
        assert out.left.right is out.right.right
    r = c.Cond(T, TB, F)
    q1, q2 = c.Cond(T, TA, r), c.Cond(F, TA, r)
    for qs in ((q1, q1), (q1, q2)):
        out = c.rpf(c.Cond(c.Cond(F, TA, qs[0]), TB, c.Cond(T, TA, qs[1])))
        assert out.true_branch.false_branch is out.false_branch.false_branch


def test_an_unchanged_input_is_returned_as_it_is():
    # The paper's definitions return their input object where no branch
    # repeats its parent's atom.
    for t in all_terms_upto(2):
        x, p = c.se(t), c.bf(t)
        for transform, paper in ((c.rp, paper_rp), (c.cr, paper_cr)):
            if paper(x) is x:
                assert transform(x) is x
        for normalize, paper in ((c.rpf, paper_rpf), (c.cf, paper_cf)):
            if paper(p) is p:
                assert normalize(p) is p
    # An rp image is its own image, object for object.
    image = c.rp(c.se(condition_nested(6)))
    fixed = c.rp(image) is image
    assert fixed


def test_shared_evaluation_trees_cost_their_objects():
    # se(t_10) has about 2^1025 nodes counted as a tree, but few objects.
    # Every query asks a, so rp answers the first answer again and again.
    x = c.se(condition_nested(10))
    image = c.rp(x)
    assert image.atom == ATOM_A
    assert duplicated_run(image.left, tree_kids)[1] == LT
    assert duplicated_run(image.right, tree_kids)[1] == LF
    contracted = c.same_tree(c.cr(x), c.Node(ATOM_A, LT, LF))
    assert contracted
    assert c.cbf(condition_nested(10)) == c.Cond(T, TA, F)
    with pytest.raises(c.NodeBudgetError):
        c.rpbf(condition_nested(10))


def test_walks_answer_a_long_run_of_one_atom(default_recursion_limit):
    x, p = LT, T
    for _ in range(RUN):
        x = c.Node(ATOM_A, x, LF)
        p = c.Cond(p, TA, F)
    # After the first query, rp answers it again and again.
    image = c.rp(x)
    assert (image.atom, image.right) == (ATOM_A, LF)
    assert duplicated_run(image.left, tree_kids) == (RUN - 1, LT)
    assert c.cr(x) == c.Node(ATOM_A, LT, LF)
    form = c.rpf(p, node_budget=2**RUN + 1)
    assert (form.condition, form.false_branch) == (TA, F)
    assert duplicated_run(form.true_branch, form_kids) == (RUN - 1, T)
    with pytest.raises(c.NodeBudgetError):
        c.rpf(p, node_budget=2**RUN)
    assert c.cf(p) == c.Cond(T, TA, F)


def test_rpbf_and_cbf_budget_boundary_on_shared_terms():
    terms = [condition_nested(k, base) for k in range(2, 7) for base in (TA, c.Cond(TB, TA, TA))]
    for normalize in (c.rpbf, c.cbf):
        for t in terms:
            form = normalize(t, node_budget=10**40)
            n = form_size(form)
            assert normalize(t, node_budget=n) is not None
            stage = "rpf" if normalize is c.rpbf else "cf"
            message = f"^{stage} would have at least {n} nodes, over the budget of {n - 1}$"
            with pytest.raises(c.NodeBudgetError, match=message):
                normalize(t, node_budget=n - 1)


def objects(root, kids, cls) -> int:
    """The distinct objects of class ``cls`` reachable from ``root``."""
    found = []
    fold(root, lambda x: kids(x) or (), lambda x, _: found.append(x.__class__ is cls))
    return sum(found)


def test_outputs_have_at_most_three_objects_per_input_object():
    # Each (object, context) pair is done once and makes at most one
    # object, and there are three contexts.
    terms = [condition_nested(k, base) for k in range(1, 11) for base in (TA, c.Cond(TB, TA, F))]
    x, p = LT, T
    for _ in range(RUN):
        x = c.Node(ATOM_A, x, LF)
        p = c.Cond(p, TA, F)
    trees = [c.se(t) for t in terms] + [x]
    forms = [c.bf(t, node_budget=2**RUN) for t in terms] + [p]
    for x in trees:
        n = objects(x, tree_kids, c.Node)
        for transform in (c.rp, c.cr):
            assert objects(transform(x), tree_kids, c.Node) <= 3 * n
    for p in forms:
        n = objects(p, form_kids, c.Cond)
        for normalize in (c.rpf, c.cf):
            assert objects(normalize(p, node_budget=2**(RUN + 1)), form_kids, c.Cond) <= 3 * n
