"""The library's walks and parsers are loops: deep input answers at the
default recursion limit, and each loop builds what the recursive version
in helpers.py builds.  So do ``==`` and ``hash`` on ``Cond``, ``Node``
and the short-circuit expressions.
"""

from __future__ import annotations

import itertools
import random
import sys

import pytest

import condalg as c
from condalg.congruence import _graft
from condalg.evaltrees import _se
from condalg.normalform import _bf, _mf
from condalg.shortcircuit import _eval_register_expr
from helpers import (
    SIGMA_A,
    TA,
    TB,
    all_terms_upto,
    basic_forms_ab,
    deep_tree_pool,
    oracle_bf,
    oracle_desugar,
    oracle_eval_register_expr,
    oracle_memorize_form,
    oracle_memorize_tree,
    oracle_parse_sc,
    oracle_render_sc,
    oracle_se,
    random_terms,
    same_objects,
    tree_pool,
)
from test_shortcircuit import exprs_upto

T, F = c.TRUE, c.FALSE
LT, LF = c.LEAF_T, c.LEAF_F
DEEP = 5_000


@pytest.fixture(autouse=True)
def default_recursion_limit():
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    yield
    sys.setrecursionlimit(before)


def chain(slot: int, same: bool = True) -> c.Term:
    """5,000 conditionals, each nested in ``slot`` (0 true branch, 1
    condition, 2 false branch) of the next, over the atom a, or over
    a0 .. a4999 in turn unless ``same``."""
    t: c.Term = TA
    for k in range(DEEP):
        a = TA if same else c.atom(f"a{k}")
        operands = [T, a, F] if slot != 1 else [a, None, F]
        operands[slot] = t
        t = c.Cond(*operands)
    return t


SLOTS = pytest.mark.parametrize("slot", [0, 1, 2], ids=["true", "condition", "false"])
# Over distinct atoms no kind repeats a query; static needs them all in
# its order, so it runs over a alone; rp over a repeated atom is below.
KINDS = pytest.mark.parametrize(
    "kind,same",
    [(kind, same) for kind in (c.FREE, c.CR, c.MEM) for same in (True, False)]
    + [(c.RP, False), (c.static(SIGMA_A), True)],
    ids=lambda x: str(x) if isinstance(x, c.CongruenceKind) else "same" if x else "distinct",
)


def text_of(x: c.EvalTree) -> str:
    return c.render_term(c.tree_to_term(x))


# ---------------------------------------------------------------------------
# Deep input at the default recursion limit
# ---------------------------------------------------------------------------


@SLOTS
@pytest.mark.parametrize("same", [True, False], ids=["same", "distinct"])
def test_se_and_bf_of_a_deep_chain(slot, same):
    t = chain(slot, same)
    assert c.render_term(c.bf(t)) == text_of(c.se(t))


@SLOTS
@KINDS
def test_both_routes_of_a_deep_chain(slot, kind, same):
    t = chain(slot, same)
    assert c.render_term(c.normal_form(t, kind)) == text_of(c.transformed_tree(t, kind))


@SLOTS
@KINDS
def test_equivalent_on_deep_chains(slot, kind, same):
    t = chain(slot, same)
    assert c.equivalent(t, chain(slot, same), kind)
    same_form = c.render_term(c.normal_form(t, kind)) == c.render_term(c.normal_form(TA, kind))
    assert c.equivalent(t, TA, kind) == same_form


@SLOTS
def test_rp_of_a_deep_repeated_chain(slot):
    # Each repeated query doubles the rp normal form counted as a tree.
    t = chain(slot)
    assert c.equivalent(t, chain(slot), c.RP)
    assert c.same_tree(c.rpse(t), c.rp(c.se(t)))
    with pytest.raises(c.NodeBudgetError):
        c.rpbf(t)


@SLOTS
def test_check_axioms_on_a_deep_pool_term(slot):
    reports = c.check_axioms("CP", [chain(slot)], c.FREE)
    assert len(reports) == 4
    assert all(report.holds for report in reports)


@pytest.mark.parametrize("op", ["&&", "||"])
def test_desugar_a_20000_connective_chain(op):
    t = c.desugar(c.parse_sc(f" {op} ".join(["a"] * 20_001)))
    inner, outer = ("a <| a |> F", ") |> F") if op == "&&" else ("T <| a |> a", ") |> a")
    prefix = "a <| (" if op == "&&" else "T <| ("
    assert c.render_term(t) == prefix * 19_999 + inner + outer * 19_999


def test_render_sc_of_deep_expressions():
    e: c.SclExpr = c.SclAtom(c.Atom("a"))
    right = e
    for _ in range(DEEP):
        right = c.SclAnd(c.SclAtom(c.Atom("a")), right)
    assert c.render_sc(right) == "a && (" * (DEEP - 1) + "a && a" + ")" * (DEEP - 1)
    nots = e
    for _ in range(DEEP):
        nots = c.SclNot(nots)
    assert c.render_sc(nots) == "!" * DEEP + "a"
    left = c.parse_sc(" || ".join(["a"] * (DEEP + 1)))
    assert c.render_sc(left) == " || ".join(["a"] * (DEEP + 1))


# ---------------------------------------------------------------------------
# Each loop against its recursive oracle
# ---------------------------------------------------------------------------

TERMS = all_terms_upto(2) + random_terms()
CONTINUATIONS = [(LT, LF), (LF, LT), (c.Node(c.Atom("b"), LT, LF), LT)]


def test_se_matches_its_oracle():
    for t in TERMS + basic_forms_ab(2):
        for kt, kf in CONTINUATIONS:
            assert same_objects(_se(t, kt, kf), oracle_se(t, kt, kf)), t


def test_bf_matches_its_oracle():
    continuations = [((T, 1), (F, 1)), ((F, 0), (T, 0)), ((c.Cond(T, TB, F), 3), (T, 1))]
    for t in TERMS + basic_forms_ab(2):
        for kt, kf in continuations:
            (form, size), (expected, expected_size) = _bf(t, kt, kf), oracle_bf(t, kt, kf)
            assert size == expected_size, t
            assert same_objects(form, expected), t


@pytest.mark.parametrize("pool", [basic_forms_ab(2), TERMS], ids=["forms", "terms"])
def test_store_se_matches_its_oracle(pool):
    # The store builds se of P <| Q |> R by the law check_axioms builds
    # every instance by: Q's tree with its T leaves replaced by P's tree
    # and its F leaves by R's.  Grafted bottom-up, that is `se` of the
    # term, and it is the very object the store interns for that tree.
    nodes: dict = {}
    grafted: dict = {}
    raw = []  # the trees se built, alive while ``grafted`` holds their ids

    def interned(t: c.Term) -> c.EvalTree:
        raw.append(c.se(t))
        return _graft(raw[-1], LT, LF, nodes, grafted)

    def store_se(t: c.Term) -> c.EvalTree:
        if not isinstance(t, c.Cond):
            return interned(t)
        return _graft(store_se(t.condition), store_se(t.true_branch), store_se(t.false_branch), nodes, grafted)

    # The pool's terms, then instances of CP4 and conditionals built from them.
    calls = [
        *pool,
        *(c.Cond(x, c.Cond(y, x, y), x) for x, y in itertools.product(pool[:12], repeat=2)),
        *(c.Cond(p, q, r) for p, q, r in zip(pool, pool[7:] + pool[:7], pool[19:] + pool[:19])),
    ]
    for t in calls:
        x = store_se(t)
        assert c.same_tree(x, c.se(t)), t
        assert x is interned(t), t


def test_graft_of_a_term_is_its_tree():
    # A term grafted onto T and F is its tree, built from the term's
    # objects, and the very object the store interns for ``se`` of it.
    nodes: dict = {}
    grafted: dict = {}
    shared = TA
    for _ in range(8):
        shared = c.Cond(shared, shared, shared)
    terms = [*TERMS, shared, *(chain(slot, same) for slot in range(3) for same in (True, False))]
    trees = [c.se(t) for t in terms]  # alive while ``grafted`` holds their ids
    for t, tree in zip(terms, trees):
        x = _graft(t, LT, LF, nodes, grafted)
        assert c.same_tree(x, tree), t
        assert x is _graft(tree, LT, LF, nodes, grafted), t


def test_memorize_tree_matches_its_oracle():
    trees = tree_pool(2) + deep_tree_pool() + tuple(c.se(t) for t in TERMS)
    for x in trees:
        got = c.mem(x)
        expected = oracle_memorize_tree(x, {})
        assert same_objects(got, expected), x
        assert (got is x) == (expected is x)


def test_memorize_form_matches_its_oracle():
    # ``_mf`` answers within a budget of exactly the oracle's node count,
    # and raises the oracle's error on every budget below it.
    forms = basic_forms_ab(2) + tuple(c.bf(t) for t in TERMS)
    for p in forms:
        spent = [0]
        expected = oracle_memorize_form(p, {}, spent, 10**9)
        got = _mf(p, spent[0])
        assert same_objects(got, expected), p
        assert (got is p) == (expected is p)
        for budget in range(spent[0]):
            with pytest.raises(c.NodeBudgetError) as err:
                _mf(p, budget)
            with pytest.raises(c.NodeBudgetError) as expected_err:
                oracle_memorize_form(p, {}, [0], budget)
            assert str(err.value) == str(expected_err.value)


def random_sc(rng: random.Random, conns: int) -> c.SclExpr:
    if conns == 0:
        return rng.choice((c.SC_TRUE, c.SC_FALSE, c.SclAtom(c.Atom("a")), c.SclAtom(c.Atom("true"))))
    kind = rng.randrange(3)
    if kind == 0:
        return c.SclNot(random_sc(rng, conns - 1))
    i = rng.randint(0, conns - 1)
    make = c.SclAnd if kind == 1 else c.SclOr
    return make(random_sc(rng, i), random_sc(rng, conns - 1 - i))


EXPRESSIONS = exprs_upto(2) + [random_sc(random.Random(k), 12) for k in range(500)]


def test_desugar_and_render_sc_match_their_oracles():
    for e in EXPRESSIONS:
        assert same_objects(c.desugar(e), oracle_desugar(e, {})), e
        assert c.render_sc(e) == oracle_render_sc(e)


def outcome(parse, text: str):
    """What ``parse`` makes of ``text``: the result, or the error's type,
    message and position (None where the error carries none)."""
    try:
        return parse(text)
    except c.CondAlgError as err:
        return type(err), str(err), getattr(err, "position", None)


def assert_parsers_agree(text: str) -> None:
    got = outcome(c.parse_sc, text)
    expected = outcome(oracle_parse_sc, text)
    if isinstance(expected, tuple):
        assert got == expected, text
    else:
        assert same_objects(got, expected), text


def assert_evaluators_agree(text: str) -> None:
    state = {"n": 3, "m": -2}
    assert outcome(lambda s: _eval_register_expr(s, state), text) == outcome(
        lambda s: oracle_eval_register_expr(s, state), text
    ), text


SC_VOCABULARY = ("a", '"b"', '""', "true", "!", "(", ")", "&&", "||")
EXPR_VOCABULARY = ("1", "n", "x", "+", "-", "(", ")")


@pytest.mark.parametrize(
    "agree,vocabulary",
    [(assert_parsers_agree, SC_VOCABULARY), (assert_evaluators_agree, EXPR_VOCABULARY)],
    ids=["parse_sc", "register"],
)
def test_parsers_agree_on_every_short_token_sequence(agree, vocabulary):
    for n in range(6):
        for tokens in itertools.product(vocabulary, repeat=n):
            agree(" ".join(tokens))


@pytest.mark.parametrize(
    "agree,vocabulary",
    [(assert_parsers_agree, SC_VOCABULARY), (assert_evaluators_agree, EXPR_VOCABULARY)],
    ids=["parse_sc", "register"],
)
def test_parsers_agree_on_random_token_sequences(agree, vocabulary):
    rng = random.Random(20261019)
    # Operands and operators weighted alike, so that long sequences parse.
    weighted = vocabulary + tuple(token for token in vocabulary if token not in ("(", ")"))
    for _ in range(3_000):
        agree(" ".join(rng.choices(weighted, k=rng.randint(6, 30))))


def test_parse_sc_matches_its_oracle_on_rendered_expressions():
    for e in EXPRESSIONS:
        assert_parsers_agree(c.render_sc(e))


# ---------------------------------------------------------------------------
# == and hash at the default recursion limit
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "build",
    [
        lambda: chain(2),
        lambda: c.se(chain(2)),
        lambda: c.parse_sc("!" * DEEP + "a"),
        lambda: c.parse_sc(" && ".join(["a"] * DEEP)),
        lambda: c.parse_sc(" || ".join(["a"] * DEEP)),
    ],
    ids=["Cond", "Node", "SclNot", "SclAnd", "SclOr"],
)
def test_eq_and_hash_of_deep_objects_built_apart(build):
    x, y = build(), build()
    assert x is not y
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert {x: 1}[y] == 1


def test_eq_tells_deep_chains_apart_at_the_bottom():
    # ``chain(2)`` with b for a at its bottom.
    x, z = chain(2), TB
    for _ in range(DEEP):
        z = c.Cond(T, TA, z)
    assert x != z and not x == z
    assert c.se(x) != c.se(z)
    assert not c.same_tree(c.se(x), c.se(z))
