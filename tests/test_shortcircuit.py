"""Connective desugaring and the stateful register oracle."""

from __future__ import annotations

import itertools
from functools import lru_cache

import pytest

import condalg as c
from helpers import ATOM_A, ATOM_B, RepeatStableOracle, random_terms

T, F = c.TRUE, c.FALSE
SA, SB = c.SclAtom(ATOM_A), c.SclAtom(ATOM_B)


def p(text: str) -> c.Term:
    return c.parse_term(text)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_sc_literals_and_atoms():
    assert c.parse_sc("true") == c.SC_TRUE
    assert c.parse_sc("false") == c.SC_FALSE
    assert c.parse_sc("a") == SA
    assert c.parse_sc('"(n=n+1)"') == c.SclAtom(c.Atom("(n=n+1)"))


def test_parse_sc_precedence():
    assert c.parse_sc("!a && b || b") == c.SclOr(
        c.SclAnd(c.SclNot(SA), SB), SB
    )
    assert c.parse_sc("a || b && a") == c.SclOr(SA, c.SclAnd(SB, SA))
    assert c.parse_sc("!(a || b)") == c.SclNot(c.SclOr(SA, SB))
    assert c.parse_sc("!!a") == c.SclNot(c.SclNot(SA))


def test_parse_sc_left_associative():
    assert c.parse_sc("a && b && a") == c.SclAnd(c.SclAnd(SA, SB), SA)
    assert c.parse_sc("a || b || a") == c.SclOr(c.SclOr(SA, SB), SA)


@pytest.mark.parametrize("bad", ["", "&& a", "a &&", "(a", "a)", "a ! b", "a & b"])
def test_parse_sc_errors(bad):
    with pytest.raises(c.TermSyntaxError):
        c.parse_sc(bad)


@pytest.mark.parametrize(
    "text", ["!" * 5_000 + "a", "(" * 5_000 + "a" + ")" * 5_000], ids=["not", "parens"]
)
def test_parse_sc_reads_5000_levels(text):
    e = c.parse_sc(text)
    nots = 0
    while isinstance(e, c.SclNot):
        nots += 1
        e = e.operand
    assert e == SA
    assert nots == (5_000 if text[0] == "!" else 0)


@lru_cache(maxsize=None)
def _exprs_with(conns: int) -> tuple[c.SclExpr, ...]:
    if conns == 0:
        return (c.SC_TRUE, c.SC_FALSE, SA, SB)
    out: list[c.SclExpr] = [c.SclNot(e) for e in _exprs_with(conns - 1)]
    for i in range(conns):
        j = conns - 1 - i
        for left in _exprs_with(i):
            for right in _exprs_with(j):
                out.append(c.SclAnd(left, right))
                out.append(c.SclOr(left, right))
    return tuple(out)


def exprs_upto(conns: int) -> list[c.SclExpr]:
    out: list[c.SclExpr] = []
    for k in range(conns + 1):
        out.extend(_exprs_with(k))
    return out


def test_render_parse_round_trip():
    # Atoms spelled like the keywords must not read back as constants.
    keyword_named = [
        c.parse_sc(text)
        for text in ('"true" && a', '"false"', '!"true" || "false" && true')
    ]
    for e in exprs_upto(2) + keyword_named:
        assert c.parse_sc(c.render_sc(e)) == e


# ---------------------------------------------------------------------------
# desugaring
# ---------------------------------------------------------------------------


def test_desugar_examples():
    assert c.desugar(c.SclAnd(c.SclNot(SA), SA)) == p("a <| (F <| a |> T) |> F")
    assert c.desugar(c.SclNot(SA)) == p("F <| a |> T")
    assert c.desugar(c.SC_TRUE) == T
    assert c.desugar(c.SclOr(SA, SB)) == p("T <| a |> b")


def _rule_desugar(e: c.SclExpr) -> c.Term:
    """``desugar`` rule by rule, one new ``AtomTerm`` per atom occurrence."""
    if isinstance(e, c.SclTrue):
        return T
    if isinstance(e, c.SclFalse):
        return F
    if isinstance(e, c.SclAtom):
        return c.AtomTerm(e.atom)
    if isinstance(e, c.SclNot):
        return c.Cond(F, _rule_desugar(e.operand), T)
    if isinstance(e, c.SclAnd):
        return c.Cond(_rule_desugar(e.right), _rule_desugar(e.left), F)
    return c.Cond(T, _rule_desugar(e.left), _rule_desugar(e.right))


def _atom_term_ids(t: c.Term) -> set[int]:
    found = set()
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, c.Cond):
            stack += (x.true_branch, x.condition, x.false_branch)
        elif isinstance(x, c.AtomTerm):
            found.add(id(x))
    return found


@pytest.mark.parametrize("op", ["&&", "||"])
def test_desugar_builds_one_atom_term_per_name(op):
    # A 150-connective chain over three names, some negated, some quoted.
    literals = [("!" if k % 4 == 1 else "") + ('"b"', "a", "c_1")[k % 3] for k in range(151)]
    e = c.parse_sc(f" {op} ".join(literals))
    t = c.desugar(e)
    assert len(_atom_term_ids(t)) == 3
    assert c.render_term(t) == c.render_term(_rule_desugar(e))
    assert t == _rule_desugar(e)
    # Each call builds its own.
    assert not _atom_term_ids(t) & _atom_term_ids(c.desugar(e))


def test_desugar_agrees_with_the_rules_on_small_expressions():
    for e in exprs_upto(2):
        t = c.desugar(e)
        assert t == _rule_desugar(e)
        assert len(_atom_term_ids(t)) == len(c.alphabet(t))


def _sc_dual(e: c.SclExpr) -> c.SclExpr:
    if isinstance(e, c.SclTrue):
        return c.SC_FALSE
    if isinstance(e, c.SclFalse):
        return c.SC_TRUE
    if isinstance(e, c.SclAtom):
        return e
    if isinstance(e, c.SclNot):
        return c.SclNot(_sc_dual(e.operand))
    if isinstance(e, c.SclAnd):
        return c.SclOr(_sc_dual(e.left), _sc_dual(e.right))
    return c.SclAnd(_sc_dual(e.left), _sc_dual(e.right))


def test_desugared_or_is_the_dual_of_and():
    for e in exprs_upto(2):
        assert c.dual(c.desugar(e)) == c.desugar(_sc_dual(e))


def test_de_morgan_holds_freely():
    for left, right in itertools.product(_exprs_with(0), repeat=2):
        negated_and = c.desugar(c.SclNot(c.SclAnd(left, right)))
        or_of_negs = c.desugar(c.SclOr(c.SclNot(left), c.SclNot(right)))
        assert c.equivalent(negated_and, or_of_negs, c.FREE)


def _classical(e: c.SclExpr, env: dict[c.Atom, bool]) -> bool:
    if isinstance(e, c.SclTrue):
        return True
    if isinstance(e, c.SclFalse):
        return False
    if isinstance(e, c.SclAtom):
        return env[e.atom]
    if isinstance(e, c.SclNot):
        return not _classical(e.operand, env)
    if isinstance(e, c.SclAnd):
        return _classical(e.left, env) and _classical(e.right, env)
    return _classical(e.left, env) or _classical(e.right, env)


def test_desugaring_matches_short_circuit_semantics_stateless():
    for e in exprs_upto(2):
        term = c.desugar(e)
        for va, vb in itertools.product((True, False), repeat=2):
            env = {ATOM_A: va, ATOM_B: vb}
            assert c.evaluate_with_oracle(term, lambda atom: env[atom]) == _classical(
                e, env
            )


# ---------------------------------------------------------------------------
# register oracle
# ---------------------------------------------------------------------------


def test_assignment_updates_state_and_returns_true():
    oracle = c.make_register_oracle({"n": 0})
    assert oracle(c.Atom("(n=n+1)")) is True
    assert oracle.state == {"n": 1}


def test_comparison_reads_state():
    oracle = c.make_register_oracle({"n": 2})
    assert oracle(c.Atom("(n==2)")) is True
    assert oracle(c.Atom("(n==3)")) is False
    assert oracle.state == {"n": 2}


def test_expression_grammar():
    oracle = c.make_register_oracle({"n": 5, "m": 2})
    assert oracle(c.Atom("(n=(n-m)+10)")) is True
    assert oracle.state["n"] == 13
    assert oracle(c.Atom("(n==13)")) is True
    assert oracle(c.Atom("(0==0)")) is True


@pytest.mark.parametrize(
    "atom_text",
    [
        "plain",
        "(n+1)",
        "(x=1)",
        "(n=y)",
        "(n==)",
        "(n=1=2)",
        "()",
        "(n == 2 ==2)",
    ],
)
def test_oracle_refuses_bad_atoms(atom_text):
    oracle = c.make_register_oracle({"n": 0})
    with pytest.raises(c.OracleError):
        oracle(c.Atom(atom_text))


@pytest.mark.parametrize("side", ["left", "right"])
def test_a_3000_deep_register_expression_evaluates(side):
    deep = "(" * 3_000 + "n" + ")" * 3_000
    text = f"({deep}==0)" if side == "left" else f"(n=={deep})"
    oracle = c.make_register_oracle({"n": 0})
    assert oracle(c.Atom(text)) is True
    assert oracle(c.Atom("(" + "(" * 50 + "n" + ")" * 50 + "==0)"))


def test_parse_register_state():
    assert c.parse_register_state("n=0,m=3") == {"n": 0, "m": 3}
    assert c.parse_register_state(" ") == {}
    assert c.parse_register_state("n=-2") == {"n": -2}
    with pytest.raises(c.OracleError):
        c.parse_register_state("n")
    with pytest.raises(c.OracleError):
        c.parse_register_state("n=x")
    with pytest.raises(c.OracleError, match="'n'"):
        c.parse_register_state("n=0,n=3")


@pytest.mark.parametrize("value", ["٣", "²", "1_0"])
def test_parse_register_state_takes_ascii_digits_only(value):
    # none matches [0-9]+, the register expressions' numbers (int() takes
    # the first and the last)
    with pytest.raises(c.OracleError):
        c.parse_register_state(f"n={value}")


# ---------------------------------------------------------------------------
# the double-increment example
# ---------------------------------------------------------------------------

INC = '"(n=n+1)"'
IS_TWO = '"(n==2)"'
DOUBLE_INC = c.parse_sc(f"({INC} && {INC}) && {IS_TWO}")
SINGLE_INC = c.parse_sc(f"{INC} && {IS_TWO}")


def _run(expr: c.SclExpr, n: int) -> bool:
    return c.evaluate_with_oracle(c.desugar(expr), c.make_register_oracle({"n": n}))


def test_double_increment_differs_from_single():
    assert _run(DOUBLE_INC, 0) is True
    assert _run(SINGLE_INC, 0) is False
    assert _run(DOUBLE_INC, 1) is False
    assert _run(SINGLE_INC, 1) is True


def test_repeated_conjunction_of_effectful_atom_is_not_idempotent():
    inc = c.parse_sc(INC)
    twice = c.SclAnd(inc, inc)
    # under an effectful oracle, a && a can diverge from a
    oracle = c.make_register_oracle({"n": 0})
    once_then_check = c.evaluate_with_oracle(
        c.desugar(c.SclAnd(inc, c.parse_sc('"(n==1)"'))), oracle
    )
    oracle = c.make_register_oracle({"n": 0})
    twice_then_check = c.evaluate_with_oracle(
        c.desugar(c.SclAnd(twice, c.parse_sc('"(n==1)"'))), oracle
    )
    assert once_then_check != twice_then_check


# ---------------------------------------------------------------------------
# repetition-proof soundness for repeat-stable oracles
# ---------------------------------------------------------------------------


def _rp_equal_pairs() -> list[tuple[c.Term, c.Term]]:
    pairs = [(p("T <| a |> a"), p("T <| a |> (F <| a |> F)"))]
    pool = random_terms()[:80]
    keys: dict[str, c.Term] = {}
    for t in pool:
        key = c.render_tree(c.rpse(t))
        if key in keys and keys[key] != t:
            pairs.append((keys[key], t))
        else:
            keys[key] = t
    return pairs


def test_rp_congruent_terms_agree_under_repeat_stable_oracles():
    pairs = _rp_equal_pairs()
    assert len(pairs) > 3
    for left, right in pairs:
        assert c.equivalent(left, right, c.RP)
        for seed in range(40):
            first = c.evaluate_with_oracle(left, RepeatStableOracle(seed))
            second = c.evaluate_with_oracle(right, RepeatStableOracle(seed))
            assert first == second
