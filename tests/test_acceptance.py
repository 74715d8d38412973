"""Acceptance suite.

One test per acceptance criterion; each prints a PASS line once its
assertions have all held (run with ``pytest -s`` to see them).  Pools and
tolerances are fixed here, not configurable: 202 basic forms over {a, b}
up to depth 2, 200 seeded random terms with at most 6 conditionals, the
six-term substitution pool for the axiom systems, and the stated wall
clock bounds.
"""

from __future__ import annotations

import itertools
import time
from functools import lru_cache

import condalg as c
from condalg.cli import main as cli_main
from helpers import (
    ALL_KINDS,
    ATOM_A,
    ATOM_B,
    SIGMA_AB,
    SIGMA_BA,
    TA,
    TB,
    basic_forms_ab,
    deep_tree_pool,
    random_terms,
)

T, F = c.TRUE, c.FALSE
LT, LF = c.LEAF_T, c.LEAF_F
TRUE_SIDE, FALSE_SIDE = True, False


def p(text: str) -> c.Term:
    return c.parse_term(text)


def _passed(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number} ({label}): PASS")


@lru_cache(maxsize=None)
def combined_pool() -> tuple[c.Term, ...]:
    return basic_forms_ab(2) + random_terms()


@lru_cache(maxsize=None)
def pool_keys(kind_index: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(tree keys, normal-form keys) for the combined pool under a kind."""
    kind = ALL_KINDS[kind_index]
    trees = tuple(
        c.render_tree(c.transformed_tree(t, kind)) for t in combined_pool()
    )
    forms = tuple(c.render_term(c.normal_form(t, kind)) for t in combined_pool())
    return trees, forms


# ---------------------------------------------------------------------------
# 1. golden evaluation trees
# ---------------------------------------------------------------------------


def test_criterion_1_golden_trees():
    start = time.perf_counter()

    assert c.se(p("a <| (F <| a |> T) |> F")) == c.Node(
        ATOM_A, LF, c.Node(ATOM_A, LT, LF)
    )
    assert c.rpse(p("a <| (F <| a |> T) |> F")) == c.Node(
        ATOM_A, LF, c.Node(ATOM_A, LF, LF)
    )
    assert c.cse(p("(a <| a |> F) <| a |> F")) == c.Node(ATOM_A, LT, LF)
    assert c.mse(p("(a <| b |> F) <| a |> F")) == c.Node(
        ATOM_A, c.Node(ATOM_B, LT, LF), LF
    )
    layered_example = p("(a <| b |> F) <| a |> T")
    assert c.sse(SIGMA_BA, layered_example) == c.Node(
        ATOM_A, c.Node(ATOM_B, LT, LF), c.Node(ATOM_B, LT, LT)
    )
    assert c.sse(SIGMA_AB, layered_example) == c.Node(
        ATOM_B, c.Node(ATOM_A, LT, LT), c.Node(ATOM_A, LF, LT)
    )

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"golden trees took {elapsed:.3f}s"
    _passed(1, "golden evaluation trees")


# ---------------------------------------------------------------------------
# 2. golden truth tables through the CLI
# ---------------------------------------------------------------------------


def test_criterion_2_golden_tables(capsys):
    assert cli_main(["table", "--sigma", "ab", "(a <| b |> F) <| a |> T"]) == 0
    out_ab = capsys.readouterr().out
    assert out_ab.splitlines()[1:] == ["T T | T", "T F | F", "F T | T", "F F | T"]

    assert cli_main(["table", "--sigma", "ba", "(a <| b |> F) <| a |> T"]) == 0
    out_ba = capsys.readouterr().out
    assert out_ba.splitlines()[1:] == ["T T | T", "T F | T", "F T | F", "F F | T"]

    with capsys.disabled():
        _passed(2, "golden truth tables")


# ---------------------------------------------------------------------------
# 3. dual realization: trees vs normal forms
# ---------------------------------------------------------------------------


def test_criterion_3_dual_realization():
    start = time.perf_counter()
    pool = combined_pool()
    assert len(basic_forms_ab(2)) == 202
    assert len(pool) == 402

    disagreements = 0
    for kind_index in range(len(ALL_KINDS)):
        trees, forms = pool_keys(kind_index)
        for i, j in itertools.combinations(range(len(pool)), 2):
            if (trees[i] == trees[j]) != (forms[i] == forms[j]):
                disagreements += 1
    assert disagreements == 0

    # measurement only (no claim): does the static relation depend on the
    # order of sigma, or just on its alphabet?
    ab_trees = pool_keys(4)[0]
    ba_trees = pool_keys(5)[0]
    same_partition = all(
        (ab_trees[i] == ab_trees[j]) == (ba_trees[i] == ba_trees[j])
        for i, j in itertools.combinations(range(len(pool)), 2)
    )
    print(f"measured: static(ab) and static(ba) induce the same partition: {same_partition}")

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"dual realization took {elapsed:.1f}s"
    _passed(3, "dual realization, zero disagreements")


# ---------------------------------------------------------------------------
# 4. axiom soundness and lattice monotonicity
# ---------------------------------------------------------------------------

AXIOM_POOL = (T, F, TA, TB, p("T <| a |> F"), p("F <| b |> T"))

_KIND_BY_LEVEL = {0: c.FREE, 1: c.RP, 2: c.CR, 3: c.MEM, 4: c.static(SIGMA_AB)}


def test_criterion_4_axiom_soundness():
    checked = 0
    for system in c.SYSTEMS:
        for kind_level in range(c.SYSTEM_LEVEL[system], 5):
            kind = _KIND_BY_LEVEL[kind_level]
            reports = c.check_axioms(system, AXIOM_POOL, kind)
            failures = [r for r in reports if not r.holds]
            assert not failures, (
                f"{system} under {kind}: {len(failures)} failing instances, "
                f"first: {failures[0] if failures else None}"
            )
            checked += len(reports)
    assert checked > 400_000
    print(f"axiom instances checked: {checked}")
    _passed(4, "axiom soundness + lattice monotonicity")


# ---------------------------------------------------------------------------
# 5. proper inclusions
# ---------------------------------------------------------------------------


def test_criterion_5_separation_witnesses():
    witnesses = c.separation_witnesses()
    assert [(finer.tag, coarser.tag) for _, _, finer, coarser in witnesses] == [
        ("free", "rp"),
        ("rp", "cr"),
        ("cr", "mem"),
        ("mem", "static"),
    ]
    assert witnesses[0][0] == p("T <| a |> a")
    assert witnesses[0][1] == p("T <| a |> (F <| a |> F)")
    assert witnesses[3][0] == p("F <| a |> F")
    assert witnesses[3][1] == F
    for left, right, finer, coarser in witnesses:
        # the semantic route, as stated
        assert not c.equivalent(left, right, finer)
        assert c.equivalent(left, right, coarser)
        # and the independent syntactic route agrees
        assert c.normal_form(left, finer) != c.normal_form(right, finer)
        assert c.normal_form(left, coarser) == c.normal_form(right, coarser)
    _passed(5, "proper lattice inclusions")


# ---------------------------------------------------------------------------
# 6. static congruence = propositional tautology
# ---------------------------------------------------------------------------


def test_criterion_6_static_equals_tautology():
    pool = combined_pool()
    static_trees = pool_keys(4)[0]
    tables = [c.truth_table(t, SIGMA_AB).rows for t in pool]
    for i, j in itertools.combinations(range(len(pool)), 2):
        assert (static_trees[i] == static_trees[j]) == (tables[i] == tables[j])
    # spot-check the dedicated operation as well
    assert c.static_matches_tautology(p("F <| a |> F"), F, c.Sigma.of("a"))
    assert c.static_matches_tautology(TA, TB, SIGMA_AB)
    _passed(6, "static congruence matches tautology checking")


# ---------------------------------------------------------------------------
# 7. algebraic law suite
# ---------------------------------------------------------------------------


def test_criterion_7_law_suite():
    forms = basic_forms_ab(2)
    atoms = (ATOM_A, ATOM_B)
    sides = (TRUE_SIDE, FALSE_SIDE)

    # tree transforms commute with the syntactic rewriters
    for t in forms:
        tree = c.se(t)
        assert c.rp(tree) == c.se(c.rpf(t))
        assert c.cr(tree) == c.se(c.cf(t))
        assert c.mem(tree) == c.se(c.mf(t))

    # absorption, term level and tree level
    for a in atoms:
        for t in forms:
            ft = c.rp_aux(TRUE_SIDE, a, t)
            gt = c.rp_aux(FALSE_SIDE, a, t)
            assert c.rp_aux(FALSE_SIDE, a, ft) == c.rp_aux(TRUE_SIDE, a, ft) == ft
            assert c.rp_aux(TRUE_SIDE, a, gt) == c.rp_aux(FALSE_SIDE, a, gt) == gt
        for x in deep_tree_pool():
            fx = c.rp_tree_aux(TRUE_SIDE, a, x)
            gx = c.rp_tree_aux(FALSE_SIDE, a, x)
            assert c.rp_tree_aux(FALSE_SIDE, a, fx) == c.rp_tree_aux(TRUE_SIDE, a, fx) == fx
            assert c.rp_tree_aux(TRUE_SIDE, a, gx) == c.rp_tree_aux(FALSE_SIDE, a, gx) == gx

    # memorizing helpers commute across distinct atoms
    for s1, s2 in itertools.product(sides, repeat=2):
        for t in forms:
            assert c.mem_aux(s1, ATOM_A, c.mem_aux(s2, ATOM_B, t)) == c.mem_aux(
                s2, ATOM_B, c.mem_aux(s1, ATOM_A, t)
            )
        for x in deep_tree_pool():
            assert c.mem_tree_aux(
                s1, ATOM_A, c.mem_tree_aux(s2, ATOM_B, x)
            ) == c.mem_tree_aux(s2, ATOM_B, c.mem_tree_aux(s1, ATOM_A, x))

    # none of the six helpers increases depth
    for t in forms:
        d = c.depth(t)
        for aux, side, a in itertools.product(
            (c.rp_aux, c.cr_aux, c.mem_aux), sides, atoms
        ):
            assert c.depth(aux(side, a, t)) <= d

    # the five normalizers fix their own normal forms
    for t in forms:
        assert c.bf(t) == t
        if c.is_rp_basic_form(t):
            assert c.rpbf(t) == t
        if c.is_cr_basic_form(t):
            assert c.cbf(t) == t
        if c.is_mem_basic_form(t):
            assert c.mbf(t) == t
        for sigma in (SIGMA_AB, SIGMA_BA):
            layered = c.sbf(sigma, t)
            assert c.is_st_basic_form(layered, sigma)
            assert c.sbf(sigma, layered) == layered

    _passed(7, "algebraic law suite")


# ---------------------------------------------------------------------------
# 8. effectful atoms and stateless agreement
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _exprs_with(conns: int) -> tuple[c.SclExpr, ...]:
    if conns == 0:
        return (c.SC_TRUE, c.SC_FALSE, c.SclAtom(ATOM_A), c.SclAtom(ATOM_B))
    out: list[c.SclExpr] = [c.SclNot(e) for e in _exprs_with(conns - 1)]
    for i in range(conns):
        for left in _exprs_with(i):
            for right in _exprs_with(conns - 1 - i):
                out.append(c.SclAnd(left, right))
                out.append(c.SclOr(left, right))
    return tuple(out)


def _classical(e: c.SclExpr, env) -> bool:
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


def test_criterion_8_effectful_atoms():
    double_inc = c.parse_sc('("(n=n+1)" && "(n=n+1)") && "(n==2)"')
    single_inc = c.parse_sc('"(n=n+1)" && "(n==2)"')

    def run(expr, n):
        oracle = c.make_register_oracle({"n": n})
        return c.evaluate_with_oracle(c.desugar(expr), oracle)

    assert run(double_inc, 0) is True and run(single_inc, 0) is False
    assert run(double_inc, 1) is False and run(single_inc, 1) is True

    checked = 0
    envs = [
        {ATOM_A: va, ATOM_B: vb}
        for va, vb in itertools.product((True, False), repeat=2)
    ]
    for conns in range(4):
        for e in _exprs_with(conns):
            term = c.desugar(e)
            for env in envs:
                assert c.evaluate_with_oracle(term, lambda atom: env[atom]) == (
                    _classical(e, env)
                )
                checked += 1
    assert checked == 13_648 * 4
    print(f"stateless agreement checks: {checked}")
    _passed(8, "effectful atoms + stateless agreement")
