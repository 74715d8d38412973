"""Congruence decisions, lattice structure, truth tables, axiom checks."""

from __future__ import annotations

import collections
import dataclasses
import gc
import itertools
import pickle
import random

import pytest

import condalg as c
from helpers import (
    ALL_KINDS,
    ATOM_A,
    PAnd,
    PAtom,
    PFalse,
    PNot,
    POr,
    PTrue,
    SIGMA_AB,
    SIGMA_BA,
    TA,
    TB,
    all_terms_upto,
    basic_forms_ab,
    condition_nested,
    oracle_render_truth_table,
    paper_check_axioms,
    paper_eval_formula,
    paper_static_matches_tautology,
    paper_to_propositional,
    random_terms,
)

T, F = c.TRUE, c.FALSE
STATIC_AB = c.static(SIGMA_AB)


def p(text: str) -> c.Term:
    return c.parse_term(text)


# ---------------------------------------------------------------------------
# kinds
# ---------------------------------------------------------------------------


def test_kind_validation():
    with pytest.raises(ValueError):
        c.CongruenceKind("static")
    with pytest.raises(ValueError):
        c.CongruenceKind("free", SIGMA_AB)
    with pytest.raises(ValueError):
        c.CongruenceKind("almost-free")
    assert str(STATIC_AB) == "static(ab)"
    assert str(c.MEM) == "mem"


# ---------------------------------------------------------------------------
# equivalent / normal_form
# ---------------------------------------------------------------------------


def test_equivalent_examples():
    left, right = p("T <| a |> a"), p("T <| a |> (F <| a |> F)")
    assert c.equivalent(left, right, c.RP)
    assert not c.equivalent(left, right, c.FREE)

    assert c.equivalent(p("F <| a |> F"), F, c.static(c.Sigma.of("a")))
    assert not c.equivalent(p("F <| a |> F"), F, c.MEM)

    assert c.equivalent(p("a <| b |> F"), p("b <| a |> F"), STATIC_AB)


def test_normal_form_examples():
    assert c.normal_form(p("T <| a |> a"), c.RP) == p("T <| a |> (F <| a |> F)")
    assert c.normal_form(T, c.FREE) == T
    # the static normal forms of F <| a |> F and F coincide (as the layered
    # all-F form over sigma, which for sigma = a is F <| a |> F itself)
    sigma_a = c.static(c.Sigma.of("a"))
    nf_cond = c.normal_form(p("F <| a |> F"), sigma_a)
    nf_false = c.normal_form(F, sigma_a)
    assert nf_cond == nf_false == p("F <| a |> F")


def test_transformed_tree_dispatch():
    t = p("a <| (F <| a |> T) |> F")
    assert c.transformed_tree(t, c.FREE) == c.se(t)
    assert c.transformed_tree(t, c.RP) == c.rpse(t)
    assert c.transformed_tree(t, c.CR) == c.cse(t)
    assert c.transformed_tree(t, c.MEM) == c.mse(t)
    assert c.transformed_tree(t, c.static(c.Sigma.of("a"))) == c.sse(
        c.Sigma.of("a"), t
    )


def _keys(pool, kind):
    return [c.render_tree(c.transformed_tree(t, kind)) for t in pool]


def test_dual_realization_small_pool():
    pool = all_terms_upto(2)
    for kind in ALL_KINDS:
        tree_keys = _keys(pool, kind)
        nf_keys = [c.render_term(c.normal_form(t, kind)) for t in pool]
        for i, j in itertools.combinations(range(len(pool)), 2):
            assert (tree_keys[i] == tree_keys[j]) == (nf_keys[i] == nf_keys[j])


def test_equivalent_agrees_with_the_normal_forms():
    # ``equivalent`` decides by identity of two trees built through one
    # table; the normal-form route by the text of two forms.
    pool = all_terms_upto(1) + random_terms(n=40)
    for kind in ALL_KINDS:
        forms = [c.render_term(c.normal_form(t, kind)) for t in pool]
        for i, j in itertools.combinations(range(len(pool)), 2):
            same = forms[i] == forms[j]
            assert c.equivalent(pool[i], pool[j], kind) == same, (pool[i], pool[j], kind)


def test_lattice_inclusion_on_pool():
    pool = all_terms_upto(2) + random_terms()
    ladder = [_keys(pool, kind) for kind in ALL_KINDS[:5]]
    for i, j in itertools.combinations(range(len(pool)), 2):
        for level in range(4):
            if ladder[level][i] == ladder[level][j]:
                assert ladder[level + 1][i] == ladder[level + 1][j]


def test_duality_preserves_free_equivalence():
    pool = all_terms_upto(2) + random_terms()
    plain = _keys(pool, c.FREE)
    dualized = [c.render_tree(c.se(c.dual(t))) for t in pool]
    for i, j in itertools.combinations(range(len(pool)), 2):
        assert (plain[i] == plain[j]) == (dualized[i] == dualized[j])


def test_congruence_respects_contexts():
    contexts = [
        lambda h: c.Cond(h, TB, F),
        lambda h: c.Cond(T, h, TB),
        lambda h: c.Cond(TA, TB, h),
        lambda h: c.Cond(c.Cond(h, TA, F), TB, T),
    ]
    pool = all_terms_upto(1) + random_terms()[:40]
    for kind in ALL_KINDS:
        keys = _keys(pool, kind)
        buckets: dict[str, list[c.Term]] = {}
        for key, t in zip(keys, pool):
            buckets.setdefault(key, []).append(t)
        checked = 0
        for group in buckets.values():
            for left, right in itertools.combinations(group[:4], 2):
                for hole in contexts:
                    assert c.equivalent(hole(left), hole(right), kind)
                checked += 1
        assert checked > 0


def test_class_counts_over_the_enumeration():
    # Independently derived class counts for the 202 basic forms of depth
    # <= 2 over {a, b}.  Each normalizer maps onto (and fixes) its own
    # family, so the class count equals the number of family members at
    # this depth:
    #   free:   trees are injective on basic forms        -> 202
    #   rp:     2 + 2 * (2 + 4 + 2)^2  (child: constant, other-atom
    #           conditional, or duplicated same-atom form) -> 130
    #   cr:     2 + 2 * (2 + 4)^2 (child constant or other-atom) -> 74
    #   mem:    same depth-2 census as cr                  -> 74
    #   static: one class per two-variable boolean function -> 16
    forms = basic_forms_ab(2)
    expected = {"free": 202, "rp": 130, "cr": 74, "mem": 74, "static": 16}
    for kind in (c.FREE, c.RP, c.CR, c.MEM, STATIC_AB):
        tree_classes = {c.render_tree(c.transformed_tree(t, kind)) for t in forms}
        nf_classes = {c.render_term(c.normal_form(t, kind)) for t in forms}
        assert len(tree_classes) == len(nf_classes) == expected[kind.tag]
    # every class member the normalizer produces belongs to the family
    predicates = {
        "rp": c.is_rp_basic_form,
        "cr": c.is_cr_basic_form,
        "mem": c.is_mem_basic_form,
    }
    for tag, predicate in predicates.items():
        kind = {"rp": c.RP, "cr": c.CR, "mem": c.MEM}[tag]
        assert all(predicate(c.normal_form(t, kind)) for t in forms)


def test_normal_form_idempotent_on_random_terms():
    for t in random_terms()[:60]:
        for kind in ALL_KINDS:
            nf = c.normal_form(t, kind)
            assert c.normal_form(nf, kind) == nf
            assert c.equivalent(t, nf, kind)


def test_static_both_branches_and_prefix_laws():
    small = basic_forms_ab(1)
    for t in basic_forms_ab(2):
        for q in small:
            assert c.equivalent(t, c.Cond(t, q, t), STATIC_AB)
        for sigma in (SIGMA_AB, SIGMA_BA):
            prefixed = c.Cond(T, c.e_sigma(sigma), t)
            assert c.equivalent(t, prefixed, c.static(sigma))


# ---------------------------------------------------------------------------
# propositional translation and truth tables
# ---------------------------------------------------------------------------


def test_to_propositional_examples():
    assert paper_to_propositional(TA) == PAtom(ATOM_A)
    assert paper_to_propositional(T) == PTrue()
    assert paper_to_propositional(p("T <| a |> F")) == POr(
        PAnd(PTrue(), PAtom(ATOM_A)),
        PAnd(PNot(PAtom(ATOM_A)), PFalse()),
    )


def test_truth_table_example():
    table = c.truth_table(p("(a <| b |> F) <| a |> T"), SIGMA_AB)
    assert table.rows == (
        ((True, True), True),
        ((True, False), False),
        ((False, True), True),
        ((False, False), True),
    )


def test_truth_table_reversed_sigma():
    table = c.truth_table(p("(a <| b |> F) <| a |> T"), SIGMA_BA)
    assert table.rows == (
        ((True, True), True),
        ((True, False), True),
        ((False, True), False),
        ((False, False), True),
    )


def test_truth_table_constants():
    assert all(value for _, value in c.truth_table(T, SIGMA_AB).rows)
    table = c.truth_table(p("F <| a |> F"), c.Sigma.of("a"))
    assert table.rows == (((True,), False), ((False,), False))


def test_truth_table_matches_row_by_row_evaluation():
    # six atoms, the term's two among four it does not use
    sigma = c.Sigma.of("c", "a", "d", "b", "e", "f")
    order = tuple(itertools.product((True, False), repeat=len(sigma)))
    for t in all_terms_upto(2) + random_terms():
        formula = paper_to_propositional(t)
        rows = c.truth_table(t, sigma).rows
        assert tuple(values for values, _ in rows) == order
        for values, value in rows:
            assert value == paper_eval_formula(formula, dict(zip(sigma.atoms, values)))


def test_truth_table_errors():
    with pytest.raises(c.AlphabetCoverageError):
        c.truth_table(p("T <| z |> F"), SIGMA_AB)
    wide = c.Sigma(tuple(c.Atom(f"a{i}") for i in range(17)))
    message = f"^truth_table would have at least {2**18 - 1} nodes, over the budget of {2**17 - 1}$"
    with pytest.raises(c.NodeBudgetError, match=message):
        c.truth_table(T, wide)


def test_render_truth_table_text():
    table = c.truth_table(p("(a <| b |> F) <| a |> T"), SIGMA_AB)
    rendered = c.render_truth_table(table, title="(a <| b |> F) <| a |> T")
    assert rendered.splitlines() == [
        "a b | (a <| b |> F) <| a |> T",
        "T T | T",
        "T F | F",
        "F T | T",
        "F F | T",
    ]


def test_truth_table_empty_sigma():
    table = c.truth_table(T, c.SIGMA_EMPTY)
    assert table.rows == (((), True),)


def test_render_truth_table_aligns_wide_atom_names():
    sigma = c.Sigma.of("speed", "up")
    term = c.Cond(c.AtomTerm(c.Atom("speed")), c.AtomTerm(c.Atom("up")), F)
    rendered = c.render_truth_table(c.truth_table(term, sigma))
    lines = rendered.splitlines()
    assert lines[0] == "speed up | value"
    assert lines[1] == "T     T  | T"
    assert lines[-1] == "F     F  | F"


def test_render_truth_table_json():
    table = c.truth_table(p("F <| a |> F"), c.Sigma.of("a"))
    assert (
        c.render_truth_table(table, "json")
        == '{"sigma":["a"],"rows":[{"assignment":[true],"value":false},'
        '{"assignment":[false],"value":false}]}'
    )


def _wide_order_terms(n: int) -> tuple[c.Sigma, list[c.Term]]:
    # An order of n atoms whose names differ in width, and terms over it:
    # a right-nested chain, a left-nested one and seeded random ones.
    names = ("a", "speed", "up", "b2", "x", "long_name", "c")[:n]
    sigma = c.Sigma.of(*names)
    atoms = [c.AtomTerm(a) for a in sigma]
    right = left = atoms[-1]
    for x in reversed(atoms[:-1]):
        right = c.Cond(x, right, F)
        left = c.Cond(T, left, x)
    rng = random.Random(n)
    terms = [right, left]
    for _ in range(4):
        t = rng.choice(atoms)
        for _ in range(6):
            t = c.Cond(rng.choice(atoms + [T, F]), t, rng.choice(atoms + [T, F, t]))
        terms.append(t)
    return sigma, terms


def test_render_truth_table_pads_each_cell_as_the_oracle_does():
    cases = [(sigma, t) for sigma in (SIGMA_AB, SIGMA_BA) for t in all_terms_upto(2)]
    for n in range(4, 8):
        sigma, terms = _wide_order_terms(n)
        cases += [(sigma, t) for t in terms]
    for sigma, t in cases:
        table = c.truth_table(t, sigma)
        title = c.render_term(t)
        for fmt in ("text", "json"):
            assert c.render_truth_table(table, fmt, title=title) == oracle_render_truth_table(
                table, fmt, title=title
            )
        assert c.render_truth_table(table) == oracle_render_truth_table(table)


def test_static_matches_tautology_examples():
    assert paper_static_matches_tautology(p("F <| a |> F"), F, c.Sigma.of("a"))
    assert paper_static_matches_tautology(TA, TB, SIGMA_AB)
    for left, right in itertools.combinations(basic_forms_ab(1), 2):
        assert paper_static_matches_tautology(left, right, SIGMA_AB)


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------

POOL = (T, F, TA, TB, p("T <| a |> F"), p("F <| b |> T"))


def test_check_axioms_cp_under_free_all_hold():
    reports = c.check_axioms("CP", POOL, c.FREE)
    assert reports and all(r.holds for r in reports)
    assert {r.axiom_name for r in reports} == {"CP1", "CP2", "CP3", "CP4"}


def test_check_axioms_cprp_under_free_fails():
    reports = c.check_axioms("CPrp", POOL, c.FREE)
    failing = [r for r in reports if not r.holds]
    assert failing
    witness = {"a": TA, "x": T, "y": F, "z": F}
    assert any(
        r.axiom_name == "CPrp1" and r.substitution_map() == witness
        for r in failing
    )


def test_check_axioms_cpst_under_static_all_hold():
    reports = c.check_axioms("CPst", POOL, STATIC_AB)
    assert reports and all(r.holds for r in reports)


def test_check_axioms_validation_and_budget():
    with pytest.raises(ValueError):
        c.check_axioms("CP", (), c.FREE)
    with pytest.raises(ValueError):
        c.check_axioms("XYZ", POOL, c.FREE)
    with pytest.raises(c.InstanceBudgetError) as err:
        c.check_axioms("CP", POOL, c.FREE, instance_budget=10)
    assert "CP1" in str(err.value)


def test_no_law_template_repeats_a_step():
    # Both sides of a law share one step per graft: CP4's sides need
    # three, where compiling each side alone gives six.
    for name, scheme in c.AXIOMS.items():
        steps = [step[1:] for stage in scheme.template[0] for step in stage]
        assert len(set(steps)) == len(steps), name
    assert sum(map(len, c.AXIOMS["CP4"].template[0])) == 3


def test_law_steps_are_staged_at_the_last_level_they_read():
    # Slot 3 holds the atom (level 0), slot 4 + i the i-th variable
    # (level i + 1), T, F and e_sigma are level 0, and a step's slot takes
    # the highest level it reads: each step runs once per value of the
    # levels up to its own, and reads nothing a later level changes.
    for name, scheme in c.AXIOMS.items():
        stages = scheme.template[0]
        assert len(stages) == 1 + scheme.arity(), name
        level = {s: max(s - 3, 0) for s in range(4 + scheme.arity())}
        for depth, stage in enumerate(stages):
            for s, *reads in stage:
                assert s not in level, name
                level[s] = max(level[r] for r in reads)
                assert level[s] == depth, (name, s)
        assert sorted(level) == list(range(len(level))), name


def test_check_axioms_instance_counts():
    reports = c.check_axioms("CP", POOL, c.FREE)
    by_name: dict[str, int] = {}
    for r in reports:
        by_name[r.axiom_name] = by_name.get(r.axiom_name, 0) + 1
    assert by_name == {
        "CP1": 36,
        "CP2": 36,
        "CP3": 6,
        "CP4": 6**5,
    }


# Shares ``T <| a |> F`` inside one term and with another, lists one
# object twice, and holds an equal but distinct copy of it.
_SHARED = p("T <| a |> F")
STORE_POOL = (
    _SHARED,
    c.Cond(_SHARED, TB, c.Cond(_SHARED, TA, F)),
    _SHARED,
    p("T <| a |> F"),
)

# Laws checked one level below their own congruence, where some fail.
UNSOUND = {("CPrp", "free"), ("CPcr", "rp"), ("CPmem", "cr"), ("CPs", "mem")}


def _report_key(r: c.AxiomInstanceReport):
    # A pool variable's value by identity; the atom of an atom scheme is
    # built afresh for each call.
    values = tuple((n, v if n == "a" else id(v)) for n, v in r.substitution)
    return r.axiom_name, values, r.holds


@pytest.mark.parametrize("system", list(c.SYSTEMS))
def test_check_axioms_agrees_with_one_equivalent_call_per_instance(system):
    # Consecutive calls on one pool, under every kind and then under the
    # first again: no call may see another's trees.
    for kind in ALL_KINDS:
        got = list(map(_report_key, c.check_axioms(system, STORE_POOL, kind)))
        assert got == list(map(_report_key, paper_check_axioms(system, STORE_POOL, kind)))
        if (system, kind.tag) in UNSOUND:
            assert not all(holds for *_, holds in got)
        if kind is ALL_KINDS[0]:
            first = got
    assert list(map(_report_key, c.check_axioms(system, STORE_POOL, ALL_KINDS[0]))) == first


def test_check_axioms_frees_its_store_on_return():
    # The store's tables go when the call returns, not at the next
    # garbage collection: the call leaves no reference cycle behind.
    gc.collect()
    gc.disable()
    try:
        for kind in ALL_KINDS:
            c.check_axioms("CP", POOL, kind)
            assert gc.collect() == 0, kind
    finally:
        gc.enable()


def test_check_axioms_builds_no_law_term(monkeypatch):
    # Each law is compiled once per process into graft steps; an instance
    # only grafts the pool terms' trees, so no call builds a law's terms.
    def refuse(scheme, *values):
        raise AssertionError(f"check_axioms built {scheme.name}")

    monkeypatch.setattr(c.AxiomScheme, "build", refuse)
    for system, laws in c.SYSTEMS.items():
        for kind in ALL_KINDS:
            reports = c.check_axioms(system, (T, TA), kind)
            assert all(sum(r.axiom_name == law for r in reports) > 1 for law in laws)


def test_check_axioms_builds_each_node_once_and_decides_by_identity(monkeypatch):
    # Every tree of a call, transformed or not, is built through its one
    # unique table, so no two nodes share (atom name, left, right), and
    # an instance holds iff its two trees are one object: no two trees are
    # compared with ``==``.  ``equivalent`` builds its two trees through
    # one table and decides alike.
    def refuse(x, y):
        raise AssertionError("two trees compared with == or !=")

    monkeypatch.setattr(c.Node, "__eq__", refuse)
    monkeypatch.setattr(c.Node, "__ne__", refuse)
    built: list[tuple[c.Node, tuple[str, int, int]]] = []
    init = c.Node.__init__

    def recorded(self, atom, left, right):
        init(self, atom, left, right)
        # Holding the node keeps its children, so their ids stay theirs.
        built.append((self, (atom.name, id(left), id(right))))

    monkeypatch.setattr(c.Node, "__init__", recorded)
    for kind in (c.FREE, c.RP, c.CR, c.MEM, STATIC_AB):
        for system in c.SYSTEMS:
            built.clear()
            c.check_axioms(system, GOLDEN_POOL, kind)
            keys = [key for _, key in built]
            assert len(set(keys)) == len(keys), (system, kind)
        for x, y in itertools.product(GOLDEN_POOL + (condition_nested(3),), repeat=2):
            built.clear()
            c.equivalent(x, y, kind)
            keys = [key for _, key in built]
            assert len(set(keys)) == len(keys), (x, y, kind)


def test_axiom_instance_reports_stay_frozen_values():
    report = c.AxiomInstanceReport("CP1", (("x", TA), ("y", F)), True)
    twin = c.AxiomInstanceReport("CP1", (("x", p("a")), ("y", F)), True)
    assert report == twin and hash(report) == hash(twin)
    assert report != c.AxiomInstanceReport("CP1", (("x", TA), ("y", F)), False)
    assert repr(report) == (
        "AxiomInstanceReport(axiom_name='CP1', substitution=(('x', a), ('y', F)), holds=True)"
    )
    assert report.substitution_map() == {"x": TA, "y": F}
    for name in ("axiom_name", "substitution", "holds", "other"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(report, name, None)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(report, protocol))
        assert copy == report and copy.holds is True, protocol


def _tk(k: int) -> c.Term:
    # t_0 = a and t_{k+1} = t_k <| t_k |> t_k: k + 1 objects, 3^k atoms
    # as a tree.
    t = TA
    for _ in range(k):
        t = c.Cond(t, t, t)
    return t


def test_check_axioms_builds_a_shared_pool_term_in_its_objects(monkeypatch):
    # A pool term's tree is grafted from the term's objects, each with a
    # given pair of continuations once, not from its tree counted as a
    # tree: the nodes built grow about 4x per two steps of k, where the
    # tree counted as a tree grows 9x.
    built = [0]
    init = c.Node.__init__

    def counted(self, *args):
        built[0] += 1
        init(self, *args)

    monkeypatch.setattr(c.Node, "__init__", counted)
    counts = []
    for k in (6, 8, 10, 12):
        built[0] = 0
        reports = c.check_axioms("CP", [_tk(k), T], c.FREE)
        counts.append(built[0])
        assert all(r.holds for r in reports), k
    assert all(later <= 4.5 * earlier for earlier, later in zip(counts, counts[1:])), counts


# Failing instances per (system, kind, law) on GOLDEN_POOL under the
# free, rp, cr, mem and static(ab) congruences; every (system, kind) not
# listed has none, as each system's laws hold under its own congruence
# and every coarser one.  Recorded when each law was a hand-written
# Python function: paper_check_axioms reads the same law text as
# check_axioms, so only these counts catch a law whose text changes its
# meaning.
GOLDEN_POOL = (T, F, TA, p("T <| a |> F"), p("F <| b |> T"))
GOLDEN_FAILING = {
    ("CPrp", "free"): {"CPrp1": 180, "CPrp2": 180},
    ("CPcr", "free"): {"CPcr1": 250, "CPcr2": 250},
    ("CPcr", "rp"): {"CPcr1": 250, "CPcr2": 250},
    ("CPmem", "free"): {"CPmem": 7500, "CPm1": 7500, "CPm2": 7500, "CPm3": 7500, "contr1": 375, "contr2": 375},
    ("CPmem", "rp"): {"CPmem": 7500, "CPm1": 4375, "CPm2": 4375, "CPm3": 7500, "contr1": 375, "contr2": 375},
    ("CPmem", "cr"): {"CPmem": 2100, "CPm1": 2100, "CPm2": 2100, "CPm3": 2100},
    ("CPs", "free"): {"CPs": 3, "swap": 10, "both-branches": 15, "static-prefix": 5},
    ("CPs", "rp"): {"CPs": 3, "swap": 10, "both-branches": 15, "static-prefix": 5},
    ("CPs", "cr"): {"CPs": 3, "swap": 10, "both-branches": 10, "static-prefix": 5},
    ("CPs", "mem"): {"CPs": 3, "swap": 10, "both-branches": 10, "static-prefix": 5},
    ("CPst", "free"): {"CPstat": 1500, "contr2": 375},
    ("CPst", "rp"): {"CPstat": 1500, "contr2": 375},
    ("CPst", "cr"): {"CPstat": 750},
    ("CPst", "mem"): {"CPstat": 750},
}


def test_check_axioms_failure_counts_per_law():
    for system in c.SYSTEMS:
        for kind in (c.FREE, c.RP, c.CR, c.MEM, STATIC_AB):
            reports = c.check_axioms(system, GOLDEN_POOL, kind)
            failing = collections.Counter(r.axiom_name for r in reports if not r.holds)
            assert failing == GOLDEN_FAILING.get((system, kind.tag), {}), (system, kind)


def test_check_axioms_checks_a_static_order_against_the_pool():
    for system in ("CP", "CPs"):
        with pytest.raises(c.AlphabetCoverageError):
            c.check_axioms(system, (TA, TB), c.static(c.Sigma((ATOM_A,))))


# ---------------------------------------------------------------------------
# separation witnesses
# ---------------------------------------------------------------------------


def test_separation_witnesses_cover_the_lattice():
    witnesses = c.separation_witnesses()
    assert len(witnesses) == 4
    steps = [(finer.tag, coarser.tag) for _, _, finer, coarser in witnesses]
    assert steps == [("free", "rp"), ("rp", "cr"), ("cr", "mem"), ("mem", "static")]
    for left, right, finer, coarser in witnesses:
        assert not c.equivalent(left, right, finer)
        assert c.equivalent(left, right, coarser)
        # the syntactic route agrees with both verdicts
        assert c.normal_form(left, finer) != c.normal_form(right, finer)
        assert c.normal_form(left, coarser) == c.normal_form(right, coarser)


def test_classic_witness_pairs_are_built_in():
    witnesses = c.separation_witnesses()
    assert witnesses[0][0] == p("T <| a |> a")
    assert witnesses[0][1] == p("T <| a |> (F <| a |> F)")
    assert witnesses[3][0] == p("F <| a |> F")
    assert witnesses[3][1] == F
