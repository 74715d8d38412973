"""Term language: parsing, printing, duality, predicates, enumeration."""

from __future__ import annotations

import itertools
import time

import pytest
from hypothesis import given, strategies as st

import condalg as c
from helpers import AB, ATOM_A, ATOM_B, TA, TB, all_terms_upto, basic_forms_ab, condition_nested

T, F = c.TRUE, c.FALSE


def p(text: str) -> c.Term:
    return c.parse_term(text)


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------


def test_parse_constants_and_atoms():
    assert p("T") == T
    assert p("F") == F
    assert p("a") == TA
    assert p("abc_9") == c.atom("abc_9")
    assert p('"(n=n+1)"') == c.atom("(n=n+1)")


def test_parse_example_conditional():
    assert p("a <| (F <| a |> T) |> F") == c.Cond(TA, c.Cond(F, TA, T), F)


def test_parse_top_level_needs_no_parens():
    assert p("T <| a |> F") == c.Cond(T, TA, F)
    assert p("(T <| a |> F) <| b |> F") == c.Cond(c.Cond(T, TA, F), TB, F)


def test_parse_whitespace_insignificant():
    assert p("  a<|(F<|a|>T)|>F ") == p("a <| (F <| a |> T) |> F")


def test_quoted_and_bare_atoms_are_equal():
    assert p('"a"') == p("a")


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "   ",
        "T <| a",
        "T <| a |>",
        "(a)",
        "a <| b |> c d",
        "T <| a |> F <| b |> F",
        '"unterminated',
        '""',
        "A",
        "a <| |> b",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(c.TermSyntaxError):
        p(bad)


def test_parse_a_5000_deep_term():
    text = "a <| a |> (" * 5_000 + "a <| a |> a" + ")" * 5_000
    t = c.parse_term(text)
    assert c.depth(t) == 5_001
    assert c.render_term(t) == text
    # With "(a)" innermost, the same depth is a syntax error at its ")".
    with pytest.raises(c.TermSyntaxError) as err:
        c.parse_term("a <| a |> (" * 5_000 + "a" + ")" * 5_000)
    assert err.value.position == 11 * 5_000 + 1


def test_parse_error_carries_position():
    with pytest.raises(c.TermSyntaxError) as err:
        p("a <| ? |> b")
    assert err.value.position == 5


def test_render_examples():
    assert c.render_term(T) == "T"
    assert c.render_term(c.Cond(TA, c.Cond(F, TA, T), F)) == "a <| (F <| a |> T) |> F"
    assert c.render_term(c.Cond(c.Cond(T, TA, F), TB, F)) == "(T <| a |> F) <| b |> F"


def test_render_quotes_non_identifier_atoms():
    assert c.render_term(c.atom("(n=n+1)")) == '"(n=n+1)"'
    assert p(c.render_term(c.atom("(n=n+1)"))) == c.atom("(n=n+1)")


def test_round_trip_exhaustive():
    for t in all_terms_upto(3):
        assert p(c.render_term(t)) == t


def test_render_parse_render_is_render():
    for t in all_terms_upto(2):
        text = c.render_term(t)
        assert c.render_term(p(text)) == text


_atoms_st = st.sampled_from(
    [c.Atom("a"), c.Atom("b"), c.Atom("zz_9"), c.Atom("(n = n+1)"), c.Atom("x y")]
)
_terms_st = st.recursive(
    st.sampled_from([T, F]) | _atoms_st.map(c.AtomTerm),
    lambda sub: st.builds(c.Cond, sub, sub, sub),
    max_leaves=30,
)


@given(_terms_st)
def test_round_trip_random(t):
    assert p(c.render_term(t)) == t


# ---------------------------------------------------------------------------
# Atoms and sigma
# ---------------------------------------------------------------------------


def test_atom_validation():
    with pytest.raises(ValueError):
        c.Atom("")
    with pytest.raises(ValueError):
        c.Atom('has"quote')


def test_sigma_rejects_duplicates():
    with pytest.raises(c.DuplicateAtomError):
        c.Sigma((ATOM_A, ATOM_B, ATOM_A))
    assert len(c.SIGMA_EMPTY) == 0
    assert list(c.Sigma.of("a", "b")) == [ATOM_A, ATOM_B]


# ---------------------------------------------------------------------------
# Duality, alphabet, depth
# ---------------------------------------------------------------------------


def test_dual_examples():
    assert c.dual(T) == F
    assert c.dual(c.Cond(T, TA, F)) == c.Cond(T, TA, F)


def test_dual_swaps_branches():
    assert c.dual(c.Cond(TA, TB, F)) == c.Cond(T, TB, TA)


def test_dual_is_involution():
    for t in all_terms_upto(3):
        assert c.dual(c.dual(t)) == t


def test_alphabet_examples():
    assert c.alphabet(T) == frozenset()
    assert c.alphabet(c.Cond(TA, c.Cond(F, TA, T), F)) == frozenset({ATOM_A})
    assert c.alphabet(c.Cond(c.Cond(TA, TB, F), TA, T)) == frozenset({ATOM_A, ATOM_B})


def test_depth_examples():
    assert c.depth(T) == 0
    assert c.depth(c.Cond(T, TA, F)) == 1
    assert c.depth(c.Cond(c.Cond(T, TA, F), TB, F)) == 2


def test_depth_counts_condition_position():
    assert c.depth(c.Cond(T, c.Cond(T, TA, F), F)) == 2


def test_term_size_counts_shared_subterms_per_occurrence():
    shared = c.Cond(T, TA, F)
    assert c.term_size(shared) == 4
    t = c.Cond(shared, TB, shared)
    assert c.term_size(t) == 1 + 4 + 1 + 4  # two occurrences of the 4-node child


# ---------------------------------------------------------------------------
# Basic-form predicates
# ---------------------------------------------------------------------------


def test_is_basic_form_examples():
    assert c.is_basic_form(c.Cond(F, TA, c.Cond(T, TA, F)))
    assert not c.is_basic_form(c.Cond(TA, c.Cond(F, TA, T), F))
    assert c.is_basic_form(F)
    assert not c.is_basic_form(TA)


def test_is_basic_form_walks_shared_and_deep_terms():
    t = condition_nested(6)
    start = time.perf_counter()
    assert c.mf(c.bf(t, node_budget=10**30)) == c.Cond(T, TA, F)
    assert time.perf_counter() - start < 1.0
    chain = F
    for _ in range(5_000):
        chain = c.Cond(T, TA, chain)
    assert c.is_basic_form(chain)
    assert not c.is_basic_form(c.Cond(chain, TA, TB))


def test_alphabet_visits_each_shared_conditional_once():
    # tree_to_term(se(t_6)) has about 2^65 nodes counted as a tree, but a
    # few hundred objects; truth_table checks its alphabet first.
    t = c.tree_to_term(c.se(condition_nested(6)))
    start = time.perf_counter()
    assert c.alphabet(t) == {ATOM_A}
    assert c.truth_table(t, c.Sigma.of("a")).rows == (((True,), True), ((False,), False))
    assert c.alphabet(condition_nested(60, c.Cond(TB, TA, F))) == {ATOM_A, ATOM_B}
    assert time.perf_counter() - start < 1.0


def test_is_rp_basic_form_examples():
    assert c.is_rp_basic_form(c.Cond(F, TA, c.Cond(F, TA, F)))
    assert not c.is_rp_basic_form(c.Cond(F, TA, c.Cond(T, TA, F)))
    assert c.is_rp_basic_form(T)


def test_is_cr_basic_form_examples():
    assert c.is_cr_basic_form(c.Cond(T, TA, F))
    assert not c.is_cr_basic_form(c.Cond(c.Cond(T, TA, F), TA, F))
    assert c.is_cr_basic_form(c.Cond(c.Cond(T, TB, F), TA, F))


def test_is_mem_basic_form_examples():
    assert c.is_mem_basic_form(c.Cond(c.Cond(T, TB, F), TA, F))
    # a single occurrence of a below b is fine
    assert c.is_mem_basic_form(c.Cond(c.Cond(T, TA, F), TB, F))
    assert not c.is_mem_basic_form(c.Cond(c.Cond(T, TA, F), TA, T))
    assert c.is_mem_basic_form(F)


def test_is_st_basic_form_examples():
    sigma_ab = c.Sigma.of("a", "b")
    for bits in itertools.product((T, F), repeat=4):
        t = c.Cond(c.Cond(bits[0], TA, bits[1]), TB, c.Cond(bits[2], TA, bits[3]))
        assert c.is_st_basic_form(t, sigma_ab)
    assert c.is_st_basic_form(T, c.SIGMA_EMPTY)
    assert not c.is_st_basic_form(c.Cond(T, TA, F), sigma_ab)  # root must be b
    assert not c.is_st_basic_form(T, c.Sigma.of("a"))


def _mem_basic_over(t: c.Term, allowed: frozenset) -> bool:
    # The inductive definition, literally: a conditional is mem-basic over
    # a set when its atom belongs to the set and both children are
    # mem-basic over the set minus that atom.
    if isinstance(t, (c.TrueConst, c.FalseConst)):
        return True
    if not isinstance(t, c.Cond) or not isinstance(t.condition, c.AtomTerm):
        return False
    a = t.condition.atom
    if a not in allowed:
        return False
    rest = allowed - {a}
    return _mem_basic_over(t.true_branch, rest) and _mem_basic_over(t.false_branch, rest)


def _mem_basic_brute(t: c.Term) -> bool:
    atoms = tuple(c.alphabet(t))
    for r in range(len(atoms) + 1):
        for subset in itertools.combinations(atoms, r):
            if _mem_basic_over(t, frozenset(subset)):
                return True
    return False


def test_is_mem_basic_form_matches_witness_search():
    for t in basic_forms_ab(2):
        assert c.is_mem_basic_form(t) == _mem_basic_brute(t)


def test_predicate_inclusion_chain():
    sigmas = [c.SIGMA_EMPTY, c.Sigma.of("a"), c.Sigma.of("b"),
              c.Sigma.of("a", "b"), c.Sigma.of("b", "a")]
    for t in basic_forms_ab(2):
        if c.is_rp_basic_form(t):
            assert c.is_basic_form(t)
        if c.is_cr_basic_form(t):
            assert c.is_rp_basic_form(t)
        if c.is_mem_basic_form(t):
            assert c.is_cr_basic_form(t)
        for sigma in sigmas:
            if c.is_st_basic_form(t, sigma):
                assert c.is_mem_basic_form(t)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def test_enumerate_empty_alphabet():
    # lexicographic on the rendering puts "F" before "T"
    assert c.enumerate_basic_forms((), 0) == [F, T]


def test_enumerate_single_atom_depth_one():
    forms = c.enumerate_basic_forms((ATOM_A,), 1)
    assert len(forms) == 6
    expected = {T, F} | {c.Cond(x, TA, y) for x in (T, F) for y in (T, F)}
    assert set(forms) == expected


def _count_oracle(n_atoms: int, max_depth: int) -> int:
    # independent of the generator: |forms(d)| = 2 + |A| * |forms(d-1)|^2
    n = 2
    for _ in range(max_depth):
        n = 2 + n_atoms * n * n
    return n


def test_enumerate_ab_depth_two_count():
    forms = basic_forms_ab(2)
    assert len(forms) == _count_oracle(2, 2) == 202


def test_enumerate_output_is_valid_and_duplicate_free():
    forms = basic_forms_ab(2)
    renderings = [c.render_term(t) for t in forms]
    assert len(set(renderings)) == len(forms)
    for t in forms:
        assert c.is_basic_form(t)
        assert c.depth(t) <= 2
        assert c.alphabet(t) <= frozenset(AB)


def test_enumerate_is_complete_and_ordered():
    forms = basic_forms_ab(2)
    # every basic form of depth <= 2 over {a, b} appears: cross-check by
    # generating them a second way, as conditionals over the depth-<=1 layer
    layer1 = set(c.enumerate_basic_forms(AB, 1))
    regenerated = {T, F} | {
        c.Cond(x, c.AtomTerm(a), y)
        for a in AB
        for x in layer1
        for y in layer1
    }
    assert set(forms) == regenerated
    keys = [(c.depth(t), c.render_term(t)) for t in forms]
    assert keys == sorted(keys)


def test_enumerate_rejects_duplicate_alphabet():
    with pytest.raises(c.DuplicateAtomError):
        c.enumerate_basic_forms((ATOM_A, ATOM_A), 1)
