"""Shared pools and oracles for the test suite.

Pools are cached at module level; everything here is deterministic
(fixed seeds, fixed orders) so failures reproduce exactly.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Union

import condalg as c
from condalg.evaltrees import tree_children
from condalg.terms import _TERM_TOKENS, TokenCursor, fold, term_children

ATOM_A = c.Atom("a")
ATOM_B = c.Atom("b")
AB = (ATOM_A, ATOM_B)
TA = c.AtomTerm(ATOM_A)
TB = c.AtomTerm(ATOM_B)

SIGMA_A = c.Sigma((ATOM_A,))
SIGMA_B = c.Sigma((ATOM_B,))
SIGMA_AB = c.Sigma(AB)
SIGMA_BA = c.Sigma((ATOM_B, ATOM_A))


@lru_cache(maxsize=None)
def basic_forms_ab(max_depth: int) -> tuple[c.Term, ...]:
    return tuple(c.enumerate_basic_forms(AB, max_depth))


@lru_cache(maxsize=None)
def terms_with_conds(count: int) -> tuple[c.Term, ...]:
    """All terms over {T, F, a, b} with exactly ``count`` conditionals."""
    if count == 0:
        return (c.TRUE, c.FALSE, TA, TB)
    out: list[c.Term] = []
    for i in range(count):
        for j in range(count - i):
            k = count - 1 - i - j
            for p in terms_with_conds(i):
                for q in terms_with_conds(j):
                    for r in terms_with_conds(k):
                        out.append(c.Cond(p, q, r))
    return tuple(out)


@lru_cache(maxsize=None)
def all_terms_upto(conds: int) -> tuple[c.Term, ...]:
    """All terms over {T, F, a, b} with at most ``conds`` conditionals."""
    out: list[c.Term] = []
    for k in range(conds + 1):
        out.extend(terms_with_conds(k))
    return tuple(out)


def _random_term(rng: random.Random, conds: int) -> c.Term:
    if conds == 0:
        return rng.choice((c.TRUE, c.FALSE, TA, TB))
    i = rng.randint(0, conds - 1)
    j = rng.randint(0, conds - 1 - i)
    k = conds - 1 - i - j
    return c.Cond(
        _random_term(rng, i), _random_term(rng, j), _random_term(rng, k)
    )


@lru_cache(maxsize=None)
def random_terms(n: int = 200, max_conds: int = 6, seed: int = 20250808) -> tuple[c.Term, ...]:
    """Seeded random terms over {a, b} with <= max_conds conditionals."""
    rng = random.Random(seed)
    return tuple(_random_term(rng, rng.randint(1, max_conds)) for _ in range(n))


@lru_cache(maxsize=None)
def tree_pool(max_depth: int) -> tuple[c.EvalTree, ...]:
    """All evaluation trees over {a, b} with depth <= max_depth."""
    layer: tuple[c.EvalTree, ...] = (c.LEAF_T, c.LEAF_F)
    for _ in range(max_depth):
        grown: list[c.EvalTree] = [c.LEAF_T, c.LEAF_F]
        for a in AB:
            for left in layer:
                for right in layer:
                    grown.append(c.Node(a, left, right))
        layer = tuple(grown)
    return layer


@lru_cache(maxsize=None)
def deep_tree_pool() -> tuple[c.EvalTree, ...]:
    """All depth-<=2 trees plus a deterministic batch of depth-3 trees."""
    base = tree_pool(2)
    depth2 = [t for t in base if isinstance(t, c.Node)][:6]
    extras = [
        c.Node(a, left, right)
        for a in AB
        for left, right in itertools.product(depth2[:3], depth2[3:6])
    ]
    return base + tuple(extras)


class ScriptedOracle:
    """Replays a fixed list of answers, checking the queried atoms."""

    def __init__(self, path: tuple[tuple[c.Atom, bool], ...]):
        self.expected = list(path)
        self.i = 0

    def __call__(self, atom: c.Atom) -> bool:
        assert self.i < len(self.expected), "more queries than scripted"
        expected_atom, value = self.expected[self.i]
        assert atom == expected_atom, f"queried {atom}, script says {expected_atom}"
        self.i += 1
        return value

    def exhausted(self) -> bool:
        return self.i == len(self.expected)


class RepeatStableOracle:
    """Answers from a pseudo-random stream, except that an immediately
    repeated query of the same atom repeats the previous answer."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.last: tuple[c.Atom, bool] | None = None

    def __call__(self, atom: c.Atom) -> bool:
        if self.last is not None and self.last[0] == atom:
            return self.last[1]
        value = self.rng.random() < 0.5
        self.last = (atom, value)
        return value


def paper_leaf_replace(x: c.EvalTree, for_true: c.EvalTree, for_false: c.EvalTree) -> c.EvalTree:
    """Replace every true leaf of ``x`` with ``for_true`` and every false
    leaf with ``for_false``.  Replacement subtrees are shared, not copied."""
    if isinstance(x, c.Leaf):
        return for_true if x.value else for_false
    return c.Node(
        x.atom,
        paper_leaf_replace(x.left, for_true, for_false),
        paper_leaf_replace(x.right, for_true, for_false),
    )


def paper_se(t: c.Term) -> c.EvalTree:
    """``se`` as the paper defines it: the condition's tree with its leaves
    replaced by the branches' trees."""
    if isinstance(t, c.TrueConst):
        return c.LEAF_T
    if isinstance(t, c.FalseConst):
        return c.LEAF_F
    if isinstance(t, c.AtomTerm):
        return c.Node(t.atom, c.LEAF_T, c.LEAF_F)
    return paper_leaf_replace(
        paper_se(t.condition), paper_se(t.true_branch), paper_se(t.false_branch)
    )


def paper_walk(x: c.EvalTree, aux) -> c.EvalTree:
    """The paper's tree transform: each branch rewritten by the one-sided
    helper ``aux(side, atom, branch)`` for its node's atom, then
    transformed in turn.  Walks a shared tree as a tree."""
    if isinstance(x, c.Leaf):
        return x
    left = paper_walk(aux(True, x.atom, x.left), aux)
    right = paper_walk(aux(False, x.atom, x.right), aux)
    if left is x.left and right is x.right:
        return x
    return c.Node(x.atom, left, right)


def paper_reduce(p: c.Term, aux) -> c.Term:
    """The paper's normalizer over basic forms: each branch rewritten by
    ``aux(side, central atom, branch)``, then reduced in turn."""
    if not isinstance(p, c.Cond):
        return p
    a = p.condition.atom
    left = paper_reduce(aux(True, a, p.true_branch), aux)
    right = paper_reduce(aux(False, a, p.false_branch), aux)
    if left is p.true_branch and right is p.false_branch:
        return p
    return c.Cond(left, p.condition, right)


def paper_rp_tree_aux(side: bool, a: c.Atom, x: c.EvalTree) -> c.EvalTree:
    """The one-sided helper of ``rp``, as the paper defines it: duplicates
    the surviving branch when the root repeats ``a``; leaves and other
    roots pass through."""
    if isinstance(x, c.Node) and x.atom == a:
        sub = paper_rp_tree_aux(side, a, x.left if side else x.right)
        return c.Node(a, sub, sub)
    return x


def paper_cr_tree_aux(side: bool, a: c.Atom, x: c.EvalTree) -> c.EvalTree:
    """The one-sided helper of ``cr``, as the paper defines it: strips
    repeated root queries of ``a``."""
    if isinstance(x, c.Node) and x.atom == a:
        return paper_cr_tree_aux(side, a, x.left if side else x.right)
    return x


def paper_rp_aux(side: bool, a: c.Atom, p: c.Term) -> c.Term:
    """The one-sided helper of the repetition-proof normalizer, as the
    paper defines it: rewrites a basic form whose central atom repeats
    ``a`` into the duplicated shape; anything else is returned unchanged."""
    if isinstance(p, c.Cond) and p.condition.atom == a:
        sub = paper_rp_aux(side, a, p.true_branch if side else p.false_branch)
        return c.Cond(sub, p.condition, sub)
    return p


def paper_cr_aux(side: bool, a: c.Atom, p: c.Term) -> c.Term:
    """The one-sided helper of the contractive normalizer, as the paper
    defines it: strips repeated central occurrences of ``a`` off a basic
    form."""
    if isinstance(p, c.Cond) and p.condition.atom == a:
        return paper_cr_aux(side, a, p.true_branch if side else p.false_branch)
    return p


def paper_mem_tree_aux(side: bool, a: c.Atom, x: c.EvalTree) -> c.EvalTree:
    """One-sided helper of ``mem``: resolves every later query of ``a`` to
    the remembered answer, in time linear in the objects of ``x``."""

    def step(x: c.EvalTree, kids: list[c.EvalTree]) -> c.EvalTree:
        if not kids:
            return x
        left, right = kids
        if x.atom == a:
            return left if side else right
        return x if left is x.left and right is x.right else c.Node(x.atom, left, right)

    return fold(x, tree_children, step)


def paper_mem_aux(side: bool, a: c.Atom, p: c.Term) -> c.Term:
    """The one-sided helper of the memorizing normalizer: resolves every
    occurrence of ``a`` in a basic form to the chosen side.  A fold, so
    each object of ``p`` is resolved once and its answer reused wherever
    it is shared: linear in the objects, not the tree."""

    def step(p: c.Term, kids: list[c.Term]) -> c.Term:
        if not kids:
            return p
        left, _, right = kids
        if p.condition.atom == a:
            return left if side else right
        if left is p.true_branch and right is p.false_branch:
            return p
        return c.Cond(left, p.condition, right)

    return fold(p, term_children, step)


def paper_rp(x: c.EvalTree) -> c.EvalTree:
    """``rp`` as the paper defines it."""
    return paper_walk(x, paper_rp_tree_aux)


def paper_cr(x: c.EvalTree) -> c.EvalTree:
    """``cr`` as the paper defines it."""
    return paper_walk(x, paper_cr_tree_aux)


def paper_mem(x: c.EvalTree) -> c.EvalTree:
    """``mem`` as the paper defines it: each branch resolved against its
    node's answer by ``paper_mem_tree_aux``, then transformed in turn."""
    return paper_walk(x, paper_mem_tree_aux)


def paper_rpf(p: c.Term) -> c.Term:
    """``rpf`` as the paper defines it, over basic forms."""
    return paper_reduce(p, paper_rp_aux)


def paper_cf(p: c.Term) -> c.Term:
    """``cf`` as the paper defines it, over basic forms."""
    return paper_reduce(p, paper_cr_aux)


def paper_mf(p: c.Term) -> c.Term:
    """``mf`` as the paper defines it, over basic forms: each branch
    resolved against the central atom's answer, then reduced in turn."""
    return paper_reduce(p, paper_mem_aux)


@dataclass(frozen=True, slots=True)
class PTrue:
    pass


@dataclass(frozen=True, slots=True)
class PFalse:
    pass


@dataclass(frozen=True, slots=True)
class PAtom:
    atom: c.Atom


@dataclass(frozen=True, slots=True)
class PNot:
    operand: "PropFormula"


@dataclass(frozen=True, slots=True)
class PAnd:
    left: "PropFormula"
    right: "PropFormula"


@dataclass(frozen=True, slots=True)
class POr:
    left: "PropFormula"
    right: "PropFormula"


PropFormula = Union[PTrue, PFalse, PAtom, PNot, PAnd, POr]

P_TRUE = PTrue()
P_FALSE = PFalse()


def _formula(x: c.Term, kids: list[PropFormula]) -> PropFormula:
    if not kids:
        return PAtom(x.atom) if isinstance(x, c.AtomTerm) else P_TRUE if x == c.TRUE else P_FALSE
    p, q, r = kids
    return POr(PAnd(p, q), PAnd(PNot(q), r))


def paper_to_propositional(t: c.Term) -> PropFormula:
    """Translate a conditional into two-valued logic, with no
    simplification: ``p <| q |> r`` becomes ``(p ∧ q) ∨ (¬q ∧ r)``, and a
    subterm shared in ``t`` (so each ``q``) gives one shared subformula."""
    return fold(t, term_children, _formula)


def paper_eval_formula(f: PropFormula, assignment: Mapping[c.Atom, bool]) -> bool:
    """Classical evaluation under a total assignment of the atoms."""
    if isinstance(f, PTrue):
        return True
    if isinstance(f, PFalse):
        return False
    if isinstance(f, PAtom):
        return assignment[f.atom]
    if isinstance(f, PNot):
        return not paper_eval_formula(f.operand, assignment)
    if isinstance(f, PAnd):
        return paper_eval_formula(f.left, assignment) and paper_eval_formula(f.right, assignment)
    return paper_eval_formula(f.left, assignment) or paper_eval_formula(f.right, assignment)


def paper_static_matches_tautology(p: c.Term, q: c.Term, sigma: c.Sigma) -> bool:
    """Whether the static-congruence verdict for ``p`` and ``q`` agrees
    with their truth tables over ``sigma`` being identical.

    This should always return True; it exists to expose a counterexample
    if the two routes ever diverge.
    """
    by_trees = c.equivalent(p, q, c.static(sigma))
    by_tables = c.truth_table(p, sigma).rows == c.truth_table(q, sigma).rows
    return by_trees == by_tables


def static_prefix(sigma: c.Sigma, t: c.Term) -> c.Term:
    """``T <| e_sigma |> t``, the term whose memorizing tree and normal
    form are ``sse``/``sbf`` of ``t``."""
    return c.Cond(c.TRUE, c.e_sigma(sigma), t)


def paper_check_axioms(
    system: str, pool: tuple[c.Term, ...], kind: c.CongruenceKind
) -> list[c.AxiomInstanceReport]:
    """``check_axioms`` as one ``equivalent`` call per instance, each
    building its trees afresh, in the same order and with the same
    substitutions; no instance budget."""
    pool_atoms = sorted({a for t in pool for a in c.alphabet(t)}, key=lambda a: a.name)
    sigma = kind.sigma if kind.sigma is not None else c.Sigma(tuple(pool_atoms))
    reports = []
    for name in c.SYSTEMS[system]:
        scheme = c.AXIOMS[name]
        atom_choices = [(c.AtomTerm(a),) for a in pool_atoms] if scheme.needs_atom else [()]
        for atom_args in atom_choices:
            for values in itertools.product(pool, repeat=scheme.arity()):
                order = (c.e_sigma(sigma),) if scheme.needs_sigma else ()
                lhs, rhs = scheme.build(*order, *atom_args, *values)
                substitution = tuple(zip(scheme.variables, values))
                if atom_args:
                    substitution = (("a", atom_args[0]),) + substitution
                holds = c.equivalent(lhs, rhs, kind)
                reports.append(c.AxiomInstanceReport(name, substitution, holds))
    return reports


def tree_size(x: c.EvalTree) -> int:
    """Nodes plus leaves of an evaluation tree, counted as a tree."""
    if isinstance(x, c.Leaf):
        return 1
    return 1 + tree_size(x.left) + tree_size(x.right)


def paper_render_term(t: c.Term) -> str:
    """``render_term`` written as the grammar reads: each subterm's text
    built recursively, conditionals in parentheses."""
    if isinstance(t, c.TrueConst):
        return "T"
    if isinstance(t, c.FalseConst):
        return "F"
    if isinstance(t, c.AtomTerm):
        return c.format_atom(t.atom)
    parts = []
    for sub in (t.true_branch, t.condition, t.false_branch):
        s = paper_render_term(sub)
        parts.append(f"({s})" if isinstance(sub, c.Cond) else s)
    return f"{parts[0]} <| {parts[1]} |> {parts[2]}"


def _oracle_operand(cur: TokenCursor, atoms: dict[str, c.AtomTerm]) -> c.Term:
    token = cur.take()
    if token == "(":
        inner = _oracle_cond(cur, _oracle_operand(cur, atoms), atoms)
        cur.expect(")")
        return inner
    term = {"T": c.TRUE, "F": c.FALSE}.get(token) or atoms.get(token)
    if term is None:
        if token[0] == '"':
            name = token[1:-1]
        elif token[0].isalpha():
            name = token
        else:
            raise cur.fail(f"unexpected token {token!r}")
        # Quoted and bare spellings of one name share its AtomTerm.
        term = atoms[token] = atoms.setdefault(name, c.AtomTerm(c.Atom(name)))
    return term


def _oracle_cond(cur: TokenCursor, left: c.Term, atoms: dict[str, c.AtomTerm]) -> c.Cond:
    cur.expect("<|")
    mid = _oracle_operand(cur, atoms)
    cur.expect("|>")
    return c.Cond(left, mid, _oracle_operand(cur, atoms))


def oracle_parse_term(text: str) -> c.Term:
    """``parse_term`` as the grammar reads, by recursive descent over the
    same tokens: two frames per level of parentheses, one ``AtomTerm``
    per atom name.  Raises what ``parse_term`` raises, at the same
    positions, except that too deep an input raises RecursionError."""
    cur = TokenCursor(_TERM_TOKENS, text, c.TermSyntaxError)
    atoms: dict[str, c.AtomTerm] = {}
    term = _oracle_operand(cur, atoms)
    if cur.peek() == "<|":
        term = _oracle_cond(cur, term, atoms)
    cur.finish()
    return term


def paper_render_tree(x: c.EvalTree) -> str:
    """``render_tree(x, "ascii")`` built recursively."""
    if isinstance(x, c.Leaf):
        return "T" if x.value else "F"
    return f"({paper_render_tree(x.left)} <{c.format_atom(x.atom)}> {paper_render_tree(x.right)})"


def paper_json_obj(x: c.EvalTree):
    """The object ``render_tree(x, "json")`` writes, built recursively:
    ``json.dumps`` of it with separators ``(",", ":")`` is the text."""
    if isinstance(x, c.Leaf):
        return "T" if x.value else "F"
    return {"atom": x.atom.name, "t": paper_json_obj(x.left), "f": paper_json_obj(x.right)}


def condition_nested(k: int, base: c.Term = TA) -> c.Term:
    """t_k of ``t_{i+1} = t_i <| t_i |> t_i`` from ``t_0 = base``: each
    t_i is one object reached three times from t_{i+1}."""
    t = base
    for _ in range(k):
        t = c.Cond(t, t, t)
    return t


def se_key(t: c.Term) -> str:
    return c.render_tree(c.se(t))


ALL_KINDS = (
    c.FREE,
    c.RP,
    c.CR,
    c.MEM,
    c.static(SIGMA_AB),
    c.static(SIGMA_BA),
)


def _paper_central_atom(t: c.Term) -> c.Atom | None:
    if isinstance(t, c.Cond) and isinstance(t.condition, c.AtomTerm):
        return t.condition.atom
    return None


def paper_is_rp_basic_form(t: c.Term) -> bool:
    """``is_rp_basic_form`` written recursively, as the paper defines it."""
    if isinstance(t, (c.TrueConst, c.FalseConst)):
        return True
    if not isinstance(t, c.Cond) or not isinstance(t.condition, c.AtomTerm):
        return False
    a = t.condition.atom
    for child in (t.true_branch, t.false_branch):
        if not paper_is_rp_basic_form(child):
            return False
        if isinstance(child, c.Cond) and _paper_central_atom(child) == a:
            if child.true_branch != child.false_branch:
                return False
    return True


def paper_is_cr_basic_form(t: c.Term) -> bool:
    """``is_cr_basic_form`` written recursively, as the paper defines it."""
    if isinstance(t, (c.TrueConst, c.FalseConst)):
        return True
    if not isinstance(t, c.Cond) or not isinstance(t.condition, c.AtomTerm):
        return False
    a = t.condition.atom
    for child in (t.true_branch, t.false_branch):
        if not paper_is_cr_basic_form(child):
            return False
        if isinstance(child, c.Cond) and _paper_central_atom(child) == a:
            return False
    return True


def paper_is_mem_basic_form(t: c.Term) -> bool:
    """``is_mem_basic_form`` written recursively, as the paper defines it."""
    if isinstance(t, (c.TrueConst, c.FalseConst)):
        return True
    if not isinstance(t, c.Cond) or not isinstance(t.condition, c.AtomTerm):
        return False
    a = t.condition.atom
    for child in (t.true_branch, t.false_branch):
        if not paper_is_mem_basic_form(child):
            return False
        if a in c.alphabet(child):
            return False
    return True


def paper_is_st_basic_form(t: c.Term, sigma: c.Sigma) -> bool:
    """``is_st_basic_form`` written recursively: the last atom of sigma at
    the root, each branch layered over the atoms before it."""
    if not sigma.atoms:
        return isinstance(t, (c.TrueConst, c.FalseConst))
    if not isinstance(t, c.Cond) or _paper_central_atom(t) != sigma.atoms[-1]:
        return False
    rest = c.Sigma(sigma.atoms[:-1])
    return paper_is_st_basic_form(t.true_branch, rest) and paper_is_st_basic_form(
        t.false_branch, rest
    )
