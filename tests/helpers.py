"""Shared pools and oracles for the test suite.

Pools are cached at module level; everything here is deterministic
(fixed seeds, fixed orders) so failures reproduce exactly.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Union

import condalg as c
from condalg.evaltrees import tree_children
from condalg.shortcircuit import _EXPR_TOKENS, _KEYWORDS, _SC_TOKENS, _expr_error
from condalg.terms import _TERM_TOKENS, TokenCursor, fold, term_children

ATOM_A = c.Atom("a")
ATOM_B = c.Atom("b")
AB = (ATOM_A, ATOM_B)
TA = c.AtomTerm(ATOM_A)
TB = c.AtomTerm(ATOM_B)

SIGMA_A = c.Sigma((ATOM_A,))
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


# Evaluation orders, empty to three atoms, for the static route's oracles.
STATIC_ORDERS = tuple(c.Sigma.of(*names) for names in ("", "a", "ab", "ba", "abc", "cba"))


def terms_over(sigma: c.Sigma) -> tuple[c.Term, ...]:
    """The terms of ``all_terms_upto(2) + random_terms()`` whose atoms
    all occur in ``sigma``."""
    covered = sigma.alphabet()
    return tuple(t for t in all_terms_upto(2) + random_terms() if c.alphabet(t) <= covered)


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


def oracle_render_truth_table(table: c.TruthTable, fmt: str = "text", *, title: str = "value") -> str:
    """``render_truth_table`` with each cell padded on its own."""
    if fmt == "text":
        names = [c.format_atom(a) for a in table.sigma]
        widths = [len(n) for n in names]
        lines = [" ".join(names) + " | " + title]
        for values, result in table.rows:
            cells = " ".join(("T" if v else "F").ljust(w) for v, w in zip(values, widths))
            lines.append(f"{cells} | {'T' if result else 'F'}")
        return "\n".join(lines)
    payload = {
        "sigma": [a.name for a in table.sigma],
        "rows": [{"assignment": list(values), "value": result} for values, result in table.rows],
    }
    return json.dumps(payload, separators=(",", ":"))


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


class OracleCursor(TokenCursor):
    """A ``TokenCursor`` read one token at a time, as recursive descent
    reads: ``take`` the next token, ``peek`` at it, ``expect`` a given
    one, ``finish`` when every token must have been taken."""

    __slots__ = ("i",)

    def __init__(self, lexicon, text, error):
        super().__init__(lexicon, text, error)
        self.i = 0

    def fail(self, message: str) -> Exception:
        """The error for the token taken last."""
        return self.error(message, self.position(self.i - 1))

    def peek(self) -> str | None:
        """The next token, or None at the end."""
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> str:
        i = self.i
        if i == len(self.tokens):
            raise self.error("unexpected end of input", len(self.text))
        self.i = i + 1
        return self.tokens[i]

    def expect(self, token: str) -> None:
        """Take the next token, which must be ``token``."""
        found = self.take()
        if found != token:
            raise self.fail(f"expected {token!r}, found {found!r}")

    def finish(self) -> None:
        """Require that every token has been taken."""
        if self.i < len(self.tokens):
            raise self.error(f"trailing input {self.tokens[self.i]!r}", self.position(self.i))


def _oracle_operand(cur: OracleCursor, atoms: dict[str, c.AtomTerm]) -> c.Term:
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


def _oracle_cond(cur: OracleCursor, left: c.Term, atoms: dict[str, c.AtomTerm]) -> c.Cond:
    cur.expect("<|")
    mid = _oracle_operand(cur, atoms)
    cur.expect("|>")
    return c.Cond(left, mid, _oracle_operand(cur, atoms))


def oracle_parse_term(text: str) -> c.Term:
    """``parse_term`` as the grammar reads, by recursive descent over the
    same tokens: two frames per level of parentheses, one ``AtomTerm``
    per atom name.  Raises what ``parse_term`` raises, at the same
    positions, except that too deep an input raises RecursionError."""
    cur = OracleCursor(_TERM_TOKENS, text, c.TermSyntaxError)
    atoms: dict[str, c.AtomTerm] = {}
    term = _oracle_operand(cur, atoms)
    if cur.peek() == "<|":
        term = _oracle_cond(cur, term, atoms)
    cur.finish()
    return term


def _oracle_sc_or(cur: OracleCursor) -> c.SclExpr:
    expr = _oracle_sc_and(cur)
    while cur.peek() == "||":
        cur.take()
        expr = c.SclOr(expr, _oracle_sc_and(cur))
    return expr


def _oracle_sc_and(cur: OracleCursor) -> c.SclExpr:
    expr = _oracle_sc_unary(cur)
    while cur.peek() == "&&":
        cur.take()
        expr = c.SclAnd(expr, _oracle_sc_unary(cur))
    return expr


def _oracle_sc_unary(cur: OracleCursor) -> c.SclExpr:
    token = cur.take()
    if token == "!":
        return c.SclNot(_oracle_sc_unary(cur))
    if token == "(":
        inner = _oracle_sc_or(cur)
        cur.expect(")")
        return inner
    if token[0] == '"':
        if token == '""':
            raise cur.fail("empty quoted atom")
        return c.SclAtom(c.Atom(token[1:-1]))
    if token[0].isalpha():
        if token in _KEYWORDS:
            return _KEYWORDS[token]
        return c.SclAtom(c.Atom(token))
    raise cur.fail(f"unexpected token {token!r}")


def oracle_parse_sc(text: str) -> c.SclExpr:
    """``parse_sc`` by recursive descent, one function per precedence
    level; too deep an input raises RecursionError."""
    cur = OracleCursor(_SC_TOKENS, text, c.TermSyntaxError)
    expr = _oracle_sc_or(cur)
    cur.finish()
    return expr


def _oracle_eval_sum(cur: OracleCursor, state: Mapping[str, int]) -> int:
    value = _oracle_eval_primary(cur, state)
    while cur.peek() in ("+", "-"):
        sign = cur.take()
        rhs = _oracle_eval_primary(cur, state)
        value = value + rhs if sign == "+" else value - rhs
    return value


def _oracle_eval_primary(cur: OracleCursor, state: Mapping[str, int]) -> int:
    token = cur.take()
    if token[0].isdigit():
        return int(token)
    if token[0].isalpha():
        if token not in state:
            raise c.OracleError(f"unknown register {token!r}")
        return state[token]
    if token == "(":
        value = _oracle_eval_sum(cur, state)
        cur.expect(")")
        return value
    raise cur.fail(f"unexpected {token!r}")


def oracle_eval_register_expr(text: str, state: Mapping[str, int]) -> int:
    """The register-expression evaluator by recursive descent; too deep
    an input raises RecursionError."""
    cur = OracleCursor(_EXPR_TOKENS, text, _expr_error)
    value = _oracle_eval_sum(cur, state)
    cur.finish()
    return value


def oracle_render_sc(e: c.SclExpr) -> str:
    """``render_sc`` built recursively."""
    if isinstance(e, c.SclTrue):
        return "true"
    if isinstance(e, c.SclFalse):
        return "false"
    if isinstance(e, c.SclAtom):
        if e.atom.name in _KEYWORDS:
            return f'"{e.atom.name}"'
        return c.format_atom(e.atom)
    if isinstance(e, c.SclNot):
        inner = oracle_render_sc(e.operand)
        if isinstance(e.operand, (c.SclAnd, c.SclOr)):
            inner = f"({inner})"
        return f"!{inner}"
    if isinstance(e, c.SclAnd):
        left = oracle_render_sc(e.left)
        if isinstance(e.left, c.SclOr):
            left = f"({left})"
        right = oracle_render_sc(e.right)
        if isinstance(e.right, (c.SclAnd, c.SclOr)):
            right = f"({right})"
        return f"{left} && {right}"
    left = oracle_render_sc(e.left)
    right = oracle_render_sc(e.right)
    if isinstance(e.right, c.SclOr):
        right = f"({right})"
    return f"{left} || {right}"


def oracle_desugar(e: c.SclExpr, atoms: dict[str, c.AtomTerm]) -> c.Term:
    """``shortcircuit.desugar`` built recursively: one ``AtomTerm`` per
    atom name, kept in ``atoms``."""
    if isinstance(e, c.SclAnd):
        return c.Cond(oracle_desugar(e.right, atoms), oracle_desugar(e.left, atoms), c.FALSE)
    if isinstance(e, c.SclOr):
        return c.Cond(c.TRUE, oracle_desugar(e.left, atoms), oracle_desugar(e.right, atoms))
    if isinstance(e, c.SclAtom):
        term = atoms.get(e.atom.name)
        if term is None:
            term = atoms[e.atom.name] = c.AtomTerm(e.atom)
        return term
    if isinstance(e, c.SclNot):
        return c.Cond(c.FALSE, oracle_desugar(e.operand, atoms), c.TRUE)
    return c.TRUE if isinstance(e, c.SclTrue) else c.FALSE


def oracle_se(t: c.Term, kt: c.EvalTree, kf: c.EvalTree) -> c.EvalTree:
    """``evaltrees._se`` built recursively: the branches' trees are built
    onto kt and kf and become the condition's continuations."""
    if isinstance(t, c.Cond):
        return oracle_se(t.condition, oracle_se(t.true_branch, kt, kf), oracle_se(t.false_branch, kt, kf))
    if isinstance(t, c.AtomTerm):
        return c.Node(t.atom, kt, kf)
    return kt if isinstance(t, c.TrueConst) else kf


def oracle_bf(t: c.Term, kt: tuple[c.Term, int], kf: tuple[c.Term, int]) -> tuple[c.Term, int]:
    """``normalform._bf`` built recursively, on (form, size) pairs."""
    if isinstance(t, c.Cond):
        return oracle_bf(t.condition, oracle_bf(t.true_branch, kt, kf), oracle_bf(t.false_branch, kt, kf))
    if isinstance(t, c.AtomTerm):
        return c.Cond(kt[0], t, kf[0]), 1 + kt[1] + kf[1]
    return kt if isinstance(t, c.TrueConst) else kf


def oracle_memorize_tree(x: c.EvalTree, answers: dict[str, bool]) -> c.EvalTree:
    """``treetransform.mem`` built recursively: mem of ``x`` below
    the queries already answered, restoring ``answers`` on return."""
    while isinstance(x, c.Node) and x.atom.name in answers:
        x = x.left if answers[x.atom.name] else x.right
    if not isinstance(x, c.Node):
        return x
    name = x.atom.name
    answers[name] = True
    left = oracle_memorize_tree(x.left, answers)
    answers[name] = False
    right = oracle_memorize_tree(x.right, answers)
    del answers[name]
    if left is x.left and right is x.right:
        return x
    return c.Node(x.atom, left, right)


def oracle_memorize_form(p: c.Term, answers: dict[str, bool], spent: list[int], node_budget: int) -> c.Term:
    """``normalform._mf`` built recursively: each call returns one
    node of the form and is counted in ``spent[0]``."""
    while isinstance(p, c.Cond) and p.condition.atom.name in answers:
        p = p.true_branch if answers[p.condition.atom.name] else p.false_branch
    spent[0] += 1
    if spent[0] > node_budget:
        raise c.NodeBudgetError("mf", spent[0], node_budget)
    if not isinstance(p, c.Cond):
        return p
    name = p.condition.atom.name
    answers[name] = True
    left = oracle_memorize_form(p.true_branch, answers, spent, node_budget)
    answers[name] = False
    right = oracle_memorize_form(p.false_branch, answers, spent, node_budget)
    del answers[name]
    if left is p.true_branch and right is p.false_branch:
        return p
    return c.Cond(left, p.condition, right)


def same_objects(x: object, y: object) -> bool:
    """Whether two DAGs of terms, trees or short-circuit expressions are
    built alike: equal leaves, and a one-to-one match between their
    objects that pairs each object's children, so that both share the
    same subterms the same way."""
    forward: dict[int, int] = {}
    backward: dict[int, int] = {}
    pending = [(x, y)]
    while pending:
        a, b = pending.pop()
        if forward.get(id(a), id(b)) != id(b) or backward.get(id(b), id(a)) != id(a):
            return False
        if id(a) in forward:
            continue
        forward[id(a)], backward[id(b)] = id(b), id(a)
        if a.__class__ is not b.__class__:
            return False
        kids_a, kids_b = _dag_children(a), _dag_children(b)
        if kids_a is None:
            if a != b:
                return False
        else:
            pending += zip(kids_a, kids_b)
    return True


def _dag_children(x: object) -> tuple | None:
    # The children of an inner object; None for a leaf, atom or constant.
    if isinstance(x, c.Cond):
        return (x.true_branch, x.condition, x.false_branch)
    if isinstance(x, c.Node):
        return (x.atom, x.left, x.right)
    if isinstance(x, (c.SclAnd, c.SclOr)):
        return (x.left, x.right)
    if isinstance(x, c.SclNot):
        return (x.operand,)
    return None


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
