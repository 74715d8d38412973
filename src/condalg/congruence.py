"""Deciding the five valuation congruences, plus the classical-logic bridge.

``equivalent`` compares transformed evaluation trees (the semantic route);
``normal_form`` exposes the syntactic route.  The two must agree — the
test suite exercises that agreement exhaustively rather than assuming it.

The module also carries the equational systems (CP and its extensions) as
instantiable schemes, a truth-table generator that reads ``p <| q |> r``
classically as ``(p ∧ q) ∨ (¬q ∧ r)``, and the built-in witnesses
separating the congruence lattice's adjacent levels.  Truth tables are
bit-parallel: the term is folded once into integers holding one bit per
row.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import CondAlgError, InstanceBudgetError
from .evaltrees import LEAF_F, LEAF_T, EvalTree, Node, same_tree, se
from .normalform import bf, cbf, check_alphabet, e_sigma, mbf, rpbf, sbf
from .terms import (
    Atom,
    AtomTerm,
    Cond,
    FALSE,
    Sigma,
    TRUE,
    Term,
    TrueConst,
    alphabet,
    fold,
    format_atom,
    frozen,
    iter_atoms_sorted,
    term_children,
)
from .treetransform import cr, cse, mem, mse, rp, rpse, sse

MAX_SIGMA_FOR_TABLES = 16


# ---------------------------------------------------------------------------
# Congruence kinds
# ---------------------------------------------------------------------------


# The five congruences, finest first, with their height in the lattice.
# Every per-congruence table below is derived from this one.
KIND_LEVEL = {"free": 0, "rp": 1, "cr": 2, "mem": 3, "static": 4}


@frozen
class CongruenceKind:
    """One of the five congruences; the static one carries its atom order."""

    tag: str
    sigma: Sigma | None = None

    def __post_init__(self) -> None:
        if self.tag not in KIND_LEVEL:
            raise ValueError(f"unknown congruence tag: {self.tag!r}")
        if (self.tag == "static") != (self.sigma is not None):
            raise ValueError("exactly the static congruence carries a sigma")

    def __str__(self) -> str:
        if self.sigma is not None:
            return f"static({''.join(format_atom(a) for a in self.sigma)})"
        return self.tag


FREE = CongruenceKind("free")
RP = CongruenceKind("rp")
CR = CongruenceKind("cr")
MEM = CongruenceKind("mem")


def static(sigma: Sigma) -> CongruenceKind:
    return CongruenceKind("static", sigma)


# The two routes deciding each congruence, keyed by tag; the static
# functions take the evaluation order first.  Module-level dicts of plain
# functions, so rebinding one of these functions by name reaches them too.
TREE_ROUTES = dict(zip(KIND_LEVEL, (se, rpse, cse, mse, sse)))
NORMAL_FORM_ROUTES = dict(zip(KIND_LEVEL, (bf, rpbf, cbf, mbf, sbf)))


def transformed_tree(t: Term, kind: CongruenceKind) -> EvalTree:
    """The evaluation tree whose equality decides ``kind``."""
    route = TREE_ROUTES[kind.tag]
    return route(t) if kind.sigma is None else route(kind.sigma, t)


def normal_form(t: Term, kind: CongruenceKind) -> Term:
    """The syntactic normal form deciding ``kind``."""
    route = NORMAL_FORM_ROUTES[kind.tag]
    return route(t) if kind.sigma is None else route(kind.sigma, t)


def equivalent(p: Term, q: Term, kind: CongruenceKind) -> bool:
    """Decide the congruence by comparing transformed evaluation trees
    (``same_tree``: shared subtrees are compared once)."""
    return same_tree(transformed_tree(p, kind), transformed_tree(q, kind))


# ---------------------------------------------------------------------------
# Truth tables
# ---------------------------------------------------------------------------


@frozen
class TruthTable:
    """Rows of (assignment aligned with sigma, classical value); the first
    row is all-true and the leftmost atom varies slowest."""

    sigma: Sigma
    rows: tuple[tuple[tuple[bool, ...], bool], ...]


def truth_table(t: Term, sigma: Sigma) -> TruthTable:
    """Tabulate the classical value of ``t`` over ``sigma``.

    Every row is computed at once: each atom's column is an integer with
    one bit per row, and ``t`` is folded into such integers, ``p <| q |>
    r`` as ``(p & q) | (~q & r)``, each term object once, so the cost does
    not grow with the condition nesting.
    """
    check_alphabet(t, sigma, "truth_table")
    if len(sigma) > MAX_SIGMA_FOR_TABLES:
        raise ValueError(
            f"truth tables are limited to {MAX_SIGMA_FOR_TABLES} atoms, got {len(sigma)}"
        )
    n = len(sigma)
    full = (1 << (1 << n)) - 1
    columns = {a: _column(j, n, full) for j, a in enumerate(sigma.atoms)}

    def on_rows(x: Term, kids: list[int]) -> int:
        # ``x`` on every row at once, one bit per row.
        if not kids:
            return columns[x.atom] if isinstance(x, AtomTerm) else full if x == TRUE else 0
        p, q, r = kids
        return (p & q) | ((full ^ q) & r)

    value = fold(t, term_children, on_rows)
    # Bit i of ``value`` is row i's value; the binary text lists bits from
    # the highest row down.
    bits = reversed(format(value, f"0{1 << n}b"))
    assignments = itertools.product((True, False), repeat=n)
    return TruthTable(
        sigma, tuple((values, bit == "1") for values, bit in zip(assignments, bits))
    )


def _column(j: int, n: int, full: int) -> int:
    # Bit i is the value of the j-th of n atoms in row i: ``period`` true
    # rows then ``period`` false rows, repeated, i.e. the low half of a
    # 2*period-bit block times the repunit in base 2**(2*period).
    period = 1 << (n - 1 - j)
    return ((1 << period) - 1) * (full // ((1 << 2 * period) - 1))


def render_truth_table(table: TruthTable, fmt: str = "text", *, title: str = "value") -> str:
    """Render a table as aligned text (``T``/``F`` cells) or as JSON."""
    if fmt == "text":
        names = [format_atom(a) for a in table.sigma]
        # Each column's (F, T) cells, padded to its name's width once.
        cells = [("F".ljust(len(n)), "T".ljust(len(n))) for n in names]
        lines = [" ".join(names) + " | " + title]
        for values, result in table.rows:
            row = " ".join([pair[v] for pair, v in zip(cells, values)])
            lines.append(f"{row} | {'T' if result else 'F'}")
        return "\n".join(lines)
    if fmt == "json":
        import json

        payload = {
            "sigma": [a.name for a in table.sigma],
            "rows": [
                {"assignment": list(values), "value": result}
                for values, result in table.rows
            ],
        }
        return json.dumps(payload, separators=(",", ":"))
    raise ValueError(f"unknown table format: {fmt!r}")


# ---------------------------------------------------------------------------
# Equational systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomScheme:
    """An equation scheme over term variables, optionally parameterized by
    an atom (the scheme is instantiated at every atom of the pool) or by
    the evaluation order of the congruence being checked (``build`` then
    takes ``e_sigma`` of that order first)."""

    name: str
    variables: tuple[str, ...]
    build: Callable[..., tuple[Term, Term]]
    needs_atom: bool = False
    needs_sigma: bool = False

    def arity(self) -> int:
        return len(self.variables)


def _cp1(x, y):
    return Cond(x, TRUE, y), x


def _cp2(x, y):
    return Cond(x, FALSE, y), y


def _cp3(x):
    return Cond(TRUE, x, FALSE), x


def _cp4(x, y, z, u, v):
    lhs = Cond(x, Cond(y, z, u), v)
    rhs = Cond(Cond(x, y, v), z, Cond(x, u, v))
    return lhs, rhs


def _cprp1(a, x, y, z):
    return Cond(Cond(x, a, y), a, z), Cond(Cond(x, a, x), a, z)


def _cprp2(a, x, y, z):
    return Cond(x, a, Cond(y, a, z)), Cond(x, a, Cond(z, a, z))


def _cpcr1(a, x, y, z):
    return Cond(Cond(x, a, y), a, z), Cond(x, a, z)


def _cpcr2(a, x, y, z):
    return Cond(x, a, Cond(y, a, z)), Cond(x, a, z)


def _cpmem(x, y, z, u, v, w):
    lhs = Cond(x, y, Cond(z, u, Cond(v, y, w)))
    rhs = Cond(x, y, Cond(z, u, w))
    return lhs, rhs


def _cpm1(x, y, z, u, v, w):
    lhs = Cond(Cond(z, u, Cond(w, y, v)), y, x)
    rhs = Cond(Cond(z, u, w), y, x)
    return lhs, rhs


def _cpm2(x, y, z, u, v, w):
    lhs = Cond(x, y, Cond(Cond(v, y, w), u, z))
    rhs = Cond(x, y, Cond(w, u, z))
    return lhs, rhs


def _cpm3(x, y, z, u, v, w):
    lhs = Cond(Cond(Cond(w, y, v), u, z), y, x)
    rhs = Cond(Cond(w, u, z), y, x)
    return lhs, rhs


def _contr1(x, y, v, w):
    return Cond(x, y, Cond(v, y, w)), Cond(x, y, w)


def _contr2(x, y, v, w):
    return Cond(Cond(w, y, v), y, x), Cond(w, y, x)


def _cpstat(x, y, z, u, v):
    lhs = Cond(Cond(x, y, z), u, v)
    rhs = Cond(Cond(x, u, v), y, Cond(z, u, v))
    return lhs, rhs


def _cps(x):
    return Cond(FALSE, x, FALSE), FALSE


def _swap(x, y):
    return Cond(x, y, FALSE), Cond(y, x, FALSE)


def _both_branches(x, y):
    return x, Cond(x, y, x)


def _static_prefix(order, x):
    return x, Cond(TRUE, order, x)


AXIOMS: dict[str, AxiomScheme] = {
    scheme.name: scheme
    for scheme in [
        AxiomScheme("CP1", ("x", "y"), _cp1),
        AxiomScheme("CP2", ("x", "y"), _cp2),
        AxiomScheme("CP3", ("x",), _cp3),
        AxiomScheme("CP4", ("x", "y", "z", "u", "v"), _cp4),
        AxiomScheme("CPrp1", ("x", "y", "z"), _cprp1, needs_atom=True),
        AxiomScheme("CPrp2", ("x", "y", "z"), _cprp2, needs_atom=True),
        AxiomScheme("CPcr1", ("x", "y", "z"), _cpcr1, needs_atom=True),
        AxiomScheme("CPcr2", ("x", "y", "z"), _cpcr2, needs_atom=True),
        AxiomScheme("CPmem", ("x", "y", "z", "u", "v", "w"), _cpmem),
        AxiomScheme("CPm1", ("x", "y", "z", "u", "v", "w"), _cpm1),
        AxiomScheme("CPm2", ("x", "y", "z", "u", "v", "w"), _cpm2),
        AxiomScheme("CPm3", ("x", "y", "z", "u", "v", "w"), _cpm3),
        AxiomScheme("contr1", ("x", "y", "v", "w"), _contr1),
        AxiomScheme("contr2", ("x", "y", "v", "w"), _contr2),
        AxiomScheme("CPstat", ("x", "y", "z", "u", "v"), _cpstat),
        AxiomScheme("CPs", ("x",), _cps),
        AxiomScheme("swap", ("x", "y"), _swap),
        AxiomScheme("both-branches", ("x", "y"), _both_branches),
        AxiomScheme("static-prefix", ("x",), _static_prefix, needs_sigma=True),
    ]
}

# Each system lists only the laws it adds; the checker is pointed at any
# congruence, so inherited laws are covered by checking the weaker system
# under the stronger congruence.
SYSTEMS: dict[str, tuple[str, ...]] = {
    "CP": ("CP1", "CP2", "CP3", "CP4"),
    "CPrp": ("CPrp1", "CPrp2"),
    "CPcr": ("CPcr1", "CPcr2"),
    "CPmem": ("CPmem", "CPm1", "CPm2", "CPm3", "contr1", "contr2"),
    "CPs": ("CPs", "swap", "both-branches", "static-prefix"),
    "CPst": ("CPstat", "contr2"),
}

# Lattice height of each system, as in KIND_LEVEL; a system's laws are
# sound under every congruence at its own height or above.
SYSTEM_LEVEL = {"CP": 0, "CPrp": 1, "CPcr": 2, "CPmem": 3, "CPs": 4, "CPst": 4}

DEFAULT_INSTANCE_BUDGET = 200_000


@dataclass(frozen=True)
class AxiomInstanceReport:
    """One instantiated equation and its verdict under a congruence."""

    axiom_name: str
    substitution: tuple[tuple[str, Term], ...]
    holds: bool

    def substitution_map(self) -> dict[str, Term]:
        return dict(self.substitution)


def check_instance_budget(
    system: str, pool_size: int | None, atom_count: int, instance_budget: int
) -> None:
    """Raise InstanceBudgetError naming the first law of ``system`` with
    more than ``instance_budget`` instances over a pool of ``pool_size``
    terms whose alphabet has ``atom_count`` atoms.  A ``pool_size`` of
    None stands for a pool of more than ``instance_budget`` terms, which
    every law exceeds: each has at least one variable."""
    for name in SYSTEMS[system]:
        if pool_size is None:
            raise InstanceBudgetError(
                f"axiom {name}: a pool of more than {instance_budget} terms "
                f"exceeds the budget of {instance_budget} instances"
            )
        scheme = AXIOMS[name]
        count = pool_size ** scheme.arity()
        if scheme.needs_atom:
            count *= max(atom_count, 1)
        if count > instance_budget:
            raise InstanceBudgetError(
                f"axiom {name}: {count} instances exceed the budget of {instance_budget}"
            )


def _store_se(
    t: Term, kt: EvalTree, kf: EvalTree, nodes: dict, built: dict, pool_conds: set
) -> EvalTree:
    # ``_se(t, kt, kf)`` in a ``_tree_store``: hash-consed in ``nodes``,
    # and memoized in ``built`` for the conditionals in ``pool_conds``.
    # Any conditional is looked up in ``built``: the pool's, the only ones
    # stored, stay alive for the call, so no other object has their
    # ``id``.
    #
    # Without recursion, as ``_se``: a branch that is a constant, an atom
    # or found in ``built`` is resolved in place, and the condition is the
    # next step.  ``stack`` holds, innermost last, (conditional, kt, kf)
    # while its true branch is built, (condition, true branch's tree,
    # None) while its false branch is, and (None, key, None) for a pool
    # conditional whose tree, once built, goes into ``built`` under ``key``.
    # ``missed`` is the key of a branch just looked up in ``built`` in vain.
    stack: list[tuple] = []
    missed = None
    while True:
        cls = t.__class__
        if cls is Cond:
            if missed is None:
                key = (id(t), id(kt), id(kf))
                x = built.get(key)
            else:
                key, missed, x = missed, None, None
        elif cls is AtomTerm:
            key = (t.atom.name, id(kt), id(kf))
            x = nodes.get(key)
            if x is None:
                x = nodes[key] = Node(t.atom, kt, kf)
        else:
            x = kt if cls is TrueConst else kf
        if x is None:  # a conditional not in ``built``
            if key[0] in pool_conds:
                stack.append((None, key, None))
            p = t.true_branch
            cls = p.__class__
            if cls is Cond:
                missed = (id(p), id(kt), id(kf))
                left = built.get(missed)
                if left is None:
                    stack.append((t, kt, kf))
                    t = p
                    continue
                missed = None
            elif cls is AtomTerm:
                pkey = (p.atom.name, id(kt), id(kf))
                left = nodes.get(pkey)
                if left is None:
                    left = nodes[pkey] = Node(p.atom, kt, kf)
            else:
                left = kt if cls is TrueConst else kf
        else:
            if not stack:
                return x
            t, kt, kf = stack.pop()
            while t is None:
                built[kt] = x
                if not stack:
                    return x
                t, kt, kf = stack.pop()
            if kf is None:
                kf = x
                continue
            left = x
        r = t.false_branch
        cls = r.__class__
        if cls is Cond:
            missed = (id(r), id(kt), id(kf))
            right = built.get(missed)
            if right is None:
                stack.append((t.condition, left, None))
                t = r
                continue
            missed = None
        elif cls is AtomTerm:
            rkey = (r.atom.name, id(kt), id(kf))
            right = nodes.get(rkey)
            if right is None:
                right = nodes[rkey] = Node(r.atom, kt, kf)
        else:
            right = kt if cls is TrueConst else kf
        kt, kf = left, right
        t = t.condition


# The transforms ``_tree_store`` applies, looked up by tag when a store is
# made; a dict of the module's functions, so rebinding one reaches it too.
_STORE_TRANSFORMS = {"rp": rp, "cr": cr, "mem": mem}


def _tree_store(pool: tuple[Term, ...], kind: CongruenceKind) -> Callable[[Term], EvalTree]:
    # The tree whose equality decides ``kind``, for every instance side of
    # one check_axioms call, built from tables that live as long as the
    # call: a unique table, so that equal trees built here are one object;
    # a memo of ``se`` under continuations for the pool's conditionals; and
    # the transform of each distinct tree.  Only the pool's objects are
    # memoized: the conditionals a scheme builds are dropped after their
    # instance, and a later object may reuse their ``id``.
    nodes: dict[tuple[str, int, int], Node] = {}  # (atom name, id(kt), id(kf))
    built: dict[tuple[int, int, int], EvalTree] = {}  # (id(t), id(kt), id(kf))
    transformed: dict[int, EvalTree] = {}  # id of a tree built here
    pool_conds: set[int] = set()
    pending = list(pool)
    while pending:
        t = pending.pop()
        if t.__class__ is Cond and id(t) not in pool_conds:
            pool_conds.add(id(t))
            pending += (t.true_branch, t.condition, t.false_branch)

    if kind.tag == "free":
        return lambda t: _store_se(t, LEAF_T, LEAF_F, nodes, built, pool_conds)
    if kind.sigma is not None:
        atoms = kind.sigma.atoms

        # sse(sigma, t) is mem(se(T <| e_sigma |> t)), and the tree of
        # T <| e_sigma |> t is se(t) under one Node(a, x, x) per atom a of
        # sigma, in order; hash-consed here like every other node.
        def transform(x: EvalTree) -> EvalTree:
            for a in atoms:
                key = (a.name, id(x), id(x))
                y = nodes.get(key)
                if y is None:
                    y = nodes[key] = Node(a, x, x)
                x = y
            return mem(x)

    else:
        transform = _STORE_TRANSFORMS[kind.tag]

    def tree(t: Term) -> EvalTree:
        x = _store_se(t, LEAF_T, LEAF_F, nodes, built, pool_conds)
        out = transformed.get(id(x))
        if out is None:
            out = transformed[id(x)] = transform(x)
        return out

    return tree


def check_axioms(
    system: str,
    pool: Sequence[Term],
    kind: CongruenceKind,
    *,
    instance_budget: int = DEFAULT_INSTANCE_BUDGET,
) -> list[AxiomInstanceReport]:
    """Instantiate every law of ``system`` with every substitution from
    ``pool`` (full cross-product; atom schemes additionally range over the
    pool's alphabet) and record whether each instance holds under ``kind``.

    Decides each instance as ``equivalent`` does, by comparing transformed
    evaluation trees, but every instance of the call shares one store
    private to the call: equal trees built in it are one object, each
    pool term's tree under given continuations is built once, and each
    distinct tree is transformed once.  The pool's alphabet is checked
    against a static kind's order once, not per instance.

    Raises InstanceBudgetError naming the first law whose cross-product
    would exceed ``instance_budget``, before any instance is checked.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown axiom system: {system!r}")
    if not pool:
        raise ValueError("substitution pool must be nonempty")
    pool = tuple(pool)
    pool_atoms = iter_atoms_sorted(
        {a for term in pool for a in alphabet(term)}
    )
    check_instance_budget(system, len(pool), len(pool_atoms), instance_budget)
    if kind.sigma is None:
        sigma = Sigma(tuple(pool_atoms))
    else:
        sigma = kind.sigma
        for term in pool:
            check_alphabet(term, sigma, "check_axioms")
    order = e_sigma(sigma)
    tree = _tree_store(pool, kind)

    reports: list[AxiomInstanceReport] = []
    for name in SYSTEMS[system]:
        scheme = AXIOMS[name]
        atom_choices: list[tuple] = [()]
        if scheme.needs_atom:
            atom_choices = [(AtomTerm(a),) for a in pool_atoms]
        order_prefix: tuple = (order,) if scheme.needs_sigma else ()
        for atom_args in atom_choices:
            for values in itertools.product(pool, repeat=scheme.arity()):
                lhs, rhs = scheme.build(*order_prefix, *atom_args, *values)
                holds = same_tree(tree(lhs), tree(rhs))
                substitution = tuple(zip(scheme.variables, values))
                if atom_args:
                    substitution = (("a", atom_args[0]),) + substitution
                reports.append(AxiomInstanceReport(name, substitution, holds))
    return reports


# ---------------------------------------------------------------------------
# Separation witnesses
# ---------------------------------------------------------------------------

Witness = tuple[Term, Term, CongruenceKind, CongruenceKind]


def separation_witnesses() -> list[Witness]:
    """Pairs showing each lattice inclusion is proper: each pair is
    inequivalent under the first (finer) kind and equivalent under the
    second (coarser) kind.  Re-verified on every call."""
    a = AtomTerm(Atom("a"))
    b = AtomTerm(Atom("b"))
    sigma_a = Sigma((Atom("a"),))
    witnesses: list[Witness] = [
        (Cond(TRUE, a, a), Cond(TRUE, a, Cond(FALSE, a, FALSE)), FREE, RP),
        (Cond(Cond(TRUE, a, FALSE), a, FALSE), Cond(TRUE, a, FALSE), RP, CR),
        (
            Cond(TRUE, a, Cond(FALSE, b, Cond(TRUE, a, FALSE))),
            Cond(TRUE, a, Cond(FALSE, b, FALSE)),
            CR,
            MEM,
        ),
        (Cond(FALSE, a, FALSE), FALSE, MEM, static(sigma_a)),
    ]
    for p, q, finer, coarser in witnesses:
        if equivalent(p, q, finer) or not equivalent(p, q, coarser):
            raise CondAlgError(
                f"separation witness failed verification: {p!r} vs {q!r}"
            )
    return witnesses
