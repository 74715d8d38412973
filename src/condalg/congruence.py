"""Deciding the five valuation congruences, plus the classical-logic bridge.

``equivalent`` compares transformed evaluation trees (the semantic route);
``normal_form`` exposes the syntactic route.  The two must agree — the
test suite exercises that agreement exhaustively rather than assuming it.

The module also carries the equational systems (CP and its extensions),
each law written as its two sides in the term syntax and parsed once at
import, a truth-table generator that reads ``p <| q |> r`` classically
as ``(p ∧ q) ∨ (¬q ∧ r)``, and the built-in witnesses separating the
congruence lattice's adjacent levels.  Truth tables are bit-parallel:
the term is folded once into integers holding one bit per row.
``check_axioms`` compiles each law once per process into steps that
graft the trees of the terms substituted for its variables, by the
paper's law for the tree of ``P <| Q |> R``: Q's tree with P's tree at
its T leaves and R's at its F leaves.  The same law grafts each pool
term's tree from the term's objects.  Each step is filed under the last
variable it reads and runs once per choice of the values up to that
one.  Every tree of a call, transformed or not, is built through the
call's one unique table, so equal trees are one object and an instance
holds exactly when its two trees are.
"""

from __future__ import annotations

import itertools
from dataclasses import field
from functools import partial
from typing import Sequence

from .errors import CondAlgError, InstanceBudgetError, check_static_budget
from .evaltrees import LEAF_F, LEAF_T, EvalTree, Leaf, Node, se, tree_children
from .normalform import bf, cbf, mbf, rpbf, sbf
from .terms import (
    Atom,
    AtomTerm,
    Cond,
    FALSE,
    Sigma,
    TRUE,
    Term,
    alphabet,
    check_alphabet,
    fold,
    format_atom,
    frozen,
    iter_atoms_sorted,
    parse_term,
    term_children,
    TrueConst,
)
from .treetransform import cr, cse, mem, mse, order_prefix, rp, rpse, sse

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


def transformed_tree(t: Term, kind: CongruenceKind, nodes: dict | None = None) -> EvalTree:
    """The evaluation tree whose equality decides ``kind``, built
    through the unique table ``nodes`` as ``se`` is."""
    route = TREE_ROUTES[kind.tag]
    return route(t, nodes) if kind.sigma is None else route(kind.sigma, t, nodes)


def normal_form(t: Term, kind: CongruenceKind) -> Term:
    """The syntactic normal form deciding ``kind``."""
    route = NORMAL_FORM_ROUTES[kind.tag]
    return route(t) if kind.sigma is None else route(kind.sigma, t)


def equivalent(p: Term, q: Term, kind: CongruenceKind) -> bool:
    """Decide the congruence by comparing transformed evaluation trees.
    Both are built through one unique table, so they are equal exactly
    when they are one object."""
    nodes: dict[tuple[str, int, int], Node] = {}
    return transformed_tree(p, kind, nodes) is transformed_tree(q, kind, nodes)


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
    not grow with the condition nesting.  The rows are the leaves of the
    static tree over ``sigma``, and its size is the cap: NodeBudgetError
    over more than ``MAX_SIGMA_FOR_TABLES`` atoms.
    """
    check_alphabet(t, sigma, "truth_table")
    check_static_budget(sigma, "truth_table", (2 << MAX_SIGMA_FOR_TABLES) - 1)
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


# The letters standing for terms in a law's text, in the order its
# variables are listed and substituted.
_VARIABLES = "xyzuvw"


@frozen
class AxiomScheme:
    """An equation scheme: two terms whose atoms x, y, z, u, v and w are
    its variables, ``a`` ranges over the pool's atoms (the scheme is then
    instantiated at every one) and ``e`` stands for ``e_sigma`` of the
    order of the congruence being checked.  ``variables``, ``needs_atom``
    and ``needs_sigma`` say which of them occur."""

    name: str
    lhs: Term
    rhs: Term
    variables: tuple[str, ...] = field(init=False)
    needs_atom: bool = field(init=False)
    needs_sigma: bool = field(init=False)
    # The graft steps ``check_axioms`` runs, by level (see _template).
    template: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = {a.name for a in alphabet(self.lhs) | alphabet(self.rhs)}
        object.__setattr__(self, "variables", tuple(v for v in _VARIABLES if v in names))
        object.__setattr__(self, "needs_atom", "a" in names)
        object.__setattr__(self, "needs_sigma", "e" in names)
        object.__setattr__(self, "template", _template(self))

    def arity(self) -> int:
        return len(self.variables)

    def build(self, *values: Term) -> tuple[Term, Term]:
        """The two sides with ``e`` (if it occurs), ``a`` (likewise) and
        then the variables replaced by ``values``, in that order."""
        names = ("e",) * self.needs_sigma + ("a",) * self.needs_atom + self.variables
        leaves = dict(zip(names, values, strict=True))

        def put(x: Term, kids: list[Term]) -> Term:
            return Cond(*kids) if kids else leaves[x.atom.name] if x.__class__ is AtomTerm else x

        return fold(self.lhs, term_children, put), fold(self.rhs, term_children, put)


def _template(scheme: AxiomScheme) -> tuple[tuple[tuple[tuple[int, int, int, int], ...], ...], int, int]:
    # The steps building an instance's two trees from slots holding T,
    # F, e_sigma's tree, the atom's and the variables' trees, in order:
    # step (s, x, t, f) fills slot s with the graft of slot x onto slots
    # t and f.  The law's own atoms hold the places of their slots, so in
    # a side's tree an atom's node is such a graft, and both sides share
    # one step per graft.  The steps come in stages, one per level: the
    # atom's slot is level 0, the i-th variable's level i + 1, T, F and
    # e_sigma's level 0, and a step's the highest level it reads.  So a
    # stage's steps are run again only when its level's value changes.
    slot = dict(zip(("e", "a", *scheme.variables), itertools.count(2)))
    level = [max(s - 3, 0) for s in range(4 + scheme.arity())]  # slot -> its level
    steps: dict[tuple[int, int, int], int] = {}  # step -> the slot it fills

    def step(x: EvalTree, kids: list[int]) -> int:
        if not kids:
            return 0 if x.value else 1
        if kids == [0, 1]:  # a slot grafted onto T and F is itself
            return slot[x.atom.name]
        key = (slot[x.atom.name], *kids)
        s = steps.get(key)
        if s is None:
            s = steps[key] = len(level)
            level.append(max(level[i] for i in key))
        return s

    lhs, rhs = (fold(se(side), tree_children, step) for side in (scheme.lhs, scheme.rhs))
    stages: list[list[tuple[int, int, int, int]]] = [[] for _ in range(1 + scheme.arity())]
    for key, s in steps.items():  # in the order of their slots
        stages[level[s]].append((s, *key))
    return tuple(map(tuple, stages)), lhs, rhs


# The laws, as their two sides in the term syntax (see AxiomScheme).
AXIOMS: dict[str, AxiomScheme] = {
    name: AxiomScheme(name, parse_term(lhs), parse_term(rhs))
    for name, (lhs, rhs) in {
        "CP1": ("x <| T |> y", "x"),
        "CP2": ("x <| F |> y", "y"),
        "CP3": ("T <| x |> F", "x"),
        "CP4": ("x <| (y <| z |> u) |> v", "(x <| y |> v) <| z |> (x <| u |> v)"),
        "CPrp1": ("(x <| a |> y) <| a |> z", "(x <| a |> x) <| a |> z"),
        "CPrp2": ("x <| a |> (y <| a |> z)", "x <| a |> (z <| a |> z)"),
        "CPcr1": ("(x <| a |> y) <| a |> z", "x <| a |> z"),
        "CPcr2": ("x <| a |> (y <| a |> z)", "x <| a |> z"),
        "CPmem": ("x <| y |> (z <| u |> (v <| y |> w))", "x <| y |> (z <| u |> w)"),
        "CPm1": ("(z <| u |> (w <| y |> v)) <| y |> x", "(z <| u |> w) <| y |> x"),
        "CPm2": ("x <| y |> ((v <| y |> w) <| u |> z)", "x <| y |> (w <| u |> z)"),
        "CPm3": ("((w <| y |> v) <| u |> z) <| y |> x", "(w <| u |> z) <| y |> x"),
        "contr1": ("x <| y |> (v <| y |> w)", "x <| y |> w"),
        "contr2": ("(w <| y |> v) <| y |> x", "w <| y |> x"),
        "CPstat": ("(x <| y |> z) <| u |> v", "(x <| u |> v) <| y |> (z <| u |> v)"),
        "CPs": ("F <| x |> F", "F"),
        "swap": ("x <| y |> F", "y <| x |> F"),
        "both-branches": ("x", "x <| y |> x"),
        "static-prefix": ("x", "T <| e |> x"),
    }.items()
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


@frozen
class AxiomInstanceReport:
    """One instantiated equation and its verdict under a congruence."""

    axiom_name: str
    substitution: tuple[tuple[str, Term], ...]
    holds: bool

    def substitution_map(self) -> dict[str, Term]:
        return dict(self.substitution)


def check_instance_budget(
    system: str, pool_size: int, atom_count: int, instance_budget: int
) -> None:
    """Raise InstanceBudgetError naming the first law of ``system`` with
    more than ``instance_budget`` instances over a pool of ``pool_size``
    terms whose alphabet has ``atom_count`` atoms (at least that many, if
    ``pool_size`` is itself a lower bound)."""
    for name in SYSTEMS[system]:
        scheme = AXIOMS[name]
        count = pool_size ** scheme.arity()
        if scheme.needs_atom:
            count *= max(atom_count, 1)
        if count > instance_budget:
            raise InstanceBudgetError(f"axiom {name}", count, instance_budget)


def _graft(x: object, kt: EvalTree, kf: EvalTree, nodes: dict, grafted: dict) -> EvalTree:
    # ``x``, a tree or a term, with its T leaves replaced by ``kt`` and its
    # F leaves by ``kf``; a term's T and F count as leaves, an atom as its
    # node over them, and ``P <| Q |> R`` as Q grafted onto the grafts of
    # P and R, so a term grafted onto LEAF_T and LEAF_F is its tree.
    # Hash-consed in ``nodes`` on (atom name, id(left), id(right)) and
    # memoized in ``grafted`` on (id(x), id(kt), id(kf)) for every object
    # walked, leaves included.  Without recursion: ``stack`` holds the
    # (object, kt, kf) grafts waiting on a part, innermost last.
    ikt, ikf = id(kt), id(kf)
    root = (id(x), ikt, ikf)
    y = grafted.get(root)
    if y is not None:
        return y
    grafted[id(LEAF_T), ikt, ikf] = kt
    grafted[id(LEAF_F), ikt, ikf] = kf
    stack = [(x, kt, kf)]
    while stack:
        x, kt, kf = stack[-1]
        ikt, ikf = id(kt), id(kf)
        cls = x.__class__
        if cls is Node:
            left = grafted.get((id(x.left), ikt, ikf))
            right = grafted.get((id(x.right), ikt, ikf))
            if left is None or right is None:
                stack.append((x.left if left is None else x.right, kt, kf))
                continue
            atom = x.atom
        elif cls is Cond:
            left = grafted.get((id(x.true_branch), ikt, ikf))
            right = grafted.get((id(x.false_branch), ikt, ikf))
            if left is None or right is None:
                stack.append((x.true_branch if left is None else x.false_branch, kt, kf))
                continue
            y = grafted.get((id(x.condition), id(left), id(right)))
            if y is None:
                stack.append((x.condition, left, right))
                continue
            stack.pop()
            grafted[id(x), ikt, ikf] = y
            continue
        elif cls is AtomTerm:
            atom, left, right = x.atom, kt, kf
        else:
            stack.pop()
            grafted[id(x), ikt, ikf] = kt if (x.value if cls is Leaf else cls is TrueConst) else kf
            continue
        stack.pop()
        key = (atom.name, id(left), id(right))
        y = nodes.get(key)
        if y is None:
            y = nodes[key] = Node(atom, left, right)
        grafted[id(x), ikt, ikf] = y
    return grafted[root]


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
    evaluation trees, built by the paper's law: the tree of ``P <| Q |>
    R`` is Q's with its T leaves replaced by P's tree and its F leaves by
    R's.  Each law is compiled once per process into steps that graft
    its variables' trees, each filed under the last variable it reads.
    The instances run in ``itertools.product`` order, as an odometer over
    the variables, and a step runs again only when a value it reads
    changes; the pool terms' trees are each grafted once from the term's
    objects.  All trees of the call live in one store private to it, a
    unique table keyed on (atom name, left, right) that the transforms
    build through as well, rp and cr with one table of done (node,
    context) pairs for the call.  So equal trees are one object, an
    instance holds exactly when its two transformed trees are one, each
    graft is made once and each distinct tree is transformed once.  The
    pool's alphabet is checked against a static kind's order once, not
    per instance.

    Raises InstanceBudgetError naming the first law whose cross-product
    would exceed ``instance_budget``, before any instance is checked, and
    NodeBudgetError if a static kind's trees would exceed
    ``DEFAULT_NODE_BUDGET`` nodes counted as a tree.
    """
    if system not in SYSTEMS:
        raise ValueError(f"unknown axiom system: {system!r}")
    if not pool:
        raise ValueError("substitution pool must be nonempty")
    pool = tuple(pool)
    pool_atoms = iter_atoms_sorted({a for term in pool for a in alphabet(term)})
    check_instance_budget(system, len(pool), len(pool_atoms), instance_budget)
    nodes: dict[tuple[str, int, int], Node] = {}  # (atom name, id(left), id(right))
    grafted: dict[tuple[int, int, int], EvalTree] = {}  # (id(x), id(kt), id(kf))
    transformed: dict[int, EvalTree] = {}  # id of a tree of the call -> its transform
    # Each transform builds through ``nodes``, rp and cr with one table of
    # done (node, context) pairs for the call, and is looked up on each
    # call, so rebinding rp, cr, mem or order_prefix reaches it.
    if kind.sigma is None:
        sigma = Sigma(tuple(pool_atoms))
        transform = None
        if kind.tag in ("rp", "cr"):
            transform = partial(globals()[kind.tag], nodes=nodes, done={None: {}, True: {}, False: {}})
        elif kind.tag == "mem":
            transform = partial(mem, nodes=nodes)
    else:
        sigma = kind.sigma
        for term in pool:
            check_alphabet(term, sigma, "check_axioms")
        check_static_budget(sigma, "check_axioms")

        def transform(x: EvalTree) -> EvalTree:
            return mem(order_prefix(sigma, x, nodes), nodes)

    # The trees of the pool's terms and atoms, each its graft onto T and
    # F; ``pool`` and ``atoms`` keep alive the terms whose ids are keys
    # of ``grafted``.
    atoms = tuple(AtomTerm(a) for a in pool_atoms)
    pool_trees = [_graft(term, LEAF_T, LEAF_F, nodes, grafted) for term in pool]
    atom_trees = [_graft(term, LEAF_T, LEAF_F, nodes, grafted) for term in atoms]
    order = order_prefix(sigma, LEAF_F, nodes)

    reports: list[AxiomInstanceReport] = []
    for name in SYSTEMS[system]:
        scheme = AXIOMS[name]
        stages, lhs, rhs = scheme.template
        # The law's levels, outermost first: the atom (one empty choice if
        # the law has none), then the variables.  Each lists its values'
        # pieces of the substitution and their trees.
        levels = [([(("a", a),) for a in atoms], atom_trees) if scheme.needs_atom else ([()], [LEAF_F])]
        levels += [([((v, term),) for term in pool], pool_trees) for v in scheme.variables]
        if not levels[0][1]:  # an atom law over a pool without atoms
            continue
        slots: list = [LEAF_T, LEAF_F, order] + [None] * (len(levels) + sum(map(len, stages)))
        # An odometer over the outer levels, in itertools.product order:
        # ``index`` holds their values, ``prefix[i]`` the substitution
        # of the levels before i, and ``changed`` the outermost level
        # whose value changed, from which on slots and prefixes are redone.
        last = len(levels) - 1
        index = [0] * last
        prefix = [()] * (last + 1)
        changed = 0
        while True:
            for i in range(changed, last):
                pieces, trees = levels[i]
                slots[3 + i] = trees[index[i]]
                prefix[i + 1] = prefix[i] + pieces[index[i]]
                for s, x, t, f in stages[i]:
                    slots[s] = _graft(slots[x], slots[t], slots[f], nodes, grafted)
            head = prefix[last]
            pieces, trees = levels[last]
            for piece, tree in zip(pieces, trees):
                slots[3 + last] = tree
                for s, x, t, f in stages[last]:  # most grafts are made already
                    x, t, f = slots[x], slots[t], slots[f]
                    y = grafted.get((id(x), id(t), id(f)))
                    slots[s] = _graft(x, t, f, nodes, grafted) if y is None else y
                x, y = slots[lhs], slots[rhs]
                if transform is not None:
                    tx = transformed.get(id(x))
                    if tx is None:
                        tx = transformed[id(x)] = transform(x)
                    ty = transformed.get(id(y))
                    if ty is None:
                        ty = transformed[id(y)] = transform(y)
                    x, y = tx, ty
                reports.append(AxiomInstanceReport(name, head + piece, x is y))
            changed = last - 1
            while changed >= 0 and index[changed] + 1 == len(levels[changed][1]):
                index[changed] = 0
                changed -= 1
            if changed < 0:
                break
            index[changed] += 1
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
