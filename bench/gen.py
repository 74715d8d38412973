"""Seeded request streams for the four workloads.

Every workload is a fixed list of units made from ``--seed`` alone; a run
replays the whole list, as often as its time allows.  A unit is a few
requests about the same inputs plus what the benchmark knows about their
answers.  Input sizes sit at fixed quantiles of each workload's size
range, and each unit's shape and content (polarities, renamings, flips)
come from its position (see ``unit_rngs``); the seed relabels the atoms of
every unit.  The decision procedures treat atoms alike, so every seed gives
inputs of the same cost and runs of different seeds measure the same work
on different inputs.

Sizes were chosen so that, on the parent commit of the benchmark (Python
3.11, one core of a shared 2-core machine), each request takes about 2 to
50 ms at full speed and about twice that while a neighbour shares the core,
and one pass over a list about a second, so that a 30-second run replays
every request 35 to 55 times.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

from classical import (
    F,
    Rows,
    T,
    atom,
    cond,
    desugar,
    expr_children,
    fold,
    render_expr,
    render_term,
    term_atoms,
    term_children,
)

SYSTEMS = ("free", "rp", "cr", "mem")
SEMANTICS = {"free": "se", "rp": "rpse", "cr": "cse", "mem": "mse"}
# A duplicated first-evaluated literal (l -> l && l) is absorbed by cr and
# everything coarser, and changes the free and rp trees.
DUP_EQUIVALENT = {"free": False, "rp": False, "cr": True, "mem": True, "static": True}


class Request:
    """One call: a CLI argv, or a ``check_axioms`` call for ``axioms``.

    ``expect`` is what the benchmark knows about the answer:
    ``text`` (exact stdout), ``value``/``rows`` (classical function of the
    printed term or tree), ``table`` (the column) or ``verdict``.
    """

    __slots__ = ("command", "argv", "expect")

    def __init__(self, command, argv, **expect):
        self.command = command
        self.argv = argv
        self.expect = expect


class Unit:
    """Requests about one input; ``agree`` names the equiv request and the
    two normalize requests whose outputs must give the same verdict."""

    __slots__ = ("requests", "agree")

    def __init__(self, requests, agree=None):
        self.requests = requests
        self.agree = agree


def quantiles(count: int) -> list[float]:
    """Midpoints of ``count`` equal strata of [0, 1]: every seed gets the
    same size mix, and only the content of each input is seeded."""
    return [(i + 0.5) / count for i in range(count)]


def log_between(u: float, low: float, high: float) -> float:
    return low * (high / low) ** u


def lit(rng, atoms, negate_p=0.3):
    e = ("lit", rng.choice(atoms))
    return ("not", e) if rng.random() < negate_p else e


def shape_rng(workload: str, index: int) -> random.Random:
    """Drawn from a unit's position, not from the seed: the shapes, and
    with them the evaluation-tree sizes, are the same for every seed."""
    return random.Random(f"{workload}:shape:{index}")


def unit_rngs(rng: random.Random, workload: str, index: int, letters: str) -> tuple[random.Random, str]:
    """(content, alphabet) of a unit.  Content draws (atoms by their index
    in the alphabet, polarities, renamings, flips) come from the unit's
    position; the alphabet is ``letters`` in a seeded order, so the seed
    relabels the unit's atoms and leaves its cost alone."""
    return random.Random(f"{workload}:content:{index}"), "".join(rng.sample(letters, len(letters)))


def chain(literals, connectives):
    e = literals[0]
    for op, l in zip(connectives, literals[1:]):
        e = (op, e, l)
    return e


def head_path(e):
    """The left spine of an expression down to its first-evaluated literal."""
    path = [e]
    while path[-1][0] in ("and", "or"):
        path.append(path[-1][1])
    return path


def replace_head(e, make):
    """``e`` with its first-evaluated operand ``x`` replaced by ``make(x)``."""
    path = head_path(e)
    new = make(path[-1])
    for node in reversed(path[:-1]):
        new = (node[0], new, node[2])
    return new


def duplicate_head(e):
    return replace_head(e, lambda x: ("and", x, x))


def flip_literal(e, rng):
    """Toggle the negation of one seeded literal."""
    nodes = []
    fold(e, expr_children, lambda node, kids: nodes.append(node))
    negated = {id(n[1]) for n in nodes if n[0] == "not"}
    target = rng.choice(
        [n for n in nodes if (n[0] == "lit" and id(n) not in negated) or (n[0] == "not" and n[1][0] == "lit")]
    )
    flipped = target[1] if target[0] == "not" else ("not", target)
    return fold(e, expr_children, lambda node, kids: flipped if node is target else (node[0], *kids) if kids else node)


def pair_unit(system, left, right, verdict, rows, sigma=None):
    """equiv of a pair plus the normalize requests route agreement needs."""
    extra = ["--sigma", sigma] if sigma else []
    lt, rt = render_term(left), render_term(right)
    lv, rv = rows.value(left), rows.value(right)
    if lv != rv:
        verdict = False
    elif system == "static":
        verdict = True
    return [
        Request("equiv", ["equiv", "--system", system, *extra, lt, rt], verdict=verdict),
        Request("normalize", ["normalize", "--system", system, *extra, lt], value=lv, rows=rows),
        Request("normalize", ["normalize", "--system", system, *extra, rt], value=rv, rows=rows),
    ]


def pair_verdict(kind, system):
    return {"copy": True, "dup": DUP_EQUIVALENT[system]}.get(kind)


# ---------------------------------------------------------------------------
# chains: long single-connective chains, condition-nested, no sharing
# ---------------------------------------------------------------------------


def chains_units(rng: random.Random, count: int = 8) -> list[Unit]:
    units = []
    for i, u in enumerate(quantiles(count)):
        n = round(log_between(u, 50, 160))
        content, letters = unit_rngs(rng, "chains", i, "abc")
        atoms = letters[: 1 + i % 3]
        op = ("and", "or")[(i // 3) % 2]
        src = chain([lit(content, atoms) for _ in range(n + 1)], [op] * n)
        system = SYSTEMS[i % 4]
        kind = ("copy", "dup", "flip")[i % 3]
        other = {"copy": src, "dup": duplicate_head(src), "flip": flip_literal(src, content)}[kind]
        term = desugar(src)
        rows = Rows(sorted(term_atoms(term)))
        units.append(
            Unit(
                [
                    Request("desugar", ["desugar", render_expr(src)], text=render_term(term)),
                    Request(
                        "tree",
                        ["tree", "--semantics", SEMANTICS[SYSTEMS[(i + 1) % 4]], render_term(term)],
                        value=rows.value(term),
                        rows=rows,
                    ),
                    *pair_unit(system, term, desugar(other), pair_verdict(kind, system), rows),
                ],
                agree=(2, 3, 4),
            )
        )
    return units


# ---------------------------------------------------------------------------
# nested: condition-nested shared terms, tree far larger than the DAG
# ---------------------------------------------------------------------------

NESTED_ATOMS = "abcd"


def se_size(t) -> tuple[int, int, int]:
    """(internal nodes, T leaves, F leaves) of the evaluation tree of ``t``,
    by the recurrence of leaf replacement."""

    def combine(node, kids):
        tag = node[0]
        if tag == "T":
            return (0, 1, 0)
        if tag == "F":
            return (0, 0, 1)
        if tag == "A":
            return (1, 1, 1)
        (ip, tp, fp), (iq, tq, fq), (ir, tr, fr) = kids
        return (iq + tq * ip + fq * ir, tq * tp + fq * tr, tq * fp + fq * fr)

    return fold(t, term_children, combine)


def rename(t, mapping):
    def combine(node, kids):
        if node[0] == "A":
            return atom(mapping[node[1]])
        return cond(*kids) if kids else node

    return fold(t, term_children, combine)


def family(t0, depth, rng, letters):
    """t_{k+1} = u_k <| t_k |> v_k with u_k, v_k renamings of t_k over
    ``letters``, drawn from ``rng``."""
    t = t0
    for _ in range(depth):
        copies = []
        for _ in range(2):
            perm = list(letters)
            rng.shuffle(perm)
            copies.append(rename(t, dict(zip(letters, perm))))
        t = cond(copies[0], t, copies[1])
    return t


def family_bases(low, high):
    """(tree size, base, depth) for small bases over three atoms whose
    family at depth 2 or 3 has a tree size in range."""
    leaves = (T, F, atom("a"), atom("b"), atom("c"))
    smaller = [cond(p, q, r) for p in leaves for q in leaves[2:] for r in leaves]
    bases = smaller + [
        shape
        for x in smaller
        for y in leaves
        for shape in (cond(x, atom("a"), y), cond(y, x, atom("c")), cond(y, atom("b"), x))
    ]
    found = {}
    for t0 in bases:
        size, t_leaves, f_leaves = se_size(t0)
        for depth in range(1, 4):
            size *= 1 + t_leaves + f_leaves
            t_leaves, f_leaves = t_leaves * (t_leaves + f_leaves), f_leaves * (t_leaves + f_leaves)
            if depth >= 2 and low <= size <= high:
                found.setdefault(size, (size, t0, depth))
    return sorted(found.values())


def first_condition_dup(t):
    """``t`` with its first-evaluated atom ``a`` replaced by ``a <| a |> F``
    (that is, ``a && a``)."""
    spine = [t]
    while spine[-1][0] == "C":
        spine.append(spine[-1][2])
    new = cond(spine[-1], spine[-1], F)
    for node in reversed(spine[:-1]):
        new = cond(node[1], new, node[3])
    return new


def chain_tree_size(ops) -> int:
    """Internal nodes of the evaluation tree of a literal chain: ``X && l``
    hangs ``l`` under each T leaf of ``X``, ``X || l`` under each F leaf."""
    internal, t_leaves, f_leaves = 1, 1, 1
    for op in ops:
        if op == "and":
            internal, f_leaves = internal + t_leaves, f_leaves + t_leaves
        else:
            internal, t_leaves = internal + f_leaves, t_leaves + f_leaves
    return internal


def mixed_chain(shape, rng, target, letters):
    """A mixed ``&&``/``||`` chain whose tree size is near ``target``.  The
    size depends on the connectives alone, which ``shape`` picks."""
    best = None
    for _ in range(30):
        ops = [shape.choice(("and", "or"))]
        while chain_tree_size(ops) < target:
            ops.append(shape.choice(("and", "or")))
        for candidate in (ops, ops[:-1]):
            miss = abs(math.log(chain_tree_size(candidate) / target))
            if best is None or miss < best[0]:
                best = (miss, candidate)
    ops = best[1]
    return chain([lit(rng, letters) for _ in range(len(ops) + 1)], ops)


def nested_units(rng: random.Random, count: int = 9) -> list[Unit]:
    bases = family_bases(1_200, 5_000)
    units = []
    for i, u in enumerate(quantiles(count)):
        target = log_between(u, 1_200, 5_000)
        content, letters = unit_rngs(rng, "nested", i, NESTED_ATOMS)
        if i % 3 == 0:
            _, t0, depth = min(bases, key=lambda b: abs(math.log(b[0] / target)))
            t0 = rename(t0, dict(zip("abc", content.sample(letters, 3))))
            renamings = content.random()
            term = family(t0, depth, random.Random(renamings), letters)
            swap = dict(zip(letters, letters[1] + letters[0] + letters[3] + letters[2]))
            flipped = family(rename(t0, swap), depth, random.Random(renamings), letters)
        else:
            src = mixed_chain(shape_rng("nested", i), content, target, letters)
            term = desugar(src)
            flipped = desugar(flip_literal(src, content))
        system = SYSTEMS[i % 4]
        kind = ("copy", "dup", "flip")[(i // 3) % 3]
        other = {"copy": term, "dup": first_condition_dup(term), "flip": flipped}[kind]
        rows = Rows(NESTED_ATOMS)
        units.append(
            Unit(
                [
                    Request(
                        "tree",
                        ["tree", "--semantics", SEMANTICS[SYSTEMS[(i + 2) % 4]], render_term(term)],
                        value=rows.value(term),
                        rows=rows,
                    ),
                    *pair_unit(system, term, other, pair_verdict(kind, system), rows),
                ],
                agree=(1, 2, 3),
            )
        )
    return units


# ---------------------------------------------------------------------------
# static: CNF/DNF-like terms over 4-7 atoms and short nested chains
# ---------------------------------------------------------------------------

STATIC_ATOMS = "abcdefg"


def static_expr(shape, rng):
    """A CNF/DNF-like expression or, for ``("chain", ...)``, a mixed
    chain; ``shape`` fixes everything but the literals."""
    kind, atoms, *rest = shape
    if kind == "chain":
        (ops,) = rest
        return chain([lit(rng, atoms) for _ in range(len(ops) + 1)], ops)
    clauses, width, outer = rest
    inner = "or" if outer == "and" else "and"
    parts = [chain([lit(rng, atoms, 0.4) for _ in range(width)], [inner] * (width - 1)) for _ in range(clauses)]
    return chain(parts, [outer] * (clauses - 1))


def rewrite(e, position):
    """A classical rewrite at the ``position``-th binary node or literal:
    commute the node, or double-negate the literal."""
    nodes = []
    fold(e, expr_children, lambda node, kids: nodes.append(node))
    candidates = [n for n in nodes if n[0] in ("and", "or", "lit")]
    target = candidates[position % len(candidates)]

    def combine(node, kids):
        if node is target:
            return ("not", ("not", node)) if node[0] == "lit" else (node[0], kids[1], kids[0])
        return (node[0], *kids) if kids else node

    return fold(e, expr_children, combine)


def static_cost(t, atoms) -> int:
    """Nodes of the full static tree: one copy of the term's evaluation
    tree under each of the 2^atoms leaves of the order's layering.  sse
    and sbf time grow with it, and sbf's node budget (10^6) bounds it."""
    internal, t_leaves, f_leaves = se_size(t)
    return 2 ** len(atoms) * (internal + t_leaves + f_leaves)


STATIC_MAX_COST = 35_000


def static_shape(i, target):
    """(shape, rewrite position) of unit ``i`` with static cost nearest
    ``target``; the cost does not depend on the literals."""
    shape_rng_ = shape_rng("static", i)
    placeholder = random.Random(0)
    best = None
    for _ in range(60):
        if i % 4 == 3:
            atoms = STATIC_ATOMS[: shape_rng_.randint(4, 6)]
            ops = [shape_rng_.choice(("and", "or")) for _ in range(shape_rng_.randint(8, 16))]
            shape = ("chain", atoms, ops)
        else:
            atoms = STATIC_ATOMS[: shape_rng_.randint(4, 7)]
            shape = ("nf", atoms, shape_rng_.randint(3, 8), shape_rng_.randint(2, 4), ("and", "or")[i % 2])
        position = shape_rng_.randrange(1 << 20)
        src = static_expr(shape, placeholder)
        pair = (src, rewrite(src, position)) if i % 2 == 0 else (src,)
        cost = max(static_cost(desugar(e), atoms) for e in pair)
        miss = abs(math.log(cost / target))
        if cost <= STATIC_MAX_COST and (best is None or miss < best[0]):
            best = (miss, shape, position)
    return best[1:]


def static_units(rng: random.Random, count: int = 12) -> list[Unit]:
    units = []
    for i, u in enumerate(quantiles(count)):
        shape, position = static_shape(i, log_between(u, 6_000, STATIC_MAX_COST))
        content, letters = unit_rngs(rng, "static", i, STATIC_ATOMS)
        shape = (shape[0], letters[: len(shape[1])], *shape[2:])
        src = static_expr(shape, content)
        other = rewrite(src, position) if i % 2 == 0 else flip_literal(src, content)
        left, right = desugar(src), desugar(other)
        order = list(shape[1])
        content.shuffle(order)
        sigma = "".join(order)
        rows = Rows(order)
        units.append(
            Unit(
                [
                    *pair_unit("static", left, right, None, rows, sigma),
                    Request(
                        "table",
                        ["table", "--sigma", sigma, render_term(left)],
                        table=rows.column(rows.value(left)),
                        rows=rows,
                    ),
                ],
                agree=(0, 1, 2),
            )
        )
    return units


# ---------------------------------------------------------------------------
# axioms: check_axioms over every sound (system, congruence) pairing
# ---------------------------------------------------------------------------

# Arity of each law and whether it also ranges over the pool's atoms, as
# the paper states the systems; gives the expected instance count.
LAWS = {
    "CP": ((2, False), (2, False), (1, False), (5, False)),
    "CPrp": ((3, True), (3, True)),
    "CPcr": ((3, True), (3, True)),
    "CPmem": ((6, False),) * 4 + ((4, False),) * 2,
    "CPs": ((1, False), (2, False), (2, False), (1, False)),
    "CPst": ((5, False), (4, False)),
}
LEVEL = {"CP": 0, "CPrp": 1, "CPcr": 2, "CPmem": 3, "CPs": 4, "CPst": 4}
KINDS = ("free", "rp", "cr", "mem", "static")
PAIRINGS = [(s, k) for s in LAWS for k in KINDS[LEVEL[s]:]]
POOL_SIZE = {"CP": 3, "CPrp": 3, "CPcr": 3, "CPmem": 2, "CPs": 6, "CPst": 2}


def basic_form(shape, rng, conds, letters):
    """A basic form with ``conds`` conditionals: ``shape`` places them and
    the constants, ``rng`` picks each atom from ``letters``."""
    if conds == 0:
        return shape.choice((T, F))
    left = shape.randint(0, conds - 1)
    return cond(
        basic_form(shape, rng, left, letters),
        atom(rng.choice(letters)),
        basic_form(shape, rng, conds - 1 - left, letters),
    )


def axiom_pool(shape, rng, size, letters):
    """``size`` basic forms of one and two conditionals over both atoms."""
    state = shape.getstate()
    while True:
        shape.setstate(state)
        pool = [basic_form(shape, rng, 1 + k % 2, letters) for k in range(size)]
        if set().union(*map(term_atoms, pool)) == {"a", "b"}:
            return [render_term(t) for t in pool]


def axioms_units(rng: random.Random, count: int = 2 * len(PAIRINGS)) -> list[Unit]:
    units = []
    for i in range(count):
        system, kind = PAIRINGS[i % len(PAIRINGS)]
        content, letters = unit_rngs(rng, "axioms", i, "ab")
        if kind == "static":
            kind = "static:" + content.choice((letters, letters[::-1]))
        pool = axiom_pool(shape_rng("axioms", i), content, POOL_SIZE[system], letters)
        instances = sum(len(pool) ** n * (2 if atomic else 1) for n, atomic in LAWS[system])
        units.append(Unit([Request("axioms", [system, kind, *pool], instances=instances)]))
    return units


WORKLOADS = {
    "chains": chains_units,
    "nested": nested_units,
    "static": static_units,
    "axioms": axioms_units,
}


def generate(workload: str, seed: int) -> list[Unit]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def digest(units: list[Unit]) -> str:
    """SHA-256 over every request argv and known answer, in order."""
    h = hashlib.sha256()
    for unit in units:
        for r in unit.requests:
            known = {k: v for k, v in r.expect.items() if k != "rows"}
            h.update(json.dumps([r.command, r.argv, known], sort_keys=True).encode())
    return h.hexdigest()
