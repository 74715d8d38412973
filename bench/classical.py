"""The benchmark's own term model and classical evaluator.

Nothing here imports condalg: the answers the benchmark checks the
program against come from this file alone.

Terms are tuples: ``("T",)``, ``("F",)``, ``("A", name)`` and
``("C", true_branch, condition, false_branch)``.  Short-circuit
expressions are ``("lit", name)``, ``("not", e)``, ``("and", l, r)`` and
``("or", l, r)``.  Generated terms can be deep (chains of hundreds of
connectives) and shared (the nested family), so every walk is iterative
and memoised by object identity.

Classical values are bitsets over the rows of a truth table: with atoms
``sigma`` (a sequence of names), row ``r`` assigns atom ``i`` true iff bit
``len(sigma) - 1 - i`` of ``r`` is 0.  This is the row order of
``condalg table``: the first row is all-true and the leftmost atom varies
slowest.
"""

from __future__ import annotations

import itertools
import re

T = ("T",)
F = ("F",)


def fold(root, children, combine):
    """Post-order evaluation of a DAG without recursion, one call of
    ``combine(node, child_values)`` per distinct object."""
    memo: dict[int, object] = {}
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        key = id(node)
        if key in memo:
            continue
        kids = children(node)
        if expanded or not kids:
            memo[key] = combine(node, [memo[id(k)] for k in kids])
        else:
            stack.append((node, True))
            stack.extend((k, False) for k in reversed(kids))
    return memo[id(root)]


def term_children(t):
    return t[1:] if t[0] == "C" else ()


def expr_children(e):
    return e[1:] if e[0] in ("not", "and", "or") else ()


# ---------------------------------------------------------------------------
# Construction and rendering
# ---------------------------------------------------------------------------


def atom(name: str):
    return ("A", name)


def cond(p, q, r):
    return ("C", p, q, r)


def desugar(e):
    """``p && q`` is ``q <| p |> F``, ``p || q`` is ``T <| p |> q`` and
    ``!p`` is ``F <| p |> T``, as in the paper."""

    def combine(node, kids):
        tag = node[0]
        if tag == "lit":
            return atom(node[1])
        if tag == "not":
            return cond(F, kids[0], T)
        if tag == "and":
            return cond(kids[1], kids[0], F)
        return cond(T, kids[0], kids[1])

    return fold(e, expr_children, combine)


def render_term(t) -> str:
    """Canonical text: nested conditionals parenthesised, one space
    around ``<|`` and ``|>``."""

    def combine(node, kids):
        if node[0] != "C":
            return node[1] if node[0] == "A" else node[0]
        parts = [f"({s})" if k[0] == "C" else s for k, s in zip(node[1:], kids)]
        return f"{parts[0]} <| {parts[1]} |> {parts[2]}"

    return fold(t, term_children, combine)


_PREC = {"or": 1, "and": 2, "not": 3, "lit": 4}


def render_expr(e) -> str:
    """Short-circuit source text with the parentheses the grammar needs:
    ``!`` binds tightest, ``&&`` over ``||``, both left-associative."""

    def combine(node, kids):
        tag = node[0]
        if tag == "lit":
            return node[1]
        if tag == "not":
            inner = kids[0]
            return f"!({inner})" if _PREC[node[1][0]] < 3 else f"!{inner}"
        op = " && " if tag == "and" else " || "
        left, right = kids
        if _PREC[node[1][0]] < _PREC[tag]:
            left = f"({left})"
        if _PREC[node[2][0]] <= _PREC[tag]:
            right = f"({right})"
        return left + op + right

    return fold(e, expr_children, combine)


def term_atoms(t) -> set[str]:
    def combine(node, kids):
        if node[0] == "A":
            return frozenset((node[1],))
        return frozenset().union(*kids) if kids else frozenset()

    return set(fold(t, term_children, combine))


# ---------------------------------------------------------------------------
# Classical evaluation
# ---------------------------------------------------------------------------


class Rows:
    """Atom columns of the truth table over ``sigma``."""

    def __init__(self, sigma):
        self.sigma = tuple(sigma)
        n = len(self.sigma)
        self.count = 1 << n
        self.full = (1 << self.count) - 1
        self.masks = {}
        for i, name in enumerate(self.sigma):
            bit = n - 1 - i
            self.masks[name] = sum(1 << r for r in range(self.count) if not (r >> bit) & 1)

    def cond(self, p: int, q: int, r: int) -> int:
        return (q & p) | (~q & self.full & r)

    def value(self, t) -> int:
        full, masks = self.full, self.masks

        def combine(node, kids):
            tag = node[0]
            if tag == "C":
                return self.cond(*kids)
            if tag == "A":
                return masks[node[1]]
            return full if tag == "T" else 0

        return fold(t, term_children, combine)

    def column(self, value: int) -> list[bool]:
        return [bool((value >> r) & 1) for r in range(self.count)]

    def assignments(self):
        return list(itertools.product((True, False), repeat=len(self.sigma)))


_TERM_TOKEN = re.compile(r'\s*(<\||\|>|\(|\)|T|F|[a-z][a-z0-9_]*|"[^"]*")')
_TREE_TOKEN = re.compile(r'\s*(\(|\)|T|F|<[^>]*>)')


def _tokens(pattern, text: str):
    pos, end = 0, len(text.rstrip())
    while pos < end:
        m = pattern.match(text, pos)
        if m is None:
            raise ValueError(f"unexpected text at {pos}: {text[pos:pos + 20]!r}")
        yield m.group(1)
        pos = m.end()


def _atom_name(token: str) -> str:
    return token[1:-1] if token.startswith('"') else token


def term_text_value(text: str, rows: Rows) -> int:
    """Classical value of a term in condalg's text syntax, evaluated in
    one streaming pass without building the term."""
    stack: list[list] = [[]]
    for tok in _tokens(_TERM_TOKEN, text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            frame = stack.pop()
            if len(frame) != 5 or not stack:
                raise ValueError("parenthesised group is not a conditional")
            stack[-1].append(_close_term(frame, rows))
        elif tok in ("<|", "|>"):
            stack[-1].append(tok)
        elif tok == "T":
            stack[-1].append(rows.full)
        elif tok == "F":
            stack[-1].append(0)
        else:
            stack[-1].append(rows.masks[_atom_name(tok)])
    top = stack.pop()
    if stack or len(top) not in (1, 5):
        raise ValueError("unbalanced term text")
    return top[0] if len(top) == 1 else _close_term(top, rows)


def _close_term(frame: list, rows: Rows) -> int:
    p, lt, q, gt, r = frame
    if (lt, gt) != ("<|", "|>") or not all(isinstance(v, int) for v in (p, q, r)):
        raise ValueError("malformed conditional")
    return rows.cond(p, q, r)


def tree_text_value(text: str, rows: Rows) -> int:
    """Classical value of an evaluation tree in ``(L <a> R)`` text: under
    a consistent assignment every transformed tree yields the term's
    classical value."""
    stack: list[list] = [[]]
    for tok in _tokens(_TREE_TOKEN, text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            frame = stack.pop()
            if len(frame) != 3 or not stack:
                raise ValueError("malformed tree node")
            left, name, right = frame
            stack[-1].append(rows.cond(left, rows.masks[_atom_name(name[1:-1])], right))
        elif tok == "T":
            stack[-1].append(rows.full)
        elif tok == "F":
            stack[-1].append(0)
        else:
            stack[-1].append(tok)
    top = stack.pop()
    if stack or len(top) != 1:
        raise ValueError("unbalanced tree text")
    return top[0]


def parse_table_text(text: str):
    """``(sigma names, [(assignment, value), ...])`` from ``condalg table``
    text output."""
    lines = text.rstrip("\n").split("\n")
    names = lines[0].split(" | ")[0].split()
    rows = []
    for line in lines[1:]:
        cells, _, result = line.rpartition(" | ")
        rows.append((tuple(c == "T" for c in cells.split()), result.strip() == "T"))
    return names, rows
