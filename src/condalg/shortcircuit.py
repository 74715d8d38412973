"""Short-circuit propositional connectives and effectful atom oracles.

``!``, ``&&`` and ``||`` desugar into conditionals: ``p && q`` runs ``p``
first and runs ``q`` only when ``p`` held, so with effectful atoms the
connectives are order- and repetition-sensitive.  The register oracle
supplies such atoms: ``(n=e)`` assigns and answers true, ``(e==e')``
compares.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import NestingDepthError, OracleError, TermSyntaxError
from .terms import (
    Atom,
    AtomTerm,
    Cond,
    FALSE,
    Lexicon,
    TRUE,
    Term,
    TokenCursor,
    format_atom,
)

# ---------------------------------------------------------------------------
# Expression language
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class SclTrue:
    def __repr__(self) -> str:
        return "true"


@dataclass(frozen=True, slots=True)
class SclFalse:
    def __repr__(self) -> str:
        return "false"


@dataclass(frozen=True, slots=True)
class SclAtom:
    atom: Atom

    def __repr__(self) -> str:
        return render_sc(self)


@dataclass(frozen=True, slots=True)
class SclNot:
    operand: "SclExpr"

    def __repr__(self) -> str:
        return render_sc(self)


@dataclass(frozen=True, slots=True)
class SclAnd:
    left: "SclExpr"
    right: "SclExpr"

    def __repr__(self) -> str:
        return render_sc(self)


@dataclass(frozen=True, slots=True)
class SclOr:
    left: "SclExpr"
    right: "SclExpr"

    def __repr__(self) -> str:
        return render_sc(self)


SclExpr = Union[SclTrue, SclFalse, SclAtom, SclNot, SclAnd, SclOr]

SC_TRUE = SclTrue()
SC_FALSE = SclFalse()


# The connective grammar: `!` binds tightest, `&&` over `||`, both
# left-associative; atoms as in the term grammar.

_SC_TOKENS = Lexicon(r"""&& | \|\| | ! | \( | \) | "[^"]*" | [a-z][a-z0-9_]*""")

_KEYWORDS = {"true": SC_TRUE, "false": SC_FALSE}


def _sc_or(cur: TokenCursor) -> SclExpr:
    expr = _sc_and(cur)
    while cur.peek() == "||":
        cur.take()
        expr = SclOr(expr, _sc_and(cur))
    return expr


def _sc_and(cur: TokenCursor) -> SclExpr:
    expr = _sc_unary(cur)
    while cur.peek() == "&&":
        cur.take()
        expr = SclAnd(expr, _sc_unary(cur))
    return expr


def _sc_unary(cur: TokenCursor) -> SclExpr:
    token = cur.take()
    if token == "!":
        return SclNot(_sc_unary(cur))
    if token == "(":
        inner = _sc_or(cur)
        cur.expect(")")
        return inner
    if token[0] == '"':
        if token == '""':
            raise cur.fail("empty quoted atom")
        return SclAtom(Atom(token[1:-1]))
    if token[0].isalpha():
        if token in _KEYWORDS:
            return _KEYWORDS[token]
        return SclAtom(Atom(token))
    raise cur.fail(f"unexpected token {token!r}")


def parse_sc(text: str) -> SclExpr:
    """Parse a short-circuit expression (``!``, ``&&``, ``||``,
    ``true``/``false``, atoms, parentheses).  Raises NestingDepthError
    when the nesting exceeds what the interpreter's recursion limit lets
    the parser descend."""
    cur = TokenCursor(_SC_TOKENS, text, TermSyntaxError)
    try:
        expr = _sc_or(cur)
    except RecursionError:
        raise NestingDepthError("input nested too deeply") from None
    cur.finish()
    return expr


def render_sc(e: SclExpr) -> str:
    """Render an expression with minimal parentheses."""
    if isinstance(e, SclTrue):
        return "true"
    if isinstance(e, SclFalse):
        return "false"
    if isinstance(e, SclAtom):
        # An atom spelled like a keyword is quoted, or it would read back
        # as the constant.
        if e.atom.name in _KEYWORDS:
            return f'"{e.atom.name}"'
        return format_atom(e.atom)
    if isinstance(e, SclNot):
        inner = render_sc(e.operand)
        if isinstance(e.operand, (SclAnd, SclOr)):
            inner = f"({inner})"
        return f"!{inner}"
    if isinstance(e, SclAnd):
        left = render_sc(e.left)
        if isinstance(e.left, SclOr):
            left = f"({left})"
        right = render_sc(e.right)
        if isinstance(e.right, (SclAnd, SclOr)):
            right = f"({right})"
        return f"{left} && {right}"
    left = render_sc(e.left)
    right = render_sc(e.right)
    if isinstance(e.right, SclOr):
        right = f"({right})"
    return f"{left} || {right}"


def _desugar(e: SclExpr, atoms: dict[str, AtomTerm]) -> Term:
    if isinstance(e, SclAnd):
        return Cond(_desugar(e.right, atoms), _desugar(e.left, atoms), FALSE)
    if isinstance(e, SclOr):
        return Cond(TRUE, _desugar(e.left, atoms), _desugar(e.right, atoms))
    if isinstance(e, SclAtom):
        term = atoms.get(e.atom.name)
        if term is None:
            term = atoms[e.atom.name] = AtomTerm(e.atom)
        return term
    if isinstance(e, SclNot):
        return Cond(FALSE, _desugar(e.operand, atoms), TRUE)
    return TRUE if isinstance(e, SclTrue) else FALSE


def desugar(e: SclExpr) -> Term:
    """Rewrite the connectives into conditionals, with one ``AtomTerm``
    per atom name, as ``parse_term`` builds them.

    ``p && q`` becomes ``q <| p |> F`` and ``!p`` becomes ``F <| p |> T``;
    ``p || q`` becomes ``T <| p |> q``, the dual of ``&&``.
    """
    return _desugar(e, {})


# ---------------------------------------------------------------------------
# Register oracle
# ---------------------------------------------------------------------------

_REGISTER_RE = re.compile(r"[a-z][a-z0-9_]*\Z")
# ASCII digits, as register expressions read them (int() takes more).
_STATE_INT_RE = re.compile(r"[-+]?[0-9]+\Z")


_EXPR_TOKENS = Lexicon(r"[0-9]+ | [a-z][a-z0-9_]* | [-+] | \( | \)")


def _expr_error(message: str, position: int) -> OracleError:
    return OracleError(f"{message} in register expression")


def _eval_sum(cur: TokenCursor, state: Mapping[str, int]) -> int:
    value = _eval_primary(cur, state)
    while cur.peek() in ("+", "-"):
        sign = cur.take()
        rhs = _eval_primary(cur, state)
        value = value + rhs if sign == "+" else value - rhs
    return value


def _eval_primary(cur: TokenCursor, state: Mapping[str, int]) -> int:
    token = cur.take()
    if token[0].isdigit():
        return int(token)
    if token[0].isalpha():
        if token not in state:
            raise OracleError(f"unknown register {token!r}")
        return state[token]
    if token == "(":
        value = _eval_sum(cur, state)
        cur.expect(")")
        return value
    raise cur.fail(f"unexpected {token!r}")


def _eval_register_expr(text: str, state: Mapping[str, int]) -> int:
    """Evaluate a register expression: integers, register names, binary
    + and -, parentheses.  Raises NestingDepthError when the parentheses
    nest deeper than the interpreter's recursion limit lets the evaluator
    descend."""
    cur = TokenCursor(_EXPR_TOKENS, text, _expr_error)
    try:
        value = _eval_sum(cur, state)
    except RecursionError:
        raise NestingDepthError("input nested too deeply") from None
    cur.finish()
    return value


class RegisterOracle:
    """Stateful oracle over integer registers.

    Recognizes two atom shapes: ``(r=expr)`` assigns the expression's
    value to register ``r`` and answers true; ``(expr==expr)`` answers
    whether the two sides are equal.  Anything else is refused.  Single
    owner: do not share one oracle across concurrent evaluations.
    """

    def __init__(self, initial: Mapping[str, int]):
        for name in initial:
            if not _REGISTER_RE.match(name):
                raise OracleError(f"bad register name {name!r}")
        self.state: dict[str, int] = dict(initial)

    def __call__(self, atom: Atom) -> bool:
        text = atom.name
        if not (text.startswith("(") and text.endswith(")")) or len(text) < 3:
            raise OracleError(f"atom {text!r} is not a register query")
        inner = text[1:-1]
        if "==" in inner:
            left, _, right = inner.partition("==")
            return _eval_register_expr(left, self.state) == _eval_register_expr(
                right, self.state
            )
        if "=" in inner:
            target, _, expr = inner.partition("=")
            target = target.strip()
            if not _REGISTER_RE.match(target):
                raise OracleError(f"bad assignment target in atom {text!r}")
            if target not in self.state:
                raise OracleError(f"unknown register {target!r}")
            self.state[target] = _eval_register_expr(expr, self.state)
            return True
        raise OracleError(f"atom {text!r} is neither an assignment nor a comparison")


def make_register_oracle(initial: Mapping[str, int]) -> RegisterOracle:
    """Build a fresh register oracle; all registers an evaluation touches
    must already be present in ``initial``."""
    return RegisterOracle(initial)


def parse_register_state(text: str) -> dict[str, int]:
    """Parse comma-separated ``name=int`` assignments, e.g. ``n=0,m=3``."""
    state: dict[str, int] = {}
    if not text.strip():
        return state
    for chunk in text.split(","):
        name, sep, value = chunk.partition("=")
        name = name.strip()
        value = value.strip()
        if not sep or not _REGISTER_RE.match(name):
            raise OracleError(f"bad register assignment {chunk!r}")
        if not _STATE_INT_RE.match(value):
            raise OracleError(f"bad integer in register assignment {chunk!r}")
        state[name] = int(value)
    return state
