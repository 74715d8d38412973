"""Short-circuit propositional connectives and effectful atom oracles.

``!``, ``&&`` and ``||`` desugar into conditionals: ``p && q`` runs ``p``
first and runs ``q`` only when ``p`` held, so with effectful atoms the
connectives are order- and repetition-sensitive.  The register oracle
supplies such atoms: ``(n=e)`` assigns and answers true, ``(e==e')``
compares.
"""

from __future__ import annotations

import re
from typing import Mapping, Union

from .errors import OracleError, TermSyntaxError
from .terms import (
    Atom,
    AtomTerm,
    Cond,
    FALSE,
    IDENT,
    Lexicon,
    TRUE,
    Term,
    TokenCursor,
    format_atom,
    frozen,
)

# ---------------------------------------------------------------------------
# Expression language
# ---------------------------------------------------------------------------


@frozen
class SclTrue:
    def __repr__(self) -> str:
        return "true"


@frozen
class SclFalse:
    def __repr__(self) -> str:
        return "false"


@frozen
class SclAtom:
    atom: Atom

    def __repr__(self) -> str:
        return render_sc(self)


@frozen(deep=True)
class SclNot:
    operand: "SclExpr"

    def __repr__(self) -> str:
        return render_sc(self)


@frozen(deep=True)
class SclAnd:
    left: "SclExpr"
    right: "SclExpr"

    def __repr__(self) -> str:
        return render_sc(self)


@frozen(deep=True)
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

_SC_TOKENS = Lexicon(rf"""&& | \|\| | ! | \( | \) | "[^"]*" | {IDENT}""")

_KEYWORDS = {"true": SC_TRUE, "false": SC_FALSE}
_BINARY = (SclAnd, SclOr)


def _apply_connectives(operands: list[SclExpr], ops: list[str]) -> None:
    # Apply the connectives on top of ``ops``, down to the innermost open
    # parenthesis, each to the last two operands.
    while ops and ops[-1] != "(":
        right = operands.pop()
        operands[-1] = (SclAnd if ops.pop() == "&&" else SclOr)(operands[-1], right)


def parse_sc(text: str) -> SclExpr:
    """Parse a short-circuit expression (``!``, ``&&``, ``||``,
    ``true``/``false``, atoms, parentheses).

    Reads the tokens in one loop, keeping the operands read so far on one
    stack and the pending operators and open parentheses on another, so
    any nesting parses at the default recursion limit.  Raises
    TermSyntaxError (with a character position) on malformed input.
    """
    cur = TokenCursor(_SC_TOKENS, text, TermSyntaxError)
    operands: list[SclExpr] = []
    ops: list[str] = []  # "!", "(", "&&" and "||" still open, innermost last
    depth = 0  # the open parentheses
    wanted = True  # whether an operand is wanted next
    for k, token in enumerate(cur.tokens):
        if wanted:
            if token == "!" or token == "(":
                ops.append(token)
                depth += token == "("
                continue
            if token[0] == '"':
                if token == '""':
                    raise cur.error("empty quoted atom", cur.position(k))
                expr = SclAtom(Atom(token[1:-1]))
            elif token[0].isalpha():
                expr = _KEYWORDS.get(token)
                if expr is None:
                    expr = SclAtom(Atom(token))
            else:
                raise cur.error(f"unexpected token {token!r}", cur.position(k))
        elif token == "&&" or token == "||":
            # Both are left-associative, and && binds tighter: apply the
            # pending && and, before an ||, the pending ||.
            while ops and (ops[-1] == "&&" or ops[-1] == token):
                right = operands.pop()
                operands[-1] = (SclAnd if ops.pop() == "&&" else SclOr)(operands[-1], right)
            ops.append(token)
            wanted = True
            continue
        elif token == ")" and depth:
            _apply_connectives(operands, ops)
            ops.pop()
            depth -= 1
            expr = operands.pop()
        else:
            message = f"expected ')', found {token!r}" if depth else f"trailing input {token!r}"
            raise cur.error(message, cur.position(k))
        # An operand is complete: the !s just before it apply first.
        while ops and ops[-1] == "!":
            ops.pop()
            expr = SclNot(expr)
        operands.append(expr)
        wanted = False
    if wanted or depth:
        raise cur.error("unexpected end of input", len(text))
    _apply_connectives(operands, ops)
    return operands[0]


def render_sc(e: SclExpr) -> str:
    """Render an expression with minimal parentheses."""
    parts: list[str] = []
    # Pending work, last first: a string to append or an expression to write.
    stack: list = [e]
    while stack:
        x = stack.pop()
        cls = x.__class__
        if cls is str:
            parts.append(x)
        elif cls is SclAnd or cls is SclOr:
            left, right = x.left, x.right
            # && groups an operand that is a connective on its right, and
            # an || on its left; || groups only an || on its right.
            if cls is SclAnd:
                stack += (")", right, " && (") if right.__class__ in _BINARY else (right, " && ")
                stack += (")", left, "(") if left.__class__ is SclOr else (left,)
            else:
                stack += (")", right, " || (") if right.__class__ is SclOr else (right, " || ")
                stack.append(left)
        elif cls is SclNot:
            operand = x.operand
            stack += (")", operand, "!(") if operand.__class__ in _BINARY else (operand, "!")
        elif cls is SclAtom:
            # An atom spelled like a keyword is quoted, or it would read back
            # as the constant.
            name = x.atom.name
            parts.append(f'"{name}"' if name in _KEYWORDS else format_atom(x.atom))
        else:
            parts.append("true" if cls is SclTrue else "false")
    return "".join(parts)


def desugar(e: SclExpr) -> Term:
    """Rewrite the connectives into conditionals, with one ``AtomTerm``
    per atom name, as ``parse_term`` builds them.

    ``p && q`` becomes ``q <| p |> F`` and ``!p`` becomes ``F <| p |> T``;
    ``p || q`` becomes ``T <| p |> q``, the dual of ``&&``.
    """
    # Without recursion: ``stack`` holds, last first, the expressions to
    # desugar and, as their classes, the connectives whose operands'
    # terms are the last ones on ``terms``.
    atoms: dict[str, AtomTerm] = {}
    terms: list[Term] = []
    stack: list = [e]
    while stack:
        x = stack.pop()
        cls = x.__class__
        if cls is SclAnd or cls is SclOr:
            stack += (cls, x.right, x.left)
        elif cls is SclAtom:
            term = atoms.get(x.atom.name)
            if term is None:
                term = atoms[x.atom.name] = AtomTerm(x.atom)
            terms.append(term)
        elif cls is SclNot:
            stack += (cls, x.operand)
        elif cls is type:
            if x is SclNot:
                terms[-1] = Cond(FALSE, terms[-1], TRUE)
            else:
                right = terms.pop()
                if x is SclAnd:
                    terms[-1] = Cond(right, terms[-1], FALSE)
                else:
                    terms[-1] = Cond(TRUE, terms[-1], right)
        else:
            terms.append(TRUE if cls is SclTrue else FALSE)
    return terms[0]


# ---------------------------------------------------------------------------
# Register oracle
# ---------------------------------------------------------------------------

# ASCII digits, as register expressions read them (int() takes more).
_STATE_INT_RE = re.compile(r"[-+]?[0-9]+\Z")


_EXPR_TOKENS = Lexicon(rf"[0-9]+ | {IDENT} | [-+] | \( | \)")


def _expr_error(message: str, position: int) -> OracleError:
    return OracleError(f"{message} in register expression")


def _eval_register_expr(text: str, state: Mapping[str, int]) -> int:
    """Evaluate a register expression: integers, register names, binary
    + and -, parentheses.  Reads the tokens in one loop, keeping the sum
    outside each open parenthesis on a stack, so any nesting evaluates at
    the default recursion limit."""
    cur = TokenCursor(_EXPR_TOKENS, text, _expr_error)
    outer: list[tuple[int, str]] = []  # (sum before, sign) per open parenthesis
    value, sign = 0, "+"  # the sum so far and the sign of the next operand
    wanted = True  # whether an operand is wanted next
    for k, token in enumerate(cur.tokens):
        if wanted:
            if token[0].isdigit():
                operand = int(token)
            elif token[0].isalpha():
                if token not in state:
                    raise OracleError(f"unknown register {token!r}")
                operand = state[token]
            elif token == "(":
                outer.append((value, sign))
                value, sign = 0, "+"
                continue
            else:
                raise cur.error(f"unexpected {token!r}", cur.position(k))
        elif token == "+" or token == "-":
            sign = token
            wanted = True
            continue
        elif token == ")" and outer:
            operand = value
            value, sign = outer.pop()
        else:
            message = f"expected ')', found {token!r}" if outer else f"trailing input {token!r}"
            raise cur.error(message, cur.position(k))
        value = value + operand if sign == "+" else value - operand
        wanted = False
    if wanted or outer:
        raise cur.error("unexpected end of input", len(text))
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
            if not re.fullmatch(IDENT, name):
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
            if not re.fullmatch(IDENT, target):
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
    """Parse comma-separated ``name=int`` assignments, e.g. ``n=0,m=3``.
    Each register may be assigned once."""
    state: dict[str, int] = {}
    if not text.strip():
        return state
    for chunk in text.split(","):
        name, sep, value = chunk.partition("=")
        name = name.strip()
        value = value.strip()
        if not sep or not re.fullmatch(IDENT, name):
            raise OracleError(f"bad register assignment {chunk!r}")
        if not _STATE_INT_RE.match(value):
            raise OracleError(f"bad integer in register assignment {chunk!r}")
        if name in state:
            raise OracleError(f"register {name!r} is assigned twice")
        state[name] = int(value)
    return state
