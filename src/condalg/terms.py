"""Conditional statements: the term language, its syntax, and basic-form predicates.

A term is built from the constants T and F, atoms, and the ternary
conditional ``P <| Q |> R`` ("if Q then P else R"; Q is the central
condition).  Terms are immutable and compared structurally.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence, Union

from .errors import DuplicateAtomError, NestingDepthError, TermSyntaxError

_IDENT_RE = re.compile(r"[a-z][a-z0-9_]*\Z")


# ---------------------------------------------------------------------------
# Atoms and atom sequences
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Atom:
    """An atomic proposition, identified by its name.

    Names that match ``[a-z][a-z0-9_]*`` render bare; any other name
    renders double-quoted, so names may not contain the quote character.
    """

    name: str

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("atom name must be nonempty")
        if '"' in self.name:
            raise ValueError("atom name may not contain a double quote")

    def __repr__(self) -> str:
        return f"Atom({self.name!r})"

    def __str__(self) -> str:
        return format_atom(self)


def format_atom(a: Atom) -> str:
    """Render an atom bare when it is a plain identifier, quoted otherwise."""
    if _IDENT_RE.match(a.name):
        return a.name
    return f'"{a.name}"'


AtomSet = frozenset  # unordered finite set of Atom


@dataclass(frozen=True, slots=True)
class Sigma:
    """A duplicate-free, ordered sequence of atoms (an evaluation order).

    The empty sequence is allowed.
    """

    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        if len(set(self.atoms)) != len(self.atoms):
            raise DuplicateAtomError(
                f"evaluation order contains a repeated atom: {self}"
            )

    @classmethod
    def of(cls, *names: str) -> Sigma:
        return cls(tuple(Atom(n) for n in names))

    def alphabet(self) -> AtomSet:
        return frozenset(self.atoms)

    def __len__(self) -> int:
        return len(self.atoms)

    def __iter__(self) -> Iterator[Atom]:
        return iter(self.atoms)

    def __str__(self) -> str:
        return " ".join(format_atom(a) for a in self.atoms) if self.atoms else "ε"

    def __repr__(self) -> str:
        return f"Sigma({self.atoms!r})"


SIGMA_EMPTY = Sigma(())


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class TrueConst:
    def __repr__(self) -> str:
        return "T"


@dataclass(frozen=True, slots=True)
class FalseConst:
    def __repr__(self) -> str:
        return "F"


@dataclass(frozen=True, slots=True)
class AtomTerm:
    atom: Atom

    def __repr__(self) -> str:
        return format_atom(self.atom)


@dataclass(frozen=True, slots=True)
class Cond:
    """The conditional ``true_branch <| condition |> false_branch``."""

    true_branch: "Term"
    condition: "Term"
    false_branch: "Term"

    def __repr__(self) -> str:
        return render_term(self)


Term = Union[TrueConst, FalseConst, AtomTerm, Cond]

TRUE = TrueConst()
FALSE = FalseConst()


def atom(name: str) -> AtomTerm:
    """Shorthand for building an atom term from its name."""
    return AtomTerm(Atom(name))


# ---------------------------------------------------------------------------
# Token cursor, shared by the term, short-circuit and register grammars
# ---------------------------------------------------------------------------

_SPACE_RE = re.compile(r"\s*")

Token = tuple[str, str, int]  # (kind, text, position)


class TokenCursor:
    """The tokens of ``text``, split by one regex whose named groups are the
    token kinds, with whitespace between tokens skipped.

    The whole text is split up front, so a stray character is reported
    before any grammar error.  Malformed or empty input raises
    ``error(message, position)``.
    """

    def __init__(
        self,
        pattern: re.Pattern[str],
        text: str,
        error: Callable[[str, int], Exception],
    ):
        self.text = text
        self.error = error
        self.tokens: list[Token] = []
        self.i = 0
        pos = _SPACE_RE.match(text).end()
        while pos < len(text):
            m = pattern.match(text, pos)
            if m is None:
                raise error(f"unexpected character {text[pos]!r}", pos)
            self.tokens.append((m.lastgroup, m.group(), pos))
            pos = _SPACE_RE.match(text, m.end()).end()
        if not self.tokens:
            raise error("empty input", 0)

    def peek(self) -> str | None:
        """The kind of the next token, or None at the end."""
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def take(self) -> Token:
        if self.i == len(self.tokens):
            raise self.error("unexpected end of input", len(self.text))
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, kind: str, shown: str) -> Token:
        """Take the next token, which must be of ``kind`` (``shown`` in
        messages)."""
        token = self.take()
        if token[0] != kind:
            raise self.error(f"expected {shown}, found {token[1]!r}", token[2])
        return token

    def finish(self) -> None:
        """Require that every token has been taken."""
        if self.i < len(self.tokens):
            _, text, pos = self.tokens[self.i]
            raise self.error(f"trailing input {text!r}", pos)


# ---------------------------------------------------------------------------
# Concrete syntax
#
#   term    := 'T' | 'F' | atom | cond
#   cond    := operand '<|' operand '|>' operand
#   operand := 'T' | 'F' | atom | '(' cond ')'
#   atom    := [a-z][a-z0-9_]* | '"' any-non-quote-chars '"'
# ---------------------------------------------------------------------------

# An empty or unterminated quote matches no token, so it is reported as a
# stray quote character.
_TERM_TOKEN_RE = re.compile(
    r"""(?P<true>T) | (?P<false>F) | (?P<lparen>\() | (?P<rparen>\)) |
        (?P<ltri><\|) | (?P<rtri>\|>) |
        (?P<quoted>"[^"]+") | (?P<ident>[a-z][a-z0-9_]*)""",
    re.VERBOSE,
)


def _operand(cur: TokenCursor) -> Term:
    kind, text, pos = cur.take()
    if kind == "true":
        return TRUE
    if kind == "false":
        return FALSE
    if kind == "ident":
        return AtomTerm(Atom(text))
    if kind == "quoted":
        return AtomTerm(Atom(text[1:-1]))
    if kind == "lparen":
        inner = _cond(cur, _operand(cur))
        cur.expect("rparen", "')'")
        return inner
    raise TermSyntaxError(f"unexpected token {text!r}", pos)


def _cond(cur: TokenCursor, left: Term) -> Cond:
    cur.expect("ltri", "'<|'")
    mid = _operand(cur)
    cur.expect("rtri", "'|>'")
    return Cond(left, mid, _operand(cur))


def parse_term(text: str) -> Term:
    """Parse the canonical text form of a term.

    Raises TermSyntaxError (with a character position) on malformed or
    empty input, and NestingDepthError when the nesting exceeds what the
    interpreter's recursion limit lets the parser descend.
    """
    cur = TokenCursor(_TERM_TOKEN_RE, text, TermSyntaxError)
    try:
        term = _operand(cur)
        if cur.peek() == "ltri":
            term = _cond(cur, term)
    except RecursionError:
        raise NestingDepthError("input nested too deeply") from None
    cur.finish()
    return term


def render_term(t: Term) -> str:
    """Render a term canonically: nested conditionals fully parenthesized,
    one space around ``<|`` and ``|>``."""
    if isinstance(t, TrueConst):
        return "T"
    if isinstance(t, FalseConst):
        return "F"
    if isinstance(t, AtomTerm):
        return format_atom(t.atom)
    parts = []
    for sub in (t.true_branch, t.condition, t.false_branch):
        s = render_term(sub)
        parts.append(f"({s})" if isinstance(sub, Cond) else s)
    return f"{parts[0]} <| {parts[1]} |> {parts[2]}"


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


def dual(t: Term) -> Term:
    """Swap T and F and the two outer branches, recursively.

    An involution: ``dual(dual(t)) == t``.
    """
    if isinstance(t, TrueConst):
        return FALSE
    if isinstance(t, FalseConst):
        return TRUE
    if isinstance(t, AtomTerm):
        return t
    return Cond(dual(t.false_branch), dual(t.condition), dual(t.true_branch))


def alphabet(t: Term) -> AtomSet:
    """The set of atoms occurring anywhere in a term."""
    found: set[Atom] = set()
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, AtomTerm):
            found.add(x.atom)
        elif isinstance(x, Cond):
            stack.extend((x.true_branch, x.condition, x.false_branch))
    return frozenset(found)


def depth(t: Term) -> int:
    """Nesting depth: constants and atoms are 0, a conditional is one more
    than its deepest child (condition position included)."""
    if isinstance(t, Cond):
        return 1 + max(
            depth(t.true_branch), depth(t.condition), depth(t.false_branch)
        )
    return 0


def term_size(t: Term) -> int:
    """Number of nodes in a term, counted as a tree.

    Shared sub-objects (terms built by the normalizers reuse subterms) are
    counted once per occurrence, so this is the size of the rendered tree,
    not the object count.
    """
    sizes: dict[int, int] = {}

    def walk(x: Term) -> int:
        key = id(x)
        hit = sizes.get(key)
        if hit is not None:
            return hit
        if isinstance(x, Cond):
            n = 1 + walk(x.true_branch) + walk(x.condition) + walk(x.false_branch)
        else:
            n = 1
        sizes[key] = n
        return n

    return walk(t)


# ---------------------------------------------------------------------------
# Basic-form predicates
# ---------------------------------------------------------------------------


def is_basic_form(t: Term) -> bool:
    """True iff every central condition in the term is an atom."""
    if isinstance(t, (TrueConst, FalseConst)):
        return True
    if isinstance(t, AtomTerm):
        return False
    return (
        isinstance(t.condition, AtomTerm)
        and is_basic_form(t.true_branch)
        and is_basic_form(t.false_branch)
    )


def _central_atom(t: Term) -> Atom | None:
    if isinstance(t, Cond) and isinstance(t.condition, AtomTerm):
        return t.condition.atom
    return None


def is_rp_basic_form(t: Term) -> bool:
    """Basic form where a child repeating its parent's atom must have the
    shape ``Q <| a |> Q`` with identical outer arguments."""
    if isinstance(t, (TrueConst, FalseConst)):
        return True
    if not isinstance(t, Cond) or not isinstance(t.condition, AtomTerm):
        return False
    a = t.condition.atom
    for child in (t.true_branch, t.false_branch):
        if not is_rp_basic_form(child):
            return False
        if isinstance(child, Cond) and _central_atom(child) == a:
            if child.true_branch != child.false_branch:
                return False
    return True


def is_cr_basic_form(t: Term) -> bool:
    """Basic form in which no child repeats its parent's central atom."""
    if isinstance(t, (TrueConst, FalseConst)):
        return True
    if not isinstance(t, Cond) or not isinstance(t.condition, AtomTerm):
        return False
    a = t.condition.atom
    for child in (t.true_branch, t.false_branch):
        if not is_cr_basic_form(child):
            return False
        if isinstance(child, Cond) and _central_atom(child) == a:
            return False
    return True


def is_mem_basic_form(t: Term) -> bool:
    """Basic form in which no atom reoccurs anywhere below its own node."""
    if isinstance(t, (TrueConst, FalseConst)):
        return True
    if not isinstance(t, Cond) or not isinstance(t.condition, AtomTerm):
        return False
    a = t.condition.atom
    for child in (t.true_branch, t.false_branch):
        if not is_mem_basic_form(child):
            return False
        if a in alphabet(child):
            return False
    return True


def is_st_basic_form(t: Term, sigma: Sigma) -> bool:
    """True iff the term is a full binary tree layered in reverse order of
    ``sigma``: the last atom of sigma at the root, constants at the leaves."""
    return _is_st_over(t, sigma.atoms)


def _is_st_over(t: Term, atoms: tuple[Atom, ...]) -> bool:
    if not atoms:
        return isinstance(t, (TrueConst, FalseConst))
    if not isinstance(t, Cond) or _central_atom(t) != atoms[-1]:
        return False
    rest = atoms[:-1]
    return _is_st_over(t.true_branch, rest) and _is_st_over(t.false_branch, rest)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def enumerate_basic_forms(
    alphabet_atoms: Sequence[Atom], max_depth: int
) -> list[Term]:
    """All basic forms over the given atoms with depth <= max_depth.

    Deterministic order: ascending depth, then lexicographic on the
    canonical rendering.  The alphabet must be duplicate-free.
    """
    atoms = tuple(alphabet_atoms)
    if len(set(atoms)) != len(atoms):
        raise DuplicateAtomError("enumeration alphabet contains a repeated atom")
    # A form of depth <= d is T, F, or a conditional whose children have
    # depth <= d-1; distinct (child, atom, child) triples are distinct terms,
    # so each layer is duplicate-free by construction.
    layer: list[Term] = [TRUE, FALSE]
    for _ in range(max_depth):
        grown: list[Term] = [TRUE, FALSE]
        for a in atoms:
            cond_term = AtomTerm(a)
            for p in layer:
                for q in layer:
                    grown.append(Cond(p, cond_term, q))
        layer = grown
    return sorted(layer, key=lambda term: (depth(term), render_term(term)))


def iter_atoms_sorted(atom_set: Iterable[Atom]) -> list[Atom]:
    """Atoms in deterministic (name) order."""
    return sorted(atom_set, key=lambda a: a.name)
