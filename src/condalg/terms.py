"""Conditional statements: the term language, its syntax, and basic-form predicates.

A term is built from the constants T and F, atoms, and the ternary
conditional ``P <| Q |> R`` ("if Q then P else R"; Q is the central
condition).  Terms are immutable and compared structurally.

Reading and writing text cost what they read and write.  ``TokenCursor``
splits a whole text with one regex call and serves the term,
short-circuit and register-expression grammars.  ``parse_term`` reads
the term grammar's tokens in one loop with explicit stacks, not by
recursive descent, so any nesting parses at the default recursion limit,
and nothing in the library recurses on what it returns.
``render_shared``, the writer behind ``render_term``
and the ascii ``render_tree``, writes a DAG whose objects are shared (as
the normalizers and ``se`` build them) without walking a shared object
twice: it builds the text of each object reached from more than one
parent once and reuses it, and keeps no other object's text.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError, dataclass, fields
from operator import attrgetter
from typing import Callable, Iterable, Iterator, Sequence, Union

from .errors import AlphabetCoverageError, DuplicateAtomError, TermSyntaxError

# A bare atom name, as the term and short-circuit grammars read it and
# ``format_atom`` writes it; a register name too.
IDENT = r"[a-z][a-z0-9_]*"
_IDENT_RE = re.compile(IDENT)


def frozen(cls=None, /, *, init: bool = True, deep: bool = False):
    """``dataclass(frozen=True, slots=True, init=init)``, whose instances
    raise FrozenInstanceError on setting or deleting any name.  (The
    methods dataclasses generates raise TypeError for a name that is not
    a field once ``slots=True`` has rebuilt the class.)

    A ``deep`` class, whose fields hold objects of such classes, gets the
    ``==`` and ``hash`` dataclasses generate, on its fields in order, but
    without recursion: any depth compares at the default recursion limit."""

    def make(cls):
        cls = dataclass(frozen=True, slots=True, init=init)(cls)
        cls.__setattr__ = cls.__delattr__ = _refuse_change
        if deep:
            get = attrgetter(*(f.name for f in fields(cls)))
            _FIELDS[cls] = get if len(fields(cls)) > 1 else lambda x: (get(x),)
            cls.__eq__, cls.__hash__ = _equal, _hash
        return cls

    return make if cls is None else make(cls)


def _refuse_change(self, name, *value):
    raise FrozenInstanceError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")


_FIELDS: dict[type, Callable] = {}  # deep class -> the tuple of an instance's fields


def _fields(x: object) -> tuple:
    get = _FIELDS.get(x.__class__)
    return get(x) if get is not None else ()


def _equal(x: object, y: object) -> bool:
    # ``x == y`` for deep objects: like ``same_tree``, a walk over pairs
    # of objects that stops at identical ones and compares each pair once.
    if y.__class__ is not x.__class__:
        return NotImplemented
    seen: set[tuple[int, int]] = set()
    pending = [(x, y)]
    while pending:
        x, y = pending.pop()
        if x is y or (id(x), id(y)) in seen:
            continue
        seen.add((id(x), id(y)))
        if y.__class__ is not x.__class__ or x.__class__ not in _FIELDS and x != y:
            return False
        pending += zip(_fields(x), _fields(y))
    return True


class _Hashed(int):
    __hash__ = int.__int__  # a tuple of hashes hashes as the tuple of their objects


def _hash(x: object) -> int:
    # ``hash`` of a deep object's fields as a tuple, folded up from its
    # leaves, each distinct object once.
    return int(fold(x, _fields, lambda y, kids: _Hashed(hash(tuple(kids)) if kids else hash(y))))


# ---------------------------------------------------------------------------
# Atoms and atom sequences
# ---------------------------------------------------------------------------


@frozen
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
    if _IDENT_RE.fullmatch(a.name):
        return a.name
    return f'"{a.name}"'


AtomSet = frozenset  # unordered finite set of Atom


@frozen
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


@frozen
class TrueConst:
    def __repr__(self) -> str:
        return "T"


@frozen
class FalseConst:
    def __repr__(self) -> str:
        return "F"


@frozen
class AtomTerm:
    atom: Atom

    def __repr__(self) -> str:
        return format_atom(self.atom)


@frozen(init=False, deep=True)
class Cond:
    """The conditional ``true_branch <| condition |> false_branch``."""

    true_branch: "Term"
    condition: "Term"
    false_branch: "Term"

    # Every layer builds conditionals, so this fills the slots directly,
    # where the generated frozen __init__ calls object.__setattr__.
    def __init__(self, true_branch: "Term", condition: "Term", false_branch: "Term"):
        _set_true_branch(self, true_branch)
        _set_condition(self, condition)
        _set_false_branch(self, false_branch)

    def __repr__(self) -> str:
        return render_term(self)


# The slots' own setters, which assignment (frozen) does not reach.
_set_true_branch = Cond.true_branch.__set__
_set_condition = Cond.condition.__set__
_set_false_branch = Cond.false_branch.__set__


Term = Union[TrueConst, FalseConst, AtomTerm, Cond]

TRUE = TrueConst()
FALSE = FalseConst()


def atom(name: str) -> AtomTerm:
    """Shorthand for building an atom term from its name."""
    return AtomTerm(Atom(name))


# ---------------------------------------------------------------------------
# Token cursor, shared by the term, short-circuit and register grammars
# ---------------------------------------------------------------------------


class Lexicon:
    """The tokens of one grammar.

    ``token`` is a regular expression (verbose syntax, no capturing
    groups) matching one token; tokens are tried in its alternation order
    and may not start with whitespace.
    """

    __slots__ = ("token", "split")

    def __init__(self, token: str):
        self.token = re.compile(token, re.VERBOSE)
        # Splits a text as the token regex does from left to right, a
        # character that starts no token becoming a token of its own.
        self.split = re.compile(rf"{token} | \S", re.VERBOSE)


class TokenCursor:
    """The tokens of ``text`` as plain strings, whitespace between them
    skipped; a grammar tells a token's kind from its text.

    One regex call splits the whole text up front, so a stray character
    is reported before any grammar error.  Malformed or empty input
    raises ``error(message, position)``; a token's position is worked out
    only then.  Each grammar reads ``tokens`` in a loop of its own.
    """

    __slots__ = ("lexicon", "text", "error", "tokens")

    def __init__(
        self,
        lexicon: Lexicon,
        text: str,
        error: Callable[[str, int], Exception],
    ):
        self.lexicon = lexicon
        self.text = text
        self.error = error
        self.tokens: list[str] = lexicon.split.findall(text)
        # A stray character is a one-character token that is no token.
        strays = [s for s in set(self.tokens) if not lexicon.token.fullmatch(s)]
        if strays:
            index = min(map(self.tokens.index, strays))
            raise error(
                f"unexpected character {self.tokens[index]!r}", self.position(index)
            )
        if not self.tokens:
            raise error("empty input", 0)

    def position(self, index: int) -> int:
        """The character position of token ``index`` (the text's length
        past the last token)."""
        if index < len(self.tokens):
            for k, m in enumerate(self.lexicon.split.finditer(self.text)):
                if k == index:
                    return m.start()
        return len(self.text)


# ---------------------------------------------------------------------------
# Concrete syntax
#
#   term    := 'T' | 'F' | atom | cond
#   cond    := operand '<|' operand '|>' operand
#   operand := 'T' | 'F' | atom | '(' cond ')'
#   atom    := [a-z][a-z0-9_]* | '"' any-non-quote-chars '"'
# ---------------------------------------------------------------------------

# An empty or unterminated quote matches no token, so it is reported as a
# stray quote character.  The commonest tokens come first: the regex tries
# the alternatives in order at every token.
_TERM_TOKENS = Lexicon(rf"""<\| | \|> | {IDENT} | "[^"]+" | T | F | \( | \)""")

# The separator after each operand slot (true branch, condition, false
# branch) of a parenthesized conditional, and of the top-level one, whose
# false branch ends the input ("" matches no token).
_INNER = ("<|", "|>", ")")
_OUTER = ("<|", "|>", "")


def _misplaced(token: str, wanted: str | None, top: bool) -> str:
    if wanted is None:
        return f"unexpected token {token!r}"
    if top and wanted != "|>":
        return f"trailing input {token!r}"
    return f"expected {wanted!r}, found {token!r}"


def parse_term(text: str) -> Term:
    """Parse the canonical text form of a term.

    Takes time linear in the text: one regex call splits it into tokens
    and one loop reads them, keeping the operands read so far on one
    stack and the slots of the open parentheses on another, and building
    one ``AtomTerm`` per atom name.  It does not recurse, so any nesting
    parses at the default recursion limit.  Raises TermSyntaxError (with
    a character position) on malformed or empty input.
    """
    cur = TokenCursor(_TERM_TOKENS, text, TermSyntaxError)
    tokens = cur.tokens
    leaves: dict[str, Term] = {"T": TRUE, "F": FALSE}  # token -> its term
    atoms: dict[str, AtomTerm] = {}  # atom name -> its one term, whatever the spelling
    operands: list[Term] = []
    push = operands.append
    slots: list[int] = []  # the slot each open parenthesis fills, innermost last
    slot = 0  # the slot of the operand being read or read last
    separators = _OUTER
    wanted: str | None = None  # the separator wanted next; None for an operand
    for k, token in enumerate(tokens):
        if wanted is None:
            leaf = leaves.get(token)
            if leaf is None:
                if token == "(":
                    slots.append(slot)
                    slot = 0
                    separators = _INNER
                    continue
                if token[0] == '"':
                    name = token[1:-1]
                elif "a" <= token[0] <= "z":
                    name = token
                else:
                    break
                leaf = atoms.get(name)
                if leaf is None:
                    leaf = atoms[name] = AtomTerm(Atom(name))
                leaves[token] = leaf
            push(leaf)
            wanted = separators[slot]
        elif token == wanted:
            if slot == 2:  # a ")": the conditional's three operands are read
                r = operands.pop()
                q = operands.pop()
                operands[-1] = Cond(operands[-1], q, r)
                slot = slots.pop()
                if not slots:
                    separators = _OUTER
                wanted = separators[slot]
            else:
                slot += 1
                wanted = None
        else:
            break
    else:
        if wanted is not None and not slots and slot != 1:
            return operands[0] if slot == 0 else Cond(*operands)
        raise cur.error("unexpected end of input", len(text))
    raise cur.error(_misplaced(token, wanted, not slots), cur.position(k))


def _shared_objects(root: object, cls: type, children: Callable) -> set[int]:
    """The ids of the ``cls`` objects reached from more than one parent in
    the DAG below ``root``, where ``children(x)`` is the tuple of a
    ``cls`` object's children."""
    seen: set[int] = set()
    shared: set[int] = set()
    stack = [root]
    while stack:
        x = stack.pop()
        if x.__class__ is cls:
            for child in children(x):
                if child.__class__ is cls:
                    key = id(child)
                    if key in seen:
                        shared.add(key)
                    else:
                        seen.add(key)
                        stack.append(child)
    return shared


def render_shared(
    root: object,
    cls: type,
    children: Callable[[object], tuple],
    pieces: Callable[[object], list],
) -> str:
    """The text of a DAG of ``cls`` objects, written as a tree, in time
    linear in the text.

    ``children(x)`` is the tuple of a ``cls`` object's children, and
    ``pieces(x)`` its text as pieces, last first: strings, and the
    ``cls`` children whose text goes there.  The text of an object reached
    from more than one parent is built once and reused; no other
    object's text is kept, so memory stays linear in the output.
    """
    shared = _shared_objects(root, cls, children)
    texts: dict[int, str] = {}  # shared object's id -> its text
    parts: list[str] = []
    write = parts.append
    # Pending work, last first: a string to append, an object to write,
    # or (id, start in parts) ending a shared object's text.
    stack: list = [root]
    push = stack.append
    while stack:
        x = stack.pop()
        kind = x.__class__
        if kind is str:
            write(x)
        elif kind is tuple:
            key, start = x
            text = texts[key] = "".join(parts[start:])
            del parts[start:]
            write(text)
        else:
            key = id(x)
            if key in shared:
                text = texts.get(key)
                if text is not None:
                    write(text)
                    continue
                push((key, len(parts)))
            stack.extend(pieces(x))
    return "".join(parts)


_COND_CHILDREN = attrgetter("true_branch", "condition", "false_branch")


def render_term(t: Term) -> str:
    """Render a term canonically: nested conditionals fully parenthesized,
    one space around ``<|`` and ``|>``.

    Takes time linear in the text written, with ``render_shared``: the
    text of a conditional reached from more than one parent is built once.
    """
    names: dict[str, str] = {}  # atom name -> its text

    def leaf(x: Term) -> str:
        if x.__class__ is AtomTerm:
            text = names.get(x.atom.name)
            if text is None:
                text = names[x.atom.name] = format_atom(x.atom)
            return text
        return "T" if x.__class__ is TrueConst else "F"

    def pieces(x: Cond) -> list:
        p, q, r = x.true_branch, x.condition, x.false_branch
        out = [")", r, " |> ("] if r.__class__ is Cond else [leaf(r), " |> "]
        if q.__class__ is Cond:
            out += (")", q, "(")
        else:
            out.append(leaf(q))
        if p.__class__ is Cond:
            out += (") <| ", p, "(")
        else:
            out += (" <| ", leaf(p))
        return out

    if t.__class__ is not Cond:
        return leaf(t)
    return render_shared(t, Cond, _COND_CHILDREN, pieces)


# ---------------------------------------------------------------------------
# Structural operations
# ---------------------------------------------------------------------------


_EXIT = object()


def fold(root: object, children: Callable, combine: Callable) -> object:
    """The value of ``root``, where an object's value is ``combine(x,
    values)`` and ``values`` lists those of ``children(x)``.  Walks with
    an explicit stack, so any depth folds at the default recursion limit,
    and combines each distinct object once (keyed on ``id``)."""
    kids = children(root)
    if not kids:
        return combine(root, kids)
    values: dict[int, object] = {}
    # Pending work, last first: an object to enter, or _EXIT on top of an
    # entered object and its children, popped once they all have values.
    stack: list = [kids, root, _EXIT, *kids]
    while stack:
        x = stack.pop()
        if x is _EXIT:
            x = stack.pop()
            values[id(x)] = combine(x, [values[id(k)] for k in stack.pop()])
        elif id(x) not in values:
            kids = children(x)
            if kids:
                stack += (kids, x, _EXIT, *kids)
            else:
                values[id(x)] = combine(x, kids)
    return values[id(root)]


def term_children(t: Term) -> tuple[Term, ...]:
    """A conditional's branches and condition, in text order; none else."""
    return (t.true_branch, t.condition, t.false_branch) if t.__class__ is Cond else ()


def _dual(x: Term, kids: list[Term]) -> Term:
    if kids:
        return Cond(kids[2], kids[1], kids[0])
    return FALSE if isinstance(x, TrueConst) else TRUE if isinstance(x, FalseConst) else x


def dual(t: Term) -> Term:
    """Swap T and F and the two outer branches, recursively.

    An involution: ``dual(dual(t)) == t``.
    """
    return fold(t, term_children, _dual)


def alphabet(t: Term) -> AtomSet:
    """The set of atoms occurring anywhere in a term.  Visits each
    conditional object once, however often it is shared."""
    found: set[Atom] = set()
    seen: set[int] = set()  # ids of the conditionals visited
    stack = [t]
    while stack:
        x = stack.pop()
        if x.__class__ is Cond:
            if id(x) not in seen:
                seen.add(id(x))
                stack += (x.true_branch, x.condition, x.false_branch)
        elif x.__class__ is AtomTerm:
            found.add(x.atom)
    return frozenset(found)


def check_alphabet(t: Term, sigma: Sigma, func: str) -> None:
    """Raise AlphabetCoverageError if ``t`` uses atoms outside ``sigma``."""
    missing = alphabet(t) - sigma.alphabet()
    if missing:
        names = ", ".join(sorted(a.name for a in missing))
        raise AlphabetCoverageError(f"{func}: atoms not covered by the evaluation order: {names}")


def depth(t: Term) -> int:
    """Nesting depth: constants and atoms are 0, a conditional is one more
    than its deepest child (condition position included)."""
    return fold(t, term_children, lambda x, depths: 1 + max(depths) if depths else 0)


def term_size(t: Term) -> int:
    """Number of nodes in a term, counted as a tree.

    Shared sub-objects (terms built by the normalizers reuse subterms) are
    counted once per occurrence, so this is the size of the rendered tree,
    not the object count.
    """
    return fold(t, term_children, lambda x, sizes: 1 + sum(sizes))


# ---------------------------------------------------------------------------
# Basic-form predicates
# ---------------------------------------------------------------------------


def _branches(t: Term) -> tuple[Term, ...]:
    # A basic form's conditions are atoms: its structure is in its branches.
    return (t.true_branch, t.false_branch) if t.__class__ is Cond else ()


def _central_atom(t: Term) -> Atom | None:
    if isinstance(t, Cond) and isinstance(t.condition, AtomTerm):
        return t.condition.atom
    return None


def _basic(x: Term, kids: list) -> bool:
    if x.__class__ is Cond:
        return x.condition.__class__ is AtomTerm and kids[0] and kids[1]
    return x.__class__ is not AtomTerm


def is_basic_form(t: Term) -> bool:
    """True iff every central condition in the term is an atom.  Visits
    each conditional object once, however often it is shared."""
    return fold(t, _branches, _basic)


def is_rp_basic_form(t: Term) -> bool:
    """Basic form where a child repeating its parent's atom must have the
    shape ``Q <| a |> Q`` with identical outer arguments."""
    numbers: dict[tuple, int] = {}  # equal forms get equal numbers

    def step(x: Term, kids: list) -> tuple | None:
        # (number, central atom, branches' numbers) of an rp basic form, else None.
        a = _central_atom(x)
        if not _basic(x, kids) or any(b == a and l != r for _, b, l, r in kids):
            return None
        key = (a, kids[0][0], kids[1][0]) if kids else (None, x.__class__, None)
        return numbers.setdefault(key, len(numbers)), *key

    return fold(t, _branches, step) is not None


def is_cr_basic_form(t: Term) -> bool:
    """Basic form in which no child repeats its parent's central atom."""

    def step(x: Term, kids: list[bool]) -> bool:
        return _basic(x, kids) and _central_atom(x) not in map(_central_atom, _branches(x))

    return fold(t, _branches, step)


def is_mem_basic_form(t: Term) -> bool:
    """Basic form in which no atom reoccurs anywhere below its own node."""
    bits: dict[Atom, int] = {}  # atom -> its bit in a set of atoms

    def atoms(x: Term, kids: list[int]) -> int:
        # The atoms of a memorizing basic form as a bitset; -1 otherwise.
        if not kids:
            return -1 if x.__class__ is AtomTerm else 0
        a = _central_atom(x)
        if a is None:
            return -1
        bit = bits.setdefault(a, 1 << len(bits))
        below = kids[0] | kids[1]  # -1 if either is
        return -1 if below & bit else below | bit

    return fold(t, _branches, atoms) >= 0


def is_st_basic_form(t: Term, sigma: Sigma) -> bool:
    """True iff the term is a full binary tree layered in reverse order of
    ``sigma``: the last atom of sigma at the root, constants at the leaves."""
    order = sigma.atoms

    def layers(x: Term, kids: list[int]) -> int:
        # k when ``x`` is layered over the first k atoms of sigma; else -1.
        if not kids:
            return -1 if x.__class__ is AtomTerm else 0
        k = kids[0]
        ok = 0 <= k == kids[1] < len(order) and _central_atom(x) == order[k]
        return k + 1 if ok else -1

    return fold(t, _branches, layers) == len(order)


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


def count_basic_forms(atom_count: int, max_depth: int, limit: int) -> int:
    """How many terms ``enumerate_basic_forms`` lists for ``atom_count``
    atoms and ``max_depth``, without building them: ``n_0 = 2`` and
    ``n_{d+1} = 2 + atom_count * n_d ** 2``.  Once the count passes
    ``limit``, the first count past it, a lower bound: it squares at each
    depth, so an exact count for a large depth would not finish."""
    count = 2
    for _ in range(max_depth if atom_count else 0):
        count = 2 + atom_count * count * count
        if count > limit:
            break
    return count


def iter_atoms_sorted(atom_set: Iterable[Atom]) -> list[Atom]:
    """Atoms in deterministic (name) order."""
    return sorted(atom_set, key=lambda a: a.name)
