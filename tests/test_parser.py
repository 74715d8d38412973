"""``parse_term`` against the recursive-descent oracle in helpers.py, and
at depths the oracle cannot reach.

The parser reads its tokens in one loop, without recursion; the oracle
reads the same tokens as the grammar is written.  They must build equal
terms with one ``AtomTerm`` per atom name, and raise the same error at
the same position.
"""

from __future__ import annotations

import itertools
import random
import sys

import pytest

import condalg as c
from helpers import all_terms_upto, oracle_parse_term, random_terms
from test_parse_errors import TERM_ERRORS

T, F = c.TRUE, c.FALSE


@pytest.fixture
def default_recursion_limit():
    before = sys.getrecursionlimit()
    sys.setrecursionlimit(1_000)
    yield
    sys.setrecursionlimit(before)


def atom_terms(t: c.Term) -> dict[str, set[int]]:
    """The ids of the AtomTerm objects in a term, by atom name."""
    found: dict[str, set[int]] = {}
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, c.Cond):
            stack += (x.true_branch, x.condition, x.false_branch)
        elif isinstance(x, c.AtomTerm):
            found.setdefault(x.atom.name, set()).add(id(x))
    return found


def outcome(parse, text: str):
    """What ``parse`` makes of ``text``: the term, or the error's type,
    position and message."""
    try:
        return parse(text)
    except c.TermSyntaxError as err:
        return type(err), err.position, str(err)


def assert_agrees(text: str) -> None:
    got = outcome(c.parse_term, text)
    assert got == outcome(oracle_parse_term, text), text
    if isinstance(got, tuple):
        return
    assert all(len(ids) == 1 for ids in atom_terms(got).values()), text


def variants(text: str) -> list[str]:
    """The text, in top-level parentheses, without whitespace, and with
    extra whitespace of every kind."""
    return [
        text,
        f"({text})",
        text.replace(" ", ""),
        "\t " + text.replace(" ", " \n\t ").replace("(", "( ").replace(")", " )") + " \r\n",
    ]


def test_agrees_on_exhaustive_and_random_pool_renders():
    pool = all_terms_upto(2) + random_terms()
    assert len(pool) > 3_000
    for t in pool:
        for text in variants(c.render_term(t)):
            assert_agrees(text)
        assert c.parse_term(c.render_term(t)) == t


def test_agrees_on_every_short_token_sequence():
    vocabulary = ("T", "F", "a", '"a"', "b", "(", ")", "<|", "|>")
    for n in range(6):
        for tokens in itertools.product(vocabulary, repeat=n):
            assert_agrees(" ".join(tokens))


def test_agrees_on_random_token_sequences():
    rng = random.Random(20261019)
    vocabulary = ("T", "F", "a", '"b"', "(", "(", ")", ")", "<|", "<|", "|>", "|>")
    for _ in range(3_000):
        assert_agrees(" ".join(rng.choices(vocabulary, k=rng.randint(6, 30))))


def chain(depth: int, slot: int, leaf: str = "a") -> str:
    """``depth`` conditionals each nested in ``slot`` (0 true branch, 1
    condition, 2 false branch) of the next, rendered."""
    t: c.Term = c.atom(leaf)
    for k in range(depth):
        operands = [c.atom("b"), c.atom(f"c{k % 3}"), F]
        operands[slot] = t
        t = c.Cond(*operands)
    return c.render_term(t)


@pytest.mark.parametrize("slot", [0, 1, 2])
def test_agrees_on_160_deep_chains(default_recursion_limit, slot):
    text = chain(160, slot)
    assert_agrees(text)
    assert c.depth(c.parse_term(text)) == 160


@pytest.mark.parametrize("op", ["&&", "||"])
def test_agrees_on_160_deep_desugared_chains(default_recursion_limit, op):
    names = [f'"x{k % 4}"' if k % 3 else f"x{k % 4}" for k in range(161)]
    term = c.desugar(c.parse_sc(f" {op} ".join(names)))
    text = c.render_term(term)
    assert_agrees(text)
    assert c.render_term(c.parse_term(text)) == text


def test_quoted_and_bare_spellings_share_one_atom_term():
    t = c.parse_term('"T" <| T |> "a"')
    assert t == c.Cond(c.atom("T"), T, c.atom("a"))
    assert_agrees('"T" <| T |> "a"')
    t = c.parse_term('"a" <| a |> ("a" <| (a <| "a" |> b) |> a)')
    assert {name: len(ids) for name, ids in atom_terms(t).items()} == {"a": 1, "b": 1}
    assert t.true_branch is t.condition is t.false_branch.true_branch
    assert_agrees('"a" <| a |> ("a" <| (a <| "a" |> b) |> a)')


@pytest.mark.parametrize("text,position", TERM_ERRORS)
def test_agrees_on_every_pinned_error(text, position):
    got = outcome(c.parse_term, text)
    assert got == outcome(oracle_parse_term, text)
    assert got[:2] == (c.TermSyntaxError, position)


# ---------------------------------------------------------------------------
# Depth: any nesting parses at the default recursion limit
# ---------------------------------------------------------------------------


def nested(depth: int) -> str:
    """A term ``depth`` parentheses deep."""
    return "a <| a |> (" * depth + "a <| a |> a" + ")" * depth


def test_a_400_deep_term_parses_at_the_default_limit(default_recursion_limit):
    text = nested(400)
    t = c.parse_term(text)
    assert c.depth(t) == 401
    assert c.render_term(t) == text


@pytest.mark.parametrize("depth", [501, 1_501, 20_000])
def test_any_depth_parses_at_the_default_limit(default_recursion_limit, depth):
    text = nested(depth)
    t = c.parse_term(text)
    assert c.depth(t) == depth + 1
    assert c.render_term(t) == text
