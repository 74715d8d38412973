"""Parsing and printing: the renderers against their recursive oracles,
round trips, whitespace, and the memory a render takes."""

from __future__ import annotations

import json
import random
import re
import tracemalloc

import pytest

import condalg as c
from condalg import terms
from helpers import (
    all_terms_upto,
    condition_nested,
    paper_json_obj,
    paper_render_term,
    paper_render_tree,
    random_terms,
    tree_pool,
)

def _rename(t: c.Term, mapping: dict[str, c.Term]) -> c.Term:
    """``t`` with its atoms renamed, sharing kept: one copy per object."""
    copies: dict[int, c.Term] = {}

    def copy(x: c.Term) -> c.Term:
        hit = copies.get(id(x))
        if hit is None:
            if isinstance(x, c.Cond):
                hit = c.Cond(copy(x.true_branch), copy(x.condition), copy(x.false_branch))
            elif isinstance(x, c.AtomTerm):
                hit = mapping[x.atom.name]
            else:
                hit = x
            copies[id(x)] = hit
        return hit

    return copy(t)


def _nested_family(base: c.Term, depth: int, rng: random.Random) -> c.Term:
    """``t_{k+1} = u_k <| t_k |> v_k`` with u_k, v_k renamings of t_k over
    a, b, c, d: the condition-nested family of the benchmark."""
    t = base
    for _ in range(depth):
        copies = []
        for _ in range(2):
            names = ["a", "b", "c", "d"]
            rng.shuffle(names)
            copies.append(_rename(t, dict(zip("abcd", (c.atom(n) for n in names)))))
        t = c.Cond(copies[0], t, copies[1])
    return t


def _family_terms(max_depth: int = 3) -> list[c.Term]:
    rng = random.Random(5)
    bases = [
        c.parse_term(text)
        for text in ("a", "a <| b |> F", "T <| a |> (b <| c |> F)", "(a <| b |> c) <| d |> a")
    ]
    return [
        _nested_family(base, depth, rng)
        for base in bases
        for depth in range(1, max_depth + 1)
    ]


def _shared_sources() -> list[c.Term]:
    # t_3 and depth-2 family members: their basic forms have at most a few
    # thousand nodes as trees.
    return [condition_nested(k) for k in range(4)] + _family_terms(2)


def _shared_terms() -> list[c.Term]:
    """Terms whose subterm objects are reached from several parents, and
    their normal forms, which share subterms too."""
    out = _family_terms()
    for t in _shared_sources():
        out += [t, c.bf(t), c.rpbf(t), c.cbf(t), c.mbf(t)]
    return out


def _shared_trees() -> list[c.EvalTree]:
    out = []
    for t in _shared_sources():
        tree = c.se(t)
        out += [tree, c.rp(tree), c.cr(tree), c.mem(tree)]
    return out


POOL = all_terms_upto(3) + random_terms()


def test_render_term_matches_the_recursive_oracle_on_the_pools():
    for t in POOL:
        assert c.render_term(t) == paper_render_term(t)


def test_render_term_matches_the_recursive_oracle_on_shared_terms():
    for t in _shared_terms():
        assert c.render_term(t) == paper_render_term(t)


def test_parse_reads_back_what_render_writes():
    for t in POOL + tuple(_shared_terms()):
        assert c.parse_term(c.render_term(t)) == t


def test_render_tree_matches_the_recursive_oracle():
    odd = c.Node(c.Atom("a b\\é\t"), c.LEAF_T, c.Node(c.Atom("a"), c.LEAF_F, c.LEAF_T))
    trees = list(tree_pool(2)) + [c.se(t) for t in POOL] + _shared_trees() + [odd]
    for x in trees:
        assert c.render_tree(x) == paper_render_tree(x)
        json_text = json.dumps(paper_json_obj(x), separators=(",", ":"))
        assert c.render_tree(x, "json") == json_text


def test_shared_text_is_written_out_in_full():
    # t_3 is one object reached three times from its parent, and so on
    # down: the text is the tree's, 3^k copies of ``a``.
    t = condition_nested(3)
    text = c.render_term(t)
    assert text.count("a") == 3**3
    assert text == paper_render_term(t)


# ---------------------------------------------------------------------------
# Whitespace
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r'T|F|\(|\)|<\||\|>|"[^"]+"|[a-z][a-z0-9_]*')
_SPACES = ["", "", " ", "  ", "\t", "\n", " \n\t ", "\r\n"]


def _respace(text: str, rng: random.Random) -> str:
    tokens = _TOKEN.findall(text)
    assert not _TOKEN.sub("", text).strip()
    gaps = [rng.choice(_SPACES) for _ in range(len(tokens) + 1)]
    return "".join(gap + token for gap, token in zip(gaps, tokens)) + gaps[-1]


def test_whitespace_between_tokens_is_insignificant():
    rng = random.Random(20251018)
    # Multi-letter, quoted and keyword-like names, a space inside quotes.
    names = {"a": c.atom("x_1"), "b": c.atom("a b"), "c": c.atom("T"), "d": c.atom("d")}
    pool = [_rename(t, names) for t in rng.sample(POOL, 2_000) + _family_terms()]
    for t in pool:
        text = c.render_term(t)
        for _ in range(3):
            assert c.parse_term(_respace(text, rng)) == t


def test_no_whitespace_at_all():
    assert c.parse_term("a<|b|>c") == c.parse_term("a <| b |> c")
    assert c.parse_term('(T<|"a b"|>F)<|x|>(a<|b|>c)') == c.Cond(
        c.Cond(c.TRUE, c.atom("a b"), c.FALSE),
        c.atom("x"),
        c.Cond(c.atom("a"), c.atom("b"), c.atom("c")),
    )


# ---------------------------------------------------------------------------
# Objects built and calls made
# ---------------------------------------------------------------------------


def test_parse_builds_one_atom_term_per_name():
    t = c.parse_term('(a <| "a" |> b) <| b |> ("b" <| a |> T)')
    found: dict[str, list[c.AtomTerm]] = {}
    stack = [t]
    while stack:
        x = stack.pop()
        if isinstance(x, c.Cond):
            stack += [x.true_branch, x.condition, x.false_branch]
        elif isinstance(x, c.AtomTerm):
            found.setdefault(x.atom.name, []).append(x)
    assert sorted(found) == ["a", "b"]
    for occurrences in found.values():
        assert len(occurrences) == 3
        assert all(x is occurrences[0] for x in occurrences)


def test_render_formats_each_atom_name_once(monkeypatch):
    calls: list[str] = []
    real = terms.format_atom

    def counting(a: c.Atom) -> str:
        calls.append(a.name)
        return real(a)

    monkeypatch.setattr(terms, "format_atom", counting)
    t = c.parse_term('(a <| "x y" |> b) <| a |> ((a <| b |> "x y") <| a |> F)')
    c.render_term(t)
    assert sorted(calls) == ["a", "b", "x y"]
    calls.clear()
    # Distinct objects with one name count once too.
    c.render_term(c.Cond(c.atom("a"), c.atom("a"), c.atom("a")))
    assert calls == ["a"]


# ---------------------------------------------------------------------------
# Memory
# ---------------------------------------------------------------------------

# Peak traced bytes per output character.  The recursive oracles, given a
# recursion limit above 4,000, peak at ~14 on the term chain below (each
# subterm's text is freed once its parent's is built); keeping the text of
# every subterm peaks at ~2,000.  The chains are deeper than the default
# recursion limit, which the renderers do not need.
BYTES_PER_CHAR = 15


def _peak(render, x) -> tuple[int, int]:
    tracemalloc.start()
    try:
        text = render(x)
        return len(text), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _deep_term(n: int) -> c.Term:
    a = c.atom("a")
    t = c.FALSE
    for _ in range(n):
        t = c.Cond(a, t, c.FALSE)
    return t


def _deep_tree(n: int) -> c.EvalTree:
    a = c.Atom("a")
    x = c.LEAF_F
    for _ in range(n):
        x = c.Node(a, c.LEAF_T, x)
    return x


@pytest.mark.parametrize(
    "render,build",
    [(c.render_term, _deep_term), (c.render_tree, _deep_tree)],
    ids=["render_term", "render_tree"],
)
def test_rendering_a_deep_unshared_chain_keeps_memory_linear(render, build):
    x = build(4_000)
    chars, peak = _peak(render, x)
    assert chars > 30_000
    assert peak <= BYTES_PER_CHAR * chars, f"{peak} bytes for {chars} characters"


def test_every_tree_format_renders_a_deep_chain():
    x = _deep_tree(5_000)
    text = c.render_tree(x, "json")
    assert text.startswith('{"atom":"a","t":"T","f":{"atom":"a"')
    assert text.endswith('"f":"F"' + "}" * 5_000)
    lines = c.render_tree(x, "dot").splitlines()
    assert len(lines) == 2 + 10_001 + 10_000
    assert lines[10_001] == '  n10000 [label="F", shape=box];'
    assert lines[-2] == '  n0 -> n2 [label="F"];'
