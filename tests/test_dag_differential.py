"""The two decision routes agree on shared terms.

Criterion 3 checks ``equivalent`` against comparing normal forms on
unshared pool terms.  Here the terms are seeded random DAGs over a and
b, in which conditionals are reached from more than one parent, small
enough counted as a tree for ``se`` and ``bf`` to walk.  Each is paired
with other DAGs and with terms built from its own transformed trees, so
that some pairs are congruent under each kind and others are not.
"""

from __future__ import annotations

import random

import pytest

import condalg as c
from condalg.evaltrees import tree_children
from condalg.terms import fold, term_children
from helpers import SIGMA_AB, TA, TB

KINDS = (c.FREE, c.RP, c.CR, c.MEM, c.static(SIGMA_AB))
MAX_TREE_NODES = 2_000


def object_count(t: c.Term) -> int:
    seen = []
    fold(t, term_children, lambda x, kids: seen.append(x))
    return len(seen)


def random_dag(rng: random.Random, conds: int) -> c.Term:
    """A term of ``conds`` new conditionals, each over three objects made
    before it (mostly recent ones), so objects are shared."""
    made = [c.TRUE, c.FALSE, TA, TB]
    for _ in range(conds):
        back = [min(int(rng.expovariate(0.3)), len(made) - 1) for _ in range(3)]
        made.append(c.Cond(*(made[-1 - k] for k in back)))
    return made[-1]


def random_dags(count: int, seed: int) -> list[c.Term]:
    """``count`` seeded DAGs whose evaluation trees query an atom and have
    at most ``MAX_TREE_NODES`` nodes counted as a tree."""
    rng = random.Random(seed)
    dags: list[c.Term] = []
    while len(dags) < count:
        t = random_dag(rng, rng.randint(4, 24))
        if 1 < fold(c.se(t), tree_children, lambda x, sizes: 1 + sum(sizes)) <= MAX_TREE_NODES:
            dags.append(t)
    return dags


DAGS = random_dags(60, seed=19)


def test_the_dags_share_conditionals():
    shared = sum(object_count(t) < c.term_size(t) for t in DAGS)
    assert shared >= len(DAGS) // 2


@pytest.mark.parametrize("kind", KINDS, ids=str)
def test_equivalent_agrees_with_comparing_normal_forms(kind):
    forms = {id(t): c.normal_form(t, kind) for t in DAGS}
    verdicts = []
    for i, p in enumerate(DAGS):
        # Congruent partners: the basic forms whose trees are p's tree and
        # p's transformed tree; then the next few DAGs.
        partners = [c.tree_to_term(c.se(p)), c.tree_to_term(c.transformed_tree(p, kind))]
        partners += DAGS[i + 1 : i + 4]
        for q in partners:
            same = c.equivalent(p, q, kind)
            q_form = forms[id(q)] if id(q) in forms else c.normal_form(q, kind)
            assert same == (forms[id(p)] == q_form), (c.render_term(p), c.render_term(q))
            verdicts.append(same)
    # Neither verdict is vacuous.
    assert sum(verdicts) >= len(DAGS) * 2
    assert not all(verdicts)
