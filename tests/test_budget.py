"""Every resource cap raises one kind of error with one message.

A cap raises its ``BudgetError`` subclass, whose ``stage`` names the
function or command that ran out, ``limit`` the budget and ``observed``
the first count found past it (exact where the stage counts everything
first), and whose message is the one format below.  The CLI writes that
message as its single stderr line and exits 3.
"""

from __future__ import annotations

import pickle
import re

import pytest

import condalg as c
from condalg.cli import main
from helpers import TA, TB, condition_nested

T, F = c.TRUE, c.FALSE
WIDE = c.Sigma.of(*"abcdefghijklmnopqrstuvwxyz")  # 2^27 - 1 nodes
WIDE_TABLE = c.Sigma(tuple(c.Atom(f"a{i}") for i in range(17)))  # 2^18 - 1 nodes
B_A_B = c.Cond(TB, TA, TB)  # basic form (T <| b |> F) <| a |> (T <| b |> F): 7 nodes


def message(stage: str, observed: int, unit: str, limit: int) -> str:
    return f"{stage} would have at least {observed} {unit}, over the budget of {limit}"


# (call, error class, stage, limit, observed or None where only a lower bound)
LIBRARY_CAPS = {
    "bf": (lambda: c.bf(B_A_B, node_budget=3), c.NodeBudgetError, "bf", 3, 7),
    "rpbf": (lambda: c.rpbf(B_A_B, node_budget=3), c.NodeBudgetError, "rpf", 3, 7),
    "cbf": (lambda: c.cbf(B_A_B, node_budget=3), c.NodeBudgetError, "cf", 3, 7),
    "mbf": (lambda: c.mbf(B_A_B, node_budget=3), c.NodeBudgetError, "mf", 3, None),
    "rpbf-empty": (lambda: c.rpbf(T, node_budget=0), c.NodeBudgetError, "rpf", 0, 1),
    "sbf": (lambda: c.sbf(WIDE, TA), c.NodeBudgetError, "sbf", 10**6, 2**27 - 1),
    "sse": (lambda: c.sse(WIDE, TA), c.NodeBudgetError, "sse", 10**6, 2**27 - 1),
    "equivalent-static": (
        lambda: c.equivalent(T, F, c.static(WIDE)), c.NodeBudgetError, "sse", 10**6, 2**27 - 1
    ),
    "check_axioms-static": (
        lambda: c.check_axioms("CPst", (T, F), c.static(WIDE)),
        c.NodeBudgetError, "check_axioms", 10**6, 2**27 - 1,
    ),
    "truth_table": (
        lambda: c.truth_table(T, WIDE_TABLE), c.NodeBudgetError, "truth_table", 2**17 - 1, 2**18 - 1
    ),
    "check_axioms-instances": (
        # CP1 has two variables: 4^2 instances over a pool of 4 terms.
        lambda: c.check_axioms("CP", (T, F, TA, TB), c.FREE, instance_budget=10),
        c.InstanceBudgetError, "axiom CP1", 10, 16,
    ),
}


@pytest.mark.parametrize("cap", LIBRARY_CAPS)
def test_library_cap_raises_its_fields_and_the_one_message(cap):
    call, cls, stage, limit, observed = LIBRARY_CAPS[cap]
    with pytest.raises(cls) as err:
        call()
    exc = err.value
    assert isinstance(exc, c.BudgetError)
    assert (exc.stage, exc.limit) == (stage, limit)
    assert exc.observed > exc.limit
    if observed is not None:
        assert exc.observed == observed
    unit = "instances" if cls is c.InstanceBudgetError else "nodes"
    assert str(exc) == message(stage, exc.observed, unit, limit)
    copy = pickle.loads(pickle.dumps(exc))
    assert (copy.stage, copy.observed, copy.limit) == (stage, exc.observed, limit)
    assert str(copy) == str(exc)


T6 = c.render_term(condition_nested(6))
# The depth-4 pool over a and b has 2 + 2 * 81,610^2 terms, past the
# instance budget, so its count stops there; CP1 squares it.
DEPTH4_POOL = 2 + 2 * 81_610**2

# (argv, stage, unit, limit, observed or None where only a lower bound)
CLI_CAPS = {
    "tree": (["tree", "--semantics", "se", T6], "tree", "nodes", 10**6, 2**65 - 1),
    "tree-rpse": (["tree", "--semantics", "rpse", T6], "tree", "nodes", 10**6, 2**65 - 1),
    "normalize-rp": (["normalize", "--system", "rp", T6], "rpf", "nodes", 10**6, None),
    "normalize-static": (
        ["normalize", "--system", "static", "--sigma", "abcdefghijklmnopqrstuvwxyz", "a"],
        "sbf", "nodes", 10**6, 2**27 - 1,
    ),
    "table": (
        ["table", "--sigma", "abcdefghijklmnopq", "a"], "truth_table", "nodes", 2**17 - 1, 2**18 - 1
    ),
    "check-axioms": (
        ["check-axioms", "--system", "CP", "--pool-depth", "4"],
        "axiom CP1", "instances", 200_000, DEPTH4_POOL**2,
    ),
}


@pytest.mark.parametrize("cap", CLI_CAPS)
def test_cli_cap_exits_3_with_one_line_naming_its_fields(cap, capsys):
    argv, stage, unit, limit, observed = CLI_CAPS[cap]
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    found = re.fullmatch(
        f"condalg: {re.escape(stage)} would have at least ([0-9]+) {unit}, "
        f"over the budget of {limit}\n",
        err,
    )
    assert found, err
    got = int(found.group(1))
    assert got > limit
    if observed is not None:
        assert got == observed


def test_a_table_within_the_cap_answers():
    sixteen = c.Sigma(WIDE_TABLE.atoms[:16])
    assert len(c.truth_table(T, sixteen).rows) == 2**16
