"""Exception hierarchy for the condalg package.

A ``BudgetError`` means that a resource budget ran out: the node budget
of a normal form, a tree or a truth table, or the instance budget of an
axiom check; the default node budget and the caps' message live here.
No error stands for deep input: nothing in the library recurses, so any
depth runs at the interpreter's default recursion limit.
"""

from __future__ import annotations

from collections.abc import Sized

DEFAULT_NODE_BUDGET = 1_000_000


class CondAlgError(Exception):
    """Base class for all condalg errors."""


class TermSyntaxError(CondAlgError):
    """Malformed term or expression text.

    Carries the 0-based character offset of the offending position.
    """

    def __init__(self, message: str, position: int):
        super().__init__(message, position)  # as ``args``, so it pickles
        self.position = position

    def __str__(self) -> str:
        message, position = self.args
        return f"{message} (at position {position})"


class NotBasicFormError(CondAlgError):
    """A function defined only on basic forms received something else."""


class DuplicateAtomError(CondAlgError):
    """An atom sequence contains the same atom twice."""


class AlphabetCoverageError(CondAlgError):
    """A term mentions atoms outside the supplied evaluation order."""


class BudgetError(CondAlgError):
    """Base class for resource-cap violations: ``stage`` would have at
    least ``observed`` of the subclass's ``unit``, over its ``limit``.
    ``observed`` is the first count found past ``limit``: a lower bound
    where the stage stops there."""

    unit: str

    def __init__(self, stage: str, observed: int, limit: int):
        super().__init__(stage, observed, limit)  # as ``args``, so it pickles
        self.stage, self.observed, self.limit = stage, observed, limit

    def __str__(self) -> str:
        stage, observed, limit = self.args
        return f"{stage} would have at least {observed} {self.unit}, over the budget of {limit}"


class NodeBudgetError(BudgetError):
    """A result, counted as a tree, would exceed its node budget."""

    unit = "nodes"


class InstanceBudgetError(BudgetError):
    """An axiom's substitution cross-product exceeds the instance cap."""

    unit = "instances"


class OracleError(CondAlgError):
    """An atom oracle refused or could not interpret a query."""


def check_static_budget(sigma: Sized, stage: str, limit: int = DEFAULT_NODE_BUDGET) -> None:
    """Raise NodeBudgetError if the full binary tree over ``sigma``, the
    shape of every static tree, static form and truth table over it, has
    more than ``limit`` nodes counted as a tree: 2^(|sigma|+1) - 1."""
    size = (2 << len(sigma)) - 1
    if size > limit:
        raise NodeBudgetError(stage, size, limit)
