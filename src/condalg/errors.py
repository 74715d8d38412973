"""Exception hierarchy for the condalg package.

A ``BudgetError`` means that a resource budget ran out: the node budget
of a normal form, or the instance budget of an axiom check.  No error
stands for input nested too deeply: nothing in the library recurses, so
any depth runs at the interpreter's default recursion limit.
"""

from __future__ import annotations


class CondAlgError(Exception):
    """Base class for all condalg errors."""


class TermSyntaxError(CondAlgError):
    """Malformed term or expression text.

    Carries the 0-based character offset of the offending position.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NotBasicFormError(CondAlgError):
    """A function defined only on basic forms received something else."""


class DuplicateAtomError(CondAlgError):
    """An atom sequence contains the same atom twice."""


class AlphabetCoverageError(CondAlgError):
    """A term mentions atoms outside the supplied evaluation order."""


class BudgetError(CondAlgError):
    """Base class for resource-cap violations."""


class NodeBudgetError(BudgetError):
    """Normalization would exceed the configured node budget."""


class InstanceBudgetError(BudgetError):
    """An axiom's substitution cross-product exceeds the instance cap."""


class OracleError(CondAlgError):
    """An atom oracle refused or could not interpret a query."""
