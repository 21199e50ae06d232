"""Shared exception types."""

import math


class GroupError(Exception):
    """Base class for all library errors."""


class DegreeMismatch(GroupError):
    """Operands act on different point sets."""


class ParseError(GroupError):
    """Malformed textual input (permutation, word, descriptor, record)."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class BudgetExceeded(GroupError):
    """A computation exceeded its configured resource budget."""

    def __init__(self, message, budget_name=None, limit=None, requested=None):
        super().__init__(message)
        self.budget_name = budget_name
        self.limit = limit
        self.requested = requested


def check_budget(name: str, limit: int, requested: int) -> None:
    """Raise BudgetExceeded when requested exceeds limit.  A requested past
    int()'s limit on decimal digits shows as its digit count."""
    if requested > limit:
        try:
            shown = str(requested)
        except ValueError:
            cut = int(math.log10(requested)) - 9  # leaves about ten digits
            shown = f"a {len(str(requested // 10 ** cut)) + cut}-digit number"
        raise BudgetExceeded(f"{name}: {shown} exceeds the limit {limit}",
                             budget_name=name, limit=limit,
                             requested=requested)


class FixtureGap(GroupError):
    """A question is undecidable with the currently loaded fixtures."""
