"""Shared exception types.

Three failure categories are kept apart so callers (and the CLI exit codes)
can distinguish them: malformed objects, out-of-range inputs, and enumeration
or register budgets being exceeded.
"""


class ValidationError(ValueError):
    """A structure (matrix, strategy, protocol) violates its construction rules."""


class DomainError(ValueError):
    """An input lies outside the domain an object is defined on."""


class BudgetError(RuntimeError):
    """An exact enumeration or register allocation would exceed the configured budget.

    ``space`` names what was counted, ``size`` is its count and ``limit`` the
    budget it exceeds; the CLI reports the three fields.
    """

    def __init__(self, message: str, *, space: str, size: int, limit: int):
        super().__init__(message)
        self.space, self.size, self.limit = space, size, limit
