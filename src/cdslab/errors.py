"""Shared exception types, the one budget ledger, and the bases every record shares.

Four failure categories are kept apart so callers (and the CLI exit codes)
can distinguish them: malformed objects, out-of-range inputs, enumeration
or register budgets being exceeded, and an artifact that gets some inputs
wrong, named as its witness. ``with budget(limit):`` sets a request's
one budget, else ``DEFAULT_BUDGET``; every stop is a ``charge`` against it:
"{space}: {count} exceed budget {limit}". The quantum records subclass
``InputDomain`` and ``Worst`` here without loading the classical protocols.
A record's domain is a sized space, charged by its size before it is walked.
``LEFT`` and ``RIGHT`` name the two sides a qubit or water can exit on.
"""

from contextlib import contextmanager
from typing import Callable, Optional

DEFAULT_BUDGET = 1 << 24
_limit = DEFAULT_BUDGET
LEFT = "left"
RIGHT = "right"


@contextmanager
def budget(limit: int):
    """Make ``limit`` the request's budget inside the block; the previous one after it."""
    global _limit
    outer, _limit = _limit, limit
    try:
        yield
    finally:
        _limit = outer


def current_limit() -> int:
    """The request's budget: the innermost ``budget`` block's limit."""
    return _limit


class ValidationError(ValueError):
    """A structure (matrix, strategy, protocol) violates its construction rules."""


class DomainError(ValueError):
    """An input lies outside the domain an object is defined on."""


class VerifyFailure(Exception):
    """Verification failed; carries a jsonable witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


def refuse(message: str, bad: list) -> None:
    """Fail on inputs ``bad`` that an artifact gets wrong, naming them."""
    if bad:
        raise VerifyFailure(message, witness={"inputs": list(map(list, bad))})


_EXACT_BITS = 256


def count_text(n: int) -> str:
    """A count for a report: decimal, or past 256 bits the power of two it reaches.

    Python refuses to format an int of more than 4,300 digits (a limit a
    user may lower to 640), and no reader needs such a count in full.
    """
    if n.bit_length() <= _EXACT_BITS:
        return str(n)
    return f"at least 2^{n.bit_length() - 1}"


class BudgetError(RuntimeError):
    """An exact enumeration or register allocation would exceed the configured budget.

    ``space`` names what was counted, ``size`` is its count and ``limit`` the
    budget it exceeds; the CLI reports the three fields. A count past 256
    bits is kept as its ``count_text``, so a report can always write it.
    """

    def __init__(self, space: str, size: int, limit: int):
        super().__init__(f"{space}: {count_text(size)} exceed budget {limit}")
        if size.bit_length() > _EXACT_BITS:
            size = count_text(size)
        self.space, self.size, self.limit = space, size, limit


def charge(size: int, space: str) -> None:
    """Raise ``BudgetError`` if ``size`` of ``space`` exceeds the request's budget."""
    if size > _limit:
        raise BudgetError(space, size, _limit)


class LazySpace:
    """A space of ``size`` elements that ``iterate()`` yields in order, never held.

    ``len`` and iteration work as on the tuple it stands for; a size past
    2^63 - 1, which ``len`` cannot return, is read by ``space_size``.
    """

    def __init__(self, size: int, iterate: Callable):
        self.size, self.iterate = size, iterate

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return self.iterate()


def space_size(space) -> int:
    """Number of elements of a space, lazy or not, of any size."""
    return space.size if isinstance(space, LazySpace) else len(space)


class InputDomain:
    """Every record's ``domain``, a sized space of input pairs (by default all
    of f's, lazily, in ``f.inputs()`` order), and ``resources``."""

    def __init__(self, domain, resources: Optional[dict]):
        f = self.f
        self.domain = LazySpace(1 << (f.n_x + f.n_y), f.inputs) if domain is None else domain
        self.resources = {} if resources is None else resources


class Worst:
    """Worst figures by name, each with its witness.

    A figure replaces the running worst only when it exceeds it, so of equal
    figures the first one met stays witness; a name no figure has raised
    above zero has neither.
    """

    def __init__(self):
        self.worst, self.witnesses = {}, {}

    def worse(self, name: str, figure, witness) -> None:
        if figure > self.worst.get(name, 0):
            self.worst[name], self.witnesses[name] = figure, witness
