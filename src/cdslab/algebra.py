"""Linear algebra mod a prime, span programs, and LSSS.

Everything here is exact integer arithmetic mod a prime; no floats. Matrices
are tuples of tuples so program descriptors stay hashable and immutable.
"""

from __future__ import annotations

import random

from .boolfn import is_prime
from .errors import DomainError, ValidationError
from .zp import echelon


# -- linear span -------------------------------------------------------------


def in_span(rows, target, p: int):
    """Decide whether ``target`` lies in the row span of ``rows`` over Z_p.

    Args:
        rows: sequence of equal-length vectors (the candidate spanning set).
        target: vector of the same length.
        p: prime modulus.

    Returns:
        (True, coeffs) with ``sum(coeffs[i] * rows[i]) == target`` mod p,
        or (False, None). The witness is exact and re-verified before return.
    """
    if not is_prime(p):
        raise ValidationError(f"{p} is not prime")
    e = len(target)
    d = len(rows)
    for r in rows:
        if len(r) != e:
            raise ValidationError("row length mismatch")
    # Solve A c = t where A's columns are the rows (A is e x d): a pivot in
    # the last column of [A | t] means a zero row of A with nonzero rhs.
    aug = [[rows[i][j] for i in range(d)] + [target[j]] for j in range(e)]
    basis, pivots = echelon(aug, p)
    if pivots and pivots[-1] == d:
        return (False, None)
    coeffs = [0] * d
    for row, var in zip(basis, pivots):
        coeffs[var] = row[d]
    # Free variables stay 0. Re-verify.
    for j in range(e):
        acc = 0
        for i in range(d):
            acc = (acc + coeffs[i] * rows[i][j]) % p
        if acc != target[j] % p:
            raise AssertionError("elimination produced a bad witness")
    return (True, coeffs)


# -- span programs -----------------------------------------------------------


class SpanProgram:
    """Monotone-literal span program over Z_p.

    Row i is labelled with a literal (var, bit): the row becomes available on
    input z exactly when z[var-1] == bit. The program accepts z when the
    target vector lies in the span of the available rows. Variables are
    1-based; on two-party inputs, variables 1..n_x are Alice's bits (reading
    order) and n_x+1..n_x+n_y Bob's.
    """

    def __init__(self, matrix: tuple, labels: tuple, target: tuple, p: int, n_vars: int):
        self.matrix = matrix       # d rows, each a tuple of e field elements
        self.labels = labels       # d pairs (var, bit)
        self.target = target       # length e, nonzero
        self.p = p
        self.n_vars = n_vars
        if not is_prime(self.p):
            raise ValidationError(f"p={self.p} not prime")
        d = len(self.matrix)
        if d == 0:
            raise ValidationError("empty span program")
        e = len(self.target)
        if any(len(row) != e for row in self.matrix):
            raise ValidationError("ragged matrix")
        if all(v % self.p == 0 for v in self.target):
            raise ValidationError("target must be nonzero")
        if len(self.labels) != d:
            raise ValidationError("one label per row required")
        for (var, bit) in self.labels:
            if not 1 <= var <= self.n_vars:
                raise ValidationError(f"label variable {var} outside 1..{self.n_vars}")
            if bit not in (0, 1):
                raise ValidationError("label bit must be 0 or 1")

    def __eq__(self, other) -> bool:
        return type(other) is SpanProgram and vars(self) == vars(other)

    def __hash__(self) -> int:
        return hash((self.matrix, self.labels, self.target, self.p, self.n_vars))

    @property
    def size(self) -> int:
        return len(self.matrix)

    @property
    def width(self) -> int:
        return len(self.target)

    def available_rows(self, z) -> list:
        """Indices of rows whose literal matches assignment z (bit tuple)."""
        if len(z) != self.n_vars:
            raise DomainError(f"assignment length {len(z)} != {self.n_vars}")
        return [i for i, (var, bit) in enumerate(self.labels) if z[var - 1] == bit]

    def to_jsonable(self) -> dict:
        return {
            "matrix": [list(r) for r in self.matrix],
            "labels": [list(l) for l in self.labels],
            "target": list(self.target),
            "p": self.p,
            "n_vars": self.n_vars,
        }

    @staticmethod
    def from_jsonable(obj: dict) -> "SpanProgram":
        return SpanProgram(tuple(map(tuple, obj["matrix"])), tuple(map(tuple, obj["labels"])),
                           tuple(obj["target"]), obj["p"], obj["n_vars"])


def sp_eval(program: SpanProgram, z) -> int:
    """1 if the target is spanned by the rows available on assignment z."""
    rows = [program.matrix[i] for i in program.available_rows(z)]
    ok, _ = in_span(rows, program.target, program.p)
    return int(ok)


def span_dnf(terms, n_vars: int, p: int) -> SpanProgram:
    """Span program for an OR of literal conjunctions.

    Each term is an iterable of literals (var, bit); a term fires when all its
    literals match. The program has one row per literal: within a term the
    rows sum to the target through term-private columns, so partial terms and
    cross-term mixtures never reach it.
    """
    terms = [tuple(t) for t in terms]
    if not terms:
        raise ValidationError("need at least one term")
    extra = sum(len(t) - 1 for t in terms)
    e = 1 + extra
    target = tuple([1] + [0] * extra)
    rows = []
    labels = []
    col = 1
    for term in terms:
        k = len(term)
        if k == 0:
            raise ValidationError("empty term")
        if k == 1:
            rows.append(target)
            labels.append(term[0])
            continue
        # literal 1 carries the target plus the first private column; each
        # following literal cancels one private column and raises the next.
        for j, lit in enumerate(term):
            row = [0] * e
            if j == 0:
                row[0] = 1
                row[col] = 1
            elif j < k - 1:
                row[col + j - 1] = p - 1
                row[col + j] = 1
            else:
                row[col + j - 1] = p - 1
            rows.append(tuple(row))
            labels.append(lit)
        col += k - 1
    return SpanProgram(tuple(rows), tuple(labels), target, p, n_vars)


def span_and1(p: int) -> SpanProgram:
    """x AND y on one bit per side: two rows splitting the target."""
    return SpanProgram(((1, 0), (0, 1)), ((1, 1), (2, 1)), (1, 1), p, 2)


def span_or1(p: int) -> SpanProgram:
    """x OR y on one bit per side: either row alone is the target."""
    return SpanProgram(((1,), (1,)), ((1, 1), (2, 1)), (1,), p, 2)


def span_eq1(p: int) -> SpanProgram:
    """x == y on one bit per side: two 2-literal terms."""
    return span_dnf([[(1, 1), (2, 1)], [(1, 0), (2, 0)]], 2, p)


# -- linear secret sharing ---------------------------------------------------


class LsssScheme:
    """Linear secret sharing induced by a span program.

    The sharing vector u is uniform over { u : <target, u> = s }; share i is
    <row_i, u>. A row subset reconstructs exactly when the target lies in its
    span, and is blind to the secret otherwise (the classic dichotomy).
    """

    def __init__(self, program: SpanProgram):
        self.program = program

    @property
    def p(self) -> int:
        return self.program.p

    def _pivot(self) -> int:
        t = self.program.target
        return next(j for j in range(len(t)) if t[j] % self.p != 0)

    def vector_for(self, secret: int, free) -> tuple:
        """Sharing vector with the pivot coordinate solved for the secret.

        ``free`` supplies the other len(target) - 1 coordinates; every vector
        with <target, u> = secret arises from exactly one choice of free
        coordinates, so uniform free coordinates give the uniform sharing.
        """
        t = self.program.target
        j = self._pivot()
        u = [0] * len(t)
        free = list(free)
        if len(free) != len(t) - 1:
            raise DomainError("wrong number of free coordinates")
        idx = 0
        for k in range(len(t)):
            if k != j:
                u[k] = free[idx] % self.p
                idx += 1
        acc = sum(t[k] * u[k] for k in range(len(t)) if k != j) % self.p
        u[j] = ((secret - acc) * pow(t[j], -1, self.p)) % self.p
        return tuple(u)

    def shares_from_vector(self, u) -> tuple:
        return tuple(sum(r * v for r, v in zip(row, u)) % self.p
                     for row in self.program.matrix)

    def share(self, secret: int, seed: int) -> tuple:
        """Deterministic sharing: free coordinates drawn from random.Random(seed)."""
        rng = random.Random(seed)
        free = [rng.randrange(self.p) for _ in range(len(self.program.target) - 1)]
        return self.shares_from_vector(self.vector_for(secret % self.p, free))


def lsss_reconstruct(scheme: LsssScheme, subset, shares):
    """Recombine shares of ``subset`` (row indices); None if unauthorized."""
    rows = [scheme.program.matrix[i] for i in subset]
    ok, coeffs = in_span(rows, scheme.program.target, scheme.p)
    if not ok:
        return None
    return sum(c * s for c, s in zip(coeffs, shares)) % scheme.p

