"""Spectra of small Hermitian matrices, and a qubit map's exact worst fidelity.

Spectra come from the cyclic Jacobi method for Hermitian matrices (Golub and
Van Loan, *Matrix Computations*, section 8.5), on the standard library. Of
the requests, only a verify of a pad route's left side loads this module:
``worst_fidelity`` turns the four images of the left side's linear map into
its worst case over every pure input, a 3x3 trust-region problem. The dense
statevector reference, ``quantum``, reads its trace norms from here.
"""

from __future__ import annotations

import math
from typing import Callable

from .errors import ValidationError
from .frames import PADS

# I, X, Y and Z as rows
_PAULIS = tuple(PADS[frame] for frame in ((0, 0), (1, 0), (1, 1), (0, 1)))


def _jacobi(a: list) -> tuple:
    """Cyclic Jacobi diagonalisation of the Hermitian matrix ``a``, in place.

    Each rotation zeroes one off-diagonal pair: a phase makes the pivot real
    and a real rotation annihilates it, so the rotation on rows and columns
    (p, q) is [[c, s e], [-s conj(e), c]] with e the pivot's phase. Sweeps
    run row by row over p < q and stop after one that finds every
    off-diagonal entry at most 2^-60 of the Frobenius norm. Returns
    (diagonal, accumulated rotations).
    """
    n = len(a)
    v = [[1 + 0j if i == j else 0j for j in range(n)] for i in range(n)]
    tiny = 2.0 ** -120 * sum(z.real * z.real + z.imag * z.imag for row in a for z in row)
    rotated = True
    while rotated:
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                g = abs(apq)
                if g * g <= tiny:
                    continue
                rotated = True
                e = apq / g
                app, aqq = a[p][p].real, a[q][q].real
                tau = (aqq - app) / (2 * g)
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
                c = 1 / math.sqrt(1 + t * t)
                s = t * c
                se = s * e
                sec = se.conjugate()
                for k in range(n):
                    if k == p or k == q:
                        continue
                    akp, akq = a[k][p], a[k][q]
                    a[k][p] = nkp = c * akp - sec * akq
                    a[k][q] = nkq = se * akp + c * akq
                    a[p][k], a[q][k] = nkp.conjugate(), nkq.conjugate()
                a[p][p], a[q][q] = complex(app - t * g), complex(aqq + t * g)
                a[p][q] = a[q][p] = 0j
                for row in v:
                    vkp, vkq = row[p], row[q]
                    row[p], row[q] = c * vkp - sec * vkq, se * vkp + c * vkq
    return [a[i][i].real for i in range(n)], v


def _hermitian(mat) -> list:
    """(mat + mat^H) / 2, which is ``mat`` itself when it is Hermitian."""
    m = [list(map(complex, row)) for row in mat]
    if any(len(row) != len(m) for row in m):
        raise ValidationError("matrix is not square")
    return [[(x + y.conjugate()) / 2 for x, y in zip(row, col)]
            for row, col in zip(m, zip(*m))]


def eigh(mat) -> tuple:
    """(eigenvalues ascending, matrix whose columns are the eigenvectors)
    of the Hermitian part of ``mat``."""
    vals, v = _jacobi(_hermitian(mat))
    order = sorted(range(len(vals)), key=vals.__getitem__)
    return [vals[i] for i in order], [[row[i] for i in order] for row in v]


def _combine(*terms) -> list:
    """The 2x2 sum of c * m over the (c, m) pairs of ``terms``, added in their order."""
    return [[sum(c * m[i][j] for c, m in terms) for j in range(2)] for i in range(2)]


# |0>, |1> and the unnormalised (1, 1) and (1, i), whose projectors are I + X
# and I + Y: they span a qubit's operators, and their amplitudes are exact
_SPANNING_QUBITS = ((1, 0), (0, 1), (1, 1), (1, 1j))


def worst_fidelity(channel: Callable) -> float:
    """min over every pure qubit psi of <psi| channel(psi) |psi>, exactly.

    ``channel(psi)`` is the 2x2 image of |psi><psi| under a linear map Phi
    that keeps operators Hermitian, for amplitudes psi of any norm. Four
    inputs fix Phi: |0> and |1> give Phi(I) and Phi(Z), and with them (1, 1)
    and (1, i) give Phi(X) and Phi(Y), so a map stated in exact numbers has
    exact Pauli images, and a diagonal problem an exact minimum. For psi with Bloch vector n, and n_0 = 1, the figure
    is sum_ab n_a n_b M_ab with M_ab = tr(sigma_a Phi(sigma_b)) / 4, so the
    worst case is the trust-region problem min over |n| = 1 of n.An + b.n,
    A the symmetric part of M's Pauli block and b its first row plus first
    column. For a channel with Bloch form (T, t) the figure is
    (1 + n.(Tn + t)) / 2: A is the symmetric part of T / 2 and b = t / 2.

    One sphere constraint leaves no duality gap, so the minimum is the
    maximum over mu <= lambda_min(A) of g(mu) = mu - sum_i beta_i^2 /
    (lambda_i - mu), with A = Q diag(lambda) Q^T and beta = Q^T b / 2. g is
    concave and g' = 1 - sum_i beta_i^2 / (lambda_i - mu)^2 falls
    monotonically, so bisection on g' finds the maximiser; every g(mu) is a
    lower bound and 0 <= g' <= 1 at the bracket's left end, so the value
    there is short of the minimum by at most the final bracket width. The
    hard case, b with no component in A's lowest eigenspace, needs no
    branch: g' stays positive up to lambda_min and the bracket closes on it.
    """
    r0, r1, rx, ry = (channel(psi) for psi in _SPANNING_QUBITS)
    images = (_combine((1, r0), (1, r1)), _combine((1, rx), (-1, r0), (-1, r1)),
              _combine((1, ry), (-1, r0), (-1, r1)), _combine((1, r0), (-1, r1)))
    M = [[sum(s[i][j] * im[j][i] for i in range(2) for j in range(2)).real / 4
          for im in images] for s in _PAULIS]
    lams, Q = eigh([row[1:] for row in M[1:]])
    # A is real symmetric, so Jacobi's rotations, and Q, are real
    beta = [sum(Q[j][i].real * (M[0][j + 1] + M[j + 1][0]) for j in range(3)) / 2
            for i in range(3)]
    terms = [(lam, b * b) for lam, b in zip(lams, beta) if b]
    lo = hi = lams[0]
    lo -= math.sqrt(sum(b2 for _, b2 in terms))
    while lo < (mu := (lo + hi) / 2) < hi:
        if sum(b2 / (lam - mu) ** 2 for lam, b2 in terms) < 1:
            lo = mu
        else:
            hi = mu
    # lo reaches an eigenvalue only when |beta| vanished beside it in rounding
    return M[0][0] + lo - sum(b2 / (lam - lo) for lam, b2 in terms if lam > lo)
