"""Dense statevector reference with named registers, on the standard library.

No request loads this module: the quantum verifiers run on Pauli frames
(``frames``), exactly. Demos, ``toolkit``, the tests' dense references and
the benchmark's tracer read it. States carry an ordered tuple of (register
name, qubit count) and an amplitude vector, a list of ``complex``; operators
are sequences of rows (functions return lists, the module's constants are
tuples). Every operation addresses qubits as (register, index) or a bare
register name meaning all of its qubits, most significant first, and works
by index arithmetic: qubit q of an n-qubit state is bit n - 1 - q of an
amplitude's index. Inputs may be any nested sequence of numbers, numpy
arrays included; a state or operator reads them into Python ``complex``
once. The register budget, ``MAX_QUBITS``, caps every state and is checked
before ``tensor`` allocates, so a dense state is one factor and its budget
stops name the space "qubits per factor".

Measurement never samples: ``bell_measure`` returns every outcome branch
with its exact probability, and ``ptrace`` returns a reduced density
operator as a list of rows. A referee's classical-quantum view is a block
stack, a list holding the t (d, d) blocks of a block-diagonal operator, one
block per transcript; ``decoupling_gap`` takes such stacks whole, and its
trace norms come from ``eigh``, the cyclic Jacobi method for Hermitian
matrices (Golub and Van Loan, *Matrix Computations*, section 8.5).

Nothing here uses numpy. The seeded probe qubits, the Uhlmann fidelity,
the trace distance, Choi states and the pad average live in ``toolkit``.
"""

from __future__ import annotations

import math
from itertools import product
from operator import mul
from typing import Sequence

from .errors import BudgetError, DomainError, ValidationError

MAX_QUBITS = 14
_R2 = 1 / math.sqrt(2)


def _vector(v) -> list:
    return list(map(complex, v))


def _matrix(m) -> list:
    return [list(map(complex, row)) for row in m]


def _nested(x) -> bool:
    """True when ``x`` is a sequence (a row or a block), not a number."""
    try:
        len(x)
    except TypeError:
        return False
    return True


def _stack(m) -> list:
    """A matrix or a block stack as a list of blocks; a matrix is a stack of one."""
    if len(m) and len(m[0]) and _nested(m[0][0]):
        return [_matrix(block) for block in m]
    return [_matrix(m)]


def dagger(a) -> list:
    """Conjugate transpose of a matrix."""
    return [[z.conjugate() for z in col] for col in zip(*_matrix(a))]


def matmul(a, b) -> list:
    """a @ b for a matrix a and a matrix or vector b."""
    a = _matrix(a)
    if len(b) and _nested(b[0]):
        cols = list(zip(*_matrix(b)))
        return [[sum(map(mul, row, col)) for col in cols] for row in a]
    b = _vector(b)
    return [sum(map(mul, row, b)) for row in a]


def kron(a, b) -> list:
    """Kronecker product of two vectors or of two matrices."""
    if len(a) and _nested(a[0]):
        a, b = _matrix(a), _matrix(b)
        return [[x * y for x in ra for y in rb] for ra in a for rb in b]
    return [x * y for x in _vector(a) for y in _vector(b)]


def weighted(terms) -> list:
    """The sum of p * m over the (p, m) pairs of ``terms``, added in their order."""
    out = None
    for p, m in terms:
        if out is None:
            out = [[p * z for z in map(complex, row)] for row in m]
        else:
            out = [[u + p * z for u, z in zip(ro, map(complex, row))]
                   for ro, row in zip(out, m)]
    if out is None:
        raise ValidationError("no terms to sum")
    return out


def overlap(rho, psi) -> float:
    """<psi| rho |psi>, real part: a density operator's squared fidelity with psi."""
    psi = _vector(psi)
    bra = [z.conjugate() for z in psi]
    row = [sum(map(mul, bra, col)) for col in zip(*rho)]
    return float(sum(map(mul, row, psi)).real)


I2 = ((1 + 0j, 0j), (0j, 1 + 0j))
X = ((0j, 1 + 0j), (1 + 0j, 0j))
Z = ((1 + 0j, 0j), (0j, -1 + 0j))

PHI_PLUS = (_R2 + 0j, 0j, 0j, _R2 + 0j)


def _freeze(m) -> tuple:
    return tuple(map(tuple, m))


# key (s1, s2) -> i^(s1 s2) X^s1 Z^s2
_PADS = {(s1, s2): _freeze([[(1j ** (s1 * s2)) * z for z in row]
                            for row in matmul(X if s1 else I2, Z if s2 else I2)])
         for s1, s2 in product((0, 1), repeat=2)}


def phased_pad(s1: int, s2: int) -> list:
    """i^(s1 s2) X^s1 Z^s2: the Hermitian one-time-pad family {I, X, Z, Y}."""
    return [list(row) for row in _PADS[(s1, s2)]]


# column k encodes key (s1, s2) with k = 2 s1 + s2; columns are the padded
# halves of an EPR pair, so this unitary coherently maps a key register onto
# the pad it selects.
U_BELL = _freeze(zip(*[matmul(kron(I2, _PADS[(k >> 1, k & 1)]), PHI_PLUS)
                       for k in range(4)]))

# outcome (a, b) of a Bell measurement and the nonzero entries (row, conjugate
# amplitude) of its basis vector (I x X^a Z^b)|epr>, so that a measured
# pair's amplitude is one short sum
_BELL_BRAS = tuple(
    ((a, b), tuple((r, z.conjugate()) for r, z in enumerate(
        matmul(kron(I2, matmul(X if a else I2, Z if b else I2)), PHI_PLUS)) if z))
    for a, b in product((0, 1), repeat=2))


def _offsets(regs) -> dict:
    """Register name -> (first qubit, qubit count) in tensor order."""
    out = {}
    pos = 0
    for name, k in regs:
        out[name] = (pos, k)
        pos += k
    return out


def _layout(n: int, axes) -> tuple:
    """(offsets, bases) of the qubits ``axes`` of an n-qubit index.

    ``offsets[s]`` sets those qubits to the value s, read MSB-first in the
    order given; ``bases`` are the indices with those qubits zero, ascending,
    so index ``base + offsets[s]`` runs over the whole space once.
    """
    offs = [0]
    mask = 0
    for a in axes:
        bit = 1 << (n - 1 - a)
        offs = [o + x for o in offs for x in (0, bit)]
        mask |= bit
    return offs, [i for i in range(1 << n) if not i & mask]


class PureState:
    """Statevector over named registers, tensor order = tuple order."""

    def __init__(self, regs: tuple, vec):
        self.regs = regs
        names = [n for (n, _) in self.regs]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate register names")
        if (n := self.n_qubits) > MAX_QUBITS:
            raise BudgetError("qubits per factor", n, MAX_QUBITS)
        self.vec = _vector(vec)
        if len(self.vec) != 1 << n:
            raise ValidationError("amplitude vector length mismatch")

    @property
    def n_qubits(self) -> int:
        return sum(k for (_, k) in self.regs)

    @staticmethod
    def computational(regs: Sequence, values: dict) -> "PureState":
        """Basis state; each register's value is its bits, MSB first."""
        regs = tuple((str(n), int(k)) for (n, k) in regs)
        idx = 0
        for name, k in regs:
            v = values.get(name, 0)
            if not 0 <= v < (1 << k):
                raise DomainError(f"value {v} out of range for register {name}")
            idx = (idx << k) | v
        if (n := sum(k for (_, k) in regs)) > MAX_QUBITS:
            raise BudgetError("qubits per factor", n, MAX_QUBITS)
        vec = [0j] * (1 << n)
        vec[idx] = 1 + 0j
        return PureState(regs, vec)

    def tensor(self, other: "PureState") -> "PureState":
        if (n := self.n_qubits + other.n_qubits) > MAX_QUBITS:
            raise BudgetError("qubits per factor", n, MAX_QUBITS)
        return PureState(self.regs + other.regs, kron(self.vec, other.vec))

    # -- addressing ----------------------------------------------------------

    def qubits_of(self, target) -> list:
        """Expand a register name or (name, index) into global qubit axes."""
        offs = _offsets(self.regs)
        if isinstance(target, tuple) and len(target) == 2 and isinstance(target[1], int):
            name, k = target
            pos, size = offs[name]
            if not 0 <= k < size:
                raise ValidationError(f"register {name} has no qubit {k}")
            return [pos + k]
        pos, size = offs[target]
        return [pos + i for i in range(size)]

    def _axes(self, targets) -> list:
        axes = []
        for t in targets:
            axes.extend(self.qubits_of(t))
        if len(set(axes)) != len(axes):
            raise ValidationError("repeated target qubit")
        return axes

    # -- evolution -------------------------------------------------------------

    def apply(self, U, targets: Sequence) -> "PureState":
        """Apply a 2^k x 2^k unitary to the k addressed qubits."""
        axes = self._axes(targets)
        k = len(axes)
        U = _matrix(U)
        if len(U) != 1 << k or any(len(row) != 1 << k for row in U):
            shape = (len(U), len(U[0]) if U else 0)
            raise ValidationError(f"operator shape {shape} does not address {k} qubits")
        offs, bases = _layout(self.n_qubits, axes)
        vec = self.vec
        out = [0j] * len(vec)
        for base in bases:
            idx = [base + o for o in offs]
            amps = [vec[i] for i in idx]
            for i, row in zip(idx, U):
                out[i] = sum(map(mul, row, amps))
        return PureState(self.regs, out)

    def rename(self, mapping: dict) -> "PureState":
        regs = tuple((mapping.get(n, n), k) for (n, k) in self.regs)
        return PureState(regs, self.vec)

    # -- measurement -----------------------------------------------------------

    def bell_measure(self, reg_a: str, reg_b: str) -> list:
        """Measure a qubit pair in the basis (I x X^a Z^b)|epr>.

        Returns [((a, b), prob, post_state)] for each nonzero prob;
        outcome (a, b) leaves the rest of the state as if X^a Z^b had hit the
        partner of a perfect EPR link, the teleportation correction convention.
        """
        offs = _offsets(self.regs)
        if offs[reg_a][1] != 1 or offs[reg_b][1] != 1:
            raise ValidationError("bell_measure wants two 1-qubit registers")
        axes = self.qubits_of(reg_a) + self.qubits_of(reg_b)
        pair, bases = _layout(self.n_qubits, axes)
        vec = self.vec
        keep_regs = tuple(r for r in self.regs if r[0] not in (reg_a, reg_b))
        out = []
        for ab, ((r0, c0), (r1, c1)) in _BELL_BRAS:
            o0, o1 = pair[r0], pair[r1]
            amp = [c0 * vec[base + o0] + c1 * vec[base + o1] for base in bases]
            p = sum(z.real * z.real + z.imag * z.imag for z in amp)
            if p:
                root = math.sqrt(p)
                out.append((ab, p, PureState(keep_regs, [z / root for z in amp])))
        return out

    # -- density views -----------------------------------------------------------

    def ptrace(self, keep: Sequence[str]) -> list:
        """Reduced density operator on the named registers, in given order, as rows."""
        offs, bases = _layout(self.n_qubits, self._axes(keep))
        vec = self.vec
        rows = [[vec[base + o] for base in bases] for o in offs]
        conj = [[z.conjugate() for z in row] for row in rows]
        return [[sum(map(mul, ri, cj)) for cj in conj] for ri in rows]


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


def _trace_norm(mat) -> float:
    return sum(map(abs, eigh(mat)[0]))


# -- states and channels -------------------------------------------------------


def epr_pairs(pairs: Sequence) -> PureState:
    """Tensor product of EPR links, one per (left name, right name) pair."""
    state = None
    for (a, b) in pairs:
        piece = PureState(((a, 1), (b, 1)), PHI_PLUS)
        state = piece if state is None else state.tensor(piece)
    if state is None:
        raise ValidationError("need at least one pair")
    return state


def decoupling_gap(J, d_ref: int, d_msg: int) -> float:
    """How far a bipartite state sits from the product of its marginals.

    Returns half the trace norm of J - J_ref x J_msg. Zero means the message
    side carries no information about the reference side. ``J`` is one
    (d, d) matrix on reference x message, d = d_ref * d_msg, or a block
    stack, a list of t such blocks, standing for the block-diagonal operator
    on reference x (block, message). Its reference marginal sums over the
    whole stack, and its message marginal is again one block per block. A
    matrix is a stack of one.
    """
    d = d_ref * d_msg
    stack = _stack(J)
    if any(len(block) != d or any(len(row) != d for row in block) for block in stack):
        raise ValidationError("dimension mismatch")
    J_r = [[sum(block[i * d_msg + k][j * d_msg + k] for block in stack for k in range(d_msg))
            for j in range(d_ref)] for i in range(d_ref)]
    gap = 0.0
    for block in stack:
        J_m = [[sum(block[k * d_msg + i][k * d_msg + j] for k in range(d_ref))
                for j in range(d_msg)] for i in range(d_msg)]
        prod = kron(J_r, J_m)
        gap += _trace_norm([[x - y for x, y in zip(rb, rp)] for rb, rp in zip(block, prod)])
    return 0.5 * gap
