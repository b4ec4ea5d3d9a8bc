"""Statevector toolkit with named registers.

States carry an ordered tuple of (register name, qubit count) and a complex
amplitude vector; every operation addresses qubits as (register, index) or a
bare register name meaning all of its qubits, most significant first. The
register budget, ``MAX_QUBITS``, caps every state and is checked before
``tensor`` or ``apply_isometry`` allocates, so protocol bugs fail fast
instead of allocating huge arrays.

Measurement never samples: ``measure`` and ``bell_measure`` return every
outcome branch with its exact probability. The protocol verifiers read a
referee's classical-quantum view as a block stack, a (t, d, d) array holding
the t blocks of a block-diagonal operator, one block per transcript;
``decoupling_gap`` and ``trace_distance`` take such stacks whole.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import BudgetError, DomainError, ValidationError

MAX_QUBITS = 14
_TOL = 1e-12

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def phased_pad(s1: int, s2: int) -> np.ndarray:
    """i^(s1 s2) X^s1 Z^s2: the Hermitian one-time-pad family {I, X, Z, Y}."""
    mat = (1j ** (s1 * s2)) * (np.linalg.matrix_power(X, s1) @
                               np.linalg.matrix_power(Z, s2))
    return mat


# column k encodes key (s1, s2) with k = 2 s1 + s2; columns are the padded
# halves of an EPR pair, so this unitary coherently maps a key register onto
# the pad it selects.
U_BELL = np.column_stack([np.kron(I2, phased_pad(k >> 1, k & 1)) @ PHI_PLUS
                          for k in range(4)])

# outcome (a, b) of a Bell measurement and the conjugate of its basis vector
# (I x X^a Z^b)|epr>, so that a measured pair's amplitude is one product
_BELL_BRAS = tuple(
    ((a, b), (np.kron(I2, np.linalg.matrix_power(X, a) @
                      np.linalg.matrix_power(Z, b)) @ PHI_PLUS).conj())
    for a, b in product((0, 1), repeat=2))


def _qubit_budget(n: int) -> BudgetError:
    # a dense state is one factor; budget reports keep this space name
    return BudgetError(f"{n} qubits exceed the {MAX_QUBITS}-qubit budget",
                       space="qubits per factor", size=n, limit=MAX_QUBITS)


def _offsets(regs) -> dict:
    """Register name -> (first qubit, qubit count) in tensor order."""
    out = {}
    pos = 0
    for name, k in regs:
        out[name] = (pos, k)
        pos += k
    return out


class PureState:
    """Statevector over named registers, tensor order = tuple order."""

    def __init__(self, regs: tuple, vec: np.ndarray):
        self.regs, self.vec = regs, vec
        names = [n for (n, _) in self.regs]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate register names")
        n = self.n_qubits
        if n > MAX_QUBITS:
            raise _qubit_budget(n)
        if self.vec.shape != (1 << n,):
            raise ValidationError("amplitude vector length mismatch")

    @property
    def n_qubits(self) -> int:
        return sum(k for (_, k) in self.regs)

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

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
        vec = np.zeros(1 << sum(k for (_, k) in regs), dtype=complex)
        vec[idx] = 1.0
        return PureState(regs, vec)

    @staticmethod
    def from_qubit(name: str, amplitudes) -> "PureState":
        vec = np.asarray(amplitudes, dtype=complex).reshape(2)
        norm = np.linalg.norm(vec)
        if norm < _TOL:
            raise ValidationError("zero vector")
        return PureState(((name, 1),), vec / norm)

    def tensor(self, other: "PureState") -> "PureState":
        n = self.n_qubits + other.n_qubits
        if n > MAX_QUBITS:
            raise _qubit_budget(n)
        return PureState(self.regs + other.regs, np.kron(self.vec, other.vec))

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

    def apply(self, U: np.ndarray, targets: Sequence) -> "PureState":
        """Apply a 2^k x 2^k unitary to the k addressed qubits."""
        axes = self._axes(targets)
        k = len(axes)
        U = np.asarray(U, dtype=complex)
        if U.shape != (1 << k, 1 << k):
            raise ValidationError(f"operator shape {U.shape} does not address {k} qubits")
        n = self.n_qubits
        T = self.vec.reshape((2,) * n)
        res = np.tensordot(U.reshape((2,) * (2 * k)), T,
                           axes=(list(range(k, 2 * k)), axes))
        res = np.moveaxis(res, list(range(k)), axes)
        return PureState(self.regs, np.ascontiguousarray(res.reshape(-1)))

    def apply_isometry(self, V: np.ndarray, targets: Sequence,
                       new_reg: tuple) -> "PureState":
        """Apply a (2^(k+m), 2^k) isometry; fresh qubits become a new register."""
        axes = self._axes(targets)
        k = len(axes)
        name, m = new_reg
        V = np.asarray(V, dtype=complex)
        if V.shape != (1 << (k + m), 1 << k):
            raise ValidationError("isometry shape mismatch")
        n = self.n_qubits
        if n + m > MAX_QUBITS:
            raise _qubit_budget(n + m)
        T = self.vec.reshape((2,) * n)
        res = np.tensordot(V.reshape((2,) * (2 * k + m)), T,
                           axes=(list(range(k + m, 2 * k + m)), axes))
        dest = axes + list(range(n, n + m))
        res = np.moveaxis(res, list(range(k + m)), dest)
        return PureState(self.regs + ((name, m),),
                         np.ascontiguousarray(res.reshape(-1)))

    def rename(self, mapping: dict) -> "PureState":
        regs = tuple((mapping.get(n, n), k) for (n, k) in self.regs)
        return PureState(regs, self.vec)

    # -- measurement -----------------------------------------------------------

    def measure(self, reg_names: Sequence[str], tol: float = _TOL) -> list:
        """All nonzero computational branches over whole registers.

        Returns [(bits, prob, post_state)] sorted by outcome; measured
        registers are removed from the post state. ``bits`` is the integer
        read MSB-first across the given registers in the given order.
        """
        axes = self._axes(reg_names)
        k = len(axes)
        n = self.n_qubits
        T = np.moveaxis(self.vec.reshape((2,) * n), axes, range(k))
        T = T.reshape(1 << k, -1)
        keep_regs = tuple(r for r in self.regs if r[0] not in set(reg_names))
        out = []
        for outcome in range(1 << k):
            amp = T[outcome]
            p = float(np.vdot(amp, amp).real)
            if p <= tol:
                continue
            out.append((outcome, p, PureState(keep_regs, amp / np.sqrt(p))))
        return out

    def bell_measure(self, reg_a: str, reg_b: str, tol: float = _TOL) -> list:
        """Measure a qubit pair in the basis (I x X^a Z^b)|epr>.

        Returns [((a, b), prob, post_state)]; outcome (a, b) means the rest of
        the state is left as if X^a Z^b had hit the partner of a perfect EPR
        link, which is the teleportation correction convention used throughout.
        """
        offs = _offsets(self.regs)
        if offs[reg_a][1] != 1 or offs[reg_b][1] != 1:
            raise ValidationError("bell_measure wants two 1-qubit registers")
        axes = self.qubits_of(reg_a) + self.qubits_of(reg_b)
        n = self.n_qubits
        T = np.moveaxis(self.vec.reshape((2,) * n), axes, (0, 1))
        T = T.reshape(4, -1)
        keep_regs = tuple(r for r in self.regs if r[0] not in (reg_a, reg_b))
        out = []
        for ab, bra in _BELL_BRAS:
            amp = bra @ T
            p = float(np.vdot(amp, amp).real)
            if p <= tol:
                continue
            out.append((ab, p, PureState(keep_regs, amp / np.sqrt(p))))
        return out

    # -- density views -----------------------------------------------------------

    def density(self) -> "DensityOp":
        return DensityOp(self.regs, np.outer(self.vec, self.vec.conj()))

    def ptrace(self, keep: Sequence[str]) -> "DensityOp":
        """Reduced density operator on the named registers, in given order."""
        axes = self._axes(keep)
        n = self.n_qubits
        T = np.moveaxis(self.vec.reshape((2,) * n), axes, range(len(axes)))
        M = T.reshape(1 << len(axes), -1)
        offs = _offsets(self.regs)
        regs = tuple((nm, offs[nm][1]) for nm in keep)
        return DensityOp(regs, M @ M.conj().T)


class DensityOp:
    """Density operator over named registers."""

    def __init__(self, regs: tuple, mat: np.ndarray):
        self.regs, self.mat = regs, mat

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def ptrace(self, keep: Sequence[str]) -> "DensityOp":
        n = sum(k for (_, k) in self.regs)
        keep_set = list(keep)
        axes = []
        offs = _offsets(self.regs)
        for nm in keep_set:
            p0, k = offs[nm]
            axes.extend(range(p0, p0 + k))
        T = self.mat.reshape((2,) * (2 * n))
        order = axes + [a for a in range(n) if a not in axes]
        T = np.moveaxis(T, order + [n + a for a in order], range(2 * n))
        ka = len(axes)
        T = T.reshape(1 << ka, 1 << (n - ka), 1 << ka, 1 << (n - ka))
        out = np.einsum("ikjk->ij", T)
        regs = tuple((nm, offs[nm][1]) for nm in keep_set)
        return DensityOp(regs, out)


def _eigh_psd(mat: np.ndarray):
    vals, vecs = np.linalg.eigh((mat + mat.conj().T) / 2)
    return np.clip(vals, 0.0, None), vecs


def sqrtm_psd(mat: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition."""
    vals, vecs = _eigh_psd(mat)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)), unsquared.

    Accepts DensityOp or raw matrices; for pure states this is the absolute
    overlap. Satisfies 1 - F <= trace distance <= sqrt(1 - F^2).
    """
    r = rho.mat if isinstance(rho, DensityOp) else np.asarray(rho, complex)
    s = sigma.mat if isinstance(sigma, DensityOp) else np.asarray(sigma, complex)
    root = sqrtm_psd(r)
    vals, _ = _eigh_psd(root @ s @ root)
    return float(min(1.0, np.sqrt(vals).sum()))


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of the difference.

    Also takes two block stacks of one shape, (t, d, d) arrays holding the t
    blocks of block-diagonal operators: the eigenvalues broadcast over the
    stack, so the result is the trace distance of the two operators.
    """
    r = rho.mat if isinstance(rho, DensityOp) else np.asarray(rho, complex)
    s = sigma.mat if isinstance(sigma, DensityOp) else np.asarray(sigma, complex)
    vals = np.linalg.eigvalsh(r - s)
    return float(0.5 * np.abs(vals).sum())


# -- states and channels -------------------------------------------------------


def epr_pairs(pairs: Sequence) -> PureState:
    """Tensor product of EPR links, one per (left name, right name) pair."""
    state = None
    for (a, b) in pairs:
        piece = PureState(((a, 1), (b, 1)), PHI_PLUS.copy())
        state = piece if state is None else state.tensor(piece)
    if state is None:
        raise ValidationError("need at least one pair")
    return state


def random_qubit(seed: int) -> PureState:
    rng = np.random.default_rng(seed)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return PureState.from_qubit("q", v)


PAULI_EIGENSTATES = (
    ("z+", np.array([1, 0], dtype=complex)),
    ("z-", np.array([0, 1], dtype=complex)),
    ("x+", np.array([1, 1], dtype=complex) / np.sqrt(2)),
    ("x-", np.array([1, -1], dtype=complex) / np.sqrt(2)),
    ("y+", np.array([1, 1j], dtype=complex) / np.sqrt(2)),
    ("y-", np.array([1, -1j], dtype=complex) / np.sqrt(2)),
)


def probe_qubits(seeds) -> list:
    """(name, amplitudes) of the secret qubits a state sweep tries.

    The six Pauli eigenstates come first, then ``random_qubit(seed)`` as
    "rand<seed>" for each seed in order; the amplitudes are used as stored.
    """
    return list(PAULI_EIGENSTATES) + [(f"rand{seed}", random_qubit(seed).vec)
                                      for seed in seeds]


def pad_average(rho: np.ndarray) -> np.ndarray:
    """Average over the four pads; a single qubit becomes maximally mixed."""
    out = np.zeros_like(rho, dtype=complex)
    for s1, s2 in product((0, 1), repeat=2):
        P = phased_pad(s1, s2)
        out += P @ rho @ P.conj().T
    return out / 4


def build_vf(f) -> np.ndarray:
    """Isometry writing f(x, y) into a fresh qubit: |x,y> -> |x,y,f(x,y)>."""
    n = f.n_x + f.n_y
    V = np.zeros((1 << (n + 1), 1 << n), dtype=complex)
    for x, y in f.inputs():
        col = (x << f.n_y) | y
        V[(col << 1) | f.eval(x, y), col] = 1.0
    return V


def choi(channel: Callable, dim: int) -> np.ndarray:
    """Choi state (I x N)(|phi><phi|), normalized to trace one."""
    J = np.zeros((dim * dim, dim * dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            E = np.zeros((dim, dim), dtype=complex)
            E[i, j] = 1.0
            J += np.kron(E, channel(E))
    return J / dim


def decoupling_gap(J: np.ndarray, d_ref: int, d_msg: int) -> float:
    """How far a bipartite state sits from the product of its marginals.

    Returns half the trace norm of J - J_ref x J_msg. Zero means the message
    side carries no information about the reference side. ``J`` is one
    (d, d) matrix on reference x message, d = d_ref * d_msg, or a block
    stack of t such blocks, standing for the block-diagonal operator on
    reference x (block, message). Its reference marginal sums over the
    whole stack, and its message marginal is again one block per block. A
    matrix is a stack of one.
    """
    d = d_ref * d_msg
    if J.ndim not in (2, 3) or J.shape[-2:] != (d, d):
        raise ValidationError("dimension mismatch")
    stack = J.reshape(-1, d, d)
    T = stack.reshape(-1, d_ref, d_msg, d_ref, d_msg)
    J_r = np.einsum("tikjk->ij", T)
    J_m = np.einsum("tkikj->tij", T)
    prods = np.einsum("ab,tcd->tacbd", J_r, J_m).reshape(stack.shape)
    vals = np.linalg.eigvalsh(stack - prods)
    return float(0.5 * np.abs(vals).sum())
