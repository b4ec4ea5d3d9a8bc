"""What only demos and tests call, which no CLI request loads: probe qubits,
channel pictures and distances, the security state sweep, a threshold span
program and the qr split of one integer.
``random_qubit`` is the one function in the package that imports numpy.
"""

from __future__ import annotations

import math
from itertools import combinations, product
from typing import TYPE_CHECKING, Callable

from .algebra import SpanProgram, span_dnf
from .errors import ValidationError, Worst
from .frames import CARRIER, view
from .quantum import (_R2, PureState, _stack, _trace_norm, dagger, eigh, kron, matmul,
                      phased_pad, weighted)

if TYPE_CHECKING:
    from .nlqc import FRoutingProtocol


def sqrtm_psd(mat) -> list:
    """Hermitian PSD square root via eigendecomposition."""
    vals, vecs = _eigh_psd(mat)
    scaled = [[z * math.sqrt(x) for z, x in zip(row, vals)] for row in vecs]
    return matmul(scaled, dagger(vecs))


def _eigh_psd(mat) -> tuple:
    vals, vecs = eigh(mat)
    return [max(0.0, x) for x in vals], vecs


def fidelity(rho, sigma) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)), unsquared.

    For pure states this is the absolute overlap. Satisfies
    1 - F <= trace distance <= sqrt(1 - F^2).
    """
    root = sqrtm_psd(rho)
    vals, _ = _eigh_psd(matmul(matmul(root, sigma), root))
    return float(min(1.0, sum(map(math.sqrt, vals))))


def trace_distance(rho, sigma) -> float:
    """Half the trace norm of the difference.

    Also takes two block stacks of one shape, lists of the (d, d) blocks of
    block-diagonal operators: the trace norm adds up block by block, so the
    result is the trace distance of the two operators.
    """
    r, s = _stack(rho), _stack(sigma)
    if len(r) != len(s) or any(len(a) != len(b) for a, b in zip(r, s)):
        raise ValidationError("dimension mismatch")
    return 0.5 * sum(_trace_norm([[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)])
                     for a, b in zip(r, s))


def _block_distance(blocks_a: dict, blocks_b: dict) -> float:
    """Trace distance of two views, their blocks matched by transcript.

    A transcript only one view has is a zero block in the other.
    """
    keys = sorted(set(blocks_a) | set(blocks_b), key=repr)
    if not keys:
        return 0.0
    d = len(next(iter((blocks_a or blocks_b).values())))
    zero = [[0j] * d for _ in range(d)]
    return trace_distance([blocks_a.get(k, zero) for k in keys],
                          [blocks_b.get(k, zero) for k in keys])


def random_qubit(seed: int) -> PureState:
    """The qubit of ``numpy.random.default_rng(seed)``'s normal draw, normalised.

    numpy is imported here, the one place in the package it serves, so the
    seeded probe states keep their bits.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    v = rng.normal(size=2) + 1j * rng.normal(size=2)
    return PureState((("q", 1),), v / np.linalg.norm(v))


PAULI_EIGENSTATES = (
    ("z+", (1 + 0j, 0j)),
    ("z-", (0j, 1 + 0j)),
    ("x+", (_R2 + 0j, _R2 + 0j)),
    ("x-", (_R2 + 0j, -_R2 + 0j)),
    ("y+", (_R2 + 0j, 1j / math.sqrt(2))),
    ("y-", (_R2 + 0j, -1j / math.sqrt(2))),
)


def probe_qubits(seeds) -> list:
    """(name, amplitudes) of the secret qubits a state sweep tries.

    The six Pauli eigenstates come first, then ``random_qubit(seed)`` as
    "rand<seed>" for each seed in order; the amplitudes are used as stored.
    """
    return list(PAULI_EIGENSTATES) + [(f"rand{seed}", random_qubit(seed).vec)
                                      for seed in seeds]


def pad_average(rho) -> list:
    """Average over the four pads; a single qubit becomes maximally mixed."""
    terms = [(1.0, matmul(matmul(P, rho), dagger(P)))
             for P in (phased_pad(*key) for key in product((0, 1), repeat=2))]
    return [[z / 4 for z in row] for row in weighted(terms)]


def choi(channel: Callable, dim: int) -> list:
    """Choi state (I x N)(|phi><phi|), normalized to trace one."""
    terms = []
    for i in range(dim):
        for j in range(dim):
            E = [[0j] * dim for _ in range(dim)]
            E[i][j] = 1 + 0j
            terms.append((1.0, kron(E, channel(E))))
    return [[z / dim for z in row] for row in weighted(terms)]


def _probe_view(blocks: dict, psi, denom: int) -> dict:
    """The referee's view per transcript when the secret qubit is ``psi``.

    ``blocks`` are a run's ``frames.view``: frame (a, b) leaves the padded
    qubit X^a Z^b psi in view, and a view without the carried qubit is one
    number, its weight.
    """
    out = {}
    for t, weights in blocks.items():
        terms = []
        for frame, w in weights.items():
            v = matmul(phased_pad(*frame), psi) if frame else (1,)
            terms.append((w / denom, [[a * b.conjugate() for b in v] for a in v]))
        out[t] = weighted(terms)
    return out


def security_state_sweep(P: FRoutingProtocol, seeds=range(10)) -> dict:
    """Max pairwise referee-view distance across concrete secret qubits.

    Runs every hiding input once, from the carrier's frame, and views it
    with the six Pauli eigenstates and seeded random qubits as the secret;
    a protocol that leaks nothing produces views at distance zero from each
    other.
    """
    states = probe_qubits(seeds)
    worst = Worst()
    per_input = {}
    for (x, y) in P.domain:
        if P.f.eval(x, y) != 0:
            continue
        blocks = view(P.run(x, y, CARRIER), P.msg_regs(x, y))
        views = {name: _probe_view(blocks, psi, P.denom) for name, psi in states}
        per_input[(x, y)] = 0.0
        for a, b in combinations(views, 2):
            d = _block_distance(views[a], views[b])
            per_input[(x, y)] = max(per_input[(x, y)], d)
            worst.worse("view", d, (x, y, a, b))
    return {"worst": worst.worst.get("view", 0.0), "per_input": per_input,
            "witness": worst.witnesses.get("view"), "n_states": len(states)}


def span_threshold_2of3(p: int) -> SpanProgram:
    """At least two of three input bits set.

    Over fields with p >= 5 this is Shamir interpolation through the points
    1, 2, 3, which must be distinct and nonzero mod p; smaller fields cannot
    host three such points, so they use the DNF construction (6 rows).
    """
    if p <= 3:
        return span_dnf([[(1, 1), (2, 1)], [(1, 1), (3, 1)], [(2, 1), (3, 1)]], 3, p)
    rows = tuple((1, k) for k in range(1, 4))
    labels = tuple((k, 1) for k in range(1, 4))
    return SpanProgram(rows, labels, (1, 0), p, 3)


def qr_split_inputs(f, a: int) -> tuple:
    """The (x, y) pair of the qr function f that assembles back to a."""
    from .families import qr_positions, qr_split_at
    return qr_split_at(qr_positions(f.params), f.params["n_bits"], a)
