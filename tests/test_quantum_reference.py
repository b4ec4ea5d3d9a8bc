"""The standard-library statevector layer against numpy formulas.

numpy is the slow reference here and only here: each check below restates
an operation with ``tensordot``, ``einsum`` or ``numpy.linalg`` and asks
the list-based result to agree within 1e-12 on random states of up to 8
qubits and random Hermitian matrices of size 1 to 16.
"""

from __future__ import annotations

import numpy as np
import pytest

from cdslab import quantum, toolkit
from cdslab.quantum import PureState

TOL = 1e-12
RNG = np.random.default_rng(20261018)


def _rand_vec(n, rng=RNG):
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def _rand_op(d, rng=RNG):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _rand_herm(d, rng=RNG):
    A = _rand_op(d, rng)
    H = A + A.conj().T
    return H / np.linalg.norm(H)


def _rand_density(d, rng=RNG):
    A = _rand_op(d, rng)
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def _close(got, want, tol=TOL):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape, (got.shape, want.shape)
    assert np.max(np.abs(got - want), initial=0.0) <= tol


def _split(n, rng=RNG):
    """Registers of 1 or 2 qubits covering n qubits, named r0, r1, ..."""
    regs = []
    while n:
        k = min(n, int(rng.integers(1, 3)))
        regs.append((f"r{len(regs)}", k))
        n -= k
    return tuple(regs)


def _axes(regs, names):
    offs = {}
    pos = 0
    for name, k in regs:
        offs[name] = range(pos, pos + k)
        pos += k
    return [a for nm in names for a in offs[nm]]


# -- the eigen-solver -----------------------------------------------------------------


def _projectors(vals, vecs, sep=1e-6):
    """Spectral projectors of clusters of eigenvalues closer than ``sep``."""
    vals, vecs = np.asarray(vals), np.asarray(vecs)
    out, start = [], 0
    for i in range(1, len(vals) + 1):
        if i == len(vals) or vals[i] - vals[i - 1] > sep:
            V = vecs[:, start:i]
            out.append(V @ V.conj().T)
            start = i
    return out


def _check_eigh(A):
    vals, vecs = quantum.eigh(A)
    want_vals, want_vecs = np.linalg.eigh(A)
    _close(vals, want_vals)
    V = np.asarray(vecs)
    _close(V.conj().T @ V, np.eye(len(A)))
    _close(np.asarray(A) @ V, V * np.asarray(vals))
    got_p, want_p = _projectors(vals, vecs), _projectors(want_vals, want_vecs)
    assert len(got_p) == len(want_p)
    for P, Q in zip(got_p, want_p):
        _close(P, Q)


@pytest.mark.parametrize("d", range(1, 17))
def test_jacobi_matches_eigh_on_random_hermitian_matrices(d):
    rng = np.random.default_rng(d)
    for _ in range(3):
        _check_eigh(_rand_herm(d, rng))


@pytest.mark.parametrize("d", [1, 2, 5, 16])
def test_jacobi_on_structured_matrices(d):
    rng = np.random.default_rng(100 + d)
    _check_eigh(np.zeros((d, d), dtype=complex))
    _check_eigh(np.diag(rng.normal(size=d)).astype(complex))
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    _check_eigh(np.outer(v, v.conj()) / np.vdot(v, v).real)      # rank one
    # degenerate spectrum: eigenvalues -1, 0 and 2, each of several copies
    Q, _ = np.linalg.qr(_rand_op(d, rng))
    spectrum = np.array([(-1.0, 0.0, 2.0)[i % 3] for i in range(d)])
    _check_eigh((Q * spectrum) @ Q.conj().T)


def test_jacobi_reads_the_hermitian_part():
    A = _rand_op(6)
    _close(quantum.eigh(A)[0], np.linalg.eigvalsh((A + A.conj().T) / 2))


# -- kernels ----------------------------------------------------------------------------


def _np_apply(vec, U, axes, n):
    k = len(axes)
    T = np.asarray(vec).reshape((2,) * n)
    res = np.tensordot(np.asarray(U).reshape((2,) * (2 * k)), T,
                       axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(res, list(range(k)), axes).reshape(-1)


def _np_rows(vec, axes, n):
    """The amplitudes as a (2^k, rest) matrix, the addressed qubits first."""
    T = np.moveaxis(np.asarray(vec).reshape((2,) * n), axes, range(len(axes)))
    return T.reshape(1 << len(axes), -1)


@pytest.mark.parametrize("n", range(1, 9))
def test_kernels_match_numpy(n):
    rng = np.random.default_rng(200 + n)
    regs = _split(n, rng)
    vec = _rand_vec(n, rng)
    state = PureState(regs, vec)
    _close(state.vec, vec)
    names = [name for name, _ in regs]
    for _ in range(3):
        pick = list(rng.permutation(names)[:int(rng.integers(1, min(3, len(names)) + 1))])
        axes = _axes(regs, pick)
        k = len(axes)
        if k <= 3:
            U = _rand_op(1 << k, rng)
            _close(state.apply(U, pick).vec, _np_apply(vec, U, axes, n))
        M = _np_rows(vec, axes, n)
        _close(state.ptrace(pick), M @ M.conj().T)


def test_single_qubit_registers_bell_measure_like_numpy():
    n = 6
    regs = tuple((f"q{i}", 1) for i in range(n))
    vec = _rand_vec(n)
    state = PureState(regs, vec)
    phi = np.array([1, 0, 0, 1]) / np.sqrt(2)
    for a_reg, b_reg in (("q0", "q1"), ("q4", "q2"), ("q5", "q0")):
        rows = _np_rows(vec, _axes(regs, [a_reg, b_reg]), n)
        got = state.bell_measure(a_reg, b_reg)
        assert [ab for ab, _, _ in got] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for (a, b), p, post in got:
            pauli = (np.linalg.matrix_power(np.asarray(quantum.X), a)
                     @ np.linalg.matrix_power(np.asarray(quantum.Z), b))
            amp = (np.kron(np.eye(2), pauli) @ phi).conj() @ rows
            assert abs(p - np.vdot(amp, amp).real) <= TOL
            _close(post.vec, amp / np.sqrt(np.vdot(amp, amp).real))
            assert post.regs == tuple(r for r in regs if r[0] not in (a_reg, b_reg))


# -- channels and figures -------------------------------------------------------------


def test_choi_and_pad_average_match_numpy():
    rng = np.random.default_rng(5)
    K = [_rand_op(2, rng) for _ in range(2)]

    def channel(E):
        E = np.asarray(E)
        return sum(k @ E @ k.conj().T for k in K)

    want = sum(np.kron(np.eye(2)[:, [i]] @ np.eye(2)[[j], :],
                       channel(np.eye(2)[:, [i]] @ np.eye(2)[[j], :]))
               for i in range(2) for j in range(2)) / 2
    _close(toolkit.choi(channel, 2), want)
    rho = _rand_density(2, rng=rng)
    pads = [np.asarray(quantum.phased_pad(s1, s2)) for s1 in (0, 1) for s2 in (0, 1)]
    _close(toolkit.pad_average(rho), sum(P @ rho @ P.conj().T for P in pads) / 4)


def _np_decoupling_gap(stack, d_ref, d_msg):
    T = stack.reshape(-1, d_ref, d_msg, d_ref, d_msg)
    J_r = np.einsum("tikjk->ij", T)
    J_m = np.einsum("tkikj->tij", T)
    prods = np.einsum("ab,tcd->tacbd", J_r, J_m).reshape(stack.shape)
    return 0.5 * np.abs(np.linalg.eigvalsh(stack - prods)).sum()


@pytest.mark.parametrize("t,d_ref,d_msg", [(1, 2, 2), (4, 2, 2), (3, 3, 2), (6, 2, 4)])
def test_block_stack_figures_match_numpy(t, d_ref, d_msg):
    rng = np.random.default_rng(10 * t + d_msg)
    d = d_ref * d_msg

    def random_stack():
        S = np.stack([_rand_density(d, rng=rng) for _ in range(t)])
        return S / t

    a, b = random_stack(), random_stack()
    assert abs(quantum.decoupling_gap(a, d_ref, d_msg)
               - _np_decoupling_gap(a, d_ref, d_msg)) <= TOL
    assert abs(quantum.decoupling_gap([blk.tolist() for blk in a], d_ref, d_msg)
               - _np_decoupling_gap(a, d_ref, d_msg)) <= TOL
    want = 0.5 * np.abs(np.linalg.eigvalsh(a - b)).sum()
    assert abs(toolkit.trace_distance(a, b) - want) <= TOL


def _np_fidelity(rho, sigma):
    vals, vecs = np.linalg.eigh(rho)
    root = (vecs * np.sqrt(np.clip(vals, 0, None))) @ vecs.conj().T
    inner = np.linalg.eigvalsh(root @ sigma @ root)
    return min(1.0, np.sqrt(np.clip(inner, 0, None)).sum())


@pytest.mark.parametrize("d", [2, 4, 8])
def test_fidelity_and_sqrtm_match_numpy(d):
    # full rank only: for a singular rho, sqrt(rho) sigma sqrt(rho) has
    # eigenvalues at rounding level whose square roots, about 1e-9, enter the
    # formula in either implementation
    rng = np.random.default_rng(300 + d)
    for _ in range(3):
        rho, sigma = _rand_density(d, rng=rng), _rand_density(d, rng=rng)
        assert abs(toolkit.fidelity(rho, sigma) - _np_fidelity(rho, sigma)) <= TOL
        root = np.asarray(toolkit.sqrtm_psd(sigma))
        _close(root @ root, sigma)


def test_random_qubit_is_the_seeded_numpy_draw():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        want = v / np.linalg.norm(v)
        got = toolkit.random_qubit(seed).vec
        assert all(type(z) is complex for z in got)
        assert got == list(want)
