"""Named-register statevectors, measurements, and distance measures."""

from __future__ import annotations

import numpy as np
import pytest

from cdslab.errors import BudgetError, ValidationError
from cdslab.quantum import (MAX_QUBITS, I2, PureState, U_BELL, X, Z, decoupling_gap,
                            epr_pairs, phased_pad)
from cdslab.toolkit import (PAULI_EIGENSTATES, choi, fidelity, pad_average, random_qubit,
                            sqrtm_psd, trace_distance)

RNG = np.random.default_rng(20260813)
H = ((2 ** -0.5 + 0j, 2 ** -0.5 + 0j), (2 ** -0.5 + 0j, -2 ** -0.5 + 0j))   # Hadamard
Y = ((0j, -1j), (1j, 0j))


def _rand_state(regs, rng=RNG):
    n = sum(k for _, k in regs)
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return PureState(tuple(regs), v / np.linalg.norm(v))


def _embed(U, axes, n):
    """Independent embedding of a k-qubit operator into n qubits.

    Built entry by entry from basis-state bit surgery; qubit q holds bit
    n-1-q of the index (first register = most significant bits).
    """
    k = len(axes)
    F = np.zeros((1 << n, 1 << n), dtype=complex)
    for i in range(1 << n):
        in_bits = [(i >> (n - 1 - q)) & 1 for q in range(n)]
        col_sub = 0
        for a in axes:
            col_sub = (col_sub << 1) | in_bits[a]
        for sub_out in range(1 << k):
            out_bits = list(in_bits)
            for t, a in enumerate(axes):
                out_bits[a] = (sub_out >> (k - 1 - t)) & 1
            j = 0
            for b in out_bits:
                j = (j << 1) | b
            F[j, i] += U[sub_out, col_sub]
    return F


def test_apply_single_qubit_matches_embedding_oracle():
    regs = (("a", 1), ("b", 2), ("c", 1))
    state = _rand_state(regs)
    for target, axis in [("a", 0), (("b", 0), 1), (("b", 1), 2), ("c", 3)]:
        got = state.apply(H, [target]).vec
        want = _embed(np.asarray(H), [axis], 4) @ state.vec
        assert np.allclose(got, want, atol=1e-12)


def test_apply_two_qubit_nonadjacent():
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                    dtype=complex)
    state = _rand_state((("a", 1), ("b", 1), ("c", 1)))
    got = state.apply(cnot, ["a", "c"]).vec
    want = _embed(cnot, [0, 2], 3) @ state.vec
    assert np.allclose(got, want, atol=1e-12)
    # reversed target order must transpose the embedding
    got_rev = state.apply(cnot, ["c", "a"]).vec
    want_rev = _embed(cnot, [2, 0], 3) @ state.vec
    assert np.allclose(got_rev, want_rev, atol=1e-12)


def test_apply_preserves_norm_and_validates():
    state = _rand_state((("a", 2),))
    assert abs(np.linalg.norm(state.apply(U_BELL, ["a"]).vec) - 1) < 1e-12
    with pytest.raises(ValidationError):
        state.apply(H, ["a"])  # shape mismatch
    with pytest.raises(ValidationError):
        state.apply(U_BELL, [("a", 0), ("a", 0)])  # repeated qubit


def test_computational_and_tensor():
    s = PureState.computational((("u", 2), ("v", 1)), {"u": 2, "v": 1})
    assert s.vec[0b101] == 1.0 and np.count_nonzero(s.vec) == 1
    t = PureState((("w", 1),), [np.sqrt(0.5), np.sqrt(0.5)])
    joint = s.tensor(t)
    assert joint.regs == (("u", 2), ("v", 1), ("w", 1))
    assert abs(np.linalg.norm(joint.vec) - 1) < 1e-12


def test_teleport_correction_convention():
    # measuring (message, EPR-left) leaves X^a Z^b |psi> on the far end
    psi = random_qubit(7).rename({"q": "Q"})
    state = psi.tensor(epr_pairs([("A", "B")]))
    branches = state.bell_measure("Q", "A")
    assert len(branches) == 4
    for (a, b), p, post in branches:
        assert abs(p - 0.25) < 1e-12
        want = np.linalg.matrix_power(X, a) @ np.linalg.matrix_power(Z, b) @ psi.vec
        overlap = abs(np.vdot(want, post.vec))
        assert abs(overlap - 1) < 1e-12, (a, b)


def test_bell_measure_agrees_with_rotated_computational_measure():
    # second route: undo U_BELL, then read outcome (a, b) as the probability
    # mass of the rotated vector whose (p, q) bits spell 2a + b
    state = _rand_state((("p", 1), ("q", 1), ("rest", 1)))
    direct = {o: p for (o, p, _) in state.bell_measure("p", "q")}
    rotated = np.abs(state.apply(np.asarray(U_BELL).conj().T, ["p", "q"]).vec) ** 2
    alt = {divmod(o, 2): mass for o, mass in enumerate(rotated.reshape(4, 2).sum(axis=1))}
    assert set(direct) == set(alt)
    for key in alt:
        assert abs(direct[key] - alt[key]) < 1e-12


def test_phased_pads_are_the_pauli_group_representatives():
    assert np.array_equal(phased_pad(0, 0), I2)
    assert np.array_equal(phased_pad(1, 0), X)
    assert np.array_equal(phased_pad(0, 1), Z)
    assert np.allclose(phased_pad(1, 1), Y)


def test_u_bell_columns():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    for s1, s2 in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        col = np.asarray(U_BELL)[:, 2 * s1 + s2]
        want = np.kron(I2, phased_pad(s1, s2)) @ phi
        assert np.allclose(col, want, atol=1e-12)
    assert np.allclose(np.asarray(U_BELL) @ np.asarray(U_BELL).conj().T, np.eye(4), atol=1e-12)
    assert np.allclose(np.asarray(U_BELL)[:, 3], np.array([0, 1j, -1j, 0]) / np.sqrt(2))


def test_pad_average_is_depolarizing():
    for seed in range(5):
        psi = np.asarray(random_qubit(seed).vec)
        rho = np.outer(psi, psi.conj())
        assert np.max(np.abs(pad_average(rho) - np.asarray(I2) / 2)) < 1e-12
    herm = np.array([[0.3, 0.1 + 0.2j], [0.1 - 0.2j, 0.7]])
    assert np.max(np.abs(pad_average(herm) - np.asarray(I2) / 2)) < 1e-12


def test_fidelity_and_trace_distance_known_values():
    zero = np.array([[1, 0], [0, 0]], dtype=complex)
    one = np.array([[0, 0], [0, 1]], dtype=complex)
    plus = np.full((2, 2), 0.5, dtype=complex)
    assert abs(fidelity(zero, one)) < 1e-12
    assert abs(trace_distance(zero, one) - 1) < 1e-12
    assert abs(fidelity(zero, plus) - 1 / np.sqrt(2)) < 1e-12
    assert abs(trace_distance(zero, plus) - 1 / np.sqrt(2)) < 1e-12
    assert abs(fidelity(plus, plus) - 1) < 1e-12
    mixed = np.asarray(I2) / 2
    assert abs(fidelity(zero, mixed) - 1 / np.sqrt(2)) < 1e-12


def _rand_density(rng):
    # full-rank by construction; Wishart-style
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = A @ A.conj().T
    return rho / np.trace(rho).real


def test_fidelity_distance_inequalities():
    # 1 - F <= D <= sqrt(1 - F^2) on mixed pairs
    rng = np.random.default_rng(99)
    for _ in range(30):
        rho, sigma = _rand_density(rng), _rand_density(rng)
        F = fidelity(rho, sigma)
        D = trace_distance(rho, sigma)
        assert 1 - F <= D + 1e-9
        assert D <= np.sqrt(max(0.0, 1 - F * F)) + 1e-9


def test_sqrtm_psd():
    rng = np.random.default_rng(5)
    rho = _rand_density(rng)
    root = np.asarray(sqrtm_psd(rho))
    assert np.allclose(root @ root, rho, atol=1e-12)
    assert np.allclose(root, root.conj().T, atol=1e-12)


def test_ptrace_two_routes_agree():
    # second route: numpy's partial trace of the whole density operator
    state = _rand_state((("a", 1), ("b", 2), ("c", 1)))
    rho = np.outer(state.vec, np.conj(state.vec)).reshape((2,) * 8)
    for keep, axes in ((["a"], [0]), (["b"], [1, 2]), (["a", "c"], [0, 3]),
                       (["c", "b"], [3, 1, 2])):
        rest = [q for q in range(4) if q not in axes]
        moved = np.moveaxis(rho, axes + rest + [4 + q for q in axes + rest], range(8))
        k = len(axes)
        want = np.einsum("ikjk->ij", moved.reshape(1 << k, 1 << (4 - k), 1 << k, 1 << (4 - k)))
        direct = state.ptrace(keep)
        assert np.allclose(direct, want, atol=1e-12)
        assert abs(np.trace(direct) - 1) < 1e-12


def test_ptrace_epr_marginal():
    half = epr_pairs([("l", "r")]).ptrace(["l"])
    assert np.allclose(half, np.asarray(I2) / 2, atol=1e-12)


def test_choi_identity_channel():
    J = choi(lambda E: E, 2)
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    assert np.allclose(J, np.outer(phi, phi.conj()), atol=1e-12)
    assert abs(decoupling_gap(J, 2, 2) - 0.75) < 1e-12


def test_choi_depolarizing_channel_decouples():
    J = choi(lambda E: np.trace(E) * np.asarray(I2) / 2, 2)
    assert np.allclose(J, np.eye(4) / 4, atol=1e-12)
    assert decoupling_gap(J, 2, 2) < 1e-12


def _dense(stack, d_ref):
    """The block-diagonal operator of a block stack, on R x (block, message)."""
    t, d, _ = stack.shape
    d_msg = d // d_ref
    blocks = stack.reshape(t, d_ref, d_msg, d_ref, d_msg)
    dense = np.zeros((d_ref, t, d_msg, d_ref, t, d_msg), dtype=complex)
    for k in range(t):
        dense[:, k, :, :, k, :] = blocks[k]
    return dense.reshape(t * d, t * d)


@pytest.mark.parametrize("t,d_ref,d_msg", [(1, 2, 2), (3, 2, 1), (4, 2, 2), (3, 3, 2)])
def test_block_stack_figures_equal_those_of_the_dense_operator(t, d_ref, d_msg):
    rng = np.random.default_rng(100 * t + 10 * d_ref + d_msg)
    d = d_ref * d_msg

    def random_stack():
        A = rng.normal(size=(t, d, d)) + 1j * rng.normal(size=(t, d, d))
        S = A @ A.conj().transpose(0, 2, 1)
        return S / np.trace(S, axis1=1, axis2=2).real.sum()

    a, b = random_stack(), random_stack()
    gap = decoupling_gap(a, d_ref, d_msg)
    assert gap > 1e-3
    assert abs(gap - decoupling_gap(_dense(a, d_ref), d_ref, t * d_msg)) < 1e-12
    assert decoupling_gap(a[0], d_ref, d_msg) == decoupling_gap(a[:1], d_ref, d_msg)
    dist = trace_distance(a, b)
    assert dist > 1e-3
    assert abs(dist - trace_distance(_dense(a, d_ref), _dense(b, d_ref))) < 1e-12
    with pytest.raises(ValidationError):
        decoupling_gap(a, d_ref, d_msg + 1)


def test_qubit_budget(monkeypatch):
    # two 8-qubit states are each within the budget; their product is
    # refused before any of its amplitudes are allocated
    a, b = _rand_state((("a", 8),)), _rand_state((("b", 8),))

    def no_kron(*args):
        raise AssertionError("product amplitudes allocated")

    with monkeypatch.context() as m:
        m.setattr(np, "kron", no_kron)
        with pytest.raises(BudgetError) as exc:
            a.tensor(b)
    assert (exc.value.space, exc.value.size, exc.value.limit) == (
        "qubits per factor", 16, MAX_QUBITS)


def test_register_name_rules():
    with pytest.raises(ValidationError):
        PureState((("a", 1), ("a", 1)), np.array([1, 0, 0, 0], dtype=complex))
    with pytest.raises(Exception):
        PureState.computational((("a", 1),), {"a": 2})
    renamed = epr_pairs([("l", "r")]).rename({"l": "left"})
    assert renamed.regs == (("left", 1), ("r", 1))


def test_pauli_eigenstates_are_eigenstates():
    ops = {"z": Z, "x": X, "y": Y}
    for name, vec in PAULI_EIGENSTATES:
        sign = 1 if name[1] == "+" else -1
        assert np.allclose(np.asarray(ops[name[0]]) @ vec, sign * np.asarray(vec), atol=1e-12)




def test_random_qubit_seeded():
    assert np.allclose(random_qubit(3).vec, random_qubit(3).vec)
    assert not np.allclose(random_qubit(3).vec, random_qubit(4).vec)
