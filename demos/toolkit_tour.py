"""
Single-qubit toolkit: teleportation, pads, and channel pictures
===============================================================

The quantum layer is a named-register statevector simulator capped at 14
qubits, plus the handful of distance and channel tools the protocol
verifiers lean on.
"""

import numpy as np

from cdslab.quantum import PureState, U_BELL, X, Z, decoupling_gap, epr_pairs, phased_pad
from cdslab.toolkit import choi, fidelity, pad_average, random_qubit, trace_distance

# Teleportation fixes the outcome convention used everywhere: measuring
# (message, EPR-left) in the Bell basis with outcome (a, b) leaves
# X^a Z^b |psi> on the far end.
psi = random_qubit(42).rename({"q": "msg"})
state = psi.tensor(epr_pairs([("here", "there")]))
for (a, b), prob, post in state.bell_measure("msg", "here"):
    fixed = post.apply(np.linalg.matrix_power(np.asarray(Z), b), ["there"])
    fixed = fixed.apply(np.linalg.matrix_power(np.asarray(X), a), ["there"])
    overlap = abs(np.vdot(psi.vec, fixed.vec))
    print(f"outcome {(a, b)}: p = {prob:.2f}, corrected overlap = {overlap:.12f}")

# The four phased pads are exactly the Paulis: phased_pad(1, 1) folds the
# i phase into X @ Z so the group closes as {I, X, Z, Y}. Averaged over a
# uniform two-bit key they erase everything: any state becomes I / 2.
print("phased_pad(1, 1) == Y:",
      np.allclose(phased_pad(1, 1), np.array([[0, -1j], [1j, 0]])))
rho = np.outer(psi.vec, np.conj(psi.vec))
print("pad average deviation from I/2:",
      float(np.max(np.abs(np.asarray(pad_average(rho)) - np.eye(2) / 2))))

# U_BELL rotates the pad-key basis into the Bell basis; its columns are
# (I x pad_k)|phi+>, which is what makes key-register recovery tricks work.
print("U_BELL unitary:", np.allclose(np.asarray(U_BELL) @ np.asarray(U_BELL).conj().T, np.eye(4)))

# Channels enter through their Choi states. The identity channel keeps its
# input maximally correlated with the reference: decoupling gap 3/4. The
# fully depolarizing channel forgets everything: gap 0.
print("identity channel gap:", decoupling_gap(choi(lambda E: E, 2), 2, 2))
print("depolarizing channel gap:",
      decoupling_gap(choi(lambda E: np.trace(E) * np.eye(2) / 2, 2), 2, 2))

# Fidelity and trace distance bracket each other: 1 - F <= D <= sqrt(1-F^2).
rng = np.random.default_rng(0)
for _ in range(3):
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    r = A @ A.conj().T / np.trace(A @ A.conj().T).real
    s = B @ B.conj().T / np.trace(B @ B.conj().T).real
    F, D = fidelity(r, s), trace_distance(r, s)
    print(f"F = {F:.4f}: {1 - F:.4f} <= D = {D:.4f} <= {np.sqrt(1 - F * F):.4f}")

# Registers are named; partial traces and measurements address them by name.
ghzish = PureState.computational((("a", 1), ("b", 1)), {}).apply(
    U_BELL, ["a", "b"])
print("reduced state of one Bell half:\n", np.asarray(ghzish.ptrace(["a"])).real)
