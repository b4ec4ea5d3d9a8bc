"""Pauli frames: the exact state of every branch a compiled quantum record runs.

Both quantum compile edges move one qubit by Pauli operations alone:
teleportation along a garden-hose path, and a one-time pad keyed by a CDS or
a PSM. The verifiers feed in half of |Phi+> on (R, "Q"), so every branch
state is |Phi+> on R and one register, the carried one, under a Pauli
X^a Z^b there, up to a phase (Gottesman, quant-ph/9807006). A frame state is
the triple (register, a, b), and ``CARRIER`` is ("Q", 0, 0). A Bell
measurement of the carried qubit with half of a fresh EPR link moves it to
the link's far half, each outcome (a, b) at probability 1/4 and XORed into
the frame; a pad, or its undoing, XORs its key. Branch weights are integers
over one denominator per run, so every figure is an exact rational until it
is written as a float. A pad route's left side, where Alice pulls the qubit
back through her key register, has its worst fidelity in closed form from
the key classes' weights (``left_fidelity``). What a frame cannot state is
refused: a measurement that misses the carried qubit, or a view of a
register it does not carry.
"""

import math

from .errors import ValidationError

CARRIER = ("Q", 0, 0)
# the frames (a, b) of the Paulis X^a Z^b, which are also the pad keys: I, Z, X, Y
KEYS = ((0, 0), (0, 1), (1, 0), (1, 1))


def hop(state: tuple, pair: tuple, far: str) -> list:
    """[(outcome, state)] of a Bell measurement of ``pair``: the carried register
    and the near half of a fresh link whose far half is ``far``. Each outcome
    (a, b) has probability 1/4 and leaves X^a Z^b on the far half."""
    reg, a, b = state
    if reg not in pair:
        raise ValidationError(f"Bell measurement of {pair} misses the carried register {reg}")
    return [(ab, (far, a ^ ab[0], b ^ ab[1])) for ab in KEYS]


def xor(state: tuple, key: tuple) -> tuple:
    """``state`` with X^s1 Z^s2, ``key`` = (s1, s2), applied to its carried qubit."""
    reg, a, b = state
    return reg, a ^ key[0], b ^ key[1]


def view(branches, regs) -> dict:
    """{transcript: {frame: weight}}, what a referee holding R and ``regs`` sees.

    With the carried register in view, a branch's block is the Bell state of
    its frame (a, b), which keys its weight; with none in view it is R's
    maximally mixed state, keyed None.
    """
    regs, blocks = tuple(regs), {}
    for br in branches:
        reg, a, b = br.state
        if regs not in ((), (reg,)):
            raise ValidationError(f"the view {regs} holds a register other than the "
                                  f"carried one, {reg}")
        block = blocks.setdefault(br.transcript, {})
        frame = (a, b) if regs else None
        block[frame] = block.get(frame, 0) + br.weight
    return blocks


def decoupling_gap(branches, regs, denom: int) -> tuple:
    """(gap, gap = 0): half the trace norm of J - J_R x J_m for the view of R
    and ``regs``, and whether it is exactly 0.

    With W the branches' total weight and W_t block t's, over ``denom``, J_R
    is W I/2. With the carried qubit in view, block t is sum_P w_tP |P><P|
    over the Bell states P and its marginal is W_t I/2, so J_R x J_m is
    W W_t / 4 on every Bell state and the gap is 1/2 sum_t sum_P
    |w_tP - W W_t / 4|. Without it, block t is W_t I/2 on R and the gap is
    1/2 sum_t |W_t (1 - W)|. Both are taken on the integers, and the gap is
    0 exactly when their sum is.
    """
    blocks = view(branches, regs)
    total = sum(w for block in blocks.values() for w in block.values())
    if regs:
        gap = sum(abs(4 * denom * block.get(frame, 0) - total * sum(block.values()))
                  for block in blocks.values() for frame in KEYS)
        return gap / (8 * denom * denom), gap == 0
    gap = sum(abs(w * (denom - total)) for block in blocks.values() for w in block.values())
    return gap / (2 * denom * denom), gap == 0


def left_fidelity(classes, denom: int) -> float:
    """A pad route's left side: its worst fidelity over every pure input qubit.

    ``classes`` are the transcript classes of the key disclosure on one
    input, with integer weights under each key out of ``denom`` / 4. Alice
    rotates her key register through the pad-to-EPR basis and keeps the
    qubit; the message register enters only through its Gram matrix under
    two keys, B_st = sum_c sqrt(w_s(c) w_t(c)). With P_s the pad of key s and
    n the input's Bloch vector, the fidelity is sum_{s,t} B_st
    |<psi|P_t P_s|psi>|^2 / (2 denom) = alpha_I + sum_Q alpha_Q n_Q^2, where
    alpha_Q = sum_s B_{s, s xor Q} / (2 denom) and Q runs over X, Y and Z.
    Every alpha_Q is nonnegative and n_X^2 + n_Y^2 + n_Z^2 = 1, so the
    minimum sits on a Pauli axis: the figure is (sum_s B_ss + min_Q
    sum_s B_{s, s xor Q}) / (2 denom). Equal weights, as a hidden key leaves
    them, keep their exact root, so a hidden key reads exactly 1 and a
    disclosed one exactly 1/2.
    """
    sums = dict.fromkeys(KEYS, 0)
    for w in (c.weights for c in classes):
        for (a, b), ws in w.items():
            for q in KEYS:
                wt = w.get((a ^ q[0], b ^ q[1]))
                if wt:
                    sums[q] += ws if ws == wt else math.sqrt(ws) * math.sqrt(wt)
    return (sums[(0, 0)] + min(sums[q] for q in KEYS[1:])) / (2 * denom)
