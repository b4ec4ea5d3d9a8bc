"""Dense statevector references for the Pauli-frame verifiers.

The verifiers read runs as Pauli frames with integer weights. The references
here run the same records the way the program did before frames: a dense
``quantum.PureState`` per branch, teleportation through real EPR links and
Bell measurements, pads as 2x2 unitaries, and figures from reduced density
operators and eigen-solved trace norms. A record's own ``recover`` only
names the correction: applied to the identity frame at the output
register, it gives the Pauli the reference applies to the dense state.
"""

from __future__ import annotations

import math

from cdslab import quantum
from cdslab.frames import KEYS
from cdslab.gardenhose import gh_eval
from cdslab.quantum import PureState, epr_pairs
from cdslab.toolkit import _block_distance, probe_qubits


def plan(strategy, x: int, y: int) -> list:
    """(measured pair, far half of the link, broadcast label) per hop."""
    path = gh_eval(strategy, x, y).path
    hops = [(("Q", f"L{path[0]}"), f"R{path[0]}", ("alice", 0, path[0]))]
    for i, (prev, cur) in enumerate(zip(path, path[1:])):
        # Bob's hose leaves an even position of the path, Alice's an odd one
        near, far, party = ("L", "R", "alice") if i % 2 else ("R", "L", "bob")
        hops.append(((f"{near}{prev}", f"{near}{cur}"), f"{far}{cur}", (party, prev, cur)))
    return hops


def gh_run(strategy):
    """One branch per transcript, (probability, transcript, state): one dense
    state holds the carrier and every pipe's EPR link, and each hop is a Bell
    measurement on every branch, 4^h branches after h hops."""
    m = strategy.pipes

    def run(x, y, carrier):
        state = carrier.tensor(epr_pairs([(f"L{i}", f"R{i}") for i in range(1, m + 1)]))
        branches = [(1.0, (), state)]
        for (pair, _, desc) in plan(strategy, x, y):
            branches = [(p * q, t + ((desc, ab),), st2)
                        for (p, t, st) in branches
                        for (ab, q, st2) in st.bell_measure(*pair)]
        return branches

    return run


def physical_msg_regs(strategy):
    """Every link half on the right that no hop measures, idle links included."""
    m = strategy.pipes

    def msg_regs(x, y):
        measured = {r for (pair, _, _) in plan(strategy, x, y) for r in pair}
        return tuple(f"R{i}" for i in range(1, m + 1) if f"R{i}" not in measured)

    return msg_regs


def pad_run(P):
    """The pad route P's run: the carrier padded under each key, one branch per
    key class with weight under the key, its weight over ``P.denom``."""
    def run(x, y, carrier):
        return [(w / P.denom, c.rep, carrier.apply(quantum.phased_pad(*s), ["Q"]))
                for s in KEYS for c in P.key_classes(x, y) if (w := c.weights.get(s))]

    return run


def _recovered(P, x, y, transcript, state, out):
    """``state`` corrected by the Pauli that P's ``recover`` names at ``out``."""
    reg, a, b = P.recover(x, y, transcript, (out, 0, 0))
    assert reg == out
    return state.apply(quantum.phased_pad(a, b), [out])


def choi_fidelity(P, run, x, y, out) -> float:
    """sqrt(<Phi+| rho |Phi+>) of the corrected branches on (R, ``out``)."""
    overlap = sum(p * quantum.overlap(_recovered(P, x, y, t, st, out).ptrace(["R", out]),
                                      quantum.PHI_PLUS)
                  for (p, t, st) in run(x, y, epr_pairs([("R", "Q")])))
    return min(1.0, math.sqrt(max(0.0, overlap)))


def _view(branches, regs) -> dict:
    """Referee view per transcript: the sum of p * (state reduced to ``regs``)."""
    terms = {}
    for (p, t, st) in branches:
        terms.setdefault(t, []).append((p, st.ptrace(regs)))
    return {t: quantum.weighted(ts) for t, ts in terms.items()}


def gap(run, msg_regs, x, y) -> float:
    """The decoupling gap of the view of R and ``msg_regs`` on (x, y)."""
    stack = list(_view(run(x, y, epr_pairs([("R", "Q")])), ("R",) + msg_regs).values())
    return quantum.decoupling_gap(stack, 2, len(stack[0]) // 2)


def cdqs_figures(P, run, msg_regs=None) -> dict:
    """{input: fidelity where f = 1, gap where f = 0} of the CDQS P run densely."""
    msg_regs = msg_regs or P.msg_regs
    return {(x, y): choi_fidelity(P, run, x, y, P.exit_reg(x, y)) if P.f.eval(x, y)
            else gap(run, tuple(msg_regs(x, y)), x, y) for (x, y) in P.domain}


def frouting_fidelities(P, run) -> dict:
    """{input: fidelity} of the f-routing P's branch-register side, run densely."""
    return {(x, y): choi_fidelity(P, run, x, y, P.exit_reg(x, y))
            for (x, y) in P.domain if P.exit_reg(x, y) is not None}


def security_state_sweep(P, run, msg_regs=None, seeds=range(2)) -> dict:
    """{hiding input: the largest view distance between two probe secrets}."""
    msg_regs = msg_regs or P.msg_regs
    states = [(name, PureState((("Q", 1),), vec)) for (name, vec) in probe_qubits(seeds)]
    out = {}
    for (x, y) in P.domain:
        if P.f.eval(x, y) == 0:
            views = [_view(run(x, y, st), tuple(msg_regs(x, y))) for _, st in states]
            out[(x, y)] = max(_block_distance(a, b) for i, a in enumerate(views)
                              for b in views[i + 1:])
    return out


def otp_left_output(classes: list, psi, denom: int) -> list:
    """The pad route's left side as a dense state of 3 + k qubits.

    The key register (A1, A2) holds each key, "Q" the qubit padded by it and
    "M" one basis vector per class, with amplitude sqrt(weight / denom): the
    pad-to-EPR rotation on the key register, then A2 reduced.
    """
    kq = max(1, math.ceil(math.log2(max(2, len(classes)))))
    vec = [0j] * (1 << (3 + kq))
    for s in KEYS:
        padded = quantum.matmul(quantum.phased_pad(*s), psi)
        base = ((s[0] << 1) | s[1]) << (1 + kq)
        for i, c in enumerate(classes):
            w = c.weights.get(s)
            if w:
                amp = math.sqrt(w / denom)
                vec[base | i] += amp * padded[0]
                vec[base | i | (1 << kq)] += amp * padded[1]
    state = PureState((("A1", 1), ("A2", 1), ("Q", 1), ("M", kq)), vec)
    return state.apply(quantum.U_BELL, ["A1", "A2"]).ptrace(["A2"])
