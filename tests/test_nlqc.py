"""Quantum-stage protocols: state disclosure, routing, simultaneous messages."""

from __future__ import annotations

import numpy as np
import pytest

from cdslab.boolfn import from_table, named_fn
from cdslab.errors import BudgetError, ValidationError
from cdslab.gardenhose import LEFT, RIGHT, gh_generic, gh_search
from cdslab.nlqc import (CdqsProtocol, FRoutingProtocol, PsqmProtocol,
                         RunBranch, cdqs_from_cds, cdqs_from_frouting,
                         cdqs_from_psqm, frouting_from_cdqs, frouting_from_gh,
                         otp_reconstruct_left, pauli_frame, psqm_from_psm,
                         security_state_sweep, verify_cdqs, verify_frouting,
                         verify_psqm)
from cdslab.protocols import (CdsProtocol, cds_from_gh, cds_from_psm,
                              psm_from_dre, psm_generic_table, dre_qr)
from cdslab.quantum import PureState, X, Z, epr_pairs, random_qubit

AND1 = named_fn("and", n=1)
XOR1 = named_fn("xor", n=1)


def _gh_cds(f):
    s = gh_search(f, 3) or gh_generic(f)
    return cds_from_gh(s, f)


def test_pauli_frame_undoes_byproduct_chain():
    rng = np.random.default_rng(11)
    for _ in range(20):
        outs = [tuple(rng.integers(0, 2, size=2)) for _ in range(rng.integers(0, 5))]
        net = np.eye(2, dtype=complex)
        for (a, b) in outs:
            net = (np.linalg.matrix_power(X, a) @ np.linalg.matrix_power(Z, b)) @ net
        assert np.allclose(pauli_frame(outs) @ net, np.eye(2), atol=1e-12)


def test_pauli_frame_on_two_hop_teleport():
    psi = random_qubit(3).rename({"q": "q0"})
    state = psi.tensor(epr_pairs([("l1", "r1"), ("l2", "r2")]))
    for o1, p1, s1 in state.bell_measure("q0", "l1"):
        for o2, p2, s2 in s1.bell_measure("r1", "l2"):
            fixed = s2.apply(pauli_frame([o1, o2]), ["r2"])
            overlap = abs(np.vdot(psi.vec, np.asarray(fixed.ptrace(["r2"]).mat) @ psi.vec))
            assert abs(overlap - 1) < 1e-12


def test_cdqs_from_cds_perfect_on_small_functions():
    for f in (AND1, XOR1, named_fn("eq", n=1)):
        C = cdqs_from_cds(_gh_cds(f))
        report = verify_cdqs(C)
        assert report.kind == "cdqs"
        assert report.perfect(1e-9), f.name
        assert report.worst_infidelity <= 1e-12
        assert report.worst_gap <= 1e-12
        sweep = security_state_sweep(C)
        assert sweep["n_states"] == 16
        assert sweep["worst"] <= 1e-9


def test_cdqs_needs_single_bit_cds():
    base = _gh_cds(AND1)
    wide = CdsProtocol(AND1, (0, 1, 2), base.shared, base.alice_msg,
                       base.bob_msg, base.decode)
    with pytest.raises(ValidationError):
        cdqs_from_cds(wide)


def test_cdqs_detects_key_leak():
    # the key-disclosing layer broadcasts the key: the referee's pad collapses
    # and the carried qubit stays correlated with the reference
    leaky = CdsProtocol(AND1, (0, 1), ((),),
                        lambda x, s, r, ra=None: s,
                        lambda y, r, rb=None: 0,
                        lambda m0, x, m1, y: m0)
    report = verify_cdqs(cdqs_from_cds(leaky))
    assert report.worst_infidelity <= 1e-12  # still correct when revealing
    assert report.worst_gap > 0.5            # but the hiding inputs leak


def test_frouting_from_gh_and():
    R = frouting_from_gh(gh_search(AND1, 3), AND1)
    report = verify_frouting(R)
    assert report.perfect(1e-9)
    assert report.routing_consistent
    assert report.max_branches <= 64
    for (x, y), info in report.per_input.items():
        assert info["side"] == (RIGHT if AND1.eval(x, y) else LEFT)
        assert info["fidelity"] >= 1 - 1e-9


def test_frouting_from_gh_generic_strategy():
    R = frouting_from_gh(gh_generic(XOR1), XOR1)
    report = verify_frouting(R)
    assert report.perfect(1e-9)
    assert R.resources["epr_pairs"] == 4


def test_frouting_branch_probabilities_sum_to_one():
    R = frouting_from_gh(gh_search(AND1, 3), AND1)
    for (x, y) in AND1.inputs():
        branches = R.run(x, y, epr_pairs([("R", "Q")]), "Q")
        assert abs(sum(b.prob for b in branches) - 1) < 1e-10


def test_frouting_holdings_partition_unmeasured_registers():
    R = frouting_from_gh(gh_search(AND1, 3), AND1)
    for (x, y) in AND1.inputs():
        h = R.holdings(x, y)
        assert not (set(h["left"]) & set(h["right"]))
        side, reg = R.exit_info(x, y)
        assert reg in (h["left"] if side == LEFT else h["right"])


def test_routing_inconsistency_detected():
    R = frouting_from_gh(gh_search(AND1, 3), AND1)
    flipped = FRoutingProtocol(XOR1, R.run, R.exit_info, R.correction,
                               holdings=R.holdings)
    report = verify_frouting(flipped)
    assert not report.routing_consistent
    assert "side" in report.witnesses


def test_pad_route_round_trip_preserves_quality():
    C = cdqs_from_cds(_gh_cds(AND1))
    R = frouting_from_cdqs(C)
    r_report = verify_frouting(R)
    assert r_report.perfect(1e-9)
    C2 = cdqs_from_frouting(R)
    report = verify_cdqs(C2)
    assert report.perfect(1e-9)
    assert report.worst_infidelity <= 1e-9
    assert report.worst_gap <= 1e-9


def test_otp_reconstruction_values():
    # hidden key: recovery probability is exactly 1; disclosed key: 1/2
    C = cdqs_from_cds(_gh_cds(AND1))
    psi = random_qubit(17).vec
    for (x, y) in ((0, 0), (0, 1), (1, 0)):
        assert abs(otp_reconstruct_left(C.key_classes(x, y), psi) - 1.0) < 1e-12
    assert abs(otp_reconstruct_left(C.key_classes(1, 1), psi) - 0.5) < 1e-12


def test_qr5_pad_route_fits_the_qubit_cap():
    # one message basis vector per transcript class: 5 qubits, not 3 + 14
    C = cdqs_from_cds(cds_from_psm(psm_from_dre(dre_qr(5))))
    report = verify_frouting(frouting_from_cdqs(C))
    assert report.perfect(1e-9)
    assert report.max_branches == 40000


def test_route_compilers_validate_their_inputs():
    C = cdqs_from_cds(_gh_cds(AND1))
    C2 = cdqs_from_frouting(frouting_from_cdqs(C))
    with pytest.raises(ValidationError):
        frouting_from_cdqs(C2)  # no key-disclosing layer exposed
    bare = FRoutingProtocol(AND1, C2.run, lambda x, y: (LEFT, None),
                            lambda x, y, t: np.eye(2))
    with pytest.raises(ValidationError):
        cdqs_from_frouting(bare)  # no holdings
    with pytest.raises(ValidationError):
        verify_frouting(bare)  # no register and no local reconstruction


def test_psqm_from_psm_and_table():
    Q = psqm_from_psm(psm_generic_table(AND1))
    report = verify_psqm(Q)
    assert report.worst_infidelity == 0
    assert report.worst_gap <= 1e-12
    # branch enumeration is deterministically ordered
    a = [b.transcript for b in Q.run(1, 0)]
    b = [b.transcript for b in Q.run(1, 0)]
    assert a == b == sorted(a, key=repr)


def test_psqm_detects_input_leak():
    # messages reveal x outright: two same-value inputs get disjoint views
    from cdslab.protocols import PsmProtocol
    leaky = PsmProtocol(XOR1, ((),),
                        lambda x, r, ra=None: x,
                        lambda y, r, rb=None: y,
                        lambda m0, m1: m0 ^ m1)
    report = verify_psqm(psqm_from_psm(leaky))
    assert report.worst_infidelity == 0
    assert report.worst_gap >= 0.99


def test_cdqs_from_psqm_chain():
    Q = psqm_from_psm(psm_generic_table(AND1))
    C = cdqs_from_psqm(Q)
    report = verify_cdqs(C)
    assert report.perfect(1e-9)
    assert security_state_sweep(C)["worst"] <= 1e-9


def test_cdqs_from_psqm_qr_domain():
    Q = psqm_from_psm(psm_from_dre(dre_qr(5)))
    C = cdqs_from_psqm(Q)
    assert C.domain == Q.domain
    report = verify_cdqs(C)
    assert report.perfect(1e-9)


def test_cdqs_from_psqm_guards():
    Q = psqm_from_psm(psm_generic_table(AND1))
    quantum = PsqmProtocol(AND1, Q.run, Q.decode, quantum_regs=("M",))
    with pytest.raises(ValidationError):
        cdqs_from_psqm(quantum)
    ones = psqm_from_psm(psm_generic_table(from_table(1, 1, (1, 1, 1, 1))))
    with pytest.raises(ValidationError):
        cdqs_from_psqm(ones)  # no hiding input exists


def test_verify_budgets():
    C = cdqs_from_cds(_gh_cds(AND1))
    with pytest.raises(BudgetError):
        verify_cdqs(C, budget=3)
    R = frouting_from_gh(gh_search(AND1, 3), AND1)
    with pytest.raises(BudgetError):
        verify_frouting(R, budget=2)
    Q = psqm_from_psm(psm_generic_table(AND1))
    with pytest.raises(BudgetError):
        verify_psqm(Q, budget=1)


def test_report_jsonable_shape():
    report = verify_cdqs(cdqs_from_cds(_gh_cds(XOR1)))
    obj = report.to_jsonable()
    assert set(obj) >= {"kind", "worst_infidelity", "worst_gap", "per_input",
                        "max_branches", "routing_consistent"}
    assert all("," in k for k in obj["per_input"])
    assert isinstance(obj["worst_gap"], float)


def _qubit_psqm(message_qubit):
    """XOR by one-time-padded bits plus a 1-qubit message register M.

    ``message_qubit(x, y)`` gives M's amplitudes; a junk qubit J that the
    referee never sees is entangled with M, so the view needs a partial trace.
    """
    def run(x, y):
        a, b = message_qubit(x, y)
        vec = np.array([a, 0, 0, b], dtype=complex)   # a|00> + b|11> on (M, J)
        state = PureState((("M", 1), ("J", 1)), vec / np.linalg.norm(vec))
        return [RunBranch(0.5, (x ^ r, y ^ r), state) for r in (0, 1)]

    return PsqmProtocol(XOR1, run, lambda t: t[0] ^ t[1], quantum_regs=("M",))


def test_verify_psqm_with_a_quantum_message_register():
    honest = _qubit_psqm(lambda x, y: (1, 1) if x ^ y else (1, 2))
    report = verify_psqm(honest)
    assert report.worst_infidelity == 0
    assert report.worst_gap <= 1e-12
    assert all(info["branches"] == 2 for info in report.per_input.values())
    # a decoder that reads Alice's padded bit alone is wrong half the time
    wrong = PsqmProtocol(XOR1, honest.run, lambda t: t[0], quantum_regs=("M",))
    assert verify_psqm(wrong).worst_infidelity == 0.5
    # M now depends on x: diag(1, 0) against diag(1/2, 1/2) per transcript
    leaky = _qubit_psqm(lambda x, y: (1, 0) if x == 0 else (1, 1))
    report = verify_psqm(leaky)
    assert report.worst_infidelity == 0
    assert abs(report.worst_gap - 0.5) <= 1e-12
    assert "view" in report.witnesses


@pytest.mark.parametrize("f", [AND1, XOR1], ids=lambda f: f.name)
def test_security_state_sweep_on_a_garden_hose_route(f):
    R = frouting_from_gh(gh_search(f, 3), f)
    C = cdqs_from_frouting(R)
    assert security_state_sweep(C)["worst"] <= 1e-9
    # hand the referee the register where the hidden qubit lands
    leaky = CdqsProtocol(f, C.run,
                         lambda x, y: C.msg_regs(x, y) + (R.exit_info(x, y)[1],),
                         C.recover, C.out_reg)
    assert security_state_sweep(leaky)["worst"] > 0.1
