"""Quantum-stage protocols: state disclosure, routing, simultaneous messages."""

from __future__ import annotations

import numpy as np
import pytest

from cdslab.boolfn import BoolFn
from cdslab.errors import BudgetError, ValidationError, budget
from cdslab.families import named_fn
from cdslab.gardenhose import LEFT, RIGHT
from cdslab.ghsearch import gh_generic, gh_search
from cdslab.nlqc import (CdqsProtocol, FRoutingProtocol, cdqs_from_frouting, frouting_from_gh,
                         pauli_frame)
from cdslab.padroutes import cdqs_from_cds, cdqs_from_psqm, frouting_from_cdqs, psqm_from_psm
from cdslab.protocols import (CdsProtocol, cds_from_gh, cds_from_psm, psm_from_dre,
                              psm_generic_table, dre_qr)
from cdslab.frames import CARRIER, left_fidelity
from cdslab.quantum import X, Z, epr_pairs
from cdslab.qverifiers import verify_cdqs, verify_frouting, verify_psqm
from cdslab.toolkit import security_state_sweep, random_qubit
from message_reference import cds_of, psm_of

AND1 = named_fn("and", n=1)
XOR1 = named_fn("xor", n=1)


def _gh_cds(f):
    s = gh_search(f, 3) or gh_generic(f)
    return cds_from_gh(s, f)


def _pauli(a, b):
    return np.linalg.matrix_power(X, a) @ np.linalg.matrix_power(Z, b)


def test_pauli_frame_undoes_byproduct_chain():
    # the ordered product of the byproducts is X^A Z^B up to a phase
    rng = np.random.default_rng(11)
    for _ in range(20):
        outs = [tuple(rng.integers(0, 2, size=2)) for _ in range(rng.integers(0, 5))]
        net = np.eye(2, dtype=complex)
        for (a, b) in outs:
            net = _pauli(a, b) @ net
        undone = _pauli(*pauli_frame(outs)).conj().T @ net
        assert np.allclose(undone, undone[0, 0] * np.eye(2), atol=1e-12)
        assert abs(abs(undone[0, 0]) - 1) <= 1e-12


def test_pauli_frame_on_two_hop_teleport():
    psi = random_qubit(3).rename({"q": "q0"})
    state = psi.tensor(epr_pairs([("l1", "r1"), ("l2", "r2")]))
    for o1, p1, s1 in state.bell_measure("q0", "l1"):
        for o2, p2, s2 in s1.bell_measure("r1", "l2"):
            fixed = s2.apply(_pauli(*pauli_frame([o1, o2])).conj().T, ["r2"])
            overlap = abs(np.vdot(psi.vec, np.asarray(fixed.ptrace(["r2"])) @ psi.vec))
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
    wide = CdsProtocol(AND1, (0, 1, 2), base.linear, base.decode)
    with pytest.raises(ValidationError):
        cdqs_from_cds(wide)


def test_cdqs_detects_key_leak():
    # the key-disclosing layer broadcasts the key: the referee's pad collapses
    # and the carried qubit stays correlated with the reference
    leaky = cds_of(AND1, ((),), lambda x, s, r: s, lambda y, r: 0, lambda m0, x, m1, y: m0)
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
        branches = R.run(x, y, CARRIER)
        assert sum(b.weight for b in branches) == R.denom == 4


def test_frouting_msg_regs_hold_the_exit_register_on_the_right():
    R = frouting_from_gh(gh_search(AND1, 3), AND1)
    for (x, y) in AND1.inputs():
        side, reg = R.exit_info(x, y)
        assert reg[0] == ("R" if side == RIGHT else "L")
        assert R.msg_regs(x, y) == ((reg,) if side == RIGHT else ())


def test_routing_inconsistency_detected():
    R = frouting_from_gh(gh_search(AND1, 3), AND1)
    flipped = FRoutingProtocol(XOR1, R.run, R.denom, R.msg_regs, R.recover, R.exit_info)
    report = verify_frouting(flipped)
    assert not report.routing_consistent
    assert "side" in report.witnesses


def test_pad_route_round_trip_preserves_quality():
    # the round trip passes run, registers and recovery through, so its
    # report is the pad CDQS's own: the same branches, figures within 1e-12
    qr5 = psm_from_dre(dre_qr(named_fn("qr", p=5)))
    for C in (cdqs_from_cds(_gh_cds(AND1)), cdqs_from_cds(cds_from_psm(qr5)),
              cdqs_from_psqm(psqm_from_psm(psm_generic_table(AND1))),
              cdqs_from_psqm(psqm_from_psm(qr5))):
        R = frouting_from_cdqs(C)
        assert verify_frouting(R).perfect(1e-9)
        C2 = cdqs_from_frouting(R)
        want, got = verify_cdqs(C), verify_cdqs(C2)
        assert got.perfect(1e-9)
        assert abs(got.worst_infidelity - want.worst_infidelity) <= 1e-12
        assert abs(got.worst_gap - want.worst_gap) <= 1e-12
        assert got.per_input.keys() == want.per_input.keys()
        for xy, info in got.per_input.items():
            other = want.per_input[xy]
            assert (info["f"], info["branches"]) == (other["f"], other["branches"]), xy
            figure = "fidelity" if info["f"] else "gap"
            assert abs(info[figure] - other[figure]) <= 1e-12, xy
        with pytest.raises(ValidationError, match="need a protocol exposing its pad key"):
            frouting_from_cdqs(C2)


def test_otp_reconstruction_values():
    # hidden key: the left side recovers every pure qubit exactly; disclosed
    # key: its worst fidelity over the pure qubits is exactly 1/2
    R = frouting_from_cdqs(cdqs_from_cds(_gh_cds(AND1)))
    for (x, y) in AND1.inputs():
        F = left_fidelity(R.key_classes(x, y), R.denom)
        assert F == (0.5 if AND1.eval(x, y) else 1.0), (x, y)


def test_qr5_pad_route_fits_the_qubit_cap():
    # the left side is stated from the key classes' Gram matrix, with no
    # message register: no qubit is allocated at all
    C = cdqs_from_cds(cds_from_psm(psm_from_dre(dre_qr(named_fn("qr", p=5)))))
    report = verify_frouting(frouting_from_cdqs(C))
    assert report.perfect(1e-9)
    assert report.max_branches == 40000


def test_route_compilers_validate_their_inputs():
    C = cdqs_from_cds(_gh_cds(AND1))
    C2 = cdqs_from_frouting(frouting_from_cdqs(C))
    with pytest.raises(ValidationError):
        frouting_from_cdqs(C2)  # no key-disclosing layer exposed
    bare = FRoutingProtocol(AND1, C2.run, C2.denom, C2.msg_regs, C2.recover,
                            lambda x, y: (LEFT, None))
    with pytest.raises(ValidationError):
        verify_frouting(bare)  # no register and no local reconstruction


def test_psqm_from_psm_and_table():
    # exact figures: every input sends 8 distinct message pairs, each once
    # in the 8 randomness states, and the views of equal-value inputs agree
    Q = psqm_from_psm(psm_generic_table(AND1))
    report = verify_psqm(Q)
    assert (report.worst_infidelity, report.worst_gap, report.witnesses) == (0, 0, {})
    assert report.per_input == {(x, y): {"f": x & y, "decode_error": 0.0, "branches": 8}
                                for x in (0, 1) for y in (0, 1)}
    assert Q.denom == 8 and set(Q.counts(1, 0).values()) == {1}


def test_psqm_detects_input_leak():
    # messages reveal x outright: two same-value inputs get disjoint views
    leaky = psm_of(XOR1, ((),), lambda x, r: x, lambda y, r: y, lambda m0, m1: m0 ^ m1)
    report = verify_psqm(psqm_from_psm(leaky))
    assert (report.worst_infidelity, report.worst_gap) == (0, 1)
    assert report.witnesses == {"view": ((0, 0), (1, 1))}


def test_cdqs_from_psqm_chain():
    Q = psqm_from_psm(psm_generic_table(AND1))
    C = cdqs_from_psqm(Q)
    report = verify_cdqs(C)
    assert report.perfect(1e-9)
    assert security_state_sweep(C)["worst"] <= 1e-9


def test_cdqs_from_psqm_qr_domain():
    Q = psqm_from_psm(psm_from_dre(dre_qr(named_fn("qr", p=5))))
    C = cdqs_from_psqm(Q)
    assert C.domain == Q.domain
    report = verify_cdqs(C)
    assert report.perfect(1e-9)


def test_cdqs_from_psqm_guards():
    ones = psqm_from_psm(psm_generic_table(BoolFn(1, 1, (1, 1, 1, 1))))
    with pytest.raises(ValidationError):
        cdqs_from_psqm(ones)  # no hiding input exists


def test_verify_budgets():
    C = cdqs_from_cds(_gh_cds(AND1))
    with pytest.raises(BudgetError), budget(3):
        verify_cdqs(C)
    R = frouting_from_gh(gh_search(AND1, 3), AND1)
    with pytest.raises(BudgetError), budget(2):
        verify_frouting(R)
    Q = psqm_from_psm(psm_generic_table(AND1))
    with pytest.raises(BudgetError), budget(1):
        verify_psqm(Q)


def test_report_jsonable_shape():
    report = verify_cdqs(cdqs_from_cds(_gh_cds(XOR1)))
    obj = report.to_jsonable()
    assert set(obj) >= {"kind", "worst_infidelity", "worst_gap", "per_input",
                        "max_branches", "routing_consistent"}
    assert all("," in k for k in obj["per_input"])
    assert isinstance(obj["worst_gap"], float)


@pytest.mark.parametrize("f", [AND1, XOR1], ids=lambda f: f.name)
def test_security_state_sweep_on_a_garden_hose_route(f):
    R = frouting_from_gh(gh_search(f, 3), f)
    C = cdqs_from_frouting(R)
    assert security_state_sweep(C)["worst"] <= 1e-9
    # hand the referee the register where the hidden qubit lands
    leaky = CdqsProtocol(f, C.run, C.denom,
                         lambda x, y: C.msg_regs(x, y) + (R.exit_info(x, y)[1],),
                         C.recover, C.out_reg)
    assert security_state_sweep(leaky)["worst"] > 0.1
