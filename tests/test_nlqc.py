"""Quantum-stage protocols: state disclosure, routing, simultaneous messages."""

from __future__ import annotations

import numpy as np
import pytest

from cdslab.boolfn import BoolFn
from cdslab.errors import BudgetError, ValidationError, budget
from cdslab.families import named_fn
from cdslab.gardenhose import LEFT, RIGHT
from cdslab.ghsearch import gh_generic, gh_search
from cdslab.nlqc import (CdqsProtocol, FRoutingProtocol, RunBranch, cdqs_from_frouting,
                         frouting_from_gh, pauli_frame)
from cdslab.padroutes import (TranscriptClass, _pad_run, cdqs_from_cds, cdqs_from_psqm,
                              frouting_from_cdqs, psqm_from_psm)
from cdslab.bases import cds_from_gh, psm_generic_table, dre_qr
from cdslab.protocols import CdsProtocol, _joint, cds_from_psm, coset_hist, psm_from_dre
from cdslab import frames
from cdslab.cliverify import _verify_object
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
        assert report.perfect, f.name
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
    assert report.perfect
    assert report.routing_consistent
    assert report.max_branches <= 64
    for (x, y) in AND1.inputs():
        info = report.per_input[f"{x},{y}"]
        assert info["side"] == (RIGHT if AND1.eval(x, y) else LEFT)
        assert info["fidelity"] >= 1 - 1e-9


def test_frouting_from_gh_generic_strategy():
    R = frouting_from_gh(gh_generic(XOR1), XOR1)
    report = verify_frouting(R)
    assert report.perfect
    assert R.resources["epr_pairs"] == 4


def test_frouting_branch_probabilities_sum_to_one():
    R = frouting_from_gh(gh_search(AND1, 3), AND1)
    for (x, y) in AND1.inputs():
        branches = R.run(x, y, CARRIER)
        assert sum(b.weight for b in branches) == R.denom == 4


def test_frouting_msg_regs_hold_the_exit_register_on_the_right():
    R = frouting_from_gh(gh_search(AND1, 3), AND1)
    for (x, y) in AND1.inputs():
        reg = R.exit_reg(x, y)
        assert reg[0] == ("R" if AND1.eval(x, y) else "L")
        assert R.msg_regs(x, y) == ((reg,) if AND1.eval(x, y) else ())


def test_routing_inconsistency_detected():
    R = frouting_from_gh(gh_search(AND1, 3), AND1)
    flipped = FRoutingProtocol(XOR1, R.run, R.denom, R.msg_regs, R.recover, R.exit_reg)
    report = verify_frouting(flipped)
    assert not report.routing_consistent
    assert "side" in report.witnesses


def test_a_revealing_exit_the_referee_never_holds_is_the_first_side_witness():
    # a constant-1 route whose right side holds nothing: every exit is right
    # and fidelity 1, yet the referee never receives the qubit, so both
    # verifiers fail on the first input in sweep order
    f = BoolFn(1, 1, (1, 1, 1, 1))
    R = frouting_from_gh(gh_search(f, 2), f)
    held_back = FRoutingProtocol(f, R.run, R.denom, lambda x, y: (), R.recover, R.exit_reg)
    for verify in (verify_cdqs, verify_frouting):
        report = verify(held_back)
        assert report.worst_infidelity == 0.0
        assert not report.perfect and not report.routing_consistent, verify.__name__
        assert report.witnesses == {"side": (0, 0)}, verify.__name__


def test_pad_route_round_trip_preserves_quality():
    # the round trip passes run, registers and recovery through, so its
    # report is the pad CDQS's own: the same branches, figures within 1e-12
    qr5 = psm_from_dre(dre_qr(named_fn("qr", p=5)))
    for C in (cdqs_from_cds(_gh_cds(AND1)), cdqs_from_cds(cds_from_psm(qr5)),
              cdqs_from_psqm(psqm_from_psm(psm_generic_table(AND1))),
              cdqs_from_psqm(psqm_from_psm(qr5))):
        R = frouting_from_cdqs(C)
        assert verify_frouting(R).perfect
        C2 = cdqs_from_frouting(R)
        want, got = verify_cdqs(C), verify_cdqs(C2)
        assert got.perfect
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


def test_the_edges_hand_the_one_record_on():
    # a pad CDQS states both exits, so it is its own route; a router's CDQS
    # shares the router's fields but the pad key classes, which it has none of
    qr5 = psm_from_dre(dre_qr(named_fn("qr", p=5)))
    pads = (cdqs_from_cds(_gh_cds(AND1)), cdqs_from_cds(cds_from_psm(qr5)),
            cdqs_from_psqm(psqm_from_psm(psm_generic_table(AND1))),
            cdqs_from_psqm(psqm_from_psm(qr5)))
    for C in pads:
        assert frouting_from_cdqs(C) is C
    assert CdqsProtocol is FRoutingProtocol
    for R in (frouting_from_gh(gh_search(AND1, 3), AND1), *pads):
        C = cdqs_from_frouting(R)
        assert type(C) is FRoutingProtocol and C is not R
        for field in ("f", "run", "msg_regs", "recover", "exit_reg", "domain"):
            assert getattr(C, field) is getattr(R, field), field
        assert (C.denom, C.resources, C.key_classes) == (R.denom, R.resources, None)


def _route(denom: int, off: int) -> FRoutingProtocol:
    """An and1 route whose qubit lands in "R" where f = 1 and in "L" elsewhere,
    under the identity frame, but for ``off`` units of weight under X on (1, 1)."""
    def exit_reg(x, y):
        return "R" if AND1.eval(x, y) else "L"

    def run(x, y, carrier):
        off_here = off if (x, y) == (1, 1) else 0
        return [RunBranch(denom - off_here, (), (exit_reg(x, y), 0, 0)),
                RunBranch(off_here, (), (exit_reg(x, y), 1, 0))]

    return FRoutingProtocol(AND1, run, denom, lambda x, y: ("R",) if AND1.eval(x, y) else (),
                            lambda x, y, t, state: state, exit_reg)


@pytest.mark.parametrize("denom", [10 ** 10, 10 ** 20])
def test_a_unit_of_weight_off_the_identity_frame_fails(denom):
    # F^2 = 1 - 1/denom on (1, 1): 1 - F is 5e-11 at 10^10 and reads 0.0 at
    # 10^20, and no tolerance passes either; the route and its CDQS name (1, 1)
    for kind, verify, edge in (("frouting", verify_frouting, lambda R: R),
                               ("cdqs", verify_cdqs, cdqs_from_frouting)):
        assert verify(edge(_route(denom, 0))).perfect, kind
        P = edge(_route(denom, 1))
        report = verify(P)
        assert not report.perfect and report.routing_consistent, kind
        assert report.witnesses == {"infidelity": (1, 1)}, kind
        if denom == 10 ** 20:
            assert report.worst_infidelity == 0.0, kind
        else:
            assert 0 < report.worst_infidelity <= 1e-9, kind
        out = _verify_object(kind, P)
        assert (out["status"], out["witness"]) == ("fail", {"infidelity": [1, 1]}), kind


def _pad_route(a: int, off: int) -> FRoutingProtocol:
    """An and1 pad route whose key classes weigh each key 2a: disclosed on
    (1, 1), hidden on (0, 1) and (1, 0), and on (0, 0) two classes whose
    weights under the identity key are ``off`` units above and below the
    other keys'."""
    def key_classes(x, y):
        if AND1.eval(x, y):
            return [TranscriptClass(s, {s: 2 * a}, 1) for s in frames.KEYS]
        if (x, y) == (0, 0):
            return [TranscriptClass(name, {s: a + sign * off * (s == (0, 0))
                                           for s in frames.KEYS}, 1)
                    for name, sign in (("up", 1), ("down", -1))]
        return [TranscriptClass("hidden", dict.fromkeys(frames.KEYS, 2 * a), 1)]

    def recover(x, y, t, state):
        return frames.xor(state, t) if t in frames.KEYS else state

    return FRoutingProtocol(AND1, _pad_run(key_classes), 8 * a, lambda x, y: ("Q",), recover,
                            lambda x, y: "Q" if AND1.eval(x, y) else None,
                            key_classes=key_classes)


def test_a_unit_of_key_weight_off_fails_the_gap_and_the_left_side():
    # on (0, 0) the gap is 3 / (16a), about 1.9e-10, and the left side's
    # infidelity about 1 / (32 a^2), 3e-20: each is witnessed all the same
    a = 10 ** 9
    assert verify_cdqs(_pad_route(a, 0)).perfect and verify_frouting(_pad_route(a, 0)).perfect
    P = _pad_route(a, 1)
    cdqs, route = verify_cdqs(P), verify_frouting(frouting_from_cdqs(P))
    assert 0 < cdqs.worst_gap <= 1e-9 and cdqs.worst_infidelity == 0
    assert cdqs.witnesses == {"gap": (0, 0)} and not cdqs.perfect
    assert route.worst_infidelity <= 1e-9 and route.routing_consistent
    assert route.witnesses == {"infidelity": (0, 0)} and not route.perfect
    assert route.per_input["0,0"]["side"] == LEFT


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
    assert report.perfect
    assert report.max_branches == 40000


def test_route_compilers_validate_their_inputs():
    C = cdqs_from_cds(_gh_cds(AND1))
    C2 = cdqs_from_frouting(frouting_from_cdqs(C))
    with pytest.raises(ValidationError):
        frouting_from_cdqs(C2)  # no key-disclosing layer exposed
    bare = FRoutingProtocol(AND1, C2.run, C2.denom, C2.msg_regs, C2.recover,
                            lambda x, y: None)
    with pytest.raises(ValidationError):
        verify_frouting(bare)  # no register and no local reconstruction


def test_psqm_from_psm_and_table():
    # exact figures: every input sends 8 distinct message pairs, each once
    # in the 8 randomness states, and the views of equal-value inputs agree
    Q = psqm_from_psm(psm_generic_table(AND1))
    report = verify_psqm(Q)
    assert (report.worst_infidelity, report.worst_gap, report.witnesses) == (0, 0, {})
    assert report.per_input == {f"{x},{y}": {"f": x & y, "decode_error": 0.0, "branches": 8}
                                for x in (0, 1) for y in (0, 1)}
    assert _joint(Q.psm) == 8 and set(coset_hist(Q.psm, 1, 0).values()) == {1}


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
    assert report.perfect
    assert security_state_sweep(C)["worst"] <= 1e-9


def test_cdqs_from_psqm_qr_domain():
    Q = psqm_from_psm(psm_from_dre(dre_qr(named_fn("qr", p=5))))
    C = cdqs_from_psqm(Q)
    assert C.domain == Q.domain
    report = verify_cdqs(C)
    assert report.perfect


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


def test_report_writes_its_own_per_input_block():
    # each input's entry is held once, under the key the report writes
    for report in (verify_cdqs(cdqs_from_cds(_gh_cds(XOR1))),
                   verify_frouting(frouting_from_gh(gh_search(AND1, 3), AND1)),
                   verify_psqm(psqm_from_psm(psm_generic_table(AND1)))):
        assert report.to_jsonable()["per_input"] is report.per_input
        assert list(report.per_input) == ["0,0", "0,1", "1,0", "1,1"]


def test_a_report_holds_each_distinct_entry_once():
    # ip's 64 inputs take two entries on the generic garden-hose route: each
    # is held once, and every input with it shares that one dict
    ip3 = named_fn("ip", n=3)
    route = verify_frouting(frouting_from_gh(gh_generic(ip3), ip3))
    assert route.perfect and len(route.per_input) == 64
    for report in (route, verify_cdqs(cdqs_from_cds(_gh_cds(XOR1))),
                   verify_psqm(psqm_from_psm(psm_generic_table(AND1)))):
        entries = report.per_input.values()
        distinct = {tuple(info.items()) for info in entries}
        assert len({id(info) for info in entries}) == len(distinct) == 2


@pytest.mark.parametrize("f", [AND1, XOR1], ids=lambda f: f.name)
def test_security_state_sweep_on_a_garden_hose_route(f):
    R = frouting_from_gh(gh_search(f, 3), f)
    C = cdqs_from_frouting(R)
    assert security_state_sweep(C)["worst"] <= 1e-9
    # hand the referee the register where the hidden qubit lands
    leaky = FRoutingProtocol(f, C.run, C.denom,
                             lambda x, y: C.msg_regs(x, y) + (R.exit_reg(x, y),),
                             C.recover, C.exit_reg)
    assert security_state_sweep(leaky)["worst"] > 0.1
