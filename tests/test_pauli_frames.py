"""Pauli-frame figures against the dense statevector reference.

Every CDQS and f-routing verify reads its runs as Pauli frames with integer
weights (``cdslab.frames``). ``dense_reference`` runs the same records on
dense statevectors: garden-hose routes teleport through every pipe's EPR
link, pad routes pad a dense qubit, and the left side of a pad route is the
(3 + k)-qubit state it was before frames. Per-input fidelities, gaps and
secret sweeps must agree within 1e-12, and the left side's closed-form
worst fidelity must be the dense left side's least fidelity on the six
Pauli eigenstates and exceed no probe's, on random strategies, on
random tables through both pad routes and on planted leaks.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as dense
from cdslab import frames, nlqc
from cdslab.boolfn import BoolFn
from cdslab.errors import ValidationError
from cdslab.families import named_fn
from cdslab.ghsearch import gh_search
from cdslab.nlqc import RunBranch, cdqs_from_frouting, frouting_from_gh
from cdslab.padroutes import cdqs_from_cds, cdqs_from_psqm, frouting_from_cdqs, psqm_from_psm
from cdslab.bases import psm_generic_table
from cdslab.protocols import cds_from_psm
from cdslab.qverifiers import verify_cdqs, verify_frouting
from cdslab.quantum import overlap
from cdslab.toolkit import PAULI_EIGENSTATES, probe_qubits, security_state_sweep
from test_frame_classes import _strategies, _table_of
from test_transcript_classes import _leaky_cds, _secret_in_tag_cds, _x_in_values_psm

TOL = 1e-12
AND1 = named_fn("and", n=1)


def _close(got: dict, want: dict) -> None:
    assert sorted(got) == sorted(want)
    for key, v in got.items():
        assert abs(v - want[key]) <= TOL, (key, v, want[key])


def _figures(report) -> dict:
    """{input: fidelity where f = 1, else gap} of a CDQS report."""
    return {xy: info["fidelity" if info["f"] else "gap"] for xy, info in report.per_input.items()}


def _check_gh_route(strategy, f) -> None:
    R = frouting_from_gh(strategy, f)
    run, physical = dense.gh_run(strategy), dense.physical_msg_regs(strategy)
    _close({xy: info["fidelity"] for xy, info in verify_frouting(R).per_input.items()},
           dense.frouting_fidelities(R, run))
    # the dense referee also holds every idle link half on the right
    C = cdqs_from_frouting(R)
    _close(_figures(verify_cdqs(C)), dense.cdqs_figures(C, run, physical))
    _close(security_state_sweep(C, seeds=range(1))["per_input"],
           dense.security_state_sweep(C, run, physical, seeds=range(1)))


def _check_pad_route(C) -> None:
    run = dense.pad_run(C)
    _close(_figures(verify_cdqs(C)), dense.cdqs_figures(C, run))
    _close(security_state_sweep(C, seeds=range(1))["per_input"],
           dense.security_state_sweep(C, run, seeds=range(1)))
    R = frouting_from_cdqs(C)
    report = verify_frouting(R)
    right = dense.frouting_fidelities(R, run)
    _close({xy: report.per_input[xy]["fidelity"] for xy in right}, right)
    for (x, y) in C.domain:
        classes = C.key_classes(x, y)
        figure = frames.left_fidelity(classes, C.denom)
        seen = {name: overlap(dense.otp_left_output(classes, psi, C.denom), psi)
                for name, psi in probe_qubits(range(1))}
        # the dense left side's minimum sits on a Pauli axis: the six Pauli
        # eigenstates reach the closed form, and no probe falls below it
        assert abs(figure - min(seen[name] for name, _ in PAULI_EIGENSTATES)) <= TOL, (x, y)
        assert figure <= min(seen.values()) + TOL, (x, y)
        if (x, y) not in right:
            assert report.per_input[(x, y)]["fidelity"] == figure


# -- the kernel --------------------------------------------------------------------------


def test_a_hop_moves_the_carried_qubit_and_xors_its_outcome():
    assert frames.hop(("Q", 1, 0), ("Q", "L2"), "R2") == [
        ((0, 0), ("R2", 1, 0)), ((0, 1), ("R2", 1, 1)),
        ((1, 0), ("R2", 0, 0)), ((1, 1), ("R2", 0, 1))]
    assert frames.xor(("R2", 1, 1), (1, 0)) == ("R2", 0, 1)


def test_what_a_frame_cannot_state_is_refused():
    with pytest.raises(ValidationError, match="misses the carried register"):
        frames.hop(("L1", 0, 0), ("Q", "L2"), "R2")
    branch = RunBranch(1, (), ("R1", 0, 0))
    assert frames.view([branch], ()) == {(): {None: 1}}
    assert frames.view([branch], ("R1",)) == {(): {(0, 0): 1}}
    for regs in (("R2",), ("R1", "R2")):
        with pytest.raises(ValidationError, match="other than the carried"):
            frames.view([branch], regs)
    # a referee that holds a link half no hop measures, which the frame leaves out
    xor1 = named_fn("xor", n=1)
    C = cdqs_from_frouting(frouting_from_gh(gh_search(xor1, 3), xor1))
    leaky = type(C)(**{**vars(C), "msg_regs": lambda x, y: ("R9",)})
    with pytest.raises(ValidationError, match="other than the carried"):
        verify_cdqs(leaky)


def test_exact_figures_of_a_perfect_route():
    C = cdqs_from_cds(cds_from_psm(psm_generic_table(AND1)))
    report = verify_cdqs(C)
    assert (report.worst_infidelity, report.worst_gap, report.witnesses) == (0.0, 0.0, {})
    assert all(info.get("fidelity", 1.0) == 1.0 for info in report.per_input.values())
    R = frouting_from_cdqs(C)
    assert verify_frouting(R).worst_infidelity == 0.0


# -- against the dense reference -----------------------------------------------------------


@settings(max_examples=10, deadline=None)
@given(strategy=_strategies())
def test_random_strategies_match_the_dense_reference(strategy):
    _check_gh_route(strategy, _table_of(strategy))


def test_a_wrong_correction_matches_the_dense_reference(monkeypatch):
    frame = nlqc.pauli_frame
    monkeypatch.setattr(nlqc, "pauli_frame",
                        lambda outcomes: frame([(b, a) for (a, b) in outcomes]))
    strategy = gh_search(AND1, 3)
    assert verify_frouting(frouting_from_gh(strategy, AND1)).worst_infidelity > 0.1
    _check_gh_route(strategy, AND1)


@settings(max_examples=6, deadline=None)
@given(n_x=st.sampled_from([1, 2]), data=st.data())
def test_random_tables_through_both_pad_routes_match_the_dense_reference(n_x, data):
    table = data.draw(st.lists(st.integers(0, 1), min_size=2 << n_x, max_size=2 << n_x))
    psm = psm_generic_table(BoolFn(n_x, 1, tuple(table)))
    _check_pad_route(cdqs_from_cds(cds_from_psm(psm)))
    if 0 in table:   # the psqm route masks a run with a hiding input
        _check_pad_route(cdqs_from_psqm(psqm_from_psm(psm)))


def test_planted_leaks_match_the_dense_reference():
    for cds in (_leaky_cds(AND1), _secret_in_tag_cds()):
        C = cdqs_from_cds(cds)
        assert verify_cdqs(C).worst_gap > 0.1
        _check_pad_route(C)
    _check_pad_route(cdqs_from_psqm(psqm_from_psm(_x_in_values_psm())))
