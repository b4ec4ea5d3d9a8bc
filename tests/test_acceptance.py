"""Acceptance checks, one per numbered criterion.

Each test prints a single ``criterion NN PASS`` line with the measured
figures; a failing criterion fails its test, so the verbose test listing is a
per-criterion pass/fail report.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from cdslab.algebra import span_and1, span_eq1, span_or1
from cdslab.boolfn import BoolFn
from cdslab.cli import main as cli_main
from cdslab.families import named_fn
from cdslab.frames import left_fidelity
from cdslab.gardenhose import LEFT, RIGHT
from cdslab.ghsearch import gh_search
from cdslab.nlqc import cdqs_from_frouting, frouting_from_gh
from cdslab.padroutes import cdqs_from_cds, cdqs_from_psqm, frouting_from_cdqs, psqm_from_psm
from cdslab.bases import cds_from_gh, dre_qr, psm_generic_table
from cdslab.protocols import cds_from_psm, psm_from_dre
from cdslab.spancds import cds_from_span
from cdslab.quantum import epr_pairs
from cdslab.qverifiers import verify_cdqs, verify_frouting, verify_psqm
from cdslab.toolkit import (span_threshold_2of3, security_state_sweep, fidelity, pad_average,
                            random_qubit, trace_distance)
from cdslab.verifiers import verify_cds, verify_dre, verify_psm

AND1 = named_fn("and", n=1)
XOR1 = named_fn("xor", n=1)
EQ1 = named_fn("eq", n=1)
MAJ = BoolFn(2, 1, tuple(int(bin((x << 1) | y).count("1") >= 2)
                         for x in range(4) for y in range(2)), name="maj3")

_CACHE: dict = {}


def _two_bit_functions():
    return [BoolFn(1, 1, tuple((packed >> i) & 1 for i in range(4)), name=f"t{packed:x}")
            for packed in range(16)]


def _searched_strategies():
    if "sweep" not in _CACHE:
        _CACHE["sweep"] = [(f, gh_search(f, 3)) for f in _two_bit_functions()]
    return _CACHE["sweep"]


def test_criterion_01_exhaustive_two_bit_sweep():
    t0 = time.monotonic()
    worst_eps = Fraction(0)
    worst_delta = Fraction(0)
    for f, strategy in _searched_strategies():
        assert strategy is not None, f.name
        assert strategy.pipes <= 3, f.name
        report = verify_cds(cds_from_gh(strategy, f))
        worst_eps = max(worst_eps, report.eps_hat)
        worst_delta = max(worst_delta, report.delta_pair)
        assert report.eps_hat == 0, f.name
        assert report.delta_pair == 0, f.name
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 01 PASS: 16/16 functions at <=3 pipes, worst "
          f"(eps, delta) = ({worst_eps}, {worst_delta}), {elapsed:.2f}s")


def test_criterion_02_gh_complexity_of_and_xor():
    # exhaustive nonexistence at 2 pipes plus an explicit 3-pipe witness
    for f in (AND1, XOR1):
        assert gh_search(f, 2) is None, f.name
        found = gh_search(f, 3)
        assert found is not None and found.pipes == 3, f.name
    print("criterion 02 PASS: GH(and1) = GH(xor1) = 3, "
          "2-pipe space exhausted with no witness")


def test_criterion_03_randomness_equals_pipe_count():
    checked = 0
    for f, strategy in _searched_strategies() + [
            (AND1, gh_search(AND1, 3)), (XOR1, gh_search(XOR1, 3))]:
        P = cds_from_gh(strategy, f)
        assert P.resources["randomness_bits"] == strategy.pipes
        assert len(P.shared) == 1 << strategy.pipes
        checked += 1
    print(f"criterion 03 PASS: shared randomness = pipe count on "
          f"{checked} compiled protocols")


def test_criterion_04_span_program_cds_with_bounds():
    cases = [(span_and1, AND1), (span_or1, named_fn("or", n=1)),
             (span_eq1, EQ1), (span_threshold_2of3, MAJ)]
    checked = 0
    for p in (2, 3):
        for build, f in cases:
            prog = build(p)
            comm = cds_from_span(prog, f, "comm")
            rep = verify_cds(comm)
            assert (rep.eps_hat, rep.delta_pair) == (0, 0), (p, f.name, "comm")
            assert (comm.resources["communication_bits"]
                    <= comm.resources["share_total_bits"]), (p, f.name)
            rand = cds_from_span(prog, f, "rand")
            rep = verify_cds(rand)
            assert (rep.eps_hat, rep.delta_pair) == (0, 0), (p, f.name, "rand")
            assert (rand.resources["randomness_bits"]
                    <= rand.resources["share_total_bits"]), (p, f.name)
            checked += 2
    print(f"criterion 04 PASS: {checked} span-program protocols verify (0, 0) "
          f"within both resource bounds over Z2 and Z3")


def test_criterion_05_qr_randomized_encoding():
    t0 = time.monotonic()
    for p in (3, 5, 7, 11, 13):
        D = dre_qr(named_fn("qr", p=p))
        assert len(D.domain) == p - 1  # every a in Z_p^*
        report = verify_dre(D)
        assert report.eps_hat == 0, p
        assert report.delta_pair == 0, p
        assert report.resources["same_class_histograms_equal"], p
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"criterion 05 PASS: p in (3,5,7,11,13) all exact, eps = 0, "
          f"equal in-class histograms, {elapsed:.2f}s")


def test_criterion_06_quantum_disclosure_from_classical():
    worst_inf = 0.0
    worst_gap = 0.0
    for f in (AND1, XOR1, EQ1):
        C = cdqs_from_cds(cds_from_gh(gh_search(f, 3), f))
        report = verify_cdqs(C)
        for (x, y) in f.inputs():
            info = report.per_input[f"{x},{y}"]
            if info["f"] == 1:
                assert 1 - info["fidelity"] <= 1e-9, (f.name, x, y)
            else:
                assert info["gap"] <= 1e-9, (f.name, x, y)
        sweep = security_state_sweep(C, seeds=range(10))
        assert sweep["n_states"] == 16  # 6 Pauli eigenstates + 10 random
        assert sweep["worst"] <= 1e-9, f.name
        worst_inf = max(worst_inf, report.worst_infidelity)
        worst_gap = max(worst_gap, sweep["worst"], report.worst_gap)
    print(f"criterion 06 PASS: and1/xor1/eq1 worst infidelity {worst_inf:.2e}, "
          f"worst gap {worst_gap:.2e} across 16 secrets per input")


def test_criterion_07_routing_along_the_water_path():
    R = frouting_from_gh(gh_search(AND1, 3), AND1)
    report = verify_frouting(R)
    assert report.max_branches <= 64
    assert report.routing_consistent
    assert len(report.per_input) == 4
    for (x, y) in AND1.inputs():
        info = report.per_input[f"{x},{y}"]
        assert info["side"] == (RIGHT if AND1.eval(x, y) else LEFT), (x, y)
        assert info["fidelity"] >= 1 - 1e-9, (x, y)
    print(f"criterion 07 PASS: 4/4 inputs routed to the f side, "
          f"max {report.max_branches} branches, worst fidelity "
          f"{1 - report.worst_infidelity:.12f}")


def test_criterion_08_route_round_trip_preserves_disclosure():
    C = cdqs_from_cds(cds_from_gh(gh_search(AND1, 3), AND1))
    R = frouting_from_cdqs(C)
    C2 = cdqs_from_frouting(R)
    report = verify_cdqs(C2)
    assert report.worst_infidelity <= 1e-9
    assert report.worst_gap <= 1e-9
    worst_rec = 1.0
    for (x, y) in ((0, 0), (0, 1), (1, 0)):  # the f = 0 side
        # exact over every pure secret qubit
        rec = left_fidelity(R.key_classes(x, y), R.denom)
        worst_rec = min(worst_rec, rec)
        assert rec >= 1 - 1e-9, (x, y)
    print(f"criterion 08 PASS: round trip keeps "
          f"({report.worst_infidelity:.2e}, {report.worst_gap:.2e}); "
          f"sender-side recovery >= {worst_rec:.12f} on every pure secret")


def test_criterion_09_single_qubit_toolkit():
    # pad twirl
    rng = np.random.default_rng(20260813)
    worst_pad = 0.0
    for seed in range(10):
        psi = np.asarray(random_qubit(seed).vec)
        rho = np.outer(psi, psi.conj())
        worst_pad = max(worst_pad, float(np.max(np.abs(
            pad_average(rho) - np.eye(2) / 2))))
    assert worst_pad <= 1e-12

    # fidelity / trace-distance inequalities on 100 seeded density pairs
    def rand_density():
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = A @ A.conj().T
        return rho / np.trace(rho).real

    worst_low = 0.0
    worst_high = 0.0
    for _ in range(100):
        rho, sigma = rand_density(), rand_density()
        F = fidelity(rho, sigma)
        D = trace_distance(rho, sigma)
        worst_low = max(worst_low, (1 - F) - D)
        worst_high = max(worst_high, D - np.sqrt(max(0.0, 1 - F * F)))
    assert worst_low <= 1e-9
    assert worst_high <= 1e-9

    # Bell branch completeness
    worst_sum = 0.0
    for seed in range(10):
        state = random_qubit(seed).rename({"q": "m"}).tensor(
            epr_pairs([("a", "b")]))
        total = sum(p for (_, p, _) in state.bell_measure("m", "a"))
        worst_sum = max(worst_sum, abs(total - 1))
    assert worst_sum <= 1e-10
    print(f"criterion 09 PASS: pad deviation {worst_pad:.2e}, inequality "
          f"slack ({worst_low:.2e}, {worst_high:.2e}) over 100 pairs, "
          f"branch-sum error {worst_sum:.2e}")


def test_criterion_10_encoding_chain_to_quantum_disclosure():
    # QR backbone at p = 7
    D = dre_qr(named_fn("qr", p=7))
    assert verify_dre(D).perfect
    psm = psm_from_dre(D)
    assert verify_psm(psm).perfect

    cds = cds_from_psm(psm)
    assert verify_cds(cds).perfect
    psqm = psqm_from_psm(psm)
    assert verify_psqm(psqm).perfect

    via_cds = verify_cdqs(cdqs_from_cds(cds))
    assert via_cds.perfect
    via_psqm = verify_cdqs(cdqs_from_psqm(psqm))
    assert via_psqm.perfect

    # one-time-table backbone
    for f in (AND1, named_fn("index", n_x=1)):
        table_psm = psm_generic_table(f)
        assert verify_psm(table_psm).perfect, f.name
        assert verify_cds(cds_from_psm(table_psm)).perfect, f.name
        table_psqm = psqm_from_psm(table_psm)
        assert verify_psqm(table_psqm).perfect, f.name
        assert verify_cdqs(cdqs_from_psqm(table_psqm)).perfect, f.name
    print(f"criterion 10 PASS: qr(7) chain perfect via both routes "
          f"(worst infidelity {max(via_cds.worst_infidelity, via_psqm.worst_infidelity):.2e}), "
          f"table paths perfect for and1 and index1")


def test_criterion_11_sweep_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--nx", "1", "--ny", "1", "--max-pipes", "3",
            "--seed", "11"]
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    # a verification report is just as reproducible
    desc = tmp_path / "d.json"
    assert cli_main(["build", "--chain", "gh,cds", "--fn", "and",
                     "--seed", "11", "--out", str(desc)]) == 0
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli_main(["verify", str(desc), "--out", str(r1)]) == 0
    assert cli_main(["verify", str(desc), "--out", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()
    print("criterion 11 PASS: equal-seed sweep and verify runs are "
          "byte-identical")
