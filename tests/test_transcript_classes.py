"""Transcript classes against a flat reference with one branch per transcript.

The reference builds each pad-and-disclose run the way the verifiers saw it
before classes: the joint message distribution of the key-disclosing CDS is
the per-key product of per-copy ``message_hist`` counts, and every joint
transcript is its own branch. Class runs must give the same figures within
1e-12 and the same branch counts as integers.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdslab import nlqc, protocols
from cdslab.algebra import span_and1, span_dnf, span_eq1
from cdslab.boolfn import from_table, literal_input, named_fn
from cdslab.gardenhose import gh_generic, gh_search
from cdslab.nlqc import (KEYS, RunBranch, cdqs_from_cds, cdqs_from_psqm,
                         frouting_from_cdqs, otp_reconstruct_left, psqm_from_psm,
                         security_state_sweep, verify_cdqs, verify_frouting)
from cdslab.protocols import (CdsProtocol, TranscriptClass, cds_from_gh,
                              cds_from_psm, cds_from_span, dre_qr, message_hist,
                              psm_from_dre, psm_generic_table, transcript_classes)
from cdslab.quantum import epr_pairs, phased_pad, random_qubit

TOL = 1e-12
AND1 = named_fn("and", n=1)
XOR1 = named_fn("xor", n=1)
EQ1 = named_fn("eq", n=1)


# -- the flat reference ----------------------------------------------------------


def _flat_message_classes(P: CdsProtocol, copies: int):
    """One singleton class per joint transcript of ``copies`` runs of P."""
    joint = len(P.shared) * len(P.alice_private) * len(P.bob_private)

    def message_classes(x, y):
        base = {s: {m: c / joint for m, c in message_hist(P, x, y, s).items()}
                for s in P.secrets}
        weights = {}
        for key in product(P.secrets, repeat=copies):
            acc = {((), ()): 1.0}
            for s_i in key:
                acc = {(pm0 + (m0,), pm1 + (m1,)): pp * q
                       for (pm0, pm1), pp in acc.items()
                       for (m0, m1), q in base[s_i].items()}
            for m, p in acc.items():
                weights.setdefault(m, {})[key] = p
        return [TranscriptClass(m, w, 1) for m, w in weights.items()]

    return message_classes


def _flat_parallel(P, copies):
    K = protocols.cds_parallel(P, copies)
    K.meta["message_classes"] = _flat_message_classes(P, copies)
    return K


def _class_and_flat_cdqs(cds):
    classed = cdqs_from_cds(cds)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(nlqc, "cds_parallel", _flat_parallel)
        flat = cdqs_from_cds(cds)
    return classed, flat


def _flat_psqm_run(Q, x_star, y_star):
    """The psqm route's run with one branch per pair of run transcripts."""
    def hist(x, y):
        return {b.transcript: b.prob for b in Q.run(x, y)}

    def run(x, y, carrier, q_reg):
        branches = []
        for s1, s2 in KEYS:
            padded = carrier.apply(phased_pad(s1, s2), [q_reg])
            h1 = hist(x, y) if s1 else hist(x_star, y_star)
            h2 = hist(x, y) if s2 else hist(x_star, y_star)
            for t1, p1 in h1.items():
                for t2, p2 in h2.items():
                    branches.append(RunBranch(0.25 * p1 * p2, (t1, t2), padded))
        return branches

    return run


def _class_and_flat_psqm(psm):
    Q = psqm_from_psm(psm)
    classed = cdqs_from_psqm(Q)
    x_star, y_star = classed.meta["parameters"]["substitute"]
    return classed, replace(classed, run=_flat_psqm_run(Q, x_star, y_star))


@contextmanager
def _memo_unpad():
    """Unpad each (state, key) once, as the per-transcript code did.

    Flat runs hold at most four distinct padded states, so this keeps the
    reference's per-branch ptrace cache hitting.
    """
    unpad, memo = nlqc._unpad, {}

    def memo_unpad(state, s):
        got = memo.get((id(state), s))
        if got is None:
            got = memo[(id(state), s)] = (unpad(state, s), state)
        return got[0]

    with pytest.MonkeyPatch.context() as m:
        m.setattr(nlqc, "_unpad", memo_unpad)
        yield


# -- comparisons ------------------------------------------------------------------


def _same_report(a, b) -> None:
    assert a.max_branches == b.max_branches
    assert abs(a.worst_infidelity - b.worst_infidelity) <= TOL
    assert abs(a.worst_gap - b.worst_gap) <= TOL
    assert a.routing_consistent == b.routing_consistent
    assert sorted(a.per_input) == sorted(b.per_input)
    for key, info in a.per_input.items():
        other = b.per_input[key]
        assert sorted(info) == sorted(other), key
        for field, v in info.items():
            if field in ("branches", "f", "side"):
                assert v == other[field], (key, field)
            else:
                assert abs(v - other[field]) <= TOL, (key, field, v, other[field])


def _same_sweep(a, b) -> None:
    assert abs(a["worst"] - b["worst"]) <= TOL
    assert sorted(a["per_input"]) == sorted(b["per_input"])
    for key, v in a["per_input"].items():
        assert abs(v - b["per_input"][key]) <= TOL, key


def _verify_flat(P):
    with _memo_unpad():
        return verify_cdqs(P)


def _check_cds_route(cds, routing=True, sweep=True) -> None:
    classed, flat = _class_and_flat_cdqs(cds)
    _same_report(verify_cdqs(classed), _verify_flat(flat))
    if sweep:
        _same_sweep(security_state_sweep(classed, seeds=range(2)),
                    security_state_sweep(flat, seeds=range(2)))
    if routing:
        R, R_flat = frouting_from_cdqs(classed), frouting_from_cdqs(flat)
        _same_report(verify_frouting(R, sweep_seeds=range(2)),
                     verify_frouting(R_flat, sweep_seeds=range(2)))
        psi = random_qubit(5).vec
        for (x, y) in classed.input_pairs():
            got = otp_reconstruct_left(classed.key_cds, x, y, psi)
            want = otp_reconstruct_left(flat.key_cds, x, y, psi)
            assert abs(got - want) <= TOL, (x, y)


def _check_psqm_route(psm, sweep=True) -> None:
    classed, flat = _class_and_flat_psqm(psm)
    _same_report(verify_cdqs(classed), _verify_flat(flat))
    if sweep:
        _same_sweep(security_state_sweep(classed, seeds=range(2)),
                    security_state_sweep(flat, seeds=range(2)))


def _span_xor1(p):
    terms = [[(k + 1, z[k]) for k in range(2)]
             for z in (literal_input(XOR1, x, y) for (x, y) in XOR1.ones())]
    return span_dnf(terms, 2, p)


# -- the grouping itself -------------------------------------------------------------


def test_transcript_classes_group_exactly_proportional_weights():
    hists = {0: {"a": 1, "b": 2, "c": 1, "d": 0.5},
             1: {"a": 2, "b": 4, "c": 3, "e": 7}}
    classes = transcript_classes(hists, decode=lambda m: 0)
    assert classes == [TranscriptClass("a", {0: 3, 1: 6}, 2),
                       TranscriptClass("c", {0: 1, 1: 3}, 1),
                       TranscriptClass("d", {0: 0.5}, 1),
                       TranscriptClass("e", {1: 7}, 1)]
    # equal weights that decode differently never share a class
    split = transcript_classes({0: {"a": 1, "b": 1}}, decode=lambda m: m)
    assert [c.rep for c in split] == ["a", "b"]


def test_transcript_classes_compare_floats_without_tolerance():
    # 0.1 : 0.3 and 0.3 : 0.9 are proportional on paper but not as binary floats
    hists = {0: {"a": 0.1, "b": 0.3}, 1: {"a": 0.3, "b": 0.9}}
    assert len(transcript_classes(hists, decode=lambda m: 0)) == 2


def test_class_runs_compress_and_keep_counts():
    C = cdqs_from_cds(cds_from_psm(psm_from_dre(dre_qr(5))))
    for (x, y) in C.input_pairs():
        branches = C.run(x, y, epr_pairs([("R", "Q")]), "Q")
        assert len(branches) <= 16
        assert sum(b.count for b in branches) == 40000
        assert abs(sum(b.prob for b in branches) - 1) <= TOL


# -- differential tests ----------------------------------------------------------------


@pytest.mark.parametrize("f", [AND1, XOR1, EQ1], ids=lambda f: f.name)
def test_gh_cds_route_matches_flat(f):
    strategy = gh_search(f, 3) or gh_generic(f)
    _check_cds_route(cds_from_gh(strategy, f))


@pytest.mark.parametrize("f,program", [(AND1, span_and1), (XOR1, _span_xor1),
                                       (EQ1, span_eq1)], ids=["and", "xor", "eq"])
@pytest.mark.parametrize("variant", ["comm", "rand"])
def test_span_cds_route_matches_flat(f, program, variant):
    _check_cds_route(cds_from_span(program(2), f, variant))


def test_psm_table_routes_match_flat():
    psm = psm_generic_table(AND1)
    _check_cds_route(cds_from_psm(psm))
    _check_psqm_route(psm)
    # index1's flat cds route has up to 768^2 joint transcripts per key; its psqm
    # route is small
    _check_psqm_route(psm_generic_table(named_fn("index", n_x=1)), sweep=False)


def test_qr5_routes_match_flat():
    # the flat reference takes seconds per run here, so verify_cdqs only;
    # flat otp_reconstruct_left would need a 14-qubit message register
    psm = psm_from_dre(dre_qr(5))
    _check_cds_route(cds_from_psm(psm), routing=False, sweep=False)
    _check_psqm_route(psm, sweep=False)


@settings(max_examples=8, deadline=None)
@given(n_x=st.sampled_from([1, 2]), data=st.data())
def test_random_table_routes_match_flat(n_x, data):
    table = data.draw(st.lists(st.integers(0, 1), min_size=2 << n_x,
                               max_size=2 << n_x))
    f = from_table(n_x, 1, table)
    psm = psm_generic_table(f)
    _check_cds_route(cds_from_psm(psm), sweep=False)
    if any(f.eval(x, y) == 0 for (x, y) in f.inputs()):
        _check_psqm_route(psm, sweep=False)


def _leaky_cds(f):
    """gh CDS plus one extra bit that leaks the secret on input (0, 0) only."""
    base = cds_from_gh(gh_search(f, 3), f)
    shared = tuple((r, b) for r in base.shared for b in (0, 1))

    def alice_msg(x, s, rr, ra=None):
        r, b = rr
        return (base.alice_msg(x, s, r, ra), s ^ b if x == 0 else 0)

    def bob_msg(y, rr, rb=None):
        r, b = rr
        return (base.bob_msg(y, r, rb), b if y == 0 else 0)

    def decode(m0, x, m1, y):
        return base.decode(m0[0], x, m1[0], y)

    return CdsProtocol(f, (0, 1), shared, alice_msg, bob_msg, decode)


def test_planted_leak_gap_matches_flat():
    classed, flat = _class_and_flat_cdqs(_leaky_cds(AND1))
    got, want = verify_cdqs(classed), _verify_flat(flat)
    _same_report(got, want)
    assert got.worst_gap > 0.1
    assert got.witnesses["gap"] == (0, 0)
    for (x, y) in ((0, 1), (1, 0)):
        assert got.per_input[(x, y)]["gap"] <= TOL
    _same_sweep(security_state_sweep(classed, seeds=range(2)),
                security_state_sweep(flat, seeds=range(2)))


def test_message_classes_swept_once_per_input_and_secret(monkeypatch):
    # the quantum verifiers ask for an input's classes once per swept qubit
    # state; each (x, y, secret) histogram must still be computed only once
    calls = []

    def counted(P, x, y, *secret):
        calls.append((x, y) + secret)
        return message_hist(P, x, y, *secret)

    monkeypatch.setattr(protocols, "message_hist", counted)
    cdqs = cdqs_from_cds(cds_from_psm(psm_from_dre(dre_qr(5))))
    verify_frouting(frouting_from_cdqs(cdqs))
    sweep = security_state_sweep(cdqs, seeds=range(2))
    assert security_state_sweep(cdqs, seeds=range(2)) == sweep
    inputs = {call[:2] for call in calls}
    assert len(inputs) > 1
    assert len(calls) == 2 * len(inputs)   # two secrets, each swept once
