"""Transcript classes against a flat reference with one branch per transcript.

The reference builds each pad-and-disclose run the way the verifiers saw it
before classes: the distribution of a transcript, one run transcript per key
bit, is the per-key product of the two runs' distributions, and every pair
of run transcripts is its own branch. Class runs must give the same figures
within 1e-12 and the same branch counts as integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdslab import nlqc, protocols
from cdslab.algebra import span_and1, span_dnf, span_eq1
from cdslab.boolfn import from_table, literal_input, named_fn
from cdslab.cli import _span_for
from cdslab.errors import ValidationError
from cdslab.gardenhose import gh_generic, gh_search
from cdslab.nlqc import (KEYS, RunBranch, TranscriptClass, cdqs_from_cds, cdqs_from_psqm,
                         frouting_from_cdqs, otp_reconstruct_left, psqm_from_psm,
                         security_state_sweep, transcript_classes, verify_cdqs,
                         verify_frouting, verify_psqm)
from cdslab.protocols import (CdsProtocol, LinearPart, PsmProtocol, cds_from_gh,
                              cds_from_psm, cds_from_span, coset_hist, dre_qr, hiding_input,
                              message_count, message_hist, psm_from_dre, psm_generic_table)
from cdslab.quantum import epr_pairs, random_qubit

TOL = 1e-12
AND1 = named_fn("and", n=1)
XOR1 = named_fn("xor", n=1)
EQ1 = named_fn("eq", n=1)


def replace(P, **changes):
    """Protocol P rebuilt through its constructor with ``changes`` to its fields."""
    return type(P)(**{**vars(P), **changes})


def _undeclared(P):
    """P without its ``LinearPart``: every sweep enumerates its messages."""
    return replace(P, linear=None)


# -- the flat reference ----------------------------------------------------------


def _flat_classes(bit_hists):
    """One singleton class per pair of run transcripts, weighted under each key."""
    def key_classes(x, y):
        hists = bit_hists(x, y)
        weights = {}
        for key in KEYS:
            for t1, p1 in hists[key[0]].items():
                for t2, p2 in hists[key[1]].items():
                    weights.setdefault((t1, t2), {})[key] = p1 * p2
        return [TranscriptClass(t, w, 1) for t, w in weights.items()]

    return key_classes


def _flat_message_classes(P: CdsProtocol):
    """Flat classes of two runs of P; a run's transcript is its (m0, m1)."""
    joint = len(P.shared) * len(P.alice_private) * len(P.bob_private)
    return _flat_classes(lambda x, y: {
        s: {m: c / joint for m, c in message_hist(P, x, y, s).items()}
        for s in P.secrets})


_UNPAD = nlqc._unpad   # the module's own, before ``_verify_flat`` patches it


class _MemoState:
    """A branch state whose corrections and reductions are computed once each.

    A flat run hands out at most four distinct padded states, each shared by
    many branches, so the reference pays a kernel call per state instead of
    one per branch.
    """

    def __init__(self, state):
        self.state = state
        self.memo = {}

    def apply(self, U, regs):
        key = ("apply", np.asarray(U).tobytes(), np.asarray(U).shape, tuple(regs))
        if key not in self.memo:
            self.memo[key] = _MemoState(self.state.apply(U, regs))
        return self.memo[key]

    def unpad(self, s):
        key = ("unpad", s)
        if key not in self.memo:
            self.memo[key] = _UNPAD(self, s)
        return self.memo[key]

    def ptrace(self, regs):
        key = ("ptrace", tuple(regs))
        if key not in self.memo:
            self.memo[key] = self.state.ptrace(regs)
        return self.memo[key]


def _verify_flat(P):
    """``verify_cdqs`` of a flat route, unpadding each memoised state once per key."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(nlqc, "_unpad", lambda state, s: state.unpad(s))
        return verify_cdqs(P)


def _memo_states(run):
    """``run`` with every distinct branch state wrapped in one ``_MemoState``."""
    def memo_run(*args):
        branches = run(*args)
        wrapped = {id(b.state): _MemoState(b.state) for b in branches
                   if b.state is not None}
        return [RunBranch(b.prob, b.transcript, wrapped.get(id(b.state)), b.count)
                for b in branches]

    return memo_run


def _with_flat(classed, flat):
    """``classed`` with the flat key classes ``flat`` in place of its own."""
    return replace(classed, run=_memo_states(nlqc._pad_run(flat)), key_classes=flat)


def _class_and_flat_cdqs(cds):
    classed = cdqs_from_cds(cds)
    return classed, _with_flat(classed, _flat_message_classes(cds))


def _flat_psqm_classes(Q, x_star, y_star):
    """Flat classes of the psqm route: key bit 0 runs the hiding input."""
    def hist(x, y):
        return {b.transcript: b.prob for b in Q.run(x, y)}

    return _flat_classes(lambda x, y: {0: hist(x_star, y_star), 1: hist(x, y)})


def _class_and_flat_psqm(psm):
    """The psqm route of ``psm``, and its flat reference, whose runs enumerate
    the messages of ``psm`` with any linear part removed."""
    classed = cdqs_from_psqm(psqm_from_psm(psm))
    x_star, y_star = hiding_input(psm)
    flat = _flat_psqm_classes(psqm_from_psm(_undeclared(psm)), x_star, y_star)
    return classed, _with_flat(classed, flat)


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


def _check_route(classed, flat, routing, sweep) -> None:
    _same_report(verify_cdqs(classed), _verify_flat(flat))
    if sweep:
        _same_sweep(security_state_sweep(classed, seeds=range(2)),
                    security_state_sweep(flat, seeds=range(2)))
    if routing:
        _same_report(verify_frouting(frouting_from_cdqs(classed)),
                     verify_frouting(frouting_from_cdqs(flat)))
        psi = random_qubit(5).vec
        for (x, y) in classed.input_pairs():
            got = otp_reconstruct_left(classed.key_classes(x, y), psi)
            want = otp_reconstruct_left(flat.key_classes(x, y), psi)
            assert abs(got - want) <= TOL, (x, y)


def _check_cds_route(cds, routing=True, sweep=True) -> None:
    _check_route(*_class_and_flat_cdqs(cds), routing, sweep)


def _check_psqm_route(psm, routing=True, sweep=True) -> None:
    _check_route(*_class_and_flat_psqm(psm), routing, sweep)


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


def _fraction_classes(hists, decode):
    """``transcript_classes`` keyed on each weight's ``Fraction`` ratio to the
    first nonzero weight: the reference for the integer key."""
    keys = list(hists)
    classes = {}
    for m in dict.fromkeys(m for s in keys for m in hists[s]):
        vec = [hists[s].get(m, 0) for s in keys]
        lead = Fraction(next(w for w in vec if w))
        label = (decode(m), tuple(Fraction(w) / lead for w in vec))
        rep, weights, count = classes.get(label) or (m, {}, 0)
        for s, w in zip(keys, vec):
            if w:
                weights[s] = weights.get(s, 0) + w
        classes[label] = (rep, weights, count + message_count(m))
    return [TranscriptClass(*c) for c in classes.values()]


@st.composite
def _weight_hists(draw, as_float):
    """{key: {transcript: weight}} whose transcripts repeat a few base vectors,
    zeros included, scaled by small integers; float weights are counts c / J."""
    n_keys = draw(st.integers(1, 4))
    bases = draw(st.lists(st.lists(st.integers(0, 6), min_size=n_keys, max_size=n_keys)
                          .filter(any), min_size=1, max_size=3))
    rows = draw(st.lists(st.tuples(st.sampled_from(bases), st.integers(1, 5)),
                         min_size=1, max_size=12))
    joint = draw(st.integers(1, 10 ** 6)) if as_float else None
    hists = {k: {} for k in range(n_keys)}
    for t, (base, scale) in enumerate(rows):
        for k, c in enumerate(base):
            if c or draw(st.booleans()):   # a zero weight listed or left out
                hists[k][t] = c * scale / joint if as_float else c * scale
    return hists


@settings(max_examples=60, deadline=None)
@given(data=st.data(), as_float=st.booleans(), parity=st.booleans())
def test_transcript_classes_match_fraction_reference(data, as_float, parity):
    hists = data.draw(_weight_hists(as_float))
    decode = (lambda t: t % 2) if parity else (lambda t: 0)
    got = transcript_classes(hists, decode)
    assert got == _fraction_classes(hists, decode)
    assert sum(c.count for c in got) == len({t for h in hists.values() for t in h})


@settings(max_examples=30, deadline=None)
@given(counts=st.lists(st.integers(1, 10 ** 6), min_size=2, max_size=4),
       joint=st.integers(1, 10 ** 6), data=st.data())
def test_transcript_classes_split_nearly_proportional_floats(counts, joint, data):
    # transcript 1 is transcript 0 with one weight moved by one ulp
    k = data.draw(st.integers(0, len(counts) - 1))
    hists = {i: {0: c / joint} for i, c in enumerate(counts)}
    for i, c in enumerate(counts):
        hists[i][1] = math.nextafter(c / joint, math.inf) if i == k else c / joint
    got = transcript_classes(hists, decode=lambda t: 0)
    assert got == _fraction_classes(hists, decode=lambda t: 0)
    assert [c.rep for c in got] == [0, 1]


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
    # route is small, though its flat transcripts need a 12-qubit message register
    _check_psqm_route(psm_generic_table(named_fn("index", n_x=1)), routing=False,
                      sweep=False)


def test_qr5_routes_match_flat():
    # the flat reference takes seconds per run here, so verify_cdqs only;
    # flat otp_reconstruct_left would need a message register past 14 qubits
    psm = psm_from_dre(dre_qr(5))
    _check_cds_route(cds_from_psm(psm), routing=False, sweep=False)
    _check_psqm_route(psm, routing=False, sweep=False)


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


def _count_sweeps(monkeypatch) -> tuple:
    """(calls, kernels): from now on, the arguments of every histogram that a
    sweep kernel handed to ``nlqc`` computes, and for each kernel handed, the
    set of ``protocols`` histogram kernels its histograms called."""
    calls, kernels = [], []
    bind = nlqc._sweep_kernel

    def counted_kernel(*args):
        hist_of, joint = bind(*args)
        kernels.append(set())

        def counted(x, y, *secret):
            calls.append((x, y) + secret)
            return hist_of(x, y, *secret)

        return counted, joint

    def seen(kernel):
        def called(*args, **kwargs):
            kernels[-1].add(kernel)
            return kernel(*args, **kwargs)
        return called

    for name in ("coset_hist", "message_hist"):
        monkeypatch.setattr(protocols, name, seen(getattr(protocols, name)))
    monkeypatch.setattr(nlqc, "_sweep_kernel", counted_kernel)
    return calls, kernels


def test_message_classes_swept_once_per_input_and_secret(monkeypatch):
    # the quantum verifiers ask for an input's classes once per swept qubit
    # state; each (x, y, secret) histogram must still be computed only once,
    # by the kernel the shared sweep picks, once charged
    calls, kernels = _count_sweeps(monkeypatch)
    cdqs = cdqs_from_cds(cds_from_psm(psm_from_dre(dre_qr(5))))
    verify_frouting(frouting_from_cdqs(cdqs))
    sweep = security_state_sweep(cdqs, seeds=range(2))
    assert security_state_sweep(cdqs, seeds=range(2)) == sweep
    assert kernels == [{coset_hist}]
    inputs = {call[:2] for call in calls}
    assert len(inputs) > 1
    assert len(calls) == 2 * len(inputs)   # two secrets, each swept once


def test_psqm_pad_route_sweeps_the_substitute_once(monkeypatch):
    # psqm_from_psm is charged one sweep per input; the pad route's key-bit-0
    # run on the hiding input is swept once for all inputs, not once per input
    calls, kernels = _count_sweeps(monkeypatch)
    cdqs = cdqs_from_psqm(psqm_from_psm(psm_from_dre(dre_qr(7))))
    verify_cdqs(cdqs)
    verify_frouting(frouting_from_cdqs(cdqs))
    inputs = cdqs.input_pairs()
    assert kernels == [{coset_hist}] and len(inputs) == 6
    assert len(calls) == len(inputs) + 1
    assert calls.count(hiding_input(cdqs)) == 2


# -- coset classes against enumerated classes --------------------------------------


def _integer_classes(C, denom) -> dict:
    """Every input's key classes of pad route C as sorted (decoded key, integer
    weights, count) triples; ``denom`` scales the weights back to integers."""
    return {(x, y): sorted((C.key_of(x, y, c.rep),
                            tuple(sorted((k, round(w * denom)) for k, w in c.weights.items())),
                            c.count)
                           for c in C.key_classes(x, y))
            for (x, y) in C.input_pairs()}


def _same_cds_classes(cds) -> None:
    joint = len(cds.shared) * len(cds.alice_private) * len(cds.bob_private)
    got = _integer_classes(cdqs_from_cds(cds), joint ** 2)
    assert got == _integer_classes(cdqs_from_cds(_undeclared(cds)), joint ** 2)


def _same_psqm_classes(psm) -> None:
    joint = len(psm.shared)
    got = _integer_classes(cdqs_from_psqm(psqm_from_psm(psm)), joint ** 2)
    want = _integer_classes(cdqs_from_psqm(psqm_from_psm(_undeclared(psm))), joint ** 2)
    assert got == want


@settings(max_examples=12, deadline=None)
@given(p=st.sampled_from([2, 3]), variant=st.sampled_from(["comm", "rand"]),
       data=st.data())
def test_span_coset_classes_match_enumerated(p, variant, data):
    # random 2+1 tables; at most 3 ones over Z_2 and 2 over Z_3 keep the
    # enumerated sweep within 3^7 coins
    ones = data.draw(st.sets(st.integers(0, 7), min_size=1, max_size=3 if p == 2 else 2))
    f = from_table(2, 1, [int(i in ones) for i in range(8)])
    _same_cds_classes(cds_from_span(_span_for(f, p), f, variant))


@pytest.mark.parametrize("p", [5, 7])
def test_qr_coset_classes_match_enumerated(p):
    psm = psm_from_dre(dre_qr(p))
    _same_cds_classes(cds_from_psm(psm))
    _same_psqm_classes(psm)


def test_planted_leak_coset_classes_match_enumerated():
    # Alice adds her secret to her tag when x = 0, so (0, 0) leaks it; a
    # PSM whose Alice adds x to her values leaks it between equal-value inputs
    cds = cds_from_span(span_and1(3), AND1, "comm")
    psm = psm_from_dre(dre_qr(5))

    def secret_in_tag(x, s, r, ra=None):
        tag, values = cds.alice_msg(x, s, r, ra)
        return (tag, s if x == 0 else 0), values

    def x_in_values(x, r, ra=None):
        tag, values = psm.alice_msg(x, r, ra)
        return tag, values + (x,)

    leaky = replace(cds, alice_msg=secret_in_tag,
                    decode=lambda m0, x, m1, y: cds.decode((m0[0][0], m0[1]), x, m1, y))
    _same_cds_classes(leaky)
    report = verify_cdqs(cdqs_from_cds(leaky))
    assert report.worst_gap > 0.1 and report.witnesses["gap"] == (0, 0)
    leaky_psm = replace(psm, alice_msg=x_in_values,
                        decode=lambda m0, m1: psm.decode((m0[0], m0[1][:-1]), m1))
    _same_psqm_classes(leaky_psm)
    assert verify_psqm(psqm_from_psm(leaky_psm)).worst_gap > 0.1


def _two_subspaces(alice):
    """A linear bit-CDS over Z_3, one coordinate, Alice sending ``alice(x, s, r)``."""
    return CdsProtocol(AND1, (0, 1), ((0,), (1,), (2,)),
                       lambda x, s, r, ra=None: ((), (alice(x, s, r[0]),)),
                       lambda y, r, rb=None: ((), ()), lambda m0, x, m1, y: m0[1][0],
                       linear=LinearPart(3, (None,), 1, lambda nu, rho: (rho, None, None)))


def test_pad_routes_refuse_cosets_of_two_subspaces():
    # secret 0 sends 0, secret 1 the uniform coordinate: one input's two
    # histograms put one pair of tags on two subspaces
    cds = _two_subspaces(lambda x, s, r: (s * r) % 3)
    with pytest.raises(ValidationError, match="not a subspace"):
        cdqs_from_cds(cds).key_classes(0, 0)
    # x = 0 sends 0, x = 1 the uniform coordinate: two runs of one PSM do
    psm = PsmProtocol(AND1, cds.shared, lambda x, r, ra=None: ((), ((x * r[0]) % 3,)),
                      lambda y, r, rb=None: ((), ()), lambda m0, m1: 0, linear=cds.linear)
    with pytest.raises(ValidationError, match="not a subspace"):
        verify_psqm(psqm_from_psm(psm))


def test_pad_routes_refuse_uncompared_cosets_of_two_subspaces():
    # x = 0 sends 0, x = 1 the uniform coordinate, under one layout: the
    # route's one kernel refuses the second input, though no run of it is
    # compared with the first
    C = cdqs_from_cds(_two_subspaces(lambda x, s, r: (x * r) % 3))
    C.key_classes(0, 0)
    with pytest.raises(ValidationError, match="not a subspace"):
        C.key_classes(1, 0)
    # (0, 1) has f = 0 and (1, 1) f = 1, so verify_psqm compares no views
    base = _two_subspaces(lambda x, s, r: 0)
    psm = PsmProtocol(AND1, base.shared, lambda x, r, ra=None: ((), ((x * r[0]) % 3,)),
                      lambda y, r, rb=None: ((), ()), lambda m0, m1: 0,
                      domain=((0, 1), (1, 1)), linear=base.linear)
    with pytest.raises(ValidationError, match="not a subspace"):
        verify_psqm(psqm_from_psm(psm))
