"""Transcript classes against a flat reference with one branch per transcript.

The reference builds each pad-and-disclose run the way the verifiers saw it
before classes: the distribution of a transcript, one run transcript per key
bit, is the per-key product of the two runs' distributions, and every pair
of run transcripts is its own branch. Class runs must give the same figures
within 1e-12 and the same branch counts as integers. Both run on Pauli
frames with integer weights; ``tests/test_pauli_frames.py`` checks the
frames against dense statevectors.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdslab import frames, padroutes, protocols
from cdslab.algebra import span_and1, span_dnf, span_eq1
from cdslab.boolfn import BoolFn, literal_input
from cdslab.clicore import _span_for
from cdslab.families import named_fn
from cdslab.frames import KEYS
from cdslab.ghsearch import gh_generic, gh_search
from cdslab.padroutes import (TranscriptClass, cdqs_from_cds, cdqs_from_psqm,
                              frouting_from_cdqs, psqm_from_psm, transcript_classes)
from cdslab.bases import cds_from_gh, dre_qr, psm_generic_table
from cdslab.protocols import (CdsProtocol, LinearPart, PsmProtocol, cds_from_psm, coset_hist,
                              hiding_input, message_count, psm_from_dre)
from cdslab.spancds import cds_from_span
from cdslab.qverifiers import verify_cdqs, verify_frouting, verify_psqm
from cdslab.toolkit import security_state_sweep
from message_reference import enumerated, message_hist, replace

TOL = 1e-12
AND1 = named_fn("and", n=1)
XOR1 = named_fn("xor", n=1)
EQ1 = named_fn("eq", n=1)


# -- the flat reference ----------------------------------------------------------


def _flat_classes(bit_hists):
    """One singleton class per pair of run transcripts, with its integer weight
    under each key."""
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
    return _flat_classes(lambda x, y: {s: message_hist(P, x, y, s) for s in P.secrets})


def _with_flat(classed, flat):
    """``classed`` with the flat key classes ``flat`` in place of its own."""
    return replace(classed, run=padroutes._pad_run(flat), key_classes=flat)


def _class_and_flat_cdqs(cds):
    classed = cdqs_from_cds(cds)
    return classed, _with_flat(classed, _flat_message_classes(cds))


def _flat_psqm_classes(psm, x_star, y_star):
    """Flat classes of the psqm route: key bit 0 runs the hiding input. Its
    runs sweep ``psm``, an ``enumerated`` PSM, whose one-point cosets each
    hold one message pair (m0, m1) as their tags: that pair is the transcript."""
    def hist(x, y):
        return {(m[0][0], m[1][0]): c for m, c in coset_hist(psm, x, y).items()}

    return _flat_classes(lambda x, y: {0: hist(x_star, y_star), 1: hist(x, y)})


def _class_and_flat_psqm(psm):
    """The psqm route of ``psm``, and its flat reference, whose runs enumerate
    the messages of ``psm`` one at a time."""
    classed = cdqs_from_psqm(psqm_from_psm(psm))
    x_star, y_star = hiding_input(psm)
    flat = _flat_psqm_classes(enumerated(psm), x_star, y_star)
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
    _same_report(verify_cdqs(classed), verify_cdqs(flat))
    if sweep:
        _same_sweep(security_state_sweep(classed, seeds=range(2)),
                    security_state_sweep(flat, seeds=range(2)))
    if routing:
        got, want = frouting_from_cdqs(classed), frouting_from_cdqs(flat)
        _same_report(verify_frouting(got), verify_frouting(want))
        # the left side's figure on every input, revealing ones included
        for (x, y) in classed.domain:
            a = frames.left_fidelity(got.key_classes(x, y), got.denom)
            b = frames.left_fidelity(want.key_classes(x, y), want.denom)
            assert abs(a - b) <= TOL, (x, y)


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
    hists = {0: {"a": 2, "b": 4, "c": 2, "d": 1},
             1: {"a": 4, "b": 8, "c": 6, "e": 14}}
    classes = transcript_classes(hists, decode=lambda m: 0)
    assert classes == [TranscriptClass("a", {0: 6, 1: 12}, 2),
                       TranscriptClass("c", {0: 2, 1: 6}, 1),
                       TranscriptClass("d", {0: 1}, 1),
                       TranscriptClass("e", {1: 14}, 1)]
    # equal weights that decode differently never share a class
    split = transcript_classes({0: {"a": 1, "b": 1}}, decode=lambda m: m)
    assert [c.rep for c in split] == ["a", "b"]


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
def _weight_hists(draw):
    """{key: {transcript: weight}} whose transcripts repeat a few base vectors,
    zeros included, scaled by small integers."""
    n_keys = draw(st.integers(1, 4))
    bases = draw(st.lists(st.lists(st.integers(0, 6), min_size=n_keys, max_size=n_keys)
                          .filter(any), min_size=1, max_size=3))
    rows = draw(st.lists(st.tuples(st.sampled_from(bases), st.integers(1, 5)),
                         min_size=1, max_size=12))
    hists = {k: {} for k in range(n_keys)}
    for t, (base, scale) in enumerate(rows):
        for k, c in enumerate(base):
            if c or draw(st.booleans()):   # a zero weight listed or left out
                hists[k][t] = c * scale
    return hists


@settings(max_examples=60, deadline=None)
@given(data=st.data(), parity=st.booleans())
def test_transcript_classes_match_fraction_reference(data, parity):
    hists = data.draw(_weight_hists())
    decode = (lambda t: t % 2) if parity else (lambda t: 0)
    got = transcript_classes(hists, decode)
    assert got == _fraction_classes(hists, decode)
    assert sum(c.count for c in got) == len({t for h in hists.values() for t in h})


@settings(max_examples=30, deadline=None)
@given(counts=st.lists(st.integers(1, 10 ** 6), min_size=2, max_size=4), data=st.data())
def test_transcript_classes_split_nearly_proportional_weights(counts, data):
    # transcript 1 is transcript 0 with one weight moved by one
    k = data.draw(st.integers(0, len(counts) - 1))
    hists = {i: {0: c, 1: c + (i == k)} for i, c in enumerate(counts)}
    got = transcript_classes(hists, decode=lambda t: 0)
    assert got == _fraction_classes(hists, decode=lambda t: 0)
    assert [c.rep for c in got] == [0, 1]


def test_class_runs_compress_and_keep_counts():
    C = cdqs_from_cds(cds_from_psm(psm_from_dre(dre_qr(named_fn("qr", p=5)))))
    for (x, y) in C.domain:
        branches = C.run(x, y, frames.CARRIER)
        assert len(branches) <= 16
        assert sum(b.count for b in branches) == 40000
        assert sum(b.weight for b in branches) == C.denom


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
    # index1's flat cds route has up to 768^2 joint transcripts per key; its
    # psqm route is small, though its flat left side and sweep take seconds
    _check_psqm_route(psm_generic_table(named_fn("index", n_x=1)), routing=False,
                      sweep=False)


def test_qr5_routes_match_flat():
    # 40,000 flat transcripts per input make the flat left side and sweep take
    # tens of seconds, so verify_cdqs only
    psm = psm_from_dre(dre_qr(named_fn("qr", p=5)))
    _check_cds_route(cds_from_psm(psm), routing=False, sweep=False)
    _check_psqm_route(psm, routing=False, sweep=False)


@settings(max_examples=8, deadline=None)
@given(n_x=st.sampled_from([1, 2]), data=st.data())
def test_random_table_routes_match_flat(n_x, data):
    table = data.draw(st.lists(st.integers(0, 1), min_size=2 << n_x,
                               max_size=2 << n_x))
    f = BoolFn(n_x, 1, tuple(table))
    psm = psm_generic_table(f)
    _check_cds_route(cds_from_psm(psm), sweep=False)
    if any(f.eval(x, y) == 0 for (x, y) in f.inputs()):
        _check_psqm_route(psm, sweep=False)


def _leaky_cds(f):
    """gh CDS plus one more shared bit b, the last coordinate, that leaks the
    secret on input (0, 0) only: Alice also sends s ^ b when x = 0 and Bob b
    when y = 0, else 0, each tag saying which."""
    base = cds_from_gh(gh_search(f, 3), f)
    lin = base.linear

    def alice_form(x, s, nu):
        tag, b = lin.alice_form(x, s, nu)
        return (tag, x == 0), b + (s if x == 0 else 0,)

    def bob_form(y, nu):
        tag, b = lin.bob_form(y, nu)
        return (tag, y == 0), b + (0,)

    def maps(side, tag):
        inner, leaks = tag
        return (tuple(row + (0,) for row in lin.maps(side, inner)) +
                ((0,) * len(inner) + (int(leaks),),))

    def decode(m0, x, m1, y):
        (tag0, values0), (tag1, values1) = m0, m1
        return base.decode((tag0[0], values0[:-1]), x, (tag1[0], values1[:-1]), y)

    return CdsProtocol(f, (0, 1), lin._replace(
        coords=(lin.coords[0] + 1, 0, 0), alice_form=alice_form, bob_form=bob_form, maps=maps,
        sent=lambda side, tag: (lin.sent(side, tag[0]), tag[1])), decode)


def test_planted_leak_gap_matches_flat():
    classed, flat = _class_and_flat_cdqs(_leaky_cds(AND1))
    got, want = verify_cdqs(classed), verify_cdqs(flat)
    _same_report(got, want)
    assert got.worst_gap > 0.1
    assert got.witnesses["gap"] == (0, 0)
    for (x, y) in ((0, 1), (1, 0)):
        assert got.per_input[(x, y)]["gap"] <= TOL
    _same_sweep(security_state_sweep(classed, seeds=range(2)),
                security_state_sweep(flat, seeds=range(2)))


def _count_sweeps(monkeypatch) -> tuple:
    """(calls, kernels): from now on, the arguments of every histogram that a
    sweep kernel handed to ``padroutes`` computes, and for each kernel handed, the
    set of ``protocols`` histogram kernels its histograms called. ``padroutes``
    reads ``protocols._sweep_kernel`` at call time, so the spy sits there."""
    calls, kernels = [], []
    bind = protocols._sweep_kernel

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

    monkeypatch.setattr(protocols, "coset_hist", seen(protocols.coset_hist))
    monkeypatch.setattr(protocols, "_sweep_kernel", counted_kernel)
    return calls, kernels


def test_message_classes_swept_once_per_input_and_secret(monkeypatch):
    # the quantum verifiers ask for an input's classes once per swept qubit
    # state; each (x, y, secret) histogram must still be computed only once,
    # by the kernel the shared sweep picks, once charged
    calls, kernels = _count_sweeps(monkeypatch)
    cdqs = cdqs_from_cds(cds_from_psm(psm_from_dre(dre_qr(named_fn("qr", p=5)))))
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
    cdqs = cdqs_from_psqm(psqm_from_psm(psm_from_dre(dre_qr(named_fn("qr", p=7)))))
    verify_cdqs(cdqs)
    verify_frouting(frouting_from_cdqs(cdqs))
    inputs = tuple(cdqs.domain)
    assert kernels == [{coset_hist}] and len(inputs) == 6
    assert len(calls) == len(inputs) + 1
    assert calls.count(hiding_input(cdqs)) == 2


# -- coset classes against enumerated classes --------------------------------------


def _integer_classes(C, bit_of) -> tuple:
    """Pad route C's run denominator, and every input's key classes as sorted
    (decoded key, integer weights, count) triples; ``bit_of(x, y, t)`` decodes
    one run's transcript t, as the route's recovery does."""
    return C.denom, {(x, y): sorted((tuple(bit_of(x, y, t) for t in c.rep),
                                     tuple(sorted(c.weights.items())), c.count)
                                    for c in C.key_classes(x, y))
                     for (x, y) in C.domain}


def _cds_classes(cds) -> tuple:
    return _integer_classes(cdqs_from_cds(cds), lambda x, y, m: cds.decode(m[0], x, m[1], y))


def _psqm_classes(psm) -> tuple:
    Q = psqm_from_psm(psm)
    return _integer_classes(cdqs_from_psqm(Q), lambda x, y, t: Q.psm.decode(t[0], t[1]))


def _same_cds_classes(cds) -> None:
    joint = len(cds.shared) * len(cds.alice_private) * len(cds.bob_private)
    got = _cds_classes(cds)
    assert got == _cds_classes(enumerated(cds)) and got[0] == 4 * joint ** 2


def _same_psqm_classes(psm) -> None:
    got = _psqm_classes(psm)
    assert got == _psqm_classes(enumerated(psm)) and got[0] == 4 * len(psm.shared) ** 2


@settings(max_examples=12, deadline=None)
@given(p=st.sampled_from([2, 3]), variant=st.sampled_from(["comm", "rand"]),
       data=st.data())
def test_span_coset_classes_match_enumerated(p, variant, data):
    # random 2+1 tables; at most 3 ones over Z_2 and 2 over Z_3 keep the
    # enumerated sweep within 3^7 coins
    ones = data.draw(st.sets(st.integers(0, 7), min_size=1, max_size=3 if p == 2 else 2))
    f = BoolFn(2, 1, tuple(int(i in ones) for i in range(8)))
    _same_cds_classes(cds_from_span(_span_for(f, p), f, variant))


@pytest.mark.parametrize("p", [5, 7])
def test_qr_coset_classes_match_enumerated(p):
    psm = psm_from_dre(dre_qr(named_fn("qr", p=p)))
    _same_cds_classes(cds_from_psm(psm))
    _same_psqm_classes(psm)


def _secret_in_tag_cds():
    """and1's span CDS over Z_3 whose Alice adds her secret to her tag when
    x = 0, so (0, 0) leaks it."""
    cds = cds_from_span(span_and1(3), AND1, "comm")
    lin = cds.linear

    def secret_in_tag(x, s, nu):
        tag, values = lin.alice_form(x, s, nu)
        return (tag, s if x == 0 else 0), values

    return replace(cds, linear=lin._replace(
                       alice_form=secret_in_tag,
                       maps=lambda side, tag: lin.maps(side, tag if side else tag[0])),
                   decode=lambda m0, x, m1, y: cds.decode((m0[0][0], m0[1]), x, m1, y))


def _x_in_values_psm():
    """The qr5 PSM whose Alice adds x to her values, leaking it between
    equal-value inputs."""
    psm = psm_from_dre(dre_qr(named_fn("qr", p=5)))
    psm_lin = psm.linear

    def x_in_values(x, nu):
        tag, values = psm_lin.alice_form(x, nu)
        return tag, values + (x,)

    return replace(psm, linear=psm_lin._replace(
                       alice_form=x_in_values,
                       maps=lambda side, tag: tuple(row + (0,) * (1 - side)
                                                    for row in psm_lin.maps(side, tag))),
                   decode=lambda m0, m1: psm.decode((m0[0], m0[1][:-1]), m1))


def test_planted_leak_coset_classes_match_enumerated():
    leaky = _secret_in_tag_cds()
    _same_cds_classes(leaky)
    report = verify_cdqs(cdqs_from_cds(leaky))
    assert report.worst_gap > 0.1 and report.witnesses["gap"] == (0, 0)
    leaky_psm = _x_in_values_psm()
    _same_psqm_classes(leaky_psm)
    assert verify_psqm(psqm_from_psm(leaky_psm)).worst_gap > 0.1


def _by_tag(alice_form, decode):
    """A linear bit-CDS of and1 over Z_3, one coordinate, Bob sending nothing;
    Alice's one value is the coordinate times her tag's last entry."""
    return CdsProtocol(AND1, (0, 1), decode=decode, linear=LinearPart(
        3, (None,), (1, 0, 0), alice_form, lambda y, nu: ((), ()),
        lambda side, tag: ((),) if side else ((tag[-1],),)))


def test_pad_routes_refuse_cosets_of_two_subspaces():
    # secret 0 sends 0, secret 1 the uniform coordinate: one tag would need
    # two maps, which no LinearPart states, and no record takes the same
    # messages as callbacks; with the secret in the tag each secret keeps
    # its own map, and the key classes are the enumerated ones
    cds = _by_tag(lambda x, s, nu: ((s,), (0,)), lambda m0, x, m1, y: m0[0][0])
    with pytest.raises(TypeError):
        replace(cds, alice_msg=lambda x, s, r, ra=None: ((), ((s * r[0]) % 3,)))
    _same_cds_classes(cds)
    # x = 0 sends 0, x = 1 the uniform coordinate: two runs of one PSM
    psm = PsmProtocol(AND1, decode=lambda m0, m1: m0[0][0], linear=cds.linear._replace(
        alice_form=lambda x, nu: ((x,), (0,))))
    with pytest.raises(TypeError):
        replace(psm, alice_msg=lambda x, r, ra=None: ((), ((x * r[0]) % 3,)))
    _same_psqm_classes(psm)


def test_pad_routes_refuse_uncompared_cosets_of_two_subspaces():
    # x = 0 sends 0, x = 1 the uniform coordinate, which would be one layout
    # on two subspaces; stated with x in Alice's tag, the route's one kernel
    # keeps one map per tag across every input, as enumeration counts them
    cds = _by_tag(lambda x, s, nu: ((s, x), (0,)), lambda m0, x, m1, y: m0[0][0])
    _same_cds_classes(cds)
    # (0, 1) has f = 0 and (1, 1) f = 1, so verify_psqm compares no views
    psm = PsmProtocol(AND1, decode=lambda m0, m1: m0[0][0], domain=((0, 1), (1, 1)),
                      linear=cds.linear._replace(alice_form=lambda x, nu: ((x,), (0,))))
    with pytest.raises(TypeError):
        replace(psm, alice_msg=lambda x, r, ra=None: ((), ((x * r[0]) % 3,)))
    _same_psqm_classes(psm)
    assert verify_psqm(psqm_from_psm(psm)).worst_gap == 0
