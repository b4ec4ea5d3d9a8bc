"""The one classical sweep against a flat reference, on protocols with planted faults.

``verify_cds``, ``verify_psm`` and ``verify_dre`` all reach one sweep loop.
Here each report's ``eps_hat``, ``delta_pair`` and ``witnesses`` must equal a
reference written out below from ``message_hist`` loops alone, which
evaluate the forms at every randomness value: every input, every secret,
every pair that must look alike, worst figure and first witness kept by
hand. The protocols are small random 1+1 and 2+1 tables compiled through the
garden hose, a span program and the one-time table, and ``dre_qr`` for p = 5
and 7, each with a leak and a decode fault planted on inputs hypothesis
draws.

The sweep compares each group's distinct histograms only, and
``verify_psqm``, which runs the PSM sweep, each value's distinct views;
random message tables with many equal histograms, and ties among the
unequal ones, check both against references that compare every pair, and
two private qr p=31 protocols pin that nothing is compared at all.
"""

from __future__ import annotations

from fractions import Fraction

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cdslab.algebra import span_dnf
from cdslab.boolfn import BoolFn, literal_input
from cdslab.families import named_fn
from cdslab.ghsearch import gh_generic
from cdslab.padroutes import psqm_from_psm
from cdslab.bases import cds_from_gh, dre_qr, psm_generic_table
from cdslab.protocols import pair_space, psm_from_dre, space_size
from cdslab.spancds import cds_from_span
from cdslab.qverifiers import verify_psqm
from cdslab.verifiers import verify_cds, verify_dre, verify_psm
from message_reference import cds_of, message_hist, psm_of, replace


def _joint(P) -> int:
    return space_size(P.shared) * space_size(P.alice_private) * space_size(P.bob_private)


def _l1(a: dict, b: dict, joint: int) -> Fraction:
    return Fraction(sum(abs(a.get(m, 0) - b.get(m, 0)) for m in set(a) | set(b)), joint)


def _flat_cds(P) -> tuple:
    joint = _joint(P)
    eps, delta, witnesses = Fraction(0), Fraction(0), {}
    for (x, y) in P.domain:
        hists = {s: message_hist(P, x, y, s) for s in P.secrets}
        if P.f.eval(x, y) == 1:
            for s in P.secrets:
                fails = sum(c for (m0, m1), c in hists[s].items()
                            if P.decode(m0, x, m1, y) != s)
                if Fraction(fails, joint) > eps:
                    eps, witnesses["eps"] = Fraction(fails, joint), (x, y, s)
        else:
            for i, s in enumerate(P.secrets):
                for t in P.secrets[i + 1:]:
                    d = _l1(hists[s], hists[t], joint)
                    if d > delta:
                        delta, witnesses["delta"] = d, (x, y, s, t)
    return eps, delta, witnesses


def _flat_psm(P) -> tuple:
    joint = _joint(P)
    pairs = tuple(P.domain)
    value = {xy: P.f.eval(*xy) for xy in pairs}
    hists = {xy: message_hist(P, *xy) for xy in pairs}
    eps, delta, witnesses = Fraction(0), Fraction(0), {}
    for xy in pairs:
        fails = sum(c for (m0, m1), c in hists[xy].items() if P.decode(m0, m1) != value[xy])
        if Fraction(fails, joint) > eps:
            eps, witnesses["eps"] = Fraction(fails, joint), xy
    for i, a in enumerate(pairs):
        for b in pairs[i + 1:]:
            if value[a] == value[b]:
                d = _l1(hists[a], hists[b], joint)
                if d > delta:
                    delta, witnesses["delta"] = d, (a, b)
    return eps, delta, witnesses


def _same(report, want) -> None:
    assert isinstance(report.eps_hat, Fraction) and isinstance(report.delta_pair, Fraction)
    assert (report.eps_hat, report.delta_pair, report.witnesses) == want


@st.composite
def tables(draw):
    """A 1+1 or 2+1 table taking both values, with drawn leaky and faulty inputs."""
    n_x = draw(st.sampled_from([1, 2]))
    bits = draw(st.lists(st.integers(0, 1), min_size=2 << n_x, max_size=2 << n_x))
    assume(0 < sum(bits) < len(bits))
    f = BoolFn(n_x, 1, tuple(bits))
    inputs = list(f.inputs())
    leaky = draw(st.sets(st.sampled_from(range(1 << n_x))))
    bad = draw(st.sets(st.sampled_from(inputs)))
    return f, leaky, bad


def _first_coordinate_nonlinear(lin):
    """``lin`` with its first shared coordinate moved into the nus, which
    list it after the old nu: the messages and their order stay."""
    def lift(side, form):
        def at(z, *args):   # args: *secret, (nu, the coordinate)
            *secret, (nu, r) = args
            tag, b = form(z, *secret, nu)
            row = lin.maps(side, tag)[0]
            return tag, tuple((v + r * w) % lin.p for v, w in zip(b, row))
        return at

    shared, alice, bob = lin.coords
    return lin._replace(nus=pair_space(lin.nus, range(lin.p)), coords=(shared - 1, alice, bob),
                        alice_form=lift(0, lin.alice_form), bob_form=lift(1, lin.bob_form),
                        maps=lambda side, tag: lin.maps(side, tag)[1:])


def _leak(m, leaked, where: str):
    """The (tag, values) message ``m`` also sending ``leaked`` in its tag or values."""
    tag, values = m
    return ((tag, leaked), values) if where == "tag" else (tag, values + (leaked,))


def _unleak(m, where: str):
    """``m`` as it was before ``_leak`` with ``where``."""
    tag, values = m
    return (tag[0], values) if where == "tag" else (tag, values[:-1])


def _leaky_forms(lin, leaked, where: str):
    """``lin`` with Alice's form also sending ``leaked(x, *secret)``, constant
    in rho, in her tag or as one more value, and her maps matching it."""
    def alice_form(x, *args):
        return _leak(lin.alice_form(x, *args), leaked(x, *args[:-1]), where)

    def maps(side, tag):
        if side:
            return lin.maps(side, tag)
        if where == "tag":
            return lin.maps(0, tag[0])
        return tuple(row + (0,) for row in lin.maps(0, tag))

    return lin._replace(alice_form=alice_form, maps=maps)


@settings(max_examples=40, deadline=None)
@given(tables())
def test_gh_cds_matches_the_flat_sweep(drawn):
    # Alice leaks s AND pipe 1's bit as one more value, which that bit, made
    # a nu, keeps constant on each coset, and decoding flips with it, so
    # both figures take fractional values
    f, leaky, bad = drawn
    P = cds_from_gh(gh_generic(f), f)
    lin, decode = _first_coordinate_nonlinear(P.linear), P.decode

    def alice_form(x, s, nu):
        tag, b = lin.alice_form(x, s, nu)
        return tag, b + (s & nu[1] if x in leaky else 0,)

    P = replace(P, linear=lin._replace(
                    alice_form=alice_form,
                    maps=lambda side, tag: tuple(row + (0,) * (1 - side)
                                                 for row in lin.maps(side, tag))),
                decode=lambda m0, x, m1, y: decode((m0[0], m0[1][:-1]), x, m1, y)
                ^ (m0[1][-1] if (x, y) in bad else 0))
    _same(verify_cds(P), _flat_cds(P))


@settings(max_examples=40, deadline=None)
@given(tables(), st.sampled_from([2, 3]), st.sampled_from(["comm", "rand"]),
       st.sampled_from(["tag", "values"]))
def test_span_cds_on_the_coset_path_matches_the_flat_sweep(drawn, p, variant, where):
    # the planted secret is constant in the linear randomness, sent in the
    # tag or as a value, and the fault depends on the input only, so the
    # messages stay affine and decoding coset-invariant
    f, leaky, bad = drawn
    terms = [[(k + 1, bit) for k, bit in enumerate(literal_input(f, x, y))]
             for (x, y) in f.inputs() if f.eval(x, y)]
    # one span column per literal past a term's first: the flat reference
    # enumerates p^columns randomness values, so 2+1 tables keep two terms
    assume(f.n_x == 1 or len(terms) <= 2)
    P = cds_from_span(span_dnf(terms, f.n_x + f.n_y, p), f, variant)
    assert P.linear is not None
    decode = P.decode
    P = replace(P, linear=_leaky_forms(P.linear, lambda x, s: s if x in leaky else 0, where),
                decode=lambda m0, x, m1, y: None if (x, y) in bad
                else decode(_unleak(m0, where), x, m1, y))
    _same(verify_cds(P), _flat_cds(P))


@settings(max_examples=40, deadline=None)
@given(tables())
def test_one_time_table_psm_matches_the_flat_sweep(drawn):
    # Alice's tag also holds x on the leaky inputs; decoding flips with the
    # first masked cell when the sent x is faulty
    f, leaky, bad = drawn
    P = psm_generic_table(f)
    faulty = {x for (x, _) in bad}
    decode = P.decode
    P = replace(P, linear=_leaky_forms(P.linear, lambda x: x if x in leaky else -1, "tag"),
                decode=lambda m0, m1: decode(_unleak(m0, "tag"), m1)
                ^ (m0[0][0][0] if m0[0][1] in faulty else 0))
    _same(verify_psm(P), _flat_psm(P))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([5, 7]), st.sampled_from(["tag", "values"]), st.data())
def test_qr_dre_and_psm_match_the_flat_sweep(p, where, data):
    # Alice's encoding also carries x on the leaky inputs, in its tag or as
    # a value, constant in the linear randomness; decoding drops it and
    # flips the residuosity of the faulty ones
    D = dre_qr(named_fn("qr", p=p))
    xs = sorted({x for (x, _) in D.domain})
    leaky = data.draw(st.sets(st.sampled_from(xs)))
    faulty = data.draw(st.sets(st.sampled_from(xs)))
    decode = D.decode

    def sent(mx):
        return mx[0][1] if where == "tag" else mx[1][-1]

    # the other inputs send p - 1, which no x of Alice's equals
    D = replace(D, linear=_leaky_forms(D.linear, lambda x: x if x in leaky else p - 1, where),
                decode=lambda mx, my: decode(_unleak(mx, where), my) ^ (sent(mx) in faulty))
    want = _flat_psm(psm_from_dre(D))
    _same(verify_dre(D), want)
    _same(verify_psm(psm_from_dre(D)), want)


# -- distinct views: each group's distinct histograms or views only -----------


@st.composite
def message_tables(draw):
    """A 1+1 to 2+2 table, and per-input message tables over a few shared
    values from a 3-letter alphabet: of up to 16 inputs, many histograms of
    a group are equal, some are not, and distances tie."""
    n_x, n_y = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    f = BoolFn(n_x, n_y, tuple(draw(st.lists(st.integers(0, 1), min_size=1 << (n_x + n_y),
                                             max_size=1 << (n_x + n_y)))))
    k = draw(st.integers(1, 4))
    letter = st.integers(0, 2)
    alice = {(x, s): draw(st.lists(letter, min_size=k, max_size=k))
             for x in range(1 << f.n_x) for s in (0, 1)}
    bob = {y: draw(st.lists(letter, min_size=k, max_size=k)) for y in range(1 << f.n_y)}
    return f, k, alice, bob


@settings(max_examples=60, deadline=None)
@given(message_tables())
def test_random_cds_matches_the_all_pairs_sweep(drawn):
    f, k, alice, bob = drawn
    P = cds_of(f, tuple(range(k)), lambda x, s, r: alice[(x, s)][r], lambda y, r: bob[y][r],
               lambda m0, x, m1, y: (m0 + m1) % 2)
    _same(verify_cds(P), _flat_cds(P))


def _tables(f, alice, bob):
    """``message_tables``' draw for one message table per party, Alice's
    the same under both secrets."""
    return (f, len(bob[0]), {(x, s): row for x, row in enumerate(alice) for s in (0, 1)},
            dict(enumerate(bob)))


# the messages reveal x and y outright, so xor's equal-value inputs (0, 0)
# and (1, 1) have disjoint views
_LEAKY = _tables(named_fn("xor", n=1), ([0], [1]), ([0], [1]))
# two pairs of views at the worst distance, 1: with the weights summed as
# floats the first pair is 1 - 2^-53 apart, and a float sweep names the second
_TIED = _tables(BoolFn(1, 1, (1, 1, 0, 0)), ([2, 0, 2], [0, 1, 1]), ([1, 1, 1], [2, 0, 0]))


@settings(max_examples=60, deadline=None)
@given(message_tables())
@example(_LEAKY)
@example(_TIED)
def test_random_psm_and_psqm_match_the_all_pairs_sweep(drawn):
    # the PSQM's figures are the PSM's, exactly: its view gap, a trace
    # distance of distributions, is half their L1 distance
    f, k, alice, bob = drawn
    P = psm_of(f, tuple(range(k)), lambda x, r: alice[(x, 0)][r], lambda y, r: bob[y][r],
               lambda m0, m1: (m0 * m1) % 2)
    eps, delta, witnesses = want = _flat_psm(P)
    _same(verify_psm(P), want)
    report = verify_psqm(psqm_from_psm(P))
    assert (report.worst_infidelity, report.worst_gap) == (eps, delta / 2)
    assert report.witnesses == {name: witnesses[k] for name, k in (("decode", "eps"),
                                                                    ("view", "delta"))
                                if k in witnesses}


def _calls(monkeypatch, module, name: str) -> list:
    """A list that grows by one at each call of ``module.name``."""
    calls, real = [], getattr(module, name)

    def counted(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_a_private_dre_compares_no_histograms(monkeypatch):
    # qr p=31: 15 residues and 15 non-residues, each value's histograms all
    # equal, so no pair is compared (all pairs would be 2 * C(15, 2) = 210)
    from cdslab import verifiers

    calls = _calls(monkeypatch, verifiers, "_l1")
    assert verify_dre(dre_qr(named_fn("qr", p=31))).perfect
    assert calls == []


def test_a_private_psqm_compares_no_views(monkeypatch):
    from cdslab import verifiers

    calls = _calls(monkeypatch, verifiers, "_l1")
    report = verify_psqm(psqm_from_psm(psm_from_dre(dre_qr(named_fn("qr", p=31)))))
    assert report.perfect and calls == []
