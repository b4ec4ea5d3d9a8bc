"""Coset histograms against the enumerating message sweep.

``coset_hist`` counts the messages a protocol's ``LinearPart`` states one
coset at a time. Every report it feeds must equal the sweep of the same
protocol restated message by message (``message_reference.enumerated``), as
exact ``Fraction``s, witnesses and alphabets included; planted faults must
still be caught by coset.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdslab import protocols, verifiers
from cdslab.algebra import SpanProgram, sp_eval, span_and1, span_eq1, span_or1
from cdslab.boolfn import BoolFn, literal_input
from cdslab.errors import BudgetError, ValidationError, budget
from cdslab.families import named_fn
from cdslab.bases import dre_qr
from cdslab.protocols import (CdsProtocol, LinearPart, PsmProtocol, cds_from_psm, coset_hist,
                              psm_from_dre)
from cdslab.spancds import cds_from_span
from cdslab.toolkit import span_threshold_2of3
from cdslab.verifiers import verify_cds, verify_dre, verify_psm
from message_reference import enumerated, message_hist, replace

GOLDEN = Path(__file__).parent / "golden"
AND1 = named_fn("and", n=1)
MAJ = BoolFn(2, 1, tuple(int(bin((x << 1) | y).count("1") >= 2)
                         for x in range(4) for y in range(2)), name="maj3")


def _expand(hist: dict, p: int) -> dict:
    """The message histogram a coset histogram stands for, as Fractions."""
    out = {}
    for c, count in hist.items():
        (tag0, v0), (tag1, v1) = c.m0, c.m1
        for coeffs in product(range(p), repeat=len(c.basis)):
            vec = tuple((v + sum(a * row[i] for a, row in zip(coeffs, c.basis))) % p
                        for i, v in enumerate(v0 + v1))
            m = ((tag0, vec[:len(v0)]), (tag1, vec[len(v0):]))
            out[m] = out.get(m, 0) + Fraction(count, p ** len(c.basis))
    return out


def _leak(m, leaked, where: str):
    """The (tag, values) message ``m`` also sending ``leaked`` in its tag or values."""
    tag, values = m
    return ((tag, leaked), values) if where == "tag" else (tag, values + (leaked,))


def _unleak(m, where: str):
    """``m`` as it was before ``_leak`` with ``where``."""
    tag, values = m
    return (tag[0], values) if where == "tag" else (tag, values[:-1])


def _leaky_forms(lin, leaked, where: str):
    """``lin`` with Alice's form also sending ``leaked(x, *secret, nu)``, constant
    in rho, in her tag or as one more value, and her maps matching it."""
    def alice_form(x, *args):
        return _leak(lin.alice_form(x, *args), leaked(x, *args), where)

    def maps(side, tag):
        if side:
            return lin.maps(side, tag)
        if where == "tag":
            return lin.maps(0, tag[0])
        return tuple(row + (0,) for row in lin.maps(0, tag))

    return lin._replace(alice_form=alice_form, maps=maps)


def _same_cds(P) -> None:
    _same_cds_as(P, verify_cds(enumerated(P)))


def _same_cds_as(P, want) -> None:
    """P's coset report equals ``want``, its message sweep, Fractions included."""
    got = verify_cds(P)
    assert isinstance(got.eps_hat, Fraction) and isinstance(got.delta_pair, Fraction)
    assert (got.eps_hat, got.delta_pair) == (want.eps_hat, want.delta_pair)
    assert got.to_jsonable() == want.to_jsonable()
    assert got.witnesses == want.witnesses


# -- the reference ---------------------------------------------------------------


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_qr_dre_and_psm_match_the_message_sweep(p):
    D = dre_qr(named_fn("qr", p=p))
    P = enumerated(psm_from_dre(D))
    eps, delta, joint, witnesses = verifiers._value_sweep(P, "ref")
    want = (Fraction(eps, joint), Fraction(delta, joint), witnesses)
    dre, psm = verify_dre(D), verify_psm(psm_from_dre(D))
    for report in (dre, psm):
        assert (report.eps_hat, report.delta_pair, report.witnesses) == want
        assert isinstance(report.eps_hat, Fraction)
        assert isinstance(report.delta_pair, Fraction)
    assert dre.resources["randomness_states"] == (p - 1) * p ** (D.f.params["n_bits"] - 1)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_qr_psm_cds_matches_the_message_sweep(p):
    P = cds_from_psm(psm_from_dre(dre_qr(named_fn("qr", p=p))))
    _same_cds_as(P, verify_cds(enumerated(P)))


@pytest.mark.parametrize("p", [5, 7])
def test_qr_cosets_expand_to_the_message_histogram(p):
    D = dre_qr(named_fn("qr", p=p))
    P = psm_from_dre(D)
    for (x, y) in P.domain:
        hist = coset_hist(P, x, y)
        assert len(hist) == (p - 1) // 2   # one coset per square r^2
        assert _expand(hist, p) == message_hist(P, x, y)


def _golden_span_cases():
    for path in sorted(GOLDEN.glob("*.desc.json")):
        desc = json.loads(path.read_text())
        if desc["chain"][:2] == ["span", "cds"]:
            yield path.name, desc


@pytest.mark.parametrize("name,desc", list(_golden_span_cases()))
def test_span_goldens_match_the_message_sweep(name, desc):
    program = SpanProgram.from_jsonable(desc["artifacts"]["span_program"])
    f = BoolFn.from_jsonable(desc["fn"])
    P = cds_from_span(program, f, desc["options"]["variant"])
    got = verify_cds(P)
    report = json.loads((GOLDEN / name.replace(".desc.", ".report.")).read_text())
    assert got.to_jsonable() == report["report"]


def test_golden_span_case_exists():
    assert [name for name, _ in _golden_span_cases()] == ["span_cds_eq_rand.desc.json"]


@pytest.mark.parametrize("variant", ["comm", "rand"])
def test_named_span_programs_match_the_message_sweep(variant):
    cases = [(span_and1, AND1), (span_or1, named_fn("or", n=1)),
             (span_eq1, named_fn("eq", n=1)), (span_threshold_2of3, MAJ)]
    for p in (2, 3, 5):
        for build, f in cases:
            _same_cds(cds_from_span(build(p), f, variant))


@st.composite
def span_programs(draw):
    """A random span program over Z_2, Z_3 or Z_5 with the function it computes."""
    p = draw(st.sampled_from([2, 3, 5]))
    n_x = draw(st.sampled_from([1, 2]))
    e = draw(st.integers(1, 3))
    d = draw(st.integers(1, 4 if p < 5 else 3))   # at most p^(d+e-1) <= 3125 coins
    field = st.integers(0, p - 1)
    matrix = tuple(tuple(draw(field) for _ in range(e)) for _ in range(d))
    labels = tuple((draw(st.integers(1, n_x + 1)), draw(st.integers(0, 1)))
                   for _ in range(d))
    target = tuple(draw(field) for _ in range(e))
    if not any(target):
        target = (1,) + target[1:]
    program = SpanProgram(matrix, labels, target, p, n_x + 1)
    shape = BoolFn(n_x, 1, (0,) * (2 << n_x))
    table = [sp_eval(program, literal_input(shape, x, y)) for (x, y) in shape.inputs()]
    return program, BoolFn(n_x, 1, tuple(table))


@settings(max_examples=40, deadline=None)
@given(span_programs(), st.sampled_from(["comm", "rand"]))
def test_random_span_programs_match_the_message_sweep(drawn, variant):
    program, f = drawn
    P = cds_from_span(program, f, variant)
    _same_cds(P)
    for (x, y) in f.inputs():
        for s in P.secrets:
            assert _expand(coset_hist(P, x, y, s), program.p) == message_hist(P, x, y, s)


# -- planted faults ------------------------------------------------------------------


def test_declared_dre_leaking_x_is_caught():
    D = dre_qr(named_fn("qr", p=5))
    for where in ("tag", "values"):
        leaky = replace(D, linear=_leaky_forms(D.linear, lambda x, r: x, where),
                        decode=lambda mx, my: D.decode(_unleak(mx, where), my))
        report = verify_dre(leaky)
        assert report.eps_hat == 0
        assert report.delta_pair == 2
        assert report.witnesses["delta"] == ((1, 0), (0, 2))  # a = 1 and a = 4
        assert report.resources["same_class_histograms_equal"] is False


@pytest.mark.parametrize("variant", ["comm", "rand"])
def test_declared_span_cds_ignoring_the_secret_is_caught(variant):
    P = cds_from_span(span_and1(3), AND1, variant)
    lin = P.linear
    blind = replace(P, linear=lin._replace(
        alice_form=lambda x, s, nu: lin.alice_form(x, 0, nu)))
    report = verify_cds(blind)
    assert report.eps_hat == 1              # secret 1 always decodes as 0
    assert report.witnesses["eps"] == (1, 1, 1)
    assert report.delta_pair == 0


def test_declared_psm_cds_sending_the_secret_is_caught():
    P = cds_from_psm(psm_from_dre(dre_qr(named_fn("qr", p=5))))
    lin = P.linear

    def secret_in_tag(x, s, nu):
        (psm_tag, _), values = lin.alice_form(x, s, nu)
        return (psm_tag, s), values

    # in the tag, in place of s XOR s': the referee decodes s XOR s', right
    # half the time, and reads s itself
    in_tag = replace(P, linear=lin._replace(alice_form=secret_in_tag))
    # after the values, which decoding drops: decoding stays right
    in_values = replace(P, linear=_leaky_forms(lin, lambda x, s, nu: s, "values"),
                        decode=lambda m0, x, m1, y: P.decode(_unleak(m0, "values"), x, m1, y))
    wants = [(clear, verify_cds(enumerated(clear))) for clear in (in_tag, in_values)]
    assert [(w.eps_hat, w.delta_pair) for _, w in wants] == [(Fraction(1, 2), 2), (0, 2)]
    for clear, want in wants:
        _same_cds_as(clear, want)


def _scaled_lin(alice_form, maps):
    """A LinearPart over Z_3 with one shared coordinate, Bob sending nothing;
    ``maps(tag)`` is Alice's."""
    return LinearPart(3, (None,), (1, 0, 0), alice_form, lambda y, nu: ((), ()),
                      lambda side, tag: ((),) if side else maps(tag))


def _scaled_cds(alice_form, maps):
    """1-bit CDS of and1 stated by ``_scaled_lin``; the referee reads Alice's
    tag, one value on each coset, as a declared decoder must give."""
    return CdsProtocol(AND1, (0, 1), decode=lambda m0, x, m1, y: m0[0],
                       linear=_scaled_lin(alice_form, maps))


def _by_tag(tag):
    """Alice's map when her one value is the coordinate times her tag."""
    return ((tag,),)


def test_compared_cosets_of_two_subspaces_are_refused():
    # secret 0 sends 0, secret 1 the uniform coordinate, under one tag: no
    # map states that, and a record takes no space or callback beside its forms
    lin = _scaled_lin(lambda x, s, nu: ((), (0,)), _by_tag)
    for given in ({"shared": ((0,), (1,), (2,))},
                  {"alice_msg": lambda x, s, r, ra=None: ((), ((s * r[0]) % 3,))}):
        with pytest.raises(TypeError):
            CdsProtocol(AND1, (0, 1), decode=lambda m0, x, m1, y: 0, linear=lin, **given)
    # with the secret as Alice's tag each secret has its own map, the tag
    # tells the secrets apart, and the cosets give the message sweep's figures
    P = _scaled_cds(lambda x, s, nu: (s, (0,)), _by_tag)
    assert verify_cds(enumerated(P)).delta_pair == 2
    _same_cds(P)
    # the same between the equal-value inputs (0, 0) and (1, 0) of a PSM
    Q = PsmProtocol(AND1, decode=lambda m0, m1: m0[0],
                    linear=_scaled_lin(lambda x, nu: (x, (0,)), _by_tag))
    want = verify_psm(enumerated(Q))
    assert want.delta_pair == 2
    assert verify_psm(Q).to_jsonable() == want.to_jsonable()
    with pytest.raises(TypeError):
        replace(Q, alice_msg=lambda x, r, ra=None: ((), ((x * r[0]) % 3,)))


def test_uncompared_cosets_of_two_subspaces_are_refused():
    # (0, 1) sends 0 and (1, 1) the uniform coordinate: f tells them apart,
    # so no distance compares them; with x as Alice's tag the coset sweep
    # is the message sweep, and no record takes the same messages as callbacks
    Q = PsmProtocol(AND1, decode=lambda m0, m1: m0[0], domain=((0, 1), (1, 1)),
                    linear=_scaled_lin(lambda x, nu: (x, (0,)), _by_tag))
    want = verify_psm(enumerated(Q))
    assert want.perfect
    assert verify_psm(Q).to_jsonable() == want.to_jsonable()
    with pytest.raises(TypeError):
        replace(Q, alice_msg=lambda x, r, ra=None: ((), ((x * r[0]) % 3,)))


def test_overlapping_alphabet_cosets_are_refused():
    # x = 0 sends 0, x = 1 the uniform coordinate: under the one tag s
    # Alice's messages would overlap across inputs, which no map can state;
    # with x in her tag her alphabet is the message sweep's, 2 + 2 * 3
    P = _scaled_cds(lambda x, s, nu: ((s, x), (0,)), lambda tag: _by_tag(tag[1]))
    assert verify_cds(enumerated(P)).resources["alice_message_alphabet"] == 8
    _same_cds(P)
    # Bob's tag y sets the inputs' layouts apart, and Alice's alphabet stays
    Q = replace(P, linear=P.linear._replace(bob_form=lambda y, nu: (y, ())),
                domain=((0, 0), (1, 1)))
    assert verify_cds(Q).resources["alice_message_alphabet"] == 8
    _same_cds(Q)


def test_declaration_must_cover_the_randomness():
    # the spaces are made from the declaration, so they cover it exactly,
    # and a record takes no space of its own beside it
    P = _scaled_cds(lambda x, s, nu: (s, (0,)), _by_tag)
    assert list(P.shared) == [(None, (0,)), (None, (1,)), (None, (2,))]
    assert list(P.alice_private) == list(P.bob_private) == [()]
    with pytest.raises(TypeError):
        CdsProtocol(AND1, (0, 1), P.linear, P.decode, shared=((0,), (1,)))


def test_declared_messages_must_keep_their_tags_and_value_counts():
    # a map must be as wide as its party's values, once per layout
    for alice_form, maps in ((lambda x, s, nu: (s, (0,)), lambda tag: ((),)),
                             (lambda x, s, nu: (s, (0, 0)), _by_tag),
                             (lambda x, s, nu: (s, (0,) * (1 + x)), _by_tag)):
        with pytest.raises(ValidationError, match="not as wide"):
            verify_cds(_scaled_cds(alice_form, maps))
    # Bob's too
    P = _scaled_cds(lambda x, s, nu: (s, (0,)), _by_tag)
    with pytest.raises(ValidationError, match="not as wide"):
        verify_cds(replace(P, linear=P.linear._replace(bob_form=lambda y, nu: ((), (0,)))))


# -- budget and the lazy space ------------------------------------------------------


def test_declared_budget_counts_evaluations_before_any_call():
    # 6 inputs x 6 values of r = 36 pairs, each of 3 coordinates, (y1,) and
    # (y2, y3): 108; then the one layout's maps, 2 rows of 3 coordinates: 114
    D = dre_qr(named_fn("qr", p=7))
    lin, calls = D.linear, []
    counted = replace(D, linear=lin._replace(
        alice_form=lambda x, r: calls.append(x) or lin.alice_form(x, r)))
    with pytest.raises(BudgetError, match="verify_dre message coordinates: 36 exceed "
                       "budget 35"), budget(35):
        verify_dre(counted)
    assert calls == []
    # one form per input at the first r sizes the pairs' values
    with pytest.raises(BudgetError, match="verify_dre message coordinates: 108 exceed "
                       "budget 107"), budget(107):
        verify_dre(counted)
    assert len(calls) == 6
    # the maps of the layouts the first r meets are charged before any sweep
    with pytest.raises(BudgetError, match="verify_dre message coordinates: 114 exceed "
                       "budget 113"), budget(113):
        verify_dre(counted)
    assert len(calls) == 6 + 6
    with budget(114):
        assert verify_dre(counted).perfect
    assert len(calls) == 12 + 6 + 36


def test_qr_shared_space_is_lazy_and_in_the_generated_order():
    # (r, free shares), r-major, the shares in product order; the last
    # share, their negated sum, is no part of the randomness
    for p in (5, 7):
        D = dre_qr(named_fn("qr", p=p))
        n = D.f.params["n_bits"]
        want = tuple((r, free) for r in range(1, p)
                     for free in product(range(p), repeat=n - 1))
        assert tuple(D.shared) == want
    big = dre_qr(named_fn("qr", p=17))
    assert isinstance(big.shared, protocols.LazySpace)
    assert len(big.shared) == 1_336_336
    assert next(iter(big.shared)) == (1, (0,) * 4)
