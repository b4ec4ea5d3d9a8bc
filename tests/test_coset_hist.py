"""Coset histograms against the enumerating message sweep.

``coset_hist`` counts the messages of a protocol that declares a
``LinearPart`` one coset at a time. Every report it feeds must equal the
``message_hist`` sweep of the same protocol with the declaration removed, as
exact ``Fraction``s, witnesses and alphabets included; planted faults must
still be caught on the coset path.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdslab import protocols
from cdslab.algebra import (LsssScheme, SpanProgram, lsss_privacy_check, sp_eval,
                            span_and1, span_eq1, span_or1, span_threshold_2of3)
from cdslab.boolfn import BoolFn, from_table, literal_input, named_fn
from cdslab.errors import BudgetError, ValidationError
from cdslab.protocols import (DEFAULT_BUDGET, CdsProtocol, LinearPart, PsmProtocol,
                              cds_from_psm, cds_from_span, coset_hist, dre_qr,
                              message_hist, psm_from_dre, verify_cds, verify_dre,
                              verify_psm)

GOLDEN = Path(__file__).parent / "golden"
AND1 = named_fn("and", n=1)
MAJ = from_table(2, 1, tuple(int(bin((x << 1) | y).count("1") >= 2)
                             for x in range(4) for y in range(2)), name="maj3")


def replace(P, **changes):
    """Protocol P rebuilt through its constructor with ``changes`` to its fields."""
    return type(P)(**{**vars(P), **changes})


def _undeclared(P):
    """P without its ``LinearPart``: the verifiers sweep it message by message."""
    return replace(P, linear=None)


def _forbid_message_sweep(monkeypatch) -> None:
    """Fail any call of ``message_hist``, so a test sees the coset path only."""
    def forbidden(*args):
        raise AssertionError("declared protocol swept message by message")

    monkeypatch.setattr(protocols, "message_hist", forbidden)


@pytest.fixture
def no_message_sweep(monkeypatch):
    _forbid_message_sweep(monkeypatch)


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


def _same_cds(P) -> None:
    _same_cds_as(P, verify_cds(_undeclared(P)))


def _same_cds_as(P, want) -> None:
    """P's coset report equals ``want``, its message sweep, Fractions included."""
    got = verify_cds(P)
    assert isinstance(got.eps_hat, Fraction) and isinstance(got.delta_pair, Fraction)
    assert (got.eps_hat, got.delta_pair) == (want.eps_hat, want.delta_pair)
    assert got.to_jsonable() == want.to_jsonable()
    assert got.witnesses == want.witnesses


# -- the reference ---------------------------------------------------------------


@pytest.mark.parametrize("p", [5, 7, 11, 13])
def test_qr_dre_and_psm_match_the_message_sweep(p, monkeypatch):
    D = dre_qr(p)
    P = _undeclared(psm_from_dre(D))
    want = protocols._sweep(P, protocols._value_cases(P),
                            lambda m, x, y: P.decode(m[0], m[1]), DEFAULT_BUDGET, "ref")
    _forbid_message_sweep(monkeypatch)
    dre, psm = verify_dre(D), verify_psm(psm_from_dre(D))
    for report in (dre, psm):
        assert (report.eps_hat, report.delta_pair, report.witnesses) == want
        assert isinstance(report.eps_hat, Fraction)
        assert isinstance(report.delta_pair, Fraction)
    assert dre.resources["randomness_states"] == (p - 1) * p ** (D.f.params["n_bits"] - 1)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_qr_psm_cds_matches_the_message_sweep(p, monkeypatch):
    P = cds_from_psm(psm_from_dre(dre_qr(p)))
    want = verify_cds(_undeclared(P))
    _forbid_message_sweep(monkeypatch)
    _same_cds_as(P, want)


@pytest.mark.parametrize("p", [5, 7])
def test_qr_cosets_expand_to_the_message_histogram(p):
    D = dre_qr(p)
    P = psm_from_dre(D)
    for (x, y) in P.input_pairs():
        hist = coset_hist(P, x, y)
        assert len(hist) == (p - 1) // 2   # one coset per square r^2
        assert _expand(hist, p) == message_hist(P, x, y)


def _golden_span_cases():
    for path in sorted(GOLDEN.glob("*.desc.json")):
        desc = json.loads(path.read_text())
        if desc["chain"][:2] == ["span", "cds"]:
            yield path.name, desc


@pytest.mark.parametrize("name,desc", list(_golden_span_cases()))
def test_span_goldens_match_the_message_sweep(name, desc, no_message_sweep):
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
    shape = from_table(n_x, 1, (0,) * (2 << n_x))
    table = [sp_eval(program, literal_input(shape, x, y)) for (x, y) in shape.inputs()]
    return program, from_table(n_x, 1, table)


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


def test_declared_dre_leaking_x_is_caught(no_message_sweep):
    D = dre_qr(5)
    for where in ("tag", "values"):
        leaky = replace(D, enc_x=lambda x, r: _leak(D.enc_x(x, r), x, where),
                        decode=lambda mx, my: D.decode(_unleak(mx, where), my))
        report = verify_dre(leaky)
        assert report.eps_hat == 0
        assert report.delta_pair == 2
        assert report.witnesses["delta"] == ((1, 0), (0, 2))  # a = 1 and a = 4
        assert report.resources["same_class_histograms_equal"] is False


@pytest.mark.parametrize("variant", ["comm", "rand"])
def test_declared_span_cds_ignoring_the_secret_is_caught(variant, no_message_sweep):
    P = cds_from_span(span_and1(3), AND1, variant)
    blind = replace(P, alice_msg=lambda x, s, r, ra: P.alice_msg(x, 0, r, ra))
    report = verify_cds(blind)
    assert report.eps_hat == 1              # secret 1 always decodes as 0
    assert report.witnesses["eps"] == (1, 1, 1)
    assert report.delta_pair == 0


def test_declared_psm_cds_sending_the_secret_is_caught(monkeypatch):
    P = cds_from_psm(psm_from_dre(dre_qr(5)))

    def secret_in_tag(x, s, rr, ra=None):
        (psm_tag, _), values = P.alice_msg(x, s, rr, ra)
        return (psm_tag, s), values

    # in the tag, in place of s XOR s': the referee decodes s XOR s', right
    # half the time, and reads s itself
    in_tag = replace(P, alice_msg=secret_in_tag)
    # after the values, which decoding drops: decoding stays right
    in_values = replace(P, alice_msg=lambda x, s, rr, ra=None:
                        _leak(P.alice_msg(x, s, rr, ra), s, "values"),
                        decode=lambda m0, x, m1, y: P.decode(_unleak(m0, "values"), x, m1, y))
    wants = [(clear, verify_cds(_undeclared(clear))) for clear in (in_tag, in_values)]
    assert [(w.eps_hat, w.delta_pair) for _, w in wants] == [(Fraction(1, 2), 2), (0, 2)]
    _forbid_message_sweep(monkeypatch)
    for clear, want in wants:
        _same_cds_as(clear, want)


def _scaled_cds(alice):
    """1-bit CDS over Z_3 with one linear coordinate and Alice's message ``alice``."""
    return CdsProtocol(AND1, (0, 1), ((0,), (1,), (2,)), alice,
                       lambda y, r, rb=None: ((), ()), lambda m0, x, m1, y: m0[1][0],
                       linear=LinearPart(3, (None,), 1, lambda nu, rho: (rho, None, None)))


def test_compared_cosets_of_two_subspaces_are_refused():
    # secret 0 sends 0, secret 1 sends the uniform coordinate: the canonical
    # members coincide, so no figure may come from the coset keys
    P = _scaled_cds(lambda x, s, r, ra=None: ((), ((s * r[0]) % 3,)))
    assert verify_cds(_undeclared(P)).delta_pair == Fraction(4, 3)
    with pytest.raises(ValidationError, match="not a subspace"):
        verify_cds(P)
    # the same fault between the equal-value inputs (0, 0) and (1, 0) of a PSM
    Q = PsmProtocol(AND1, P.shared, lambda x, r, ra=None: ((), ((x * r[0]) % 3,)),
                    lambda y, r, rb=None: ((), ()), lambda m0, m1: 0, linear=P.linear)
    assert verify_psm(_undeclared(Q)).delta_pair == Fraction(4, 3)
    with pytest.raises(ValidationError, match="not a subspace"):
        verify_psm(Q)


def test_uncompared_cosets_of_two_subspaces_are_refused():
    # (0, 1) sends 0 and (1, 1) the uniform coordinate, under one layout: f
    # tells them apart, so no distance compares them, yet the sweep refuses
    P = _scaled_cds(lambda x, s, r, ra=None: ((), ()))
    Q = PsmProtocol(AND1, P.shared, lambda x, r, ra=None: ((), ((x * r[0]) % 3,)),
                    lambda y, r, rb=None: ((), ()), lambda m0, m1: int(m0[1] != (0,)),
                    domain=((0, 1), (1, 1)), linear=P.linear)
    assert verify_psm(_undeclared(Q)).delta_pair == 0
    with pytest.raises(ValidationError, match="not a subspace"):
        verify_psm(Q)


def test_overlapping_alphabet_cosets_are_refused():
    # x = 0 sends 0, x = 1 sends the uniform coordinate, both under the tag
    # s: Alice's messages overlap across inputs that are never compared, and
    # the sweep refuses their one layout's two subspaces before any alphabet
    P = _scaled_cds(lambda x, s, r, ra=None: (s, ((x * r[0]) % 3,)))
    assert verify_cds(_undeclared(P)).resources["alice_message_alphabet"] == 6
    with pytest.raises(ValidationError, match="not a subspace"):
        verify_cds(P)
    # Bob's tag y sets the two inputs' layouts apart, so the sweep passes
    # them, but Alice's tag s still meets two subspaces in her alphabet
    Q = replace(P, bob_msg=lambda y, r, rb=None: (y, ()), domain=((0, 0), (1, 1)))
    assert verify_cds(_undeclared(Q)).resources["alice_message_alphabet"] == 6
    with pytest.raises(ValidationError, match="two subspaces"):
        verify_cds(Q)


def test_declaration_must_cover_the_randomness():
    P = _scaled_cds(lambda x, s, r, ra=None: (s, (r[0],)))
    with pytest.raises(ValidationError):
        verify_cds(replace(P, shared=((0,), (1,))))


def test_declared_messages_must_keep_their_tags_and_value_counts():
    # the coordinate is sent only when it is nonzero: not affine in rho
    P = _scaled_cds(lambda x, s, r, ra=None: (s, (r[0],)) if r[0] else (s, ()))
    with pytest.raises(ValidationError, match="value counts move"):
        verify_cds(P)
    # the tag is the coordinate itself, so it moves with rho
    P = _scaled_cds(lambda x, s, r, ra=None: ((s, r[0]), ()))
    with pytest.raises(ValidationError, match="tags or value counts move"):
        verify_cds(P)
    # messages that are not (tag, values) pairs are refused, not read
    for alice in (lambda x, s, r, ra=None: (r[0], s),
                  lambda x, s, r, ra=None: (s, r[0], ()),
                  lambda x, s, r, ra=None: (s, [r[0]])):
        with pytest.raises(ValidationError, match=r"not a \(tag, values\) pair"):
            verify_cds(_scaled_cds(alice))


# -- budget and the lazy space ------------------------------------------------------


def test_declared_budget_counts_evaluations_before_any_call():
    # 6 inputs x 6 values of r x (2 + 1) points = 108 evaluations, each a
    # message pair of 3 coordinates: (y1,) and (y2, y3)
    D = dre_qr(7)
    calls = []
    counted = replace(D, enc_x=lambda x, r: calls.append(x) or D.enc_x(x, r))
    with pytest.raises(BudgetError,
                       match="verify_dre message coordinates: 108 exceed budget 107"):
        verify_dre(counted, budget=107)
    assert calls == []
    # one evaluation per input sizes the pairs before the sweep is charged
    with pytest.raises(BudgetError,
                       match="verify_dre message coordinates: 324 exceed budget 323"):
        verify_dre(counted, budget=323)
    assert len(calls) == 6
    assert verify_dre(counted, budget=324).perfect
    assert len(calls) == 6 + 6 + 108


def test_qr_shared_space_is_lazy_and_in_the_old_order():
    for p in (5, 7):
        D = dre_qr(p)
        n = D.f.params["n_bits"]
        old = tuple((r, free + ((-sum(free)) % p,))
                    for r in range(1, p) for free in product(range(p), repeat=n - 1))
        assert tuple(D.shared) == old
    big = dre_qr(17)
    assert len(big.shared) == 1_336_336
    assert next(iter(big.shared)) == (1, (0,) * 5)


# -- LSSS privacy by rank ------------------------------------------------------------


def _private_by_enumeration(scheme, subset) -> bool:
    e = len(scheme.program.target)
    dists = []
    for secret in range(scheme.p):
        hist = {}
        for free in product(range(scheme.p), repeat=e - 1):
            shares = scheme.shares_from_vector(scheme.vector_for(secret, free))
            key = tuple(shares[i] for i in subset)
            hist[key] = hist.get(key, 0) + 1
        dists.append(hist)
    return all(d == dists[0] for d in dists[1:])


@settings(max_examples=30, deadline=None)
@given(span_programs())
def test_lsss_privacy_rank_test_matches_enumeration(drawn):
    program, _ = drawn
    scheme = LsssScheme(program)
    for size in range(program.size + 1):
        for subset in combinations(range(program.size), size):
            assert lsss_privacy_check(scheme, subset) == \
                _private_by_enumeration(scheme, subset), subset
