"""Classical CDS/PSM/DRE constructions and their exact verifiers.

The verifier tests lean on hand-built fixtures whose exact error and leakage
are known in closed form, so the sweep arithmetic itself is what gets checked.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import cycle, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdslab.algebra import span_and1, span_eq1, span_or1
from cdslab.boolfn import BoolFn
from cdslab.errors import BudgetError, LazySpace, ValidationError, VerifyFailure, budget
from cdslab.families import named_fn
from cdslab.ghsearch import gh_generic, gh_search
from cdslab.bases import cds_from_gh, dre_qr, psm_generic_table
from cdslab.protocols import CdsProtocol, cds_from_psm, hiding_input, psm_from_dre
from cdslab.spancds import cds_from_span
from cdslab.toolkit import qr_split_inputs, span_threshold_2of3
from cdslab.verifiers import VerificationReport, verify_cds, verify_dre, verify_psm
from message_reference import cds_of, psm_of, replace, send

AND1 = named_fn("and", n=1)
XOR1 = named_fn("xor", n=1)
MAJ = BoolFn(2, 1, tuple(int(bin((x << 1) | y).count("1") >= 2)
                         for x in range(4) for y in range(2)), name="maj3")


def _xor_cds():
    # classic two-mask construction: reveal iff x != y
    shared = tuple(product((0, 1), repeat=2))

    def alice_msg(x, s, r):
        return s ^ r[1 - x]

    def bob_msg(y, r):
        return r[y]

    def decode(m0, x, m1, y):
        return m0 ^ m1

    return cds_of(XOR1, shared, alice_msg, bob_msg, decode, resources={"randomness_bits": 2})


def _fraction_enc(v):
    """A figure as a report wrote it from a ``Fraction``: the reference."""
    if isinstance(v, Fraction):
        return {"num": v.numerator, "den": v.denominator, "float": float(v)}
    return v


def _same_as_fraction_report(report) -> None:
    """``report.to_jsonable()`` is, byte for byte, what the report wrote when it
    held its figures as ``Fraction``s, witnesses included."""
    want = {
        "kind": report.kind,
        "eps_hat": _fraction_enc(report.eps_hat),
        "delta_pair": _fraction_enc(report.delta_pair),
        "delta_bracket": [_fraction_enc(report.delta_pair / 2), _fraction_enc(report.delta_pair)],
        "perfect": report.eps_hat == 0 and report.delta_pair == 0,
        "resources": {k: _fraction_enc(v) for k, v in report.resources.items()},
        "witnesses": {k: list(v) if isinstance(v, tuple) else v
                      for k, v in report.witnesses.items()},
        "notes": [],
    }
    assert json.dumps(report.to_jsonable()) == json.dumps(want)


# a denominator met in practice: the joint randomness 448 * 449^8 of qr p=449
_JOINT_449 = 448 * 449 ** 8


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2 ** 1100) | st.just(_JOINT_449), st.integers(0, 2 ** 1102))
@example(_JOINT_449, 0)
@example(_JOINT_449, _JOINT_449 - 1)
@example(_JOINT_449, 2 * _JOINT_449)
@example(2 ** 53, 2 ** 53 + 1)           # halfway between two floats: rounds to even
@example(2 ** 1100, 2 ** 1100 - 1)
@example(3, 2)
def test_integer_figures_encode_as_their_fractions(d, k):
    # a figure n/d, 0 <= n <= 2d (an L1 distance is at most 2), and its half
    # n/2d write the numbers and floats the Fraction reference writes
    n = k % (2 * d + 1)
    obj = VerificationReport("cds", n, n, d, {}, {}).to_jsonable()
    for got, want in ((obj["eps_hat"], Fraction(n, d)), (obj["delta_pair"], Fraction(n, d)),
                      (obj["delta_bracket"][0], Fraction(n, 2 * d)),
                      (obj["delta_bracket"][1], Fraction(n, d))):
        assert json.dumps(got) == json.dumps(_fraction_enc(want))


def test_hand_built_xor_cds_is_perfect():
    report = verify_cds(_xor_cds())
    assert report.kind == "cds"
    assert report.eps_hat == 0
    assert report.delta_pair == 0
    assert report.perfect
    assert report.resources["alice_message_alphabet"] == 2


def test_leaky_cds_measures_full_leakage():
    # Alice broadcasts the secret: distributions at distinct secrets are
    # disjoint, so the pairwise L1 distance must be exactly 2
    P = cds_of(AND1, ((),), lambda x, s, r: s, lambda y, r: 0, lambda m0, x, m1, y: m0)
    report = verify_cds(P)
    assert report.eps_hat == 0
    assert report.delta_pair == Fraction(2)
    assert report.delta_bracket == (Fraction(1), Fraction(2))
    assert not report.perfect
    assert report.witnesses["delta"][:2] in {(0, 0), (0, 1), (1, 0)}
    _same_as_fraction_report(report)


def test_faulty_decoder_measures_exact_error():
    # decoding flips the secret on one of four randomness values: eps = 1/4
    P = cds_of(AND1, (0, 1, 2, 3), lambda x, s, r: s ^ (1 if r == 0 else 0),
               lambda y, r: (), lambda m0, x, m1, y: m0)
    report = verify_cds(P)
    assert report.eps_hat == Fraction(1, 4)
    assert report.witnesses["eps"] == (1, 1, 0) or report.witnesses["eps"] == (1, 1, 1)
    # the same flip leaks on hidden inputs: histograms (3,1) vs (1,3)
    assert report.delta_pair == Fraction(1)
    _same_as_fraction_report(report)


def test_report_jsonable():
    obj = verify_cds(_xor_cds()).to_jsonable()
    assert obj["eps_hat"] == {"num": 0, "den": 1, "float": 0.0}
    assert obj["perfect"] is True
    assert isinstance(obj["resources"], dict)


def test_gh_cds_all_two_bit_functions():
    for packed in range(16):
        f = BoolFn(1, 1, tuple((packed >> i) & 1 for i in range(4)))
        P = cds_from_gh(gh_generic(f), f)
        report = verify_cds(P)
        assert report.perfect, f.table
        assert report.resources["randomness_states"] == 1 << P.resources["pipes"]


def test_gh_cds_randomness_equals_pipes():
    s = gh_search(AND1, 3)
    P = cds_from_gh(s, AND1)
    assert P.resources["pipes"] == 3
    assert P.resources["randomness_bits"] == 3
    assert len(P.shared) == 8
    assert verify_cds(P).perfect


def test_gh_cds_rejects_wrong_strategy():
    # a misrouted strategy fails verification, its misrouted inputs the witness
    with pytest.raises(VerifyFailure, match="wrong side") as refused:
        cds_from_gh(gh_generic(AND1), XOR1)
    assert refused.value.witness == {"inputs": [[0, 1], [1, 0], [1, 1]]}
    # and2's strategy computes the zero function on 1+1 bits, yet is 2+2
    with pytest.raises(ValidationError, match="widths differ"):
        cds_from_gh(gh_generic(named_fn("and", n=2)), BoolFn(1, 1, (0, 0, 0, 0)))


def test_gh_cds_traces_each_input_once(monkeypatch):
    # bases reads gardenhose.gh_eval when the CDS is compiled, so the spy
    # sits there and the strategy is searched before it: compiling traces
    # each input once, for the check, and keeps no trace; the decoder traces
    # its input when called
    from cdslab import gardenhose
    from cdslab.padroutes import cdqs_from_cds
    from cdslab.qverifiers import verify_cdqs
    calls, strategy, gh_eval = [], gh_search(AND1, 3), gardenhose.gh_eval

    def counted(strategy, x, y):
        calls.append((x, y))
        return gh_eval(strategy, x, y)

    monkeypatch.setattr(gardenhose, "gh_eval", counted)
    P = cds_from_gh(strategy, AND1)
    assert calls == list(AND1.inputs())
    calls.clear()
    assert P.decode(((), ()), 0, ((), ()), 1) is None
    assert calls == [(0, 1)]
    calls.clear()
    assert verify_cds(P).perfect
    assert verify_cdqs(cdqs_from_cds(P)).perfect
    assert set(calls) == set(AND1.inputs())


def test_span_cds_named_programs_both_variants():
    cases = [(span_and1, AND1), (span_or1, named_fn("or", n=1)),
             (span_eq1, named_fn("eq", n=1))]
    for p in (2, 3):
        for build, f in cases:
            for variant in ("comm", "rand"):
                P = cds_from_span(build(p), f, variant)
                report = verify_cds(P)
                assert report.perfect, (p, f.name, variant)


def test_span_cds_threshold():
    for p in (2, 3, 5):
        prog = span_threshold_2of3(p)
        for variant in ("comm", "rand"):
            report = verify_cds(cds_from_span(prog, MAJ, variant))
            assert report.perfect, (p, variant)


def test_span_cds_resource_bounds():
    for p in (2, 3):
        P = cds_from_span(span_threshold_2of3(p), MAJ, "comm")
        r = P.resources
        assert r["bound_communication_le_share_total"]
        assert r["communication_bits"] <= r["share_total_bits"]
        Q = cds_from_span(span_threshold_2of3(p), MAJ, "rand")
        assert Q.resources["bound_randomness_le_share_total"]
        assert Q.resources["randomness_bits"] <= Q.resources["share_total_bits"]


@pytest.mark.parametrize("variant", ["comm", "rand"])
def test_span_cds_finds_each_inputs_rows_once(variant, monkeypatch):
    # the rows an input makes available are its party's tag: found once per
    # x and per y, not at each of the sweep's message evaluations
    from cdslab.algebra import SpanProgram
    from cdslab.clicore import _span_for
    f = named_fn("ip", n=2)
    calls, available_rows = [], SpanProgram.available_rows
    monkeypatch.setattr(SpanProgram, "available_rows",
                        lambda self, z: calls.append(z) or available_rows(self, z))
    P = cds_from_span(_span_for(f, 3), f, variant)
    assert len(calls) == 4 + 4
    # the sweep reads Bob's form twice per case (x, y, s), once to size the
    # charge and once to sweep
    forms, lin = [], P.linear
    counted = CdsProtocol(f, (0, 1), decode=P.decode, resources=P.resources,
                          linear=lin._replace(bob_form=lambda y, nu:
                                              forms.append(y) or lin.bob_form(y, nu)))
    assert verify_cds(counted).perfect
    assert len(calls) == 4 + 4
    assert len(forms) == 2 * 16 * 2


def test_span_cds_validation():
    for variant in ("comm", "rand"):
        # the program computes AND, not XOR: the verifier, not the compiler,
        # reports (0, 1) undecodable and (1, 1) leaking; the CLI refuses
        # such a program before compiling
        report = verify_cds(cds_from_span(span_and1(2), XOR1, variant))
        assert (report.eps_hat, report.delta_pair) == (1, 2)
        assert report.witnesses == {"eps": (0, 1, 0), "delta": (1, 1, 0, 1)}
    with pytest.raises(ValidationError):
        cds_from_span(span_and1(2), MAJ)  # variable count mismatch
    with pytest.raises(ValidationError):
        cds_from_span(span_and1(2), AND1, variant="fast")


def test_dre_qr_frozen_example():
    # p = 7, a = 3 (bits 1,1,0), randomness (r, free shares) = (2, (5, 2)),
    # so s = (5, 2, 0), the last share the negated sum of the free ones;
    # worked by hand: y = (1*4*1+5, 1*4*2+2, 0+0) = (2, 3, 0) mod 7,
    # sum 5 is a non-residue mod 7, matching f(a=3) = 0
    D = dre_qr(named_fn("qr", p=7))
    r, free = rr = (2, (5, 2))
    assert rr in D.shared
    x, y = qr_split_inputs(D.f, 3)
    assert (x, y) == (1, 1)  # Alice holds bit 1 of a, Bob bits 2 and 3
    lin = D.linear
    mx = send(lin, 0, lin.alice_form(x, r), free)
    my = send(lin, 1, lin.bob_form(y, r), free)
    assert mx == ((), (2,))
    assert my == ((), (3, 0))
    assert D.decode(mx, my) == 0


def test_dre_qr_verifies_perfectly():
    for p in (3, 5, 7):
        report = verify_dre(dre_qr(named_fn("qr", p=p)))
        assert report.eps_hat == 0
        assert report.delta_pair == 0
        assert report.resources["same_class_histograms_equal"]


def test_dre_domain_excludes_zero():
    D = dre_qr(named_fn("qr", p=5))
    assert len(D.domain) == 4  # a in 1..4
    assert qr_split_inputs(D.f, 0) not in tuple(D.domain)


def test_psm_from_dre():
    P = psm_from_dre(dre_qr(named_fn("qr", p=5)))
    report = verify_psm(P)
    assert report.perfect


def test_psm_generic_table():
    for f in (AND1, named_fn("index", n_x=1)):
        report = verify_psm(psm_generic_table(f))
        assert report.perfect, f.name
    assert psm_generic_table(AND1).resources["randomness_states"] == 8


def test_psm_table_budget():
    with pytest.raises(BudgetError), budget(7):
        psm_generic_table(AND1)
    with pytest.raises(BudgetError):
        psm_generic_table(named_fn("ip", n=4))  # 16! permutations


def test_cds_from_psm_and():
    P = cds_from_psm(psm_generic_table(AND1))
    report = verify_cds(P)
    assert report.perfect
    assert P.resources["randomness_states"] == 16


def test_cds_from_psm_qr_chain():
    D = dre_qr(named_fn("qr", p=5))
    P = cds_from_psm(psm_from_dre(D))
    report = verify_cds(P)
    assert report.perfect
    assert P.domain == D.domain  # restriction survives the compile


def test_cds_from_psm_constant_functions():
    ones = psm_generic_table(BoolFn(1, 1, (1, 1, 1, 1)))
    P = cds_from_psm(ones)
    assert verify_cds(P).perfect
    # one nu and no rho: the secret is Alice's tag, sent in the clear
    assert list(P.linear.nus) == [None] and P.linear.coords == (0, 0, 0)
    lin = P.linear
    assert P.decode(lin.alice_form(0, 1, None), 0, lin.bob_form(0, None), 0) == 1

    zeros = psm_generic_table(BoolFn(1, 1, (0, 0, 0, 0)))
    Q = cds_from_psm(zeros)
    assert verify_cds(Q).perfect
    lin = Q.linear
    assert Q.decode(lin.alice_form(0, 1, None), 0, lin.bob_form(0, None), 0) is None
    # an empty domain counts as constant 1
    E = cds_from_psm(replace(zeros, domain=()))
    assert E.linear.alice_form(0, 1, None) == (1, ()) and tuple(E.domain) == ()


def test_hiding_input_is_the_first_zero_input():
    P = psm_generic_table(AND1)
    assert hiding_input(P) == (0, 0)
    assert hiding_input(replace(P, domain=((1, 1), (1, 0), (0, 1)))) == (1, 0)
    with pytest.raises(ValidationError, match="no hiding input"):
        hiding_input(psm_generic_table(BoolFn(1, 1, (1, 1, 1, 1))))


def test_verifier_budgets():
    big = cds_from_gh(gh_generic(named_fn("ip", n=2)), named_fn("ip", n=2))
    with pytest.raises(BudgetError), budget(100):
        verify_cds(big)
    D = dre_qr(named_fn("qr", p=7))
    with pytest.raises(BudgetError), budget(10):
        verify_dre(D)
    P = psm_generic_table(AND1)
    with pytest.raises(BudgetError), budget(3):
        verify_psm(P)


def test_dre_leaking_x_is_caught():
    # Alice's encoding also sends x in the clear, as one more value, which
    # no randomness moves; decoding stays exact, but equal-value inputs with
    # different x now have disjoint encoding distributions
    D = dre_qr(named_fn("qr", p=5))
    lin = D.linear
    leaky = replace(D, linear=lin._replace(
                        alice_form=lambda x, r: (lin.alice_form(x, r)[0],
                                                 lin.alice_form(x, r)[1] + (x,)),
                        maps=lambda side, tag: tuple(row + (0,) * (1 - side)
                                                     for row in lin.maps(side, tag))),
                    decode=lambda mx, my: D.decode((mx[0], mx[1][:-1]), my))
    report = verify_dre(leaky)
    assert report.eps_hat == 0
    assert report.delta_pair == 2
    assert report.witnesses["delta"] == ((1, 0), (0, 2))  # a = 1 and a = 4
    assert report.resources["same_class_histograms_equal"] is False
    assert not report.perfect
    _same_as_fraction_report(report)


def test_psm_decoder_erring_on_one_randomness_value():
    # Alice flags the first of the 8 randomness values in her tag and the
    # decoder flips its answer there, so every input decodes wrongly with
    # probability 1/8
    P = psm_generic_table(AND1)
    lin = P.linear
    r0 = next(iter(lin.nus))
    bad = replace(P, linear=lin._replace(
                      alice_form=lambda x, r: ((lin.alice_form(x, r)[0], r == r0), ()),
                      maps=lambda side, tag: ()),
                  decode=lambda m0, m1: P.decode((m0[0][0], ()), m1) ^ m0[0][1])
    report = verify_psm(bad)
    assert report.eps_hat == Fraction(1, 8)
    assert report.witnesses["eps"] == (0, 0)
    assert report.delta_pair == Fraction(1, 2)  # the flag ties messages to r0
    _same_as_fraction_report(report)


def test_leaky_psqm_reports_the_floats_of_its_fractions():
    # Alice sends x on one of three randomness values and 0 on the others, so
    # x = 1 decodes wrongly with probability 2/3, which no float holds, and
    # equal-value inputs' views are disjoint
    from cdslab.padroutes import psqm_from_psm
    from cdslab.qverifiers import QVerificationReport, verify_psqm

    P = psm_of(XOR1, (0, 1, 2), lambda x, r: x if r == 0 else 0, lambda y, r: y,
               lambda m0, m1: m0 ^ m1)
    psm = verify_psm(P)
    assert (psm.eps_hat, psm.delta_pair) == (Fraction(2, 3), 2)
    _same_as_fraction_report(psm)
    got = verify_psqm(psqm_from_psm(P))
    want = QVerificationReport("psqm", got.resources)
    want.worst.update(infidelity=psm.eps_hat, gap=psm.delta_pair / 2)
    want.witnesses.update(got.witnesses)
    for key, info in got.per_input.items():
        want.record(tuple(map(int, key.split(","))), info)
    assert got.witnesses == {"decode": (1, 0), "view": ((0, 0), (1, 1))}
    assert json.dumps(got.to_jsonable()) == json.dumps(want.to_jsonable())


def test_product_space_matches_itertools():
    from cdslab.errors import space_size
    from cdslab.protocols import product_space
    base = LazySpace(3, lambda: iter("abc"))
    space = product_space(base, 3)
    want = tuple(product("abc", repeat=3))
    assert len(space) == 27
    assert tuple(space) == want
    shared = _xor_cds().shared
    assert tuple(product_space(shared, 2)) == tuple(product(shared, repeat=2))
    assert space_size(product_space(range(5), 40)) == 5 ** 40   # past 2^63
    # the compilers' spaces, (nu, shared rho), list lazily: the tables in
    # the old order, and gh_generic's 4 pipe bits for and1 as rho, under
    # one nu
    f = named_fn("index", n_x=1)
    tables = tuple((perm, mask) for perm in permutations(range(4))
                   for mask in product((0, 1), repeat=4))
    for space, want in (
            (cds_from_gh(gh_generic(AND1), AND1).shared,
             tuple((None, rho) for rho in product((0, 1), repeat=4))),
            (psm_generic_table(f).shared, tuple((r, ()) for r in tables)),
            (cds_from_psm(psm_generic_table(f)).shared,
             tuple(((r, sel), ()) for r in tables for sel in (0, 1)))):
        assert space_size(space) == len(want)
        assert tuple(space) == want


DRAWS = 64


def _planted(inputs, drawn: list) -> LazySpace:
    """A 2^40-pair domain cycling through ``inputs``; a draw past ``DRAWS``,
    counted in ``drawn[0]`` over every walk, fails the test."""
    def walk():
        for xy in cycle(inputs):
            drawn[0] += 1
            if drawn[0] > DRAWS:
                pytest.fail(f"drew more than {DRAWS} inputs of a 2^40-pair domain")
            yield xy
    return LazySpace(1 << 40, walk)


@pytest.mark.parametrize("base", ["dre_qr", "table"])
def test_no_step_lists_a_domain(base):
    # a domain is a sized space: each compiler draws the few inputs it
    # needs (the constant-f test stops at f's second value, the hiding
    # input at the first 0), and each verify is charged by the domain's
    # size, 2^40 pairs, before its sweep draws a 64th
    from cdslab.padroutes import cdqs_from_cds, cdqs_from_psqm, frouting_from_cdqs, psqm_from_psm
    from cdslab.qverifiers import verify_cdqs, verify_frouting, verify_psqm

    drawn = [0]
    D = dre_qr(named_fn("qr", p=5))
    if base == "dre_qr":
        D.domain = _planted(tuple(D.domain), drawn)
        psm = psm_from_dre(D)
        checks = [(verify_dre, D, "verify_dre")]
    else:
        psm = psm_generic_table(D.f)
        psm.domain = _planted(tuple(D.f.inputs()), drawn)
        checks = []
    cds = cds_from_psm(psm)
    cdqs, psqm = cdqs_from_cds(cds), psqm_from_psm(psm)
    padded = cdqs_from_psqm(psqm)
    routes = frouting_from_cdqs(cdqs), frouting_from_cdqs(padded)
    assert 0 < drawn[0] <= DRAWS
    checks += [(verify_psm, psm, "verify_psm"), (verify_cds, cds, "verify_cds"),
               (verify_cdqs, cdqs, "cdqs_from_cds"), (verify_cdqs, padded, "psqm_from_psm"),
               (verify_psqm, psqm, "psqm_from_psm"), (verify_frouting, routes[0], "cdqs_from_cds"),
               (verify_frouting, routes[1], "psqm_from_psm")]
    for verify, record, what in checks:
        drawn[0] = 0
        with pytest.raises(BudgetError) as stop:
            verify(record)
        assert stop.value.space == f"{what} message coordinates", verify.__name__
