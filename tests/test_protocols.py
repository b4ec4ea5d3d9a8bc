"""Classical CDS/PSM/DRE constructions and their exact verifiers.

The verifier tests lean on hand-built fixtures whose exact error and leakage
are known in closed form, so the sweep arithmetic itself is what gets checked.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product

import pytest

from cdslab.algebra import span_and1, span_eq1, span_or1, span_threshold_2of3
from cdslab.boolfn import from_table, named_fn, qr_join, qr_split_inputs
from cdslab.errors import BudgetError, ValidationError
from cdslab.gardenhose import gh_generic, gh_search
from cdslab.protocols import (CdsProtocol, Dre, PsmProtocol, cds_from_gh,
                              cds_from_psm, cds_from_span, dre_qr, hiding_input,
                              psm_from_dre, psm_generic_table,
                              verify_cds, verify_dre, verify_psm)

AND1 = named_fn("and", n=1)
XOR1 = named_fn("xor", n=1)
MAJ = from_table(2, 1, tuple(int(bin((x << 1) | y).count("1") >= 2)
                             for x in range(4) for y in range(2)),
                 name="maj3")


def replace(P, **changes):
    """Protocol P rebuilt through its constructor with ``changes`` to its fields."""
    return type(P)(**{**vars(P), **changes})


def _xor_cds():
    # classic two-mask construction: reveal iff x != y
    shared = tuple(product((0, 1), repeat=2))

    def alice_msg(x, s, r, ra=None):
        return s ^ r[1 - x]

    def bob_msg(y, r, rb=None):
        return r[y]

    def decode(m0, x, m1, y):
        return m0 ^ m1

    return CdsProtocol(XOR1, (0, 1), shared, alice_msg, bob_msg, decode,
                       resources={"randomness_bits": 2})


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
    P = CdsProtocol(AND1, (0, 1), ((),),
                    lambda x, s, r, ra=None: s,
                    lambda y, r, rb=None: 0,
                    lambda m0, x, m1, y: m0)
    report = verify_cds(P)
    assert report.eps_hat == 0
    assert report.delta_pair == Fraction(2)
    assert report.delta_bracket == (Fraction(1), Fraction(2))
    assert not report.perfect
    assert report.witnesses["delta"][:2] in {(0, 0), (0, 1), (1, 0)}


def test_faulty_decoder_measures_exact_error():
    # decoding flips the secret on one of four randomness values: eps = 1/4
    P = CdsProtocol(AND1, (0, 1), (0, 1, 2, 3),
                    lambda x, s, r, ra=None: s ^ (1 if r == 0 else 0),
                    lambda y, r, rb=None: (),
                    lambda m0, x, m1, y: m0)
    report = verify_cds(P)
    assert report.eps_hat == Fraction(1, 4)
    assert report.witnesses["eps"] == (1, 1, 0) or report.witnesses["eps"] == (1, 1, 1)
    # the same flip leaks on hidden inputs: histograms (3,1) vs (1,3)
    assert report.delta_pair == Fraction(1)


def test_report_jsonable():
    obj = verify_cds(_xor_cds()).to_jsonable()
    assert obj["eps_hat"] == {"num": 0, "den": 1, "float": 0.0}
    assert obj["perfect"] is True
    assert isinstance(obj["resources"], dict)


def test_gh_cds_all_two_bit_functions():
    for packed in range(16):
        f = from_table(1, 1, tuple((packed >> i) & 1 for i in range(4)))
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
    with pytest.raises(ValidationError):
        cds_from_gh(gh_generic(AND1), XOR1)


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
    from cdslab.cli import _span_for
    f = named_fn("ip", n=2)
    calls, available_rows = [], SpanProgram.available_rows
    monkeypatch.setattr(SpanProgram, "available_rows",
                        lambda self, z: calls.append(z) or available_rows(self, z))
    P = cds_from_span(_span_for(f, 3), f, variant)
    assert len(calls) == 4 + 4
    messages = []
    counted = replace(P, bob_msg=lambda y, r, rb=None:
                      messages.append(y) or P.bob_msg(y, r, rb))
    assert verify_cds(counted).perfect
    assert len(calls) == 4 + 4
    assert len(messages) == {"comm": 672, "rand": 1024}[variant]


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
    # p = 7, a = 3 (bits 1,1,0), randomness (r, s) = (2, (5, 2, 0));
    # worked by hand: y = (1*4*1+5, 1*4*2+2, 0+0) = (2, 3, 0) mod 7,
    # sum 5 is a non-residue mod 7, matching f(a=3) = 0
    D = dre_qr(7)
    rr = (2, (5, 2, 0))
    assert rr in D.shared
    x, y = qr_split_inputs(D.f, 3)
    assert qr_join(D.f, x, y) == 3
    mx = D.enc_x(x, rr)
    my = D.enc_y(y, rr)
    assert mx == ((), (2,))
    assert my == ((), (3, 0))
    assert D.decode(mx, my) == 0


def test_dre_qr_verifies_perfectly():
    for p in (3, 5, 7):
        report = verify_dre(dre_qr(p))
        assert report.eps_hat == 0
        assert report.delta_pair == 0
        assert report.resources["same_class_histograms_equal"]


def test_dre_domain_excludes_zero():
    D = dre_qr(5)
    assert len(D.input_pairs()) == 4  # a in 1..4
    assert qr_split_inputs(D.f, 0) not in D.input_pairs()


def test_psm_from_dre():
    P = psm_from_dre(dre_qr(5))
    report = verify_psm(P)
    assert report.perfect


def test_psm_generic_table():
    for f in (AND1, named_fn("index", n_x=1)):
        report = verify_psm(psm_generic_table(f))
        assert report.perfect, f.name
    assert psm_generic_table(AND1).resources["randomness_states"] == 8


def test_psm_table_budget():
    with pytest.raises(BudgetError):
        psm_generic_table(AND1, budget=7)
    with pytest.raises(BudgetError):
        psm_generic_table(named_fn("ip", n=4))  # 16! permutations


def test_cds_from_psm_and():
    P = cds_from_psm(psm_generic_table(AND1))
    report = verify_cds(P)
    assert report.perfect
    assert P.resources["randomness_states"] == 16


def test_cds_from_psm_qr_chain():
    D = dre_qr(5)
    P = cds_from_psm(psm_from_dre(D))
    report = verify_cds(P)
    assert report.perfect
    assert P.domain == D.domain  # restriction survives the compile


def test_cds_from_psm_constant_functions():
    ones = psm_generic_table(from_table(1, 1, (1, 1, 1, 1)))
    P = cds_from_psm(ones)
    assert verify_cds(P).perfect
    assert P.decode(P.alice_msg(0, 1, None), 0, P.bob_msg(0, None), 0) == 1

    zeros = psm_generic_table(from_table(1, 1, (0, 0, 0, 0)))
    Q = cds_from_psm(zeros)
    assert verify_cds(Q).perfect
    assert Q.decode(Q.alice_msg(0, 1, None), 0, Q.bob_msg(0, None), 0) is None
    # an empty domain counts as constant 1
    E = cds_from_psm(replace(zeros, domain=()))
    assert E.alice_msg(0, 1, None) == 1 and E.input_pairs() == ()


def test_hiding_input_is_the_first_zero_input():
    P = psm_generic_table(AND1)
    assert hiding_input(P) == (0, 0)
    assert hiding_input(replace(P, domain=((1, 1), (1, 0), (0, 1)))) == (1, 0)
    with pytest.raises(ValidationError, match="no hiding input"):
        hiding_input(psm_generic_table(from_table(1, 1, (1, 1, 1, 1))))


def test_verifier_budgets():
    big = cds_from_gh(gh_generic(named_fn("ip", n=2)), named_fn("ip", n=2))
    with pytest.raises(BudgetError):
        verify_cds(big, budget=100)
    with pytest.raises(BudgetError):
        verify_dre(dre_qr(7), budget=10)
    with pytest.raises(BudgetError):
        verify_psm(psm_generic_table(AND1), budget=3)


def test_dre_leaking_x_is_caught():
    # enc_x also sends x in the clear; decoding stays exact, but equal-value
    # inputs with different x now have disjoint encoding distributions
    D = dre_qr(5)
    leaky = Dre(D.f, D.shared, lambda x, r: (D.enc_x(x, r), x), D.enc_y,
                lambda mx, my: D.decode(mx[0], my), domain=D.domain)
    report = verify_dre(leaky)
    assert report.eps_hat == 0
    assert report.delta_pair == 2
    assert report.witnesses["delta"] == ((1, 0), (0, 2))  # a = 1 and a = 4
    assert report.resources["same_class_histograms_equal"] is False
    assert not report.perfect


def test_psm_decoder_erring_on_one_randomness_value():
    # Alice flags the first of the 8 randomness values and the decoder flips
    # its answer there, so every input decodes wrongly with probability 1/8
    P = psm_generic_table(AND1)
    r0 = next(iter(P.shared))
    bad = PsmProtocol(AND1, P.shared,
                      lambda x, r, ra=None: (P.alice_msg(x, r), r == r0),
                      P.bob_msg,
                      lambda m0, m1: P.decode(m0[0], m1) ^ m0[1])
    report = verify_psm(bad)
    assert report.eps_hat == Fraction(1, 8)
    assert report.witnesses["eps"] == (0, 0)
    assert report.delta_pair == Fraction(1, 2)  # the flag ties messages to r0


def test_product_space_matches_itertools():
    from cdslab.protocols import LazySpace, product_space, space_size
    base = LazySpace(3, lambda: iter("abc"))
    space = product_space(base, 3)
    want = tuple(product("abc", repeat=3))
    assert len(space) == 27
    assert tuple(space) == want
    shared = _xor_cds().shared
    assert tuple(product_space(shared, 2)) == tuple(product(shared, repeat=2))
    assert space_size(product_space(range(5), 40)) == 5 ** 40   # past 2^63
    # the compilers' spaces that were tuples list lazily in the same order
    f = named_fn("index", n_x=1)
    tables = tuple((perm, mask) for perm in permutations(range(4))
                   for mask in product((0, 1), repeat=4))
    strategy = gh_generic(AND1)
    for space, want in (
            (cds_from_gh(strategy, AND1).shared,
             tuple(product((0, 1), repeat=strategy.pipes))),
            (psm_generic_table(f).shared, tables),
            (cds_from_psm(psm_generic_table(f)).shared,
             tuple((r, sel) for r in tables for sel in (0, 1)))):
        assert space_size(space) == len(want)
        assert tuple(space) == want
