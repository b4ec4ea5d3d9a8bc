"""Linear algebra mod a prime, span programs, LSSS."""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from cdslab.algebra import (LsssScheme, in_span, lsss_reconstruct, span_and1, span_dnf,
                            span_eq1, span_or1, sp_eval, SpanProgram)
from cdslab.errors import DomainError, ValidationError
from cdslab.families import qr_residue
from cdslab.toolkit import span_threshold_2of3

ODD_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97, 101]


def test_in_span_rejects_composite_modulus():
    with pytest.raises(ValidationError):
        in_span([(1, 0)], (1, 0), 6)


def test_euler_criterion_matches_squaring():
    # oracle: the set of nonzero squares computed by direct squaring
    for p in ODD_PRIMES:
        squares = {(z * z) % p for z in range(1, p)}
        for a in range(1, p):
            assert qr_residue(p)(a) == int(a in squares), (p, a)


def test_euler_rejects_zero_and_even():
    with pytest.raises(DomainError):
        qr_residue(7)(0)
    with pytest.raises(DomainError):
        qr_residue(7)(14)
    with pytest.raises(ValidationError):
        qr_residue(2)


def _in_span_brute(rows, target, p):
    for coeffs in product(range(p), repeat=len(rows)):
        if all(sum(c * r[j] for c, r in zip(coeffs, rows)) % p == target[j] % p
               for j in range(len(target))):
            return True
    return False


def test_in_span_against_brute_force():
    rng = random.Random(20260813)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        d = rng.randrange(0, 4)
        e = rng.randrange(1, 4)
        rows = [tuple(rng.randrange(p) for _ in range(e)) for _ in range(d)]
        target = tuple(rng.randrange(p) for _ in range(e))
        ok, coeffs = in_span(rows, target, p)
        assert ok == _in_span_brute(rows, target, p), (rows, target, p)
        if ok:
            for j in range(e):
                acc = sum(c * r[j] for c, r in zip(coeffs, rows)) % p
                assert acc == target[j] % p


def test_named_span_programs_compute_their_functions():
    for p in (2, 3, 5):
        for prog, rule in [
            (span_and1(p), lambda z: z[0] & z[1]),
            (span_or1(p), lambda z: z[0] | z[1]),
            (span_eq1(p), lambda z: int(z[0] == z[1])),
        ]:
            for z in product((0, 1), repeat=2):
                assert sp_eval(prog, z) == rule(z), (p, z)


def test_threshold_program_all_primes():
    # 2-of-3 majority; p = 2 and 3 cannot place three distinct nonzero
    # interpolation points, so the small primes take a different route
    for p in (2, 3, 5, 7):
        prog = span_threshold_2of3(p)
        for z in product((0, 1), repeat=3):
            assert sp_eval(prog, z) == int(sum(z) >= 2), (p, z)


def test_span_dnf_matches_term_semantics():
    rng = random.Random(7)
    for _ in range(50):
        n_vars = rng.randrange(2, 5)
        n_terms = rng.randrange(1, 4)
        terms = []
        for _ in range(n_terms):
            width = rng.randrange(1, n_vars + 1)
            vs = rng.sample(range(1, n_vars + 1), width)
            terms.append([(v, rng.randrange(2)) for v in vs])
        p = rng.choice([2, 3, 5])
        prog = span_dnf(terms, n_vars, p)
        for z in product((0, 1), repeat=n_vars):
            want = int(any(all(z[v - 1] == b for v, b in t) for t in terms))
            assert sp_eval(prog, z) == want, (terms, z, p)


def test_span_program_validation():
    with pytest.raises(ValidationError):
        SpanProgram(((1,),), ((1, 0),), (0,), 5, 1)  # zero target
    with pytest.raises(ValidationError):
        SpanProgram(((1,), (1, 2)), ((1, 0), (1, 1)), (1,), 5, 1)  # ragged
    with pytest.raises(ValidationError):
        SpanProgram(((1,),), ((3, 0),), (1,), 5, 1)  # label out of range
    with pytest.raises(ValidationError):
        span_dnf([], 2, 5)


def test_span_json_round_trip():
    prog = span_threshold_2of3(5)
    again = SpanProgram.from_jsonable(prog.to_jsonable())
    assert again == prog


def _private_by_enumeration(scheme, subset) -> bool:
    """True when the subset's shares are distributed alike under every secret."""
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


def test_lsss_dichotomy():
    """Authorized subsets reconstruct; unauthorized ones are distribution-blind."""
    for p in (2, 3, 5):
        for prog in (span_and1(p), span_or1(p), span_threshold_2of3(p)):
            scheme = LsssScheme(prog)
            d = prog.size
            for size in range(d + 1):
                for subset in combinations(range(d), size):
                    rows = [prog.matrix[i] for i in subset]
                    authorized, _ = in_span(rows, prog.target, p)
                    if authorized:
                        for secret in range(p):
                            shares = scheme.share(secret, seed=41 + secret)
                            got = lsss_reconstruct(scheme, subset, [shares[i] for i in subset])
                            assert got == secret
                    else:
                        assert lsss_reconstruct(scheme, subset, [0] * size) is None
                        assert _private_by_enumeration(scheme, subset), (p, subset)


def test_lsss_sharing_vector_properties():
    scheme = LsssScheme(span_threshold_2of3(5))
    t = scheme.program.target
    seen = set()
    for free in product(range(5), repeat=len(t) - 1):
        u = scheme.vector_for(2, free)
        assert sum(a * b for a, b in zip(t, u)) % 5 == 2
        seen.add(u)
    # every valid vector comes from exactly one free assignment
    assert len(seen) == 5 ** (len(t) - 1)


@settings(max_examples=60)
@given(st.integers(0, 4), st.sampled_from([2, 3, 5]), st.integers(0, 10 ** 6))
def test_lsss_share_reconstruct_round_trip(secret, p, seed):
    scheme = LsssScheme(span_or1(p))
    shares = scheme.share(secret, seed)
    full = tuple(range(scheme.program.size))
    assert lsss_reconstruct(scheme, full, shares) == secret % p
