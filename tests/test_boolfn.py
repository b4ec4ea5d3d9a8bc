"""Truth-table functions: indexing, named families, split-integer helpers."""

from __future__ import annotations

import argparse
import math
from array import array
from itertools import islice

import pytest
from hypothesis import assume, given, settings, strategies as st

from cdslab.boolfn import (PRIME_BOUND, BoolFn, all_functions, bits_msb_first, is_prime,
                           literal_input)
from cdslab.cli import _parse_fn
from cdslab.errors import DomainError, ValidationError
from cdslab.families import named_fn, qr_mismatches
from cdslab.toolkit import qr_split_inputs


def test_table_indexing_order():
    # table[(x << n_y) | y]: enumerate explicitly to pin the convention
    f = BoolFn(1, 2, (0, 1, 0, 0, 1, 1, 0, 1))
    expected = {(0, 0): 0, (0, 1): 1, (0, 2): 0, (0, 3): 0,
                (1, 0): 1, (1, 1): 1, (1, 2): 0, (1, 3): 1}
    for (x, y), v in expected.items():
        assert f.eval(x, y) == v


def test_named_families_frozen_tables():
    assert tuple(named_fn("and", n=1).table) == (0, 0, 0, 1)
    assert tuple(named_fn("or", n=1).table) == (0, 1, 1, 1)
    assert tuple(named_fn("xor", n=1).table) == (0, 1, 1, 0)
    assert tuple(named_fn("eq", n=1).table) == (1, 0, 0, 1)
    assert tuple(named_fn("ip", n=1).table) == (0, 0, 0, 1)
    # index over a 2-bit database: f(x, y) = bit x of y
    idx = named_fn("index", n_x=1)
    assert (idx.n_x, idx.n_y) == (1, 2)
    assert [idx.eval(0, y) for y in range(4)] == [0, 1, 0, 1]
    assert [idx.eval(1, y) for y in range(4)] == [0, 0, 1, 1]


def test_two_bit_families_against_direct_rules():
    fa, fx = named_fn("and", n=2), named_fn("xor", n=2)
    fe, fi = named_fn("eq", n=2), named_fn("ip", n=2)
    for x in range(4):
        for y in range(4):
            assert fa.eval(x, y) == int(x == 3 and y == 3)
            assert fx.eval(x, y) == bin(x ^ y).count("1") % 2
            assert fe.eval(x, y) == int(x == y)
            assert fi.eval(x, y) == bin(x & y).count("1") % 2


def _qr_join(f, x, y) -> int:
    """The integer a with x's bits at Alice's positions and y's at Bob's, bit 1 lowest."""
    alice = sorted(f.params["alice_positions"])
    bob = [pos for pos in range(1, f.params["n_bits"] + 1) if pos not in alice]
    return sum(((v >> j) & 1) << (pos - 1) for v, ps in ((x, alice), (y, bob))
               for j, pos in enumerate(ps))


def test_qr_residue_oracle():
    # the residues mod p, 0 included, that qr's truth table marks
    for p, residues in ((7, {0, 1, 2, 4}), (11, {0, 1, 3, 4, 5, 9})):
        f = named_fn("qr", p=p)
        assert {_qr_join(f, x, y) % p for (x, y) in f.ones()} == residues
        assert {_qr_join(f, x, y) % p for (x, y) in f.inputs()} == set(range(p))


def test_qr_split_function_values():
    f = named_fn("qr", p=7)
    assert f.params["n_bits"] == 3
    assert f.params["alice_positions"] == [1]
    residues = {(z * z) % 7 for z in range(7)}  # 0 counts as a square
    for a in range(8):
        x, y = qr_split_inputs(f, a)
        assert _qr_join(f, x, y) == a
        assert f.eval(x, y) == int(a % 7 in residues)


def test_qr_split_custom_positions():
    f = named_fn("qr", p=11, alice_positions=(2, 4))
    assert f.n_x == 2 and f.n_y == 2
    for a in range(16):
        x, y = qr_split_inputs(f, a)
        assert _qr_join(f, x, y) == a


def test_qr_rejects_even_prime():
    with pytest.raises(ValidationError):
        named_fn("qr", p=2)


def test_is_prime_is_exact_to_its_bound():
    # trial division is the reference below 10^5; 3215031751 and
    # 3825123056546413051 are strong pseudoprimes to the first 4 and 11 bases,
    # 561 and 41041 Carmichael numbers, and 2^61 - 1 a Mersenne prime
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(10 ** 5) if is_prime(n)] == [
        n for n in range(10 ** 5) if trial_division(n)]
    assert not any(map(is_prime, (3215031751, 3825123056546413051, 561, 41041)))
    assert is_prime(2 ** 61 - 1)
    with pytest.raises(ValidationError, match=str(PRIME_BOUND)):
        is_prime(2 ** 89 - 1)


def test_literal_input_is_msb_first():
    f = BoolFn(2, 1, (0,) * 8)
    assert literal_input(f, 0b10, 1) == (1, 0, 1)
    assert bits_msb_first(6, 4) == (0, 1, 1, 0)


def test_eval_range_checks():
    f = named_fn("and", n=1)
    with pytest.raises(DomainError):
        f.eval(2, 0)
    with pytest.raises(DomainError):
        f.eval(0, -1)


def test_all_functions_enumeration():
    fns = list(all_functions(1, 1))
    assert len(fns) == 16
    tables = {f.table for f in fns}
    assert len(tables) == 16


def test_unknown_family():
    with pytest.raises(ValidationError):
        named_fn("nope")


@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2 ** 16 - 1))
def test_json_round_trip(n_x, n_y, packed):
    assume(n_x + n_y > 0)
    size = 1 << (n_x + n_y)
    table = tuple((packed >> i) & 1 for i in range(size))
    f = BoolFn(n_x, n_y, table, name="t")
    g = BoolFn.from_jsonable(f.to_jsonable())
    assert g == f


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.data())
def test_table_option_codec_and_enumeration_share_one_packing(n_x, n_y, data):
    # hex bit i is entry i for --table, the dict codec and all_functions alike
    assume(n_x + n_y > 0)
    size = 1 << (n_x + n_y)
    packed = data.draw(st.integers(0, (1 << size) - 1))
    want = tuple((packed >> i) & 1 for i in range(size))
    parsed = _parse_fn(argparse.Namespace(table=f"{n_x}:{n_y}:{packed:x}"))
    decoded = BoolFn.from_jsonable({"n_x": n_x, "n_y": n_y, "table": f"{packed:x}"})
    assert tuple(parsed.table) == tuple(decoded.table) == want
    if packed < 1 << 12:   # all_functions lists the tables in packed order
        listed = next(islice(all_functions(n_x, n_y), packed, None))
        assert (tuple(listed.table), listed.name) == (want, parsed.name)


@given(st.integers(1, 2), st.integers(1, 2), st.data())
def test_eval_matches_table(n_x, n_y, data):
    size = 1 << (n_x + n_y)
    table = tuple(data.draw(st.integers(0, 1)) for _ in range(size))
    f = BoolFn(n_x, n_y, table)
    x = data.draw(st.integers(0, (1 << n_x) - 1))
    y = data.draw(st.integers(0, (1 << n_y) - 1))
    assert f.eval(x, y) == table[(x << n_y) | y]
    assert f.ones() == [(x, y) for (x, y) in f.inputs() if table[(x << n_y) | y]]


def test_table_length_validation():
    with pytest.raises(ValidationError):
        BoolFn(1, 1, (0, 1, 0))
    with pytest.raises(ValidationError):
        BoolFn(1, 1, (0, 1, 2, 0))


def test_constructor_stores_bytes_and_keeps_its_refusals():
    # any sequence of bits makes the same function; what is not one bit per
    # entry is refused as a table, never with bytes()'s own error
    bits = (0, 1, 1, 0)
    fns = [BoolFn(1, 1, table) for table in (bits, list(bits), bytes(bits), bytearray(bits))]
    assert all(type(f.table) is bytes and f == fns[0] for f in fns)
    assert len({hash(f) for f in fns}) == 1
    for bad in (2, -1, 256, None):
        with pytest.raises(ValidationError, match="^table entries must be bits$"):
            BoolFn(1, 1, (0, 1, bad, 0))
    for bad in ("0110", array("q", bits)):   # a buffer of 8-byte items is no table of bits
        with pytest.raises(ValidationError, match="^table entries must be bits$"):
            BoolFn(1, 1, bad)
    with pytest.raises(TypeError, match="has no len"):   # not four zero entries
        BoolFn(1, 1, 4)


_SMALL_ODD_PRIMES = [p for p in range(3, 200) if is_prime(p)]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(_SMALL_ODD_PRIMES), st.integers(0, 3), st.data())
def test_qr_rows_one_rule_for_every_split(p, extra, data):
    # Alice's positions random, not one run, all of them (n_y = 0) or none
    # (n_x = 0): each entry is the residuosity of the a it assembles
    n = p.bit_length() + extra
    alice = data.draw(st.one_of(st.just(list(range(1, n + 1))), st.just([]),
                                st.lists(st.integers(1, n), unique=True)))
    f = named_fn("qr", p=p, n_bits=n, alice_positions=alice)
    assert (f.n_x, f.n_y) == (len(alice), n - len(alice))
    squares = {b * b % p for b in range(p)}   # 0 included
    for x, y in f.inputs():
        assert f.eval(x, y) == int(_qr_join(f, x, y) % p in squares), (x, y)
    assert qr_mismatches(f) == []
    i = data.draw(st.integers(0, len(f.table) - 1))
    flipped = bytearray(f.table)
    flipped[i] ^= 1
    g = BoolFn(f.n_x, f.n_y, flipped, f.name, f.params)
    assert qr_mismatches(g) == [divmod(i, 1 << f.n_y)]
