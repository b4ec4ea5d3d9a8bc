"""Named function families (``and``, ``or``, ``xor``, ``eq``, ``ip``, ``index``,
``qr``), the residue indicator, and the qr split and residue rules a ``dre``
base is checked by, in ``boolfn``'s convention; only ``--fn`` and a ``dre``
verify load them.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Iterator

from .boolfn import BoolFn, is_prime
from .errors import DomainError, ValidationError, charge


def _build(n_x, n_y, rule, name, params=None):
    table = bytes(rule(x, y) for x in range(1 << n_x) for y in range(1 << n_y))
    return BoolFn(n_x, n_y, table, name=name, params=params or {})


def _and(n):
    full = (1 << n) - 1
    return _build(n, n, lambda x, y: int(x == full and y == full), f"and{n}", {"n": n})


def _or(n):
    return _build(n, n, lambda x, y: int(x != 0 or y != 0), f"or{n}", {"n": n})


def _xor(n):
    return _build(n, n, lambda x, y: bin(x ^ y).count("1") & 1, f"xor{n}", {"n": n})


def _eq(n):
    return _build(n, n, lambda x, y: int(x == y), f"eq{n}", {"n": n})


def _ip(n):
    return _build(n, n, lambda x, y: bin(x & y).count("1") & 1, f"ip{n}", {"n": n})


def _index(n_x):
    # Bob's input is a database of 2**n_x bits; bit x is (y >> x) & 1.
    n_y = 1 << n_x
    return _build(n_x, n_y, lambda x, y: (y >> x) & 1, f"index{n_x}", {"n_x": n_x})


def qr_residue(p: int) -> Callable[[int], int]:
    """Euler's criterion mod p, p checked an odd prime once, here: a -> 1 if
    a is a nonzero square mod p (a^((p-1)/2) = 1 mod p), else 0. a = 0 is
    rejected: the criterion evaluates to 0 there, which is neither label."""
    if not is_prime(p) or p == 2:
        raise ValidationError(f"p={p} must be an odd prime")

    def residue(a: int) -> int:
        if a % p == 0:
            raise DomainError("a = 0 mod p is outside the residue/non-residue split")
        return int(pow(a, (p - 1) // 2, p) == 1)

    return residue


def qr_positions(params: dict) -> tuple:
    """(Alice's positions, Bob's), each ascending, of the split integer qr
    ``params`` name: ``n_bits`` bits, bit i of weight 2**(i-1), mod the odd
    prime ``p``, whose p-entry residue table is charged here, before anything
    sized by p is made. Alice holds ``alice_positions``, distinct, in
    1..n_bits, and Bob the rest; a party's input bit j is its j-th position."""
    p, n = params["p"], params["n_bits"]
    if not is_prime(p) or p == 2:
        raise ValidationError(f"p={p} must be an odd prime")
    charge(p, "qr residue table entries")
    alice = tuple(sorted(params["alice_positions"]))
    if any(not 1 <= i <= n for i in alice):
        raise ValidationError(f"alice positions outside 1..{n}")
    if len(set(alice)) != len(alice):
        raise ValidationError("duplicate alice positions")
    return alice, tuple(i for i in range(1, n + 1) if i not in alice)


def _qr_rows(p: int, alice: tuple, bob: tuple) -> Iterator[bytes]:
    """The split function's table, row x as bytes over y: whether a = ax + ay,
    x's and y's bits moved to their disjoint positions, is a square mod p, 0
    included, read at ay from ax on in p's squares repeated past 2**n_bits."""
    residues = bytearray(p)
    for b in range(p // 2 + 1):
        residues[b * b % p] = 1
    at_x, at_y = ([sum(((v >> j) & 1) << (pos - 1) for j, pos in enumerate(positions))
                   for v in range(1 << len(positions))] for positions in (alice, bob))
    repeated = memoryview(residues * ((1 << (len(alice) + len(bob))) // p + 1))
    pick = itemgetter(*at_y, 0)   # a spare last index: even one ay picks a tuple
    return (bytes(pick(repeated[ax:])[:-1]) for ax in at_x)


def _qr_split(p: int, alice_positions=None, n_bits=None):
    """Residuosity of a split integer (see ``qr_positions``): its n_bits bits,
    by default p's width, Alice holding by default the low half."""
    n = p.bit_length() if n_bits is None else n_bits
    params = {"p": p, "n_bits": n, "alice_positions": range(1, n // 2 + 1)
              if alice_positions is None else alice_positions}
    alice, bob = qr_positions(params)
    return BoolFn(len(alice), len(bob), b"".join(_qr_rows(p, alice, bob)),
                  f"qr{p}", {**params, "alice_positions": list(alice)})


def qr_mismatches(f: BoolFn) -> list:
    """The inputs (x, y) where f's table differs from its params' ``_qr_rows``, by row."""
    width, rows = 1 << f.n_y, enumerate(_qr_rows(f.params["p"], *qr_positions(f.params)))
    return [(x, y) for x, want in rows if f.table[x * width:(x + 1) * width] != want
            for y in range(width) if f.table[x * width + y] != want[y]]


def qr_split_at(positions: tuple, n: int, a: int) -> tuple:
    """Split an n-bit integer a into the (x, y) pair that assembles back to
    it, each party's bits read at its ``qr_positions``."""
    if not 0 <= a < (1 << n):
        raise DomainError(f"a={a} does not fit in {n} bits")
    return tuple(sum(((a >> (pos - 1)) & 1) << j for j, pos in enumerate(side))
                 for side in positions)


_REGISTRY = {
    "and": _and,
    "or": _or,
    "xor": _xor,
    "eq": _eq,
    "ip": _ip,
    "index": _index,
    "qr": _qr_split,
}


def named_fn(name: str, **params) -> BoolFn:
    """Build a named function, e.g. named_fn('and', n=1) or named_fn('qr', p=7).

    Known families: and, or, xor, eq, ip (n bits per side), index (n_x bits
    against a 2**n_x-bit database), qr (split-integer quadratic residuosity).
    """
    key = name.lower()
    if key not in _REGISTRY:
        raise ValidationError(f"unknown function family {name!r}; known: {sorted(_REGISTRY)}")
    return _REGISTRY[key](**params)
