"""Named function families (``and``, ``or``, ``xor``, ``eq``, ``ip``, ``index``,
``qr``), the residue indicator and every function of a shape, in ``boolfn``'s
convention; a ``--table`` build and a descriptor's verify do not load them.
"""

from __future__ import annotations

from typing import Iterator

from .boolfn import BoolFn, from_packed, is_prime
from .errors import DomainError, ValidationError, charge


def _build(n_x, n_y, rule, name, params=None):
    table = tuple(rule(x, y) for x in range(1 << n_x) for y in range(1 << n_y))
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


def euler_qr(a: int, p: int) -> int:
    """Quadratic-residue indicator via Euler's criterion: a^((p-1)/2) mod p.

    Returns 1 if a is a nonzero square mod p, else 0. a = 0 is rejected:
    the criterion evaluates to 0 there, which is neither label.
    """
    if not is_prime(p) or p == 2:
        raise ValidationError(f"p={p} must be an odd prime")
    if a % p == 0:
        raise DomainError("a = 0 mod p is outside the residue/non-residue split")
    return int(pow(a, (p - 1) // 2, p) == 1)


def _qr_split(p: int, alice_positions=None, n_bits=None):
    """Residuosity of a split integer: a's bits are divided between the parties.

    Bit positions are 1-based with weight 2**(i-1). Alice holds
    ``alice_positions``; Bob holds the rest. Each party's input packs its held
    bits low-to-high (input bit j is the party's j-th held position, positions
    sorted ascending). The value a is reduced mod p; a = 0 counts as a residue
    since 0 = 0**2. Residuosity is read from a table of p entries, charged
    before it is made by squaring 0..(p-1)/2.
    """
    if not is_prime(p) or p == 2:
        raise ValidationError(f"p={p} must be an odd prime")
    n = n_bits if n_bits is not None else p.bit_length()
    if alice_positions is None:
        alice_positions = tuple(range(1, n // 2 + 1))
    alice_positions = tuple(sorted(alice_positions))
    if any(not 1 <= i <= n for i in alice_positions):
        raise ValidationError("alice positions outside 1..n")
    if len(set(alice_positions)) != len(alice_positions):
        raise ValidationError("duplicate alice positions")
    bob_positions = tuple(i for i in range(1, n + 1) if i not in alice_positions)
    charge(p, "qr residue table entries")
    residues = bytearray(p)
    for b in range(p // 2 + 1):
        residues[b * b % p] = 1
    # each party's inputs with their bits moved to its positions
    at_x, at_y = ([sum(((v >> j) & 1) << (pos - 1) for j, pos in enumerate(positions))
                   for v in range(1 << len(positions))]
                  for positions in (alice_positions, bob_positions))
    return _build(len(alice_positions), len(bob_positions),
                  lambda x, y: residues[(at_x[x] | at_y[y]) % p], f"qr{p}",
                  {"p": p, "alice_positions": list(alice_positions), "n_bits": n})


def _qr_positions(f: BoolFn) -> tuple:
    """(Alice's positions, Bob's positions) of a qr-split function."""
    if "alice_positions" not in f.params:
        raise DomainError("not a qr-split function")
    alice = sorted(f.params["alice_positions"])
    return alice, [i for i in range(1, f.params["n_bits"] + 1) if i not in alice]


def qr_split_inputs(f: BoolFn, a: int) -> tuple:
    """Split an integer a into the (x, y) pair that assembles back to it."""
    alice, bob = _qr_positions(f)
    n = f.params["n_bits"]
    if not 0 <= a < (1 << n):
        raise DomainError(f"a={a} does not fit in {n} bits")
    x = sum(((a >> (pos - 1)) & 1) << j for j, pos in enumerate(alice))
    y = sum(((a >> (pos - 1)) & 1) << j for j, pos in enumerate(bob))
    return (x, y)


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


def all_functions(n_x: int, n_y: int) -> Iterator[BoolFn]:
    """Every Boolean function on n_x + n_y bits, in truth-table order."""
    for packed in range(1 << (1 << (n_x + n_y))):
        yield from_packed(n_x, n_y, packed, name=f"t{packed:x}")
