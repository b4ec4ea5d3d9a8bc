"""Two-party Boolean functions as explicit truth tables.

A function f : {0,1}^n_x x {0,1}^n_y -> {0,1} is stored as a flat tuple of
bits indexed by ``(x << n_y) | y``, i.e. Alice's input occupies the high bits.
All named families used elsewhere in the package are built here so every
module shares one indexing convention.
"""

from __future__ import annotations

from typing import Iterator

from .errors import DomainError, ValidationError


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, Math. Comp. 2017)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Exact primality of ``n`` below ``PRIME_BOUND``; a larger ``n`` is refused.

    Division by the 13 base primes decides every n < 41^2; past that, a
    strong-probable-prime test to each base, which no composite below the
    bound passes.
    """
    if n >= PRIME_BOUND:
        raise ValidationError(f"primality is decided only below {PRIME_BOUND}")
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    if n < 41 * 41:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1   # n - 1 = d 2^s with d odd
    d = (n - 1) >> s
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class BoolFn:
    """Truth table of a two-party Boolean function.

    Attributes:
        n_x: number of input bits on Alice's side.
        n_y: number of input bits on Bob's side.
        table: tuple of 2**(n_x+n_y) bits, entry ``(x << n_y) | y``.
        name: optional tag for named families.
        params: construction parameters of named families; equality and
            hashing ignore them.
    """

    def __init__(self, n_x: int, n_y: int, table: tuple, name: str = "",
                 params: dict | None = None):
        self.n_x, self.n_y = n_x, n_y
        self.table, self.name = table, name
        self.params = {} if params is None else params
        if self.n_x < 0 or self.n_y < 0 or self.n_x + self.n_y == 0:
            raise ValidationError("need at least one input bit across both sides")
        size = 1 << (self.n_x + self.n_y)
        if len(self.table) != size:
            raise ValidationError(f"table length {len(self.table)} != {size}")
        if any(b not in (0, 1) for b in self.table):
            raise ValidationError("table entries must be bits")

    def __eq__(self, other) -> bool:
        return type(other) is BoolFn and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def _key(self) -> tuple:
        return (self.n_x, self.n_y, self.table, self.name)

    # -- evaluation ---------------------------------------------------------

    def eval(self, x: int, y: int) -> int:
        if not 0 <= x < (1 << self.n_x):
            raise DomainError(f"x={x} outside [0, {1 << self.n_x})")
        if not 0 <= y < (1 << self.n_y):
            raise DomainError(f"y={y} outside [0, {1 << self.n_y})")
        return self.table[(x << self.n_y) | y]

    def inputs(self) -> Iterator[tuple]:
        for x in range(1 << self.n_x):
            for y in range(1 << self.n_y):
                yield (x, y)

    def ones(self) -> list:
        return [(x, y) for (x, y) in self.inputs() if self.eval(x, y) == 1]

    # -- serialization ------------------------------------------------------

    def to_jsonable(self) -> dict:
        # hex bit i is entry i, the packing ``from_packed`` reads
        packed = 0
        for i, b in enumerate(self.table):
            packed |= b << i
        return {
            "n_x": self.n_x,
            "n_y": self.n_y,
            "table": format(packed, "x"),
            "name": self.name,
            "params": self.params,
        }

    @staticmethod
    def from_jsonable(obj: dict) -> "BoolFn":
        return from_packed(int(obj["n_x"]), int(obj["n_y"]), int(obj["table"], 16),
                           name=obj.get("name", ""), params=obj.get("params", {}))


def from_table(n_x: int, n_y: int, table, name: str = "") -> BoolFn:
    return BoolFn(n_x, n_y, tuple(table), name=name)


def from_packed(n_x: int, n_y: int, packed: int, name: str = "",
                params: dict | None = None) -> BoolFn:
    """The function whose entry i is bit i of ``packed``, which has no higher bit."""
    if packed < 0 or packed.bit_length() > 1 << (n_x + n_y):
        raise ValidationError("table value wider than 2^(nx+ny) bits")
    table = tuple((packed >> i) & 1 for i in range(1 << (n_x + n_y)))
    return BoolFn(n_x, n_y, table, name=name, params=params)


def bits_msb_first(value: int, width: int) -> tuple:
    """Big-endian bit tuple of ``value``, e.g. (1, 0) for value=2, width=2."""
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def literal_input(f: BoolFn, x: int, y: int) -> tuple:
    """Joint assignment (z_1 .. z_n) read MSB-first: Alice's bits then Bob's.

    Variable k <= n_x is Alice's k-th bit in reading order; variables
    n_x+1 .. n_x+n_y are Bob's. This is the indexing span programs use.
    """
    return bits_msb_first(x, f.n_x) + bits_msb_first(y, f.n_y)


# -- named families ----------------------------------------------------------


def _build(n_x, n_y, rule, name, params=None):
    table = []
    for x in range(1 << n_x):
        for y in range(1 << n_y):
            table.append(rule(x, y))
    return BoolFn(n_x, n_y, tuple(table), name=name, params=params or {})


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


def qr_residues(p: int) -> set:
    """All quadratic residues mod p including 0 (brute force over squares)."""
    return {(b * b) % p for b in range(p)}


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
    since 0 = 0**2.
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
    residues = qr_residues(p)
    fn = _build(
        len(alice_positions),
        len(bob_positions),
        lambda x, y: int(_assemble(x, y, alice_positions, bob_positions) % p
                         in residues),
        f"qr{p}",
        {"p": p, "alice_positions": list(alice_positions), "n_bits": n},
    )
    return fn


def _assemble(x: int, y: int, alice_positions, bob_positions) -> int:
    """Integer whose bit at each party's j-th position is that input's bit j."""
    a = 0
    for j, pos in enumerate(alice_positions):
        a |= ((x >> j) & 1) << (pos - 1)
    for j, pos in enumerate(bob_positions):
        a |= ((y >> j) & 1) << (pos - 1)
    return a


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
