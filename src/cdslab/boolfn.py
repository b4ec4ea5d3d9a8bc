"""Two-party Boolean functions as explicit truth tables.

A function f : {0,1}^n_x x {0,1}^n_y -> {0,1} is stored as one ``bytes`` of
0/1 entries indexed by ``(x << n_y) | y``, i.e. Alice's input occupies the high bits.
Every module shares this one indexing convention; the named families are
built in ``families``, which only a request naming one (``--fn``) or a
``dre`` verify loads, and every function of a shape, which ``sweep`` lists,
here, beside the one table packing.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, Sequence

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
        table: bytes of 2**(n_x+n_y) entries 0 or 1, entry ``(x << n_y) | y``.
        name: optional tag for named families.
        params: construction parameters of named families; equality and
            hashing ignore them.
    """

    def __init__(self, n_x: int, n_y: int, table: Sequence[int], name: str = "",
                 params: dict | None = None):
        self.n_x, self.n_y, self.name = n_x, n_y, name
        self.params = {} if params is None else params
        if self.n_x < 0 or self.n_y < 0 or self.n_x + self.n_y == 0:
            raise ValidationError("need at least one input bit across both sides")
        size = 1 << (self.n_x + self.n_y)
        if len(table) != size:   # first, so an int is never read as a length by bytes()
            raise ValidationError(f"table length {len(table)} != {size}")
        try:
            self.table = bytes(table)
        except (TypeError, ValueError):   # a str, None or an entry outside 0..255
            raise ValidationError("table entries must be bits") from None
        if len(self.table) != size or self.table.translate(None, b"\0\1"):   # wider buffer items
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
        return product(range(1 << self.n_x), range(1 << self.n_y))

    def ones(self) -> list:
        return [(x, y) for (x, y) in self.inputs() if self.eval(x, y) == 1]

    # -- serialization ------------------------------------------------------

    def to_jsonable(self) -> dict:
        # hex bit i is entry i, as ``from_packed`` reads; base 2 converts in linear time
        packed = int(self.table[::-1].translate(bytes.maketrans(b"\0\1", b"01")), 2)
        return {
            "n_x": self.n_x,
            "n_y": self.n_y,
            "table": format(packed, "x"),
            "name": self.name,
            "params": self.params,
        }

    @staticmethod
    def from_jsonable(obj: dict) -> "BoolFn":
        return from_packed(obj["n_x"], obj["n_y"], int(obj["table"], 16),
                           name=obj.get("name", ""), params=obj.get("params", {}))


def from_packed(n_x: int, n_y: int, packed: int, name: str = "",
                params: dict | None = None) -> BoolFn:
    """The function whose entry i is bit i of ``packed``, which has no higher bit."""
    if packed < 0 or packed.bit_length() > 1 << (n_x + n_y):
        raise ValidationError("table value wider than 2^(nx+ny) bits")
    digits = format(packed, f"0{1 << (n_x + n_y)}b").encode()[::-1]   # digit i is entry i
    return BoolFn(n_x, n_y, digits.translate(bytes.maketrans(b"01", b"\0\1")), name, params)


def all_functions(n_x: int, n_y: int) -> Iterator[BoolFn]:
    """Every Boolean function on n_x + n_y bits, in truth-table order."""
    for packed in range(1 << (1 << (n_x + n_y))):
        yield from_packed(n_x, n_y, packed, name=f"t{packed:x}")


def bits_msb_first(value: int, width: int) -> tuple:
    """Big-endian bit tuple of ``value``, e.g. (1, 0) for value=2, width=2."""
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def literal_input(f: BoolFn, x: int, y: int) -> tuple:
    """Joint assignment (z_1 .. z_n) read MSB-first: Alice's bits then Bob's.

    Variable k <= n_x is Alice's k-th bit in reading order; variables
    n_x+1 .. n_x+n_y are Bob's. This is the indexing span programs use.
    """
    return bits_msb_first(x, f.n_x) + bits_msb_first(y, f.n_y)
