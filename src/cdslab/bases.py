"""The first protocol of each base but a span program.

A garden-hose strategy's CDS (``cds_from_gh``), the one-time table PSM of a
``psm`` base (``psm_generic_table``) and the qr encoding of a ``dre`` base
(``dre_qr``). Each request reads only its base's function here, and each
function reads what it needs at call time: ``cds_from_gh`` the water trace
in ``gardenhose``, ``dre_qr`` the qr rules in ``families``. The records,
their ``LinearPart`` and the sweep kernel are ``protocols``'; a ``span``
base's edge is ``spancds``'.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import permutations
from typing import TYPE_CHECKING

from .boolfn import BoolFn
from .errors import LazySpace, ValidationError, charge, current_limit
from .protocols import CdsProtocol, Dre, LinearPart, PsmProtocol, pair_space, product_space

if TYPE_CHECKING:
    from .gardenhose import GhStrategy


def cds_from_gh(strategy: GhStrategy, f: BoolFn) -> CdsProtocol:
    """One shared random bit per pipe; connections become XOR announcements.

    Alice reveals the tap bit masked with the secret and the XOR of each pair
    she joins; Bob reveals the XOR of each pair he joins plus, in the clear,
    every bit his side leaves unconnected. Chasing XORs along the water path
    unmasks the secret exactly when the water spills on Bob's side.

    ``linear`` states this over Z_2 with one nu and one rho coordinate per
    pipe: a party's tag lists the pipe sets it XORs, sorted pairs then Bob's
    open pipes, Alice's tap first, and its values are those XORs, all 0 at
    rho = 0 but Alice's first, s. Where the water spills on Alice's side the
    chased XOR is s plus that pipe's bit, not one value on a coset, so the
    decoder gives None there. The tap picks Alice's map but is not sent:
    ``sent`` drops it, so her alphabet counts what she sends, as each pipe's
    label does. Compiling refuses a strategy ``gh_routes`` finds of other
    widths or misrouted, and the decoder reads its one trace per input.
    """
    from .gardenhose import RIGHT, gh_routes, hoses

    outcomes = gh_routes(strategy, f)
    m = strategy.pipes

    def alice_form(x, s, nu):
        tap, ends = strategy.alice[x]
        return ((tap,),) + hoses(ends), (s,) + (0,) * (len(ends) // 2)

    def bob_form(y, nu):
        ends = strategy.bob[y]
        tag = hoses(ends) + tuple((k,) for k in range(1, m + 1) if k not in ends)
        return tag, (0,) * len(tag)

    def decode(m0, x, m1, y):
        outcome = outcomes[(x, y)]
        if outcome.side != RIGHT:
            return None
        (tag0, values0), (tag1, values1) = m0, m1
        lookup = dict(zip(tag0[1:] + tag1, values0[1:] + values1))
        value = values0[0] ^ lookup[(outcome.exit_pipe,)]
        for prev, cur in zip(outcome.path, outcome.path[1:]):
            value ^= lookup[tuple(sorted((prev, cur)))]
        return value

    # a partner map holds each hose under both its openings
    alice_bits = max(1 + len(ends) // 2 for _, ends in strategy.alice.values())
    bob_bits = max(m - len(ends) // 2 for ends in strategy.bob.values())
    resources = {
        "pipes": m,
        "randomness_bits": m,
        "randomness_states": 1 << m,
        "alice_message_bits": alice_bits,
        "bob_message_bits": bob_bits,
        "bound_randomness_equals_pipes": True,
    }
    # pipe k's coordinate moves each value whose pipe set holds it
    linear = LinearPart(2, (None,), (m, 0, 0), alice_form, bob_form,
                        cache(lambda side, tag: tuple(tuple(int(k in pipes) for pipes in tag)
                                                      for k in range(1, m + 1))),
                        lambda side, tag: tag if side else tag[1:])
    return CdsProtocol(f, (0, 1), linear, decode, resources=resources)


def psm_generic_table(f: BoolFn) -> PsmProtocol:
    """One-time-table PSM for any small f.

    Shared randomness holds a permuted, masked copy of f's truth table rows:
    Alice sends her permuted row under the mask, Bob sends the permuted
    position of his input and the mask bit there. The referee reads a single
    masked cell. Perfectly correct and perfectly private, but the randomness
    grows with (2^n_y)! so this is for tiny functions only.

    ``linear`` states it with no rho: the (permutation, mask) pairs, listed
    lazily permutation-major, are the nus, and each party sends its message
    as its tag, with no values.
    """
    cols = 1 << f.n_y
    # (2^n_y)! 2^(2^n_y) states: past 256 bits and the budget, charge the power
    # of two lgamma (within 1e-3 bits) shows it reaches; (2^20)! takes seconds
    bits = math.lgamma(cols + 1) / math.log(2) + cols - 1e-3
    total = (1 << int(bits) if bits > max(256, current_limit().bit_length())
             else math.factorial(cols) * (1 << cols))
    charge(total, "psm_generic_table randomness states")
    nus = pair_space(tuple(permutations(range(cols))), product_space((0, 1), cols))

    def alice_form(x, nu):
        perm, mask = nu
        row = [0] * cols
        for y in range(cols):
            row[perm[y]] = f.eval(x, y) ^ mask[perm[y]]
        return tuple(row), ()

    def bob_form(y, nu):
        perm, mask = nu
        return (perm[y], mask[perm[y]]), ()

    def decode(m0, m1):
        (row, _), ((pos, bit), _) = m0, m1
        return row[pos] ^ bit

    resources = {
        "randomness_states": total,
        "randomness_bits": math.log2(total),
        "alice_message_bits": cols,
        "bob_message_bits": f.n_y + 1,
    }
    linear = LinearPart(2, nus, (0, 0, 0), alice_form, bob_form, lambda side, tag: ())
    return PsmProtocol(f, linear, decode, resources=resources)


def dre_qr(f: BoolFn) -> Dre:
    """Randomized encoding of f, the qr function ``named_fn('qr', ...)`` builds.

    Bit i of a (weight 2^(i-1)) is encoded as y_i = a_i * r^2 * 2^(i-1) + s_i
    mod p with r uniform over the units and the s_i uniform summing to zero.
    The y_i sum telescopes to r^2 * a, whose residuosity equals a's; the
    random square factor and additive shares hide everything else. Each side
    sends ``((), values)``, its y_i in position order: the positions are
    fixed, so the tag is empty. Inputs are restricted to a in Z_p^*
    (nonzero, below p): 0 has no residue class.

    ``linear`` states the encoding: r is nonlinear and the n - 1 free shares
    are rho, the last share their negated sum, so ``shared`` lists (r, free
    shares) lazily, r-major. For fixed r the encoding fills the coset of the
    hyperplane sum(y) = r^2 * a, so the verifiers count (p - 1) / 2 cosets
    per input instead of (p - 1) * p^(n-1) values.
    """
    from .families import qr_positions, qr_residue, qr_split_at

    if "p" not in f.params:
        raise ValidationError("the dre base needs --fn qr")
    if missing := {"n_bits", "alice_positions"} - set(f.params):
        raise ValidationError(f"fn.params: a qr function names {', '.join(sorted(missing))}")
    p, n, alice = f.params["p"], f.params["n_bits"], f.params["alice_positions"]
    # the widths n and the positions imply, before anything is sized by n or p
    if (len(alice), n - len(alice)) != (f.n_x, f.n_y):
        raise ValidationError(f"qr widths {len(alice)}+{n - len(alice)} differ "
                              f"from the function's {f.n_x}+{f.n_y}")
    alice_pos, bob_pos = sides = qr_positions(f.params)
    residue = qr_residue(p)   # p checked once, not at each decode
    # per unit of free share k, share k moves by 1 and the last share by -1:
    # one map for every r, restricted to each party's positions
    maps = tuple(tuple(tuple(int(pos == k) + (p - 1) * (pos == n) for pos in positions)
                       for k in range(1, n)) for positions in (alice_pos, bob_pos))

    def form(positions):   # at rho = 0 every share is 0
        return lambda value, r: ((), tuple((((value >> j) & 1) * r * r << (pos - 1)) % p
                                           for j, pos in enumerate(positions)))

    def decode(mx, my):
        return residue((sum(mx[1]) + sum(my[1])) % p)

    domain = LazySpace(p - 1, lambda: (qr_split_at(sides, n, a) for a in range(1, p)))
    states = (p - 1) * p ** (n - 1)
    resources = {
        "field": p,
        "bits": n,
        "randomness_states": states,
        "randomness_bits": math.log2(states),
        "encoding_elements": n,
    }
    linear = LinearPart(p, range(1, p), (n - 1, 0, 0), form(alice_pos), form(bob_pos),
                        lambda side, tag: maps[side])
    return Dre(f, linear, decode, domain=domain, resources=resources)
