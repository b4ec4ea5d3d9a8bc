"""Span program -> CDS: secret sharing along a span program.

Only a ``span`` base's verify compiles this edge, so only it loads this
module: no garden-hose, qr or one-time-table request does, and a ``span``
build reads ``algebra`` without it. The record and its ``LinearPart`` are
``protocols``'.
"""

from __future__ import annotations

from functools import cache

from .algebra import LsssScheme, SpanProgram, lsss_reconstruct
from .boolfn import BoolFn, literal_input
from .errors import ValidationError
from .protocols import CdsProtocol, LinearPart


def cds_from_span(program: SpanProgram, f: BoolFn, variant: str = "comm") -> CdsProtocol:
    """Secret sharing along a span program, in two resource trade-offs.

    ``comm``: both parties expand shared randomness into a full sharing of an
    implicit random secret; each sends the shares of rows its own bits make
    available, and Alice adds one correction element binding the real secret.
    Communication stays within the scheme's share total plus that one extra
    element (the price of the secret living on one side only).

    ``rand``: Alice shares the secret herself with private coins and sends all
    of Bob's rows masked; shared randomness pays only for the masks, one per
    Bob row. Bob reveals the masks his bits entitle him to.

    Both variants are linear CDS schemes: each party sends the rows its input
    makes available, found once per input, as its tag, and field elements
    affine over Z_p in all of the randomness (u, or the masks then the free
    coordinates) as its values, which ``linear`` states with no nonlinear
    part; a tag's map is the program's columns at its rows. The program must
    compute f: ``verify_cds`` reports a decode error where it rejects a
    1-input and a leak where it accepts a 0-input, and a verify refuses a
    descriptor's program before compiling, naming every such input.
    """
    if program.n_vars != f.n_x + f.n_y:
        raise ValidationError("span program variable count must match f's input bits")
    if variant not in ("comm", "rand"):
        raise ValidationError(f"unknown variant {variant!r}")

    p = program.p
    scheme = LsssScheme(program)
    e = program.width
    d = program.size
    elem_bits = (p - 1).bit_length()
    bob_rows = tuple(i for i, (var, _) in enumerate(program.labels) if var > f.n_x)
    # each input's available rows, its party's tag, found once per input
    rows_a = {x: tuple(i for i in program.available_rows(literal_input(f, x, 0))
                       if program.labels[i][0] <= f.n_x) for x in range(1 << f.n_x)}
    rows_b = {y: tuple(i for i in program.available_rows(literal_input(f, 0, y))
                       if program.labels[i][0] > f.n_x) for y in range(1 << f.n_y)}

    if variant == "comm":

        def values(side, rows, pad, shares):   # pad is s - <target, u>, shares M u
            return (pad,) * (1 - side) + tuple(shares[i] for i in rows)

        # per unit of s the pad moves by 1; per unit of u_k by -target[k], and
        # share i by M[i][k]
        one = (1, (0,) * d)
        grads = [((-t) % p, col) for t, col in zip(program.target, zip(*program.matrix))]

        def decode(m0, x, m1, y):
            (rows0, (pad, *values0)), (rows1, values1) = m0, m1
            implicit = lsss_reconstruct(scheme, rows0 + rows1, values0 + list(values1))
            return None if implicit is None else (implicit + pad) % p

        comm_elems = max(len(rows_a[x]) + 1 + len(rows_b[y]) for (x, y) in f.inputs())
        resources = {
            "randomness_states": p ** e,
            "randomness_bits": e * elem_bits,
            "communication_bits": comm_elems * elem_bits,
            "share_total_bits": (d + 1) * elem_bits,
            "bound_communication_le_share_total":
                comm_elems * elem_bits <= (d + 1) * elem_bits,
        }
        coords = (e, 0, 0)
    else:
        n_masks = len(bob_rows)
        mask_of = {i: k for k, i in enumerate(bob_rows)}

        def values(side, rows, shares, masks):
            if side:
                return tuple(masks[mask_of[i]] for i in rows)
            return (tuple(shares[i] for i in rows) +
                    tuple((shares[i] + mk) % p for i, mk in zip(bob_rows, masks)))

        # vector_for(s, free) is s z, z nonzero only at the pivot, plus e_k -
        # target[k] z per unit of free coordinate k: share i moves by
        # M[i][k] - target[k] (M z)_i
        z = scheme.vector_for(1, (0,) * (e - 1))
        base = scheme.shares_from_vector(z)
        one = (base, (0,) * n_masks)
        grads = ([((0,) * d, tuple(int(m == k) for m in range(n_masks)))
                  for k in range(n_masks)] +   # the masks, then the free coordinates
                 [(tuple((a - t * b) % p for a, b in zip(col, base)), (0,) * n_masks)
                  for t, col, zk in zip(program.target, zip(*program.matrix), z) if not zk])

        def decode(m0, x, m1, y):
            (rows0, values0), (rows1, masks1) = m0, m1
            masked = values0[len(rows0):]
            unmasked = [(masked[mask_of[i]] - mk) % p for i, mk in zip(rows1, masks1)]
            return lsss_reconstruct(scheme, rows0 + rows1,
                                    list(values0[:len(rows0)]) + unmasked)

        resources = {
            "randomness_states": p ** n_masks,
            "randomness_bits": n_masks * elem_bits,
            "share_total_bits": d * elem_bits,
            "bound_randomness_le_share_total": n_masks * elem_bits <= d * elem_bits,
            "alice_private_states": p ** (e - 1),
        }
        coords = (n_masks, e - 1, 0)

    resources["field"] = p
    resources["program_rows"] = d
    # values are linear in s and rho: at rho = 0 Alice's are s times her values
    # per unit of s, Bob's 0; a tag's map is made when a sweep first meets it
    linear = LinearPart(p, (None,), coords, lambda x, s, nu: (
                            rows_a[x], tuple(s * v % p for v in values(0, rows_a[x], *one))),
                        lambda y, nu: (rows_b[y], (0,) * len(rows_b[y])),
                        cache(lambda side, rows: tuple(values(side, rows, *g) for g in grads)))
    return CdsProtocol(f, (0, 1), linear, decode, resources=resources)
