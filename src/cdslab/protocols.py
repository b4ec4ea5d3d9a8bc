"""Classical message protocols: CDS, PSM, DRE, and the compilers between them.

Protocols are concrete message functions over finite, fully enumerable
randomness spaces. Their exact verifiers live in ``verifiers``, which only a
classical or PSQM verify loads; this module holds the records, the compilers and
the one message-histogram kernel every sweep reads.

Conventions shared by every protocol type here:

* ``linear`` is a ``LinearPart``: affine forms of each party's ``(tag,
  values)``, from which the record takes its randomness spaces: ``shared``,
  which both parties see and which alone counts as randomness complexity,
  and the party-local ``alice_private`` and ``bob_private``.
* tags must be hashable so message distributions can be histogrammed.
* ``domain`` is the sized space of input pairs a verify sweeps, all of f's
  inputs unless a constructor names a smaller one.

Every message sweep, in ``verifiers`` or in ``padroutes``, reads the forms
one coset at a time (``coset_hist``) through ``_sweep_kernel``. A form with no rho
coordinates is enumeration, each nu one point coset: the one-time table PSM
and the constant CDS state their messages so, as tags with no values. The
cosets are reduced by ``zp``'s echelon form, which ``algebra``'s span
membership reads too. This module reads ``algebra`` only where a span
program is compiled and ``families`` only where the qr encoding is, so a pad
route, which reads the kernel alone, loads no algebra and no ``fractions``;
of the builds, only a ``psm`` base's, which makes its one-time table, loads it.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import permutations, product
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .boolfn import BoolFn, literal_input
from .errors import InputDomain, LazySpace, ValidationError, charge, current_limit, space_size
from .zp import echelon

if TYPE_CHECKING:
    from .algebra import SpanProgram
    from .gardenhose import GhStrategy


def product_space(space, repeat: int) -> LazySpace:
    """``space`` to the power ``repeat``, in ``itertools.product`` order, on demand.

    Iteration holds ``space`` as a tuple but never the product, so ``space``
    must be small, such as the bits (0, 1) or ``range(p)``.
    """
    return LazySpace(space_size(space) ** repeat, lambda: product(space, repeat=repeat))


def pair_space(first, second) -> LazySpace:
    """Pairs (a, b) of two spaces, ``first`` major, on demand.

    Iteration walks ``first`` once and never holds it, so ``first`` may be
    a lazy space of any size.
    """
    return LazySpace(space_size(first) * space_size(second),
                     lambda: ((a, b) for a in first for b in second))


class PsmProtocol(InputDomain):
    """Private simultaneous messages: the referee learns f(x, y) and nothing else.

    The record takes its randomness spaces from ``linear``: ``shared`` holds
    (nu, shared rho), and each party's private space its own rho.
    """

    def __init__(self, f: BoolFn, linear: LinearPart, decode: Callable,
                 domain: Optional[LazySpace] = None, resources: Optional[dict] = None):
        p, (n_shared, n_alice, n_bob) = linear.p, linear.coords
        self.f, self.linear = f, linear
        self.decode = decode              # (m0, m1) -> value of f
        self.shared = pair_space(linear.nus, product_space(range(p), n_shared))
        self.alice_private = product_space(range(p), n_alice)
        self.bob_private = product_space(range(p), n_bob)
        super().__init__(domain, resources)


class CdsProtocol(PsmProtocol):
    """Conditional disclosure of a secret held by Alice: a PSM record plus ``secrets``.

    Alice's form takes the secret after x; the referee, knowing (x, y),
    should recover s exactly when f(x, y) = 1 and learn nothing about it
    otherwise, by ``decode(m0, x, m1, y)``.
    """

    def __init__(self, f: BoolFn, secrets: tuple, *args, **kwargs):
        self.secrets = secrets
        super().__init__(f, *args, **kwargs)


# a decomposable randomized encoding: Alice's encoding of x and Bob's of y
# must determine f(x, y) and be distributed by f(x, y) alone, as a PSM's
# messages are
Dre = PsmProtocol


def _joint(P) -> int:
    """Joint randomness states of P: shared times both private spaces."""
    return (space_size(P.shared) * space_size(P.alice_private) *
            space_size(P.bob_private))


# -- coset histograms --------------------------------------------------------


class LinearPart(NamedTuple):
    """A protocol's messages as affine forms over Z_p.

    Randomness is ``nu`` in ``nus``, nonlinear, and rho in Z_p^ell, ``coords``
    counting its shared, Alice's and Bob's coordinates. A party sends ``(tag,
    values)``: ``alice_form(x, *secret, nu)`` and ``bob_form(y, nu)`` give
    the tag, any hashable constant, and the values b at rho = 0, in 0..p-1;
    rho adds rho . ``maps(side, tag)`` (side 0 Alice), row k the change per
    unit of rho_k, zero on the other party's coordinates. The decoder must
    give one value on each coset the messages of one nu fill. ``nus`` may be
    a lazy space, charged by its size before a sweep draws a nu; with no
    rho coordinates each nu is one point coset.

    ``sent(side, tag)`` is what a message shows of its tag, the tag itself
    unless a tag also holds what picks its map: message alphabets count
    tags sent alike as one, when their maps span one row space.
    """

    p: int
    nus: object
    coords: tuple
    alice_form: Callable
    bob_form: Callable
    maps: Callable
    sent: Callable = lambda side, tag: tag


class Coset(NamedTuple):
    """Messages b + V of one pair of tags, keyed by a canonical member.

    ``m0`` and ``m1`` are Alice's and Bob's ``(tag, values)`` at the member
    whose values, concatenated, are b reduced by the echelon ``basis`` of V,
    so two cosets with one basis are equal exactly when their members are.
    Indexing gives m0 and m1 as for a message pair. ``count`` is the number
    of messages, p^dim(V).
    """

    m0: tuple
    m1: tuple
    basis: tuple
    count: int


def message_count(m) -> int:
    """Messages a histogram key stands for: a coset's ``count``, else 1."""
    return m.count if isinstance(m, Coset) else 1


def _shift(vec, coeffs, rows, p: int) -> tuple:
    """vec + sum of coeffs[k] rows[k] over Z_p; with rows an echelon basis and
    coeffs -vec at its pivots, vec + span(rows)'s member zero at every pivot."""
    for c, row in zip(coeffs, rows):
        if c:
            vec = [(v + c * w) % p for v, w in zip(vec, row)]
    return tuple(vec)


def coset_hist(P, x, y, *secret, spaces: Optional[dict] = None,
               met: Callable = lambda layout: None) -> dict:
    """Exact counts of P's message pair on (x, y), one entry per coset.

    P's ``linear`` states its messages. For each nu the values run
    over b + rho A, A both tags' maps side by side: uniform on b + V, V A's
    row space, and nu adds p^ell to its ``Coset``. A layout (tags and value
    counts) has one A, so its cosets are equal or disjoint and L1 distances
    are the message histograms'. ``spaces`` keeps each layout's echelon
    form, for a sweep or this call, made when first met after ``met`` gets
    the layout; a map not as wide as its values is refused.
    """
    lin = P.linear
    p, ell = lin.p, sum(lin.coords)
    spaces = {} if spaces is None else spaces
    hist = {}
    for nu in lin.nus:
        (tag0, b0), (tag1, b1) = lin.alice_form(x, *secret, nu), lin.bob_form(y, nu)
        layout = (tag0, tag1, len(b0), len(b1))
        if layout not in spaces:
            met(layout)
            maps = lin.maps(0, tag0), lin.maps(1, tag1)
            if any(len(row) != len(b) for rows, b in zip(maps, (b0, b1)) for row in rows):
                raise ValidationError("a map's rows are not as wide as its party's values")
            spaces[layout] = echelon([r0 + r1 for r0, r1 in zip(*maps)], p)
        basis, pivots = spaces[layout]
        b = b0 + b1
        c = _shift(b, [-b[col] for col in pivots], basis, p)
        key = Coset((tag0, c[:len(b0)]), (tag1, c[len(b0):]), tuple(basis), p ** len(basis))
        hist[key] = hist.get(key, 0) + p ** ell
    return hist


def _coset_alphabet(lin: LinearPart, members, side: int) -> int:
    """Distinct messages of one party (0 Alice, 1 Bob) over cosets' ``members``.

    A member ``(tag, values)`` stands for values + the row space of its
    tag's map, echeloned once per tag: such cosets are equal or disjoint,
    and so are those of tags ``sent`` alike whose maps span one row space.
    """
    p, spaces, found = lin.p, {}, set()
    for tag, values in members:
        if tag not in spaces:
            spaces[tag] = echelon(lin.maps(side, tag), p)
        basis, pivots = spaces[tag]
        found.add((lin.sent(side, tag), tuple(basis),
                   _shift(values, [-values[col] for col in pivots], basis, p)))
    return sum(p ** len(basis) for _, basis, _ in found)


def _sweep_kernel(P, what: str, secrets=()) -> tuple:
    """(histogram function, joint randomness) for P's sweep of ``what``.

    The cases are P's domain times ``secrets``, arguments (x, y, *secret),
    none with no secrets. The function, bound to P, is ``coset_hist``, one
    ``spaces`` for all cases, charged as ``what``'s message coordinates:
    (case, nu) pairs, counted from the domain's size before any input or
    nu is drawn, their values b, each as wide as the widest at the first
    nu, then at once the maps of the layouts met there, others' when met.
    """
    lin, space = P.linear, f"{what} message coordinates"
    tails = [(s,) for s in secrets] or [()]
    pairs = max(1, space_size(P.domain) * len(tails)) * space_size(lin.nus)
    charge(pairs, space)   # before the width probe draws an input
    nu = next(iter(lin.nus))
    firsts = {(t0, t1, len(b0), len(b1)) for (x, y) in P.domain for s in tails
              for (t0, b0), (t1, b1) in [(lin.alice_form(x, *s, nu), lin.bob_form(y, nu))]}
    coords, charged = [pairs * max([1] + [n0 + n1 for *_, n0, n1 in firsts])], set()

    def met(*layouts):
        new = set(layouts) - charged
        charged.update(new)
        coords[0] += sum(lin.coords) * sum(n0 + n1 for *_, n0, n1 in new)
        charge(coords[0], space)

    met()
    met(*firsts)
    spaces = {}
    return (lambda *args: coset_hist(P, *args, spaces=spaces, met=met)), _joint(P)


# -- garden hose -> CDS ------------------------------------------------------


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


# -- span program -> CDS -----------------------------------------------------


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

    from .algebra import LsssScheme, lsss_reconstruct

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


# -- PSM -> CDS and composition ---------------------------------------------


def cds_from_psm(P: PsmProtocol) -> CdsProtocol:
    """Hide a bit behind a PSM by remapping inputs toward a fixed 0-input.

    Both parties know a shared selector bit s'; they run the PSM on their real
    inputs when s' = 1 and on the fixed 0-input otherwise, so the PSM's output
    becomes f(x, y) AND s'. Alice additionally sends s XOR s'. When
    f(x, y) = 1 the referee reads s' off the PSM and unmasks the secret; when
    f(x, y) = 0 the selector stays hidden, and with it the secret.

    The CDS's forms are the PSM's: for each (nu, s') Alice sends the PSM's
    tag with the masked bit as her tag, and the PSM's values and map for
    that tag. So (nu, s') is nonlinear and rho stays linear.
    """
    f = P.f
    first = next((f.eval(x, y) for (x, y) in P.domain), 1)
    if all(f.eval(x, y) == first for (x, y) in P.domain):   # up to f's other value
        # constant f (an empty domain counts as 1): Alice's tag is the secret
        # when it may be revealed and empty otherwise; no randomness
        reveal = first == 1
        linear = LinearPart(2, (None,), (0, 0, 0), lambda x, s, nu: (s if reveal else (), ()),
                            lambda y, nu: ((), ()), lambda side, tag: ())
        return CdsProtocol(f, (0, 1), linear, lambda m0, x, m1, y: m0[0] if reveal else None,
                           domain=P.domain, resources={"randomness_bits": 0})

    x_star, y_star = hiding_input(P)
    n = space_size(P.shared)
    lin = P.linear

    def decode(m0, x, m1, y):
        (tag, masked), values = m0
        return masked ^ P.decode((tag, values), m1)

    resources = {
        "randomness_states": 2 * n,
        "randomness_bits": math.log2(n) + 1,
        "psm_randomness_states": n,
        "extra_message_bits": 1,
    }

    def alice_form(x, s, nu_sel):
        nu, sel = nu_sel
        tag, b = lin.alice_form(x if sel else x_star, nu)
        return (tag, s ^ sel), b

    linear = LinearPart(lin.p, pair_space(lin.nus, (0, 1)), lin.coords, alice_form,
                        lambda y, nu: lin.bob_form(y if nu[1] else y_star, nu[0]),
                        lambda side, tag: lin.maps(side, tag if side else tag[0]))
    return CdsProtocol(f, (0, 1), linear, decode, domain=P.domain, resources=resources)


def hiding_input(P) -> tuple:
    """P's first input pair with f = 0, which a masked run uses for the real one."""
    for (x, y) in P.domain:
        if P.f.eval(x, y) == 0:
            return x, y
    raise ValidationError("no hiding input available to mask with")


# -- DRE and PSM constructions ------------------------------------------------


def psm_from_dre(D: Dre) -> PsmProtocol:
    """A DRE is already a PSM: the two encoding halves are the messages, so
    the DRE's record is handed on as it is."""
    return D


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
