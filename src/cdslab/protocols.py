"""Classical message protocols: CDS, PSM, DRE, and the compilers between them.

Protocols are concrete message functions over finite, fully enumerable
randomness spaces. Their exact verifiers live in ``verifiers``, which only a
classical or PSQM verify loads; this module holds the records, the compilers
every base shares (PSM to CDS, DRE to PSM) and the one message-histogram
kernel every sweep reads. The compilers only one base runs have their own
modules: ``spancds`` the span program's CDS, ``bases`` the garden-hose CDS,
the one-time table PSM and the qr DRE.

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
membership reads too. This module reads neither ``algebra`` nor
``families``, so a pad route, which reads the kernel alone, loads no algebra
and no ``fractions``; of the builds, only a ``psm`` base's, which makes its
one-time table, loads it.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Callable, NamedTuple, Optional

from .boolfn import BoolFn
from .errors import InputDomain, LazySpace, ValidationError, charge, space_size
from .zp import echelon


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


# -- DRE -> PSM -----------------------------------------------------------------


def psm_from_dre(D: Dre) -> PsmProtocol:
    """A DRE is already a PSM: the two encoding halves are the messages, so
    the DRE's record is handed on as it is."""
    return D
