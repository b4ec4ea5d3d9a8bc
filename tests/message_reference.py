"""The enumerating reference: a protocol's messages at every randomness value.

``protocols`` sweeps every protocol by coset. The tests check those sweeps
against this module, which evaluates each party's message ``(tag, b + rho .
maps mod p)`` from the protocol's forms at every nu and every rho in
Z_p^ell, one at a time, as a hand-written encoder would send it.

It also restates protocols for tests: ``enumerated`` puts every (nu, rho)
into the nus, so the verifiers sweep one message pair per coset, and
``point_forms`` states hand-written message tables the same way. A form
with no rho coordinates is enumeration.
"""

from __future__ import annotations

from itertools import product

from cdslab.protocols import CdsProtocol, LinearPart, PsmProtocol, pair_space, product_space
from cdslab.verifiers import _randomness

# the spaces a record takes from its forms, which its constructor does not take
SPACES = {"shared", "alice_private", "bob_private"}


def replace(P, **changes):
    """Protocol P rebuilt through its constructor with ``changes`` to its fields."""
    fields = {k: v for k, v in {**vars(P), **changes}.items() if k not in SPACES}
    return type(P)(**fields)


def send(lin: LinearPart, side: int, form, rho) -> tuple:
    """The message ``(tag, values)`` a party sends at ``rho`` for its form's
    ``(tag, b)``: b plus rho times the tag's map, mod p."""
    tag, b = form
    rows = lin.maps(side, tag)
    return tag, tuple((v + sum(c * row[i] for c, row in zip(rho, rows))) % lin.p
                      for i, v in enumerate(b))


def messages(P, x, y, *secret):
    """P's message pair at every (nu, rho), nu-major, rho in product order:
    shared, Alice's and Bob's coordinates."""
    lin = P.linear
    for nu in lin.nus:
        forms = lin.alice_form(x, *secret, nu), lin.bob_form(y, nu)
        for rho in product(range(lin.p), repeat=sum(lin.coords)):
            yield tuple(send(lin, side, form, rho) for side, form in enumerate(forms))


def message_hist(P, x, y, *secret) -> dict:
    """Exact counts of P's message pair on (x, y), keys in sweep order."""
    hist = {}
    for m in messages(P, x, y, *secret):
        hist[m] = hist.get(m, 0) + 1
    return hist


def point_forms(nus, alice, bob) -> LinearPart:
    """Forms with no rho: at each nu a party sends ``alice(x, *secret, nu)``
    or ``bob(y, nu)`` as its tag, with no values."""
    return LinearPart(2, nus, (0, 0, 0), lambda x, *args: (alice(x, *args), ()),
                      lambda y, nu: (bob(y, nu), ()), lambda side, tag: ())


def cds_of(f, nus, alice, bob, decode, secrets=(0, 1), **kwargs) -> CdsProtocol:
    """A CDS sending ``point_forms``' tags, ``decode(m0, x, m1, y)`` reading them."""
    return CdsProtocol(f, secrets, point_forms(nus, alice, bob),
                       lambda m0, x, m1, y: decode(m0[0], x, m1[0], y), **kwargs)


def psm_of(f, nus, alice, bob, decode, **kwargs) -> PsmProtocol:
    """A PSM sending ``point_forms``' tags, ``decode(m0, m1)`` reading them."""
    return PsmProtocol(f, point_forms(nus, alice, bob), lambda m0, m1: decode(m0[0], m1[0]),
                       **kwargs)


def enumerated(P):
    """P with every (nu, rho) a nu and every message its tag: the verifiers
    sweep it message by message, in ``messages``' order.

    Its decoder reads the messages, and its alphabets count them as sent. It
    keeps P's randomness figures, which its own spaces would not give where
    P has private coordinates.
    """
    lin = P.linear

    def form(side, stated):
        def point(z, *args):   # args: *secret, (nu, rho)
            *secret, (nu, rho) = args
            return send(lin, side, stated(z, *secret, nu), rho), ()
        return point

    flat = LinearPart(lin.p, pair_space(lin.nus, product_space(range(lin.p), sum(lin.coords))),
                      (0, 0, 0), form(0, lin.alice_form), form(1, lin.bob_form),
                      lambda side, tag: (), lambda side, m: (lin.sent(side, m[0]), m[1]))
    kwargs = {"domain": P.domain, "resources": _randomness(P)}
    if isinstance(P, CdsProtocol):
        return CdsProtocol(P.f, P.secrets, flat,
                           lambda m0, x, m1, y: P.decode(m0[0], x, m1[0], y), **kwargs)
    return type(P)(P.f, flat, lambda m0, m1: P.decode(m0[0], m1[0]), **kwargs)
