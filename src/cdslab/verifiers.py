"""Exact verifiers of the classical protocols: CDS, PSM and DRE.

Correctness error and secrecy leakage come out of one sweep loop,
``_sweep``, over the coset histograms ``protocols._sweep_kernel`` charges and
computes. Each figure counts randomness values, so it is exact as an integer
numerator over the sweep's one denominator, the protocol's joint randomness,
and a report writes it, reduced and as a float, in integer arithmetic.
``qverifiers.verify_psqm`` runs the PSM sweep too, so only a classical or
PSQM verify loads this module, and no request loads ``fractions``: only the
``Fraction`` views library callers read import it.
"""

from __future__ import annotations

import math
from itertools import combinations, count
from typing import TYPE_CHECKING, Callable

from .errors import Worst, space_size
from .protocols import _coset_alphabet, _sweep_kernel

if TYPE_CHECKING:
    from .protocols import CdsProtocol, Dre, PsmProtocol


def _enc(num: int, den: int) -> dict:
    """num/den as the reduced fraction and the float a report writes."""
    g = math.gcd(num, den)
    return {"num": num // g, "den": den // g, "float": num / den}


class VerificationReport:
    """Exact verification outcome of a classical protocol.

    ``eps`` is the worst count of decode-failing randomness values over
    inputs that must reveal; ``delta`` is the worst L1 distance, in counts,
    between message histograms that must look alike (secret pairs for CDS,
    equal-value input pairs for PSM/DRE). Both are over ``denom``, the joint
    randomness. ``eps_hat`` and ``delta_pair`` read them as ``Fraction``s;
    the best simulator sits somewhere in ``delta_bracket`` =
    [delta_pair/2, delta_pair].
    """

    def __init__(self, kind: str, eps: int, delta: int, denom: int, resources: dict,
                 witnesses: dict):
        self.kind, self.eps, self.delta, self.denom = kind, eps, delta, denom
        self.resources, self.witnesses = resources, witnesses

    @property
    def eps_hat(self):
        from fractions import Fraction

        return Fraction(self.eps, self.denom)

    @property
    def delta_pair(self):
        from fractions import Fraction

        return Fraction(self.delta, self.denom)

    @property
    def delta_bracket(self) -> tuple:
        return (self.delta_pair / 2, self.delta_pair)

    @property
    def perfect(self) -> bool:
        return self.eps == 0 and self.delta == 0

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "eps_hat": _enc(self.eps, self.denom),
            "delta_pair": _enc(self.delta, self.denom),
            "delta_bracket": [_enc(self.delta, 2 * self.denom), _enc(self.delta, self.denom)],
            "perfect": self.perfect,
            "resources": dict(self.resources),
            "witnesses": {k: list(v) if isinstance(v, tuple) else v
                          for k, v in self.witnesses.items()},
            "notes": [],
        }


def _l1(hist_a, hist_b) -> int:
    keys = set(hist_a) | set(hist_b)
    return sum(abs(hist_a.get(k, 0) - hist_b.get(k, 0)) for k in keys)


def _randomness(P) -> dict:
    resources = dict(P.resources)
    n = space_size(P.shared)
    resources.setdefault("randomness_states", n)
    resources.setdefault("randomness_bits", math.log2(n) if n else 0.0)
    return resources


def _sweep(P, rule: Callable, decode: Callable, what: str, seen: Callable,
           secrets=()) -> tuple:
    """(eps, delta, joint, witnesses) of P: the one classical sweep.

    It walks P's domain times ``secrets`` (none: args (x, y)), and ``rule``
    gives each case args = (x, y, *secret) its (want, group). Unless
    ``want`` is None P's messages on args must ``decode(m, x, y)`` to it;
    eps is the worst count of randomness values that fail, witnessed by
    args. Unless ``group`` is None they must be distributed as every case of
    the group; delta is the worst L1 distance of counts, witnessed by the
    first pair (args, args') in case order to reach it. Both are over
    ``joint``, the joint randomness every histogram's counts add up to. A
    group keeps only its distinct histograms, each with its first case: an
    equal one is as far from every other, and two distinct ones' first cases
    make their first pair. A group named by its input (x, y) is compared and
    dropped once that input's cases are swept (a CDS holds one input's at a
    time), any other at the walk's end; the distances meet ``Worst`` in case
    order. P is swept by coset; decoding is deterministic, so it runs once
    per coset and counts with its multiplicity. ``seen`` gets every case's
    args, histogram and count of failing randomness (None unless decoded),
    and ``what`` names the caller in budget errors.
    """
    hist_of, joint = _sweep_kernel(P, what, secrets)
    worst, kept, gaps, order = Worst(), {}, [], count()   # held histograms in case order

    def compare(group):
        gaps.extend((a, b, u, v, _l1(hu, hv))
                    for (a, u, hu), (b, v, hv) in combinations(kept.pop(group), 2))

    for (x, y) in P.domain:
        for args in [(x, y, s) for s in secrets] or [(x, y)]:
            want, group = rule(*args)
            hist = hist_of(*args)
            fails = None if want is None else sum(c for m, c in hist.items()
                                                  if decode(m, x, y) != want)
            seen(args, hist, fails)
            if fails is not None:
                worst.worse("eps", fails, args)
            if group is not None:
                held = kept.setdefault(group, [])
                if all(hist != other for *_, other in held):
                    held.append((next(order), args, hist))
        if (x, y) in kept:
            compare((x, y))
    for group in list(kept):
        compare(group)
    for *_, u, v, gap in sorted(gaps):   # by (a, b), unique
        worst.worse("delta", gap, (u, v))
    return worst.worst.get("eps", 0), worst.worst.get("delta", 0), joint, worst.witnesses


def verify_cds(P: CdsProtocol) -> VerificationReport:
    """Sweep all (x, y, s, randomness); exact worst-case error and leakage.

    A revealing input must decode every secret and a hiding input send all
    of them alike, a leak witnessed as (x, y, s, s'). Message alphabets are
    counted exactly, by coset.
    """
    alphabets = (set(), set())   # each party's cosets' members

    def seen(args, hist, fails):
        for side, alphabet in enumerate(alphabets):
            alphabet.update(m[side] for m in hist)

    def rule(x, y, s):
        return (s, None) if P.f.eval(x, y) == 1 else (None, (x, y))

    eps, delta, joint, witnesses = _sweep(P, rule, lambda m, x, y: P.decode(m[0], x, m[1], y),
                                          "verify_cds", seen, P.secrets)
    if "delta" in witnesses:
        a, b = witnesses["delta"]
        witnesses["delta"] = a + b[2:]
    resources = _randomness(P)
    for side, name in enumerate(("alice_message_alphabet", "bob_message_alphabet")):
        resources[name] = _coset_alphabet(P.linear, alphabets[side], side)
    return VerificationReport("cds", eps, delta, joint, resources, witnesses)


def _value_sweep(P, what: str, seen: Callable = lambda args, hist, fails: None) -> tuple:
    """A PSM's sweep: each input decodes to f's value and looks like all inputs of it."""
    return _sweep(P, lambda x, y: (P.f.eval(x, y),) * 2,
                  lambda m, x, y: P.decode(m[0], m[1]), what, seen)


def verify_psm(P: PsmProtocol) -> VerificationReport:
    """Exact decode error over all inputs; leakage over equal-value input pairs."""
    eps, delta, joint, witnesses = _value_sweep(P, "verify_psm")
    return VerificationReport("psm", eps, delta, joint, _randomness(P), witnesses)


def verify_dre(D: Dre) -> VerificationReport:
    """The PSM sweep of the DRE's encoding halves.

    Privacy holds exactly when equal-value inputs have equal whole-encoding
    histograms, i.e. when ``delta_pair`` is 0.
    """
    eps, delta, joint, witnesses = _value_sweep(D, "verify_dre")
    resources = dict(D.resources)
    resources.setdefault("randomness_states", space_size(D.shared))
    resources["same_class_histograms_equal"] = delta == 0
    return VerificationReport("dre", eps, delta, joint, resources, witnesses)
