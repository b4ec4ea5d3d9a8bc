"""Pad-and-disclose quantum protocols from a classical CDS, PSM or PSQM.

Runs return one branch per pad key and transcript class: the transcripts of
a class decode to the same key and have proportional likelihoods under every
key, so the referee's view of each is a positive multiple of one operator
and the class's representative, with the summed weight, stands for all
``count`` of them exactly. Message counts come from
``protocols._sweep_kernel``, read at call time, and stay integers: a class's
weight under a key is a product of two runs' counts, out of the squared
joint randomness, and a branch is a ``frames`` state, the carrier padded by
its key. A PSQM is a classical PSM, handed on, whose messages its pad route
sweeps. A pad CDQS's referee holds "Q", and its recovery is the only decode
of a key; the qubit exits there where f = 1 and to the left side elsewhere,
so the CDQS is its own route. The left side's worst fidelity is read off the
key classes (``frames.left_fidelity``).
"""

from __future__ import annotations

import math
from functools import cache
from typing import TYPE_CHECKING, Callable, NamedTuple

from .errors import ValidationError, space_size
from .nlqc import FRoutingProtocol, PsqmProtocol, RunBranch

if TYPE_CHECKING:
    from .boolfn import BoolFn
    from .protocols import CdsProtocol, PsmProtocol


class TranscriptClass(NamedTuple):
    """Transcripts that decode alike and carry proportional key weights.

    ``rep`` is the first member in sweep order, ``weights`` maps each key of
    nonzero weight to the members' summed weight under it, and ``count`` is
    the number of transcripts the members stand for. Members share their
    support, so every key in ``weights`` stands for ``count`` transcripts.
    """

    rep: object
    weights: dict
    count: int


def transcript_classes(hists: dict, decode: Callable) -> list:
    """Group the transcripts of ``hists`` = {key: {transcript: integer weight}}.

    Two transcripts share a class when ``decode`` maps them to the same value
    and their weight vectors over the keys are exactly proportional: divided
    by their gcd, they are equal. A referee view linear in the weights that
    reads a transcript only through its decoded value is then a positive
    multiple of one operator across a class, so one branch per class gives
    the fidelity and trace-norm gap of one branch per transcript. Classes come in order of their first member, scanning the
    keys in order and each histogram in sweep order. A coset key stands for
    its ``count`` messages, which share its class.
    """
    from .protocols import message_count

    keys = list(hists)
    classes = {}
    for m in dict.fromkeys(m for s in keys for m in hists[s]):
        vec = [hists[s].get(m, 0) for s in keys]
        g = math.gcd(*vec)
        label = (decode(m), tuple(n // g for n in vec))
        rep, weights, count = classes.get(label) or (m, {}, 0)
        for s, w in zip(keys, vec):
            if w:
                weights[s] = weights.get(s, 0) + w
        classes[label] = (rep, weights, count + message_count(m))
    return [TranscriptClass(*c) for c in classes.values()]


def class_product(classes: list) -> list:
    """Classes of two independent runs keyed independently.

    A joint class's members are the pairs of per-run members, its key is
    the pair of per-run keys and its weights multiply: an outer product of
    proportional vectors is proportional, so the joint space is never
    enumerated member by member.
    """
    return [TranscriptClass((a.rep, b.rep), {(s, t): v * w for s, v in a.weights.items()
                                             for t, w in b.weights.items()},
                            a.count * b.count)
            for a in classes for b in classes]


def _pad_run(classes_of: Callable) -> Callable:
    """Run of a pad-and-disclose protocol.

    The carrier is padded under each key; each transcript class of
    ``classes_of(x, y)`` with weight under that key is one branch, carrying
    the class's representative, summed weight and member count.
    """
    from . import frames

    def run(x, y, carrier):
        classes = classes_of(x, y)
        return [RunBranch(c.weights[s], c.rep, frames.xor(carrier, s), c.count)
                for s in frames.KEYS for c in classes if c.weights.get(s)]

    return run


def _pad_cdqs(f: BoolFn, bit_hists: Callable, bit_of: Callable, denom, domain,
              resources: dict) -> FRoutingProtocol:
    """Pad-and-disclose CDQS: the referee gets the padded "Q" and the transcript.

    Alice pads the qubit with two key bits, and each bit is disclosed by one
    independent run. ``bit_hists(x, y)`` maps a key-bit value to one run's
    integer transcript counts, and ``bit_of(x, y, t)`` decodes one run's
    transcript t to a bit. A transcript of the protocol is the pair of run
    transcripts, and ``recover`` decodes it to the key and unpads "Q", the
    carried qubit, by XORing the key into its frame; a failed decode passes
    the state through. The qubit exits in "Q" where f = 1, and elsewhere
    has no exit register: the left side rebuilds it from the key. Its
    classes, the product of the per-run classes with integer weights out of
    ``denom``, are formed when an input's run or ``key_classes`` is called;
    a run's weights, one uniform key and a class, are out of 4 ``denom``.
    """
    from . import frames

    def key_classes(x, y):
        return class_product(transcript_classes(bit_hists(x, y), lambda t: bit_of(x, y, t)))

    def recover(x, y, transcript, state):
        key = tuple(bit_of(x, y, t) for t in transcript)
        return frames.xor(state, key) if key in frames.KEYS else state

    return FRoutingProtocol(f, _pad_run(key_classes), 4 * denom, lambda x, y: ("Q",), recover,
                            lambda x, y: "Q" if f.eval(x, y) == 1 else None,
                            key_classes=key_classes, domain=domain, resources=resources)


def cdqs_from_cds(C: CdsProtocol) -> FRoutingProtocol:
    """Quantum one-time pad keyed by two secret bits a classical CDS hides.

    Alice pads the secret qubit with the two-bit key and sends it along; two
    independent runs of the bit-CDS disclose the key exactly on revealing
    inputs. Hiding inputs leave the pad key uniform to the referee, so the
    qubit they hold is maximally mixed and decoupled. Each run's message
    counts come from one sweep per secret by ``verify_cds``'s kernel, by
    coset, over C's domain times its secrets, charged by their size at the
    first run (a layout the first nu misses, when met); the product weights
    stay integers until one division by the squared joint randomness.
    """
    from .protocols import _joint, _sweep_kernel

    if set(C.secrets) != {0, 1}:
        raise ValidationError("need a single-bit CDS")
    kernel = cache(lambda: _sweep_kernel(C, "cdqs_from_cds", C.secrets)[0])

    def bit_hists(x, y):
        return {s: kernel()(x, y, s) for s in C.secrets}

    resources = {"pad_key_bits": 2, "qubits_sent": 1,
                 "cds_randomness_states": space_size(C.shared) ** 2}
    return _pad_cdqs(C.f, bit_hists, lambda x, y, m: C.decode(m[0], x, m[1], y),
                     _joint(C) ** 2, C.domain, resources)


def frouting_from_cdqs(C: FRoutingProtocol) -> FRoutingProtocol:
    """Pad-and-disclose routing: the key travels only where f allows.

    Alice pads the qubit and sends it right while a key-disclosing scheme runs
    underneath. Revealing inputs let the right side decode the key and unpad,
    C's own recovery. On hiding inputs the messages carry no key information,
    so Alice, who kept her key register coherent, can rotate it through the
    pad-to-EPR basis and swap the qubit back onto her side. A pad CDQS, from
    a CDS or a PSQM, already states both exits, so the route is C itself; one
    made from a router has no pad key classes and is refused.
    """
    if C.key_classes is None:
        raise ValidationError("need a protocol exposing its pad key")
    return C


def psqm_from_psm(P: PsmProtocol) -> PsqmProtocol:
    """A classical PSM is a simultaneous-message protocol with no qubits:
    the PSQM holds P, whose messages it sends."""
    return PsqmProtocol(P, resources=dict(P.resources))


def cdqs_from_psqm(P: PsqmProtocol) -> FRoutingProtocol:
    """Pad the qubit with two shared bits; leak each bit through one masked run.

    For each key bit the parties either use their real inputs or a fixed
    hiding input, so the run computes (key bit) AND f(x, y). Revealing inputs
    hand the referee both key bits; hiding inputs make every run's view
    key-independent, leaving the pad intact. A run's message counts on an
    input pair are one sweep of the PSM's messages by ``verify_psm``'s
    kernel, by coset, out of its joint randomness states; the sweeps over
    its domain are charged by its size before the first (a layout the first
    nu misses, when met). The product weights stay integers until one
    division by the squared joint randomness.
    """
    from .protocols import _joint, _sweep_kernel, hiding_input

    psm, (x_star, y_star) = P.psm, hiding_input(P)
    kernel = cache(lambda: _sweep_kernel(psm, "psqm_from_psm")[0])
    # key bit 0 runs the hiding input, swept once; key bit 1 the real one
    hidden = cache(lambda: kernel()(x_star, y_star))
    resources = {"pad_key_bits": 2, "qubits_sent": 1, "runs": 2}
    return _pad_cdqs(P.f, lambda x, y: {0: hidden(), 1: kernel()(x, y)},
                     lambda x, y, t: psm.decode(t[0], t[1]), _joint(psm) ** 2, P.domain,
                     resources)
