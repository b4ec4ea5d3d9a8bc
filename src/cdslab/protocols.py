"""Classical message protocols: CDS, PSM, DRE, and exact verifiers.

Protocols are concrete message functions over finite, fully enumerable
randomness spaces. Verifiers never sample: correctness error and secrecy
leakage come out as exact rationals from sweeping every input, secret, and
randomness value.

Conventions shared by every protocol type here:

* ``shared`` is the common randomness both parties see; ``alice_private`` and
  ``bob_private`` are party-local coin spaces (usually the single value
  ``None``). Only the shared space counts as randomness complexity.
* messages must be hashable so message distributions can be histogrammed.
* ``domain`` optionally restricts the verified input pairs; None means all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations, product
from typing import Callable, NamedTuple, Optional

from .algebra import LsssScheme, SpanProgram, euler_qr, in_span
from .boolfn import BoolFn, literal_input, named_fn, qr_join, qr_split_inputs
from .errors import BudgetError, DomainError, ValidationError
from .gardenhose import GhStrategy, gh_eval, gh_verify, RIGHT

DEFAULT_BUDGET = 1 << 24


@dataclass
class VerificationReport:
    """Exact verification outcome of a classical protocol.

    ``eps_hat`` is the worst decode-failure probability over inputs that must
    reveal; ``delta_pair`` is the worst L1 distance between message
    distributions that must look alike (secret pairs for CDS, equal-value
    input pairs for PSM/DRE). Both are exact fractions. The best simulator
    sits somewhere in ``delta_bracket`` = [delta_pair/2, delta_pair].
    """

    kind: str
    eps_hat: Fraction
    delta_pair: Fraction
    resources: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)
    notes: tuple = ()

    @property
    def delta_bracket(self) -> tuple:
        return (self.delta_pair / 2, self.delta_pair)

    @property
    def perfect(self) -> bool:
        return self.eps_hat == 0 and self.delta_pair == 0

    def to_jsonable(self) -> dict:
        def enc(v):
            if isinstance(v, Fraction):
                return {"num": v.numerator, "den": v.denominator, "float": float(v)}
            return v

        return {
            "kind": self.kind,
            "eps_hat": enc(self.eps_hat),
            "delta_pair": enc(self.delta_pair),
            "delta_bracket": [enc(self.delta_bracket[0]), enc(self.delta_bracket[1])],
            "perfect": self.perfect,
            "resources": {k: enc(v) for k, v in sorted(self.resources.items())},
            "witnesses": {k: list(v) if isinstance(v, tuple) else v
                          for k, v in sorted(self.witnesses.items())},
            "notes": list(self.notes),
        }


@dataclass
class CdsProtocol:
    """Conditional disclosure of a secret held by Alice.

    Alice sends ``alice_msg(x, s, r, ra)``, Bob sends ``bob_msg(y, r, rb)``;
    the referee, knowing (x, y), should recover s exactly when f(x, y) = 1
    and learn nothing about it otherwise.
    """

    f: BoolFn
    secrets: tuple
    shared: tuple
    alice_msg: Callable
    bob_msg: Callable
    decode: Callable
    alice_private: tuple = (None,)
    bob_private: tuple = (None,)
    domain: Optional[tuple] = None
    resources: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def input_pairs(self):
        return tuple(self.f.inputs()) if self.domain is None else tuple(self.domain)


@dataclass
class PsmProtocol:
    """Private simultaneous messages: the referee learns f(x, y) and nothing else."""

    f: BoolFn
    shared: tuple
    alice_msg: Callable          # (x, r, ra) -> message
    bob_msg: Callable            # (y, r, rb) -> message
    decode: Callable             # (m0, m1) -> value of f
    alice_private: tuple = (None,)
    bob_private: tuple = (None,)
    domain: Optional[tuple] = None
    resources: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def input_pairs(self):
        return tuple(self.f.inputs()) if self.domain is None else tuple(self.domain)


@dataclass
class Dre:
    """Decomposable randomized encoding: per-side encoders plus a decoder.

    The pair (enc_x(x, r), enc_y(y, r)) must determine f(x, y) and its
    distribution must depend on the input only through f(x, y).
    """

    f: BoolFn
    shared: tuple
    enc_x: Callable
    enc_y: Callable
    decode: Callable
    domain: Optional[tuple] = None
    resources: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def input_pairs(self):
        return tuple(self.f.inputs()) if self.domain is None else tuple(self.domain)


# -- verifiers ---------------------------------------------------------------


def _check_budget(total, budget, what):
    if total > budget:
        raise BudgetError(f"{what}: {total} joint states exceed budget {budget}")


def _l1(hist_a, hist_b, denom) -> Fraction:
    keys = set(hist_a) | set(hist_b)
    return Fraction(sum(abs(hist_a.get(k, 0) - hist_b.get(k, 0)) for k in keys), denom)


def _worst_l1(hists: dict, denom, alike) -> tuple:
    """(largest L1 distance, first key pair reaching it) over pairs ``alike`` accepts."""
    keys = list(hists)
    worst, witness = Fraction(0), None
    for i, a in enumerate(keys):
        for b in keys[i + 1:]:
            if alike(a, b):
                d = _l1(hists[a], hists[b], denom)
                if d > worst:
                    worst, witness = d, (a, b)
    return worst, witness


def _witnesses(eps_witness, delta_witness) -> dict:
    witnesses = {}
    if eps_witness:
        witnesses["eps"] = eps_witness
    if delta_witness:
        witnesses["delta"] = delta_witness
    return witnesses


def _randomness(P) -> dict:
    resources = dict(P.resources)
    resources.setdefault("randomness_states", len(P.shared))
    resources.setdefault("randomness_bits", math.log2(len(P.shared)) if P.shared else 0.0)
    return resources


def message_hist(P, x, y, *secret) -> dict:
    """Exact counts of the message pair (m0, m1) of P on input (x, y).

    Sweeps ``P.shared x P.alice_private x P.bob_private`` once; ``secret`` is
    the CDS secret Alice's message takes after x (PSM messages take none).
    Keys appear in sweep order, which downstream float sums depend on.
    """
    alice_msg, bob_msg = P.alice_msg, P.bob_msg
    hist = {}
    for r in P.shared:
        for ra in P.alice_private:
            m0 = alice_msg(x, *secret, r, ra)
            for rb in P.bob_private:
                m = (m0, bob_msg(y, r, rb))
                hist[m] = hist.get(m, 0) + 1
    return hist


def verify_cds(P: CdsProtocol, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Sweep all (x, y, s, randomness); exact worst-case error and leakage.

    Decoding is deterministic, so it runs once per distinct message pair and
    counts with that pair's multiplicity.
    """
    pairs = P.input_pairs()
    joint = len(P.shared) * len(P.alice_private) * len(P.bob_private)
    _check_budget(joint * len(P.secrets) * max(1, len(pairs)), budget, "verify_cds")

    eps = Fraction(0)
    eps_witness = None
    delta = Fraction(0)
    delta_witness = None
    m0_alphabet = set()
    m1_alphabet = set()

    for (x, y) in pairs:
        hists = {s: message_hist(P, x, y, s) for s in P.secrets}
        for hist in hists.values():
            m0_alphabet.update(m0 for (m0, _) in hist)
            m1_alphabet.update(m1 for (_, m1) in hist)
        if P.f.eval(x, y) == 1:
            for s, hist in hists.items():
                fails = sum(c for (m0, m1), c in hist.items()
                            if P.decode(m0, x, m1, y) != s)
                frac = Fraction(fails, joint)
                if frac > eps:
                    eps, eps_witness = frac, (x, y, s)
        else:
            d, secret_pair = _worst_l1(hists, joint, lambda a, b: True)
            if d > delta:
                delta, delta_witness = d, (x, y) + secret_pair

    resources = _randomness(P)
    resources["alice_message_alphabet"] = len(m0_alphabet)
    resources["bob_message_alphabet"] = len(m1_alphabet)
    return VerificationReport("cds", eps, delta, resources,
                              _witnesses(eps_witness, delta_witness))


def _sweep_psm(P: PsmProtocol, budget: int, what: str) -> tuple:
    """(eps, delta, witnesses) of a PSM.

    Decode error over all inputs; histogram L1 distance over equal-value
    input pairs. ``what`` names the caller in budget errors.
    """
    pairs = P.input_pairs()
    joint = len(P.shared) * len(P.alice_private) * len(P.bob_private)
    _check_budget(joint * max(1, len(pairs)), budget, what)

    eps = Fraction(0)
    eps_witness = None
    values = {}
    hists = {}
    for (x, y) in pairs:
        fx = values[(x, y)] = P.f.eval(x, y)
        hist = hists[(x, y)] = message_hist(P, x, y)
        fails = sum(c for (m0, m1), c in hist.items() if P.decode(m0, m1) != fx)
        frac = Fraction(fails, joint)
        if frac > eps:
            eps, eps_witness = frac, (x, y)
    delta, delta_witness = _worst_l1(hists, joint, lambda a, b: values[a] == values[b])
    return eps, delta, _witnesses(eps_witness, delta_witness)


def verify_psm(P: PsmProtocol, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Exact decode error over all inputs; leakage over equal-value input pairs."""
    eps, delta, witnesses = _sweep_psm(P, budget, "verify_psm")
    return VerificationReport("psm", eps, delta, _randomness(P), witnesses)


def verify_dre(D: Dre, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """The PSM sweep of the DRE's encoding halves.

    Privacy holds exactly when equal-value inputs have equal whole-encoding
    histograms, i.e. when ``delta_pair`` is 0.
    """
    eps, delta, witnesses = _sweep_psm(_dre_as_psm(D), budget, "verify_dre")
    resources = dict(D.resources)
    resources.setdefault("randomness_states", len(D.shared))
    resources["same_class_histograms_equal"] = delta == 0
    return VerificationReport("dre", eps, delta, resources, witnesses)


# -- garden hose -> CDS ------------------------------------------------------


def cds_from_gh(strategy: GhStrategy, f: BoolFn) -> CdsProtocol:
    """One shared random bit per pipe; connections become XOR announcements.

    Alice reveals the tap bit masked with the secret and the XOR of each pair
    she joins; Bob reveals the XOR of each pair he joins plus, in the clear,
    every bit his side leaves unconnected. Chasing XORs along the water path
    unmasks the secret exactly when the water spills on Bob's side.
    """
    if not gh_verify(strategy, f):
        raise ValidationError("strategy does not compute f")
    m = strategy.pipes
    shared = tuple(product((0, 1), repeat=m))

    def alice_msg(x, s, r, ra=None):
        tap, matching = strategy.alice[x]
        parts = [("tap", s ^ r[tap - 1])]
        for pair in sorted(tuple(sorted(p)) for p in matching):
            i, j = pair
            parts.append((pair, r[i - 1] ^ r[j - 1]))
        return tuple(parts)

    def bob_msg(y, r, rb=None):
        matching = strategy.bob[y]
        used = {v for pair in matching for v in pair}
        parts = []
        for pair in sorted(tuple(sorted(p)) for p in matching):
            i, j = pair
            parts.append((pair, r[i - 1] ^ r[j - 1]))
        for k in range(1, m + 1):
            if k not in used:
                parts.append((k, r[k - 1]))
        return tuple(parts)

    def decode(m0, x, m1, y):
        lookup = dict(m0)
        lookup.update(dict(m1))
        outcome = gh_eval(strategy, x, y)
        value = lookup["tap"]
        for prev, cur in zip(outcome.path, outcome.path[1:]):
            pair = tuple(sorted((prev[0], cur[0])))
            value ^= lookup[pair]
        if outcome.side == RIGHT:
            value ^= lookup[outcome.exit_pipe]
        return value

    alice_bits = max(1 + len(strategy.alice[x][1]) for x in strategy.alice)
    bob_bits = max(m - len(strategy.bob[y]) for y in strategy.bob)
    resources = {
        "pipes": m,
        "randomness_bits": m,
        "randomness_states": 1 << m,
        "alice_message_bits": alice_bits,
        "bob_message_bits": bob_bits,
        "bound_randomness_equals_pipes": True,
    }
    meta = {"kind": "cds", "compiler": "cds_from_gh",
            "parameters": {"strategy": strategy.to_json(), "f": f.to_json()}}
    return CdsProtocol(f, (0, 1), shared, alice_msg, bob_msg, decode,
                       resources=resources, meta=meta)


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
    """
    if program.n_vars != f.n_x + f.n_y:
        raise ValidationError("span program variable count must match f's input bits")
    if variant not in ("comm", "rand"):
        raise ValidationError(f"unknown variant {variant!r}")
    for (x, y) in f.inputs():
        z = literal_input(f, x, y)
        rows = [program.matrix[i] for i in program.available_rows(z)]
        ok, _ = in_span(rows, program.target, program.p)
        if int(ok) != f.eval(x, y):
            raise ValidationError(f"span program disagrees with f at {(x, y)}")

    p = program.p
    scheme = LsssScheme(program)
    e = program.width
    d = program.size
    elem_bits = (p - 1).bit_length()
    alice_rows = [i for i, (var, _) in enumerate(program.labels) if var <= f.n_x]
    bob_rows = [i for i, (var, _) in enumerate(program.labels) if var > f.n_x]

    def avail_alice(x):
        z = literal_input(f, x, 0)
        return [i for i in alice_rows if z[program.labels[i][0] - 1] == program.labels[i][1]]

    def avail_bob(y):
        z = literal_input(f, 0, y)
        return [i for i in bob_rows if z[program.labels[i][0] - 1] == program.labels[i][1]]

    if variant == "comm":
        shared = tuple(product(range(p), repeat=e))

        def alice_msg(x, s, u, ra=None):
            shares = scheme.shares_from_vector(u)
            implicit = sum(t * v for t, v in zip(program.target, u)) % p
            pad = (s - implicit) % p
            return (("pad", pad),) + tuple((i, shares[i]) for i in avail_alice(x))

        def bob_msg(y, u, rb=None):
            shares = scheme.shares_from_vector(u)
            return tuple((i, shares[i]) for i in avail_bob(y))

        def decode(m0, x, m1, y):
            pad = dict(m0)["pad"]
            got = [(i, v) for (i, v) in m0 if i != "pad"] + list(m1)
            rows = [program.matrix[i] for (i, _) in got]
            ok, coeffs = in_span(rows, program.target, p)
            if not ok:
                return None
            implicit = sum(c * v for c, (_, v) in zip(coeffs, got)) % p
            return (implicit + pad) % p

        comm_elems = max(
            len(avail_alice(x)) + 1 + len(avail_bob(y)) for (x, y) in f.inputs())
        resources = {
            "randomness_states": p ** e,
            "randomness_bits": e * elem_bits,
            "communication_bits": comm_elems * elem_bits,
            "share_total_bits": (d + 1) * elem_bits,
            "bound_communication_le_share_total":
                comm_elems * elem_bits <= (d + 1) * elem_bits,
        }
        alice_private = (None,)
        bob_private = (None,)
    else:
        n_masks = len(bob_rows)
        shared = tuple(product(range(p), repeat=n_masks))
        alice_private = tuple(product(range(p), repeat=e - 1))
        bob_private = (None,)

        def alice_msg(x, s, masks, free):
            u = scheme.vector_for(s, free)
            shares = scheme.shares_from_vector(u)
            clear = tuple((i, shares[i]) for i in avail_alice(x))
            masked = tuple((i, (shares[i] + masks[k]) % p)
                           for k, i in enumerate(bob_rows))
            return (clear, masked)

        def bob_msg(y, masks, rb=None):
            return tuple((i, masks[k]) for k, i in enumerate(bob_rows)
                         if i in avail_bob(y))

        def decode(m0, x, m1, y):
            clear, masked = m0
            masked = dict(masked)
            got = list(clear) + [(i, (masked[i] - mk) % p) for (i, mk) in m1]
            rows = [program.matrix[i] for (i, _) in got]
            ok, coeffs = in_span(rows, program.target, p)
            if not ok:
                return None
            return sum(c * v for c, (_, v) in zip(coeffs, got)) % p

        resources = {
            "randomness_states": p ** n_masks,
            "randomness_bits": n_masks * elem_bits,
            "share_total_bits": d * elem_bits,
            "bound_randomness_le_share_total": n_masks * elem_bits <= d * elem_bits,
            "alice_private_states": p ** (e - 1),
        }

    resources["field"] = p
    resources["program_rows"] = d
    meta = {"kind": "cds", "compiler": "cds_from_span",
            "parameters": {"program": program.to_json(), "f": f.to_json(),
                           "variant": variant}}
    return CdsProtocol(f, (0, 1), shared, alice_msg, bob_msg, decode,
                       alice_private=alice_private, bob_private=bob_private,
                       resources=resources, meta=meta)


# -- PSM -> CDS and composition ---------------------------------------------


def cds_from_psm(P: PsmProtocol, substitute=None) -> CdsProtocol:
    """Hide a bit behind a PSM by remapping inputs toward a fixed 0-input.

    Both parties know a shared selector bit s'; they run the PSM on their real
    inputs when s' = 1 and on the fixed 0-input otherwise, so the PSM's output
    becomes f(x, y) AND s'. Alice additionally sends s XOR s'. When
    f(x, y) = 1 the referee reads s' off the PSM and unmasks the secret; when
    f(x, y) = 0 the selector stays hidden, and with it the secret.
    """
    f = P.f
    pairs = P.input_pairs()
    if all(f.eval(x, y) == 1 for (x, y) in pairs):
        # nothing to hide: reveal on every input
        def alice_msg(x, s, r, ra=None):
            return s

        def bob_msg(y, r, rb=None):
            return ()

        def decode(m0, x, m1, y):
            return m0

        meta = {"kind": "cds", "compiler": "cds_from_psm",
                "parameters": {"constant": 1}}
        return CdsProtocol(f, (0, 1), (None,), alice_msg, bob_msg, decode,
                           domain=P.domain, resources={"randomness_bits": 0},
                           meta=meta)
    if all(f.eval(x, y) == 0 for (x, y) in pairs):
        def alice_msg(x, s, r, ra=None):
            return ()

        def bob_msg(y, r, rb=None):
            return ()

        def decode(m0, x, m1, y):
            return None

        meta = {"kind": "cds", "compiler": "cds_from_psm",
                "parameters": {"constant": 0}}
        return CdsProtocol(f, (0, 1), (None,), alice_msg, bob_msg, decode,
                           domain=P.domain, resources={"randomness_bits": 0},
                           meta=meta)

    if substitute is None:
        substitute = next((x, y) for (x, y) in pairs if f.eval(x, y) == 0)
    x_star, y_star = substitute
    if f.eval(x_star, y_star) != 0:
        raise ValidationError("substitute input must evaluate to 0")

    shared = tuple((r, sel) for r in P.shared for sel in (0, 1))

    def alice_msg(x, s, rr, ra=None):
        r, sel = rr
        xx = x if sel == 1 else x_star
        return (P.alice_msg(xx, r, ra), s ^ sel)

    def bob_msg(y, rr, rb=None):
        r, sel = rr
        yy = y if sel == 1 else y_star
        return P.bob_msg(yy, r, rb)

    def decode(m0, x, m1, y):
        psm_msg, masked = m0
        sel = P.decode(psm_msg, m1)
        return masked ^ sel

    resources = {
        "randomness_states": 2 * len(P.shared),
        "randomness_bits": math.log2(len(P.shared)) + 1,
        "psm_randomness_states": len(P.shared),
        "extra_message_bits": 1,
    }
    meta = {"kind": "cds", "compiler": "cds_from_psm",
            "parameters": {"substitute": [x_star, y_star],
                           "psm": P.meta.get("compiler", "psm")}}
    return CdsProtocol(f, (0, 1), shared, alice_msg, bob_msg, decode,
                       alice_private=P.alice_private, bob_private=P.bob_private,
                       domain=P.domain, resources=resources, meta=meta)


class TranscriptClass(NamedTuple):
    """Transcripts that decode alike and carry proportional key weights.

    ``rep`` is the first member in sweep order, ``weights`` maps each key of
    nonzero weight to the members' summed weight under it, and ``count`` is
    the number of members. Members share their support, so every key in
    ``weights`` stands for ``count`` transcripts.
    """

    rep: object
    weights: dict
    count: int


def transcript_classes(hists: dict, decode: Callable) -> list:
    """Group the transcripts of ``hists`` = {key: {transcript: weight}}.

    Two transcripts share a class when ``decode`` maps them to the same value
    and their weight vectors over the keys are exactly proportional; weights
    are compared as Fractions, never within a tolerance. A referee view that
    is linear in the weights and reads a transcript only through its decoded
    value is then a positive multiple of one operator across a class, so one
    branch per class gives the same fidelity and the same trace-norm gap as
    one branch per transcript. Classes come in order of their first member,
    scanning the keys in order and each histogram in sweep order.
    """
    keys = list(hists)
    classes = {}
    for m in dict.fromkeys(m for s in keys for m in hists[s]):
        vec = [hists[s].get(m, 0) for s in keys]
        lead = Fraction(next(w for w in vec if w))
        label = (decode(m), tuple(Fraction(w) / lead for w in vec))
        rep, weights, count = classes.get(label) or (m, {}, 0)
        for s, w in zip(keys, vec):
            if w:
                weights[s] = weights.get(s, 0) + w
        classes[label] = (rep, weights, count + 1)
    return [TranscriptClass(*c) for c in classes.values()]


def class_product(classes: list, copies: int) -> list:
    """Classes of ``copies`` independent runs keyed independently.

    A joint class's members are the tuples of per-copy members, its key is
    the tuple of per-copy keys and its weights multiply: an outer product of
    proportional vectors is proportional, so the joint space is never
    enumerated member by member.
    """
    joint = [TranscriptClass((), {(): 1}, 1)]
    for _ in range(copies):
        joint = [TranscriptClass(j.rep + (c.rep,),
                                 {k + (s,): w * v for k, w in j.weights.items()
                                  for s, v in c.weights.items()},
                                 j.count * c.count)
                 for j in joint for c in classes]
    return joint


def cds_parallel(P: CdsProtocol, copies: int) -> CdsProtocol:
    """Independent copies side by side; hides a tuple of secrets.

    Worst-case error and leakage each scale at most linearly in the number of
    copies; randomness and communication scale exactly linearly. Because the
    copies draw independent randomness, the joint message distribution is the
    product of per-copy distributions. ``meta["message_classes"](x, y)``
    returns the joint transcript classes (``TranscriptClass`` with
    probabilities as weights, keyed by secret tuples), composed from per-copy
    classes, so downstream sweeps enumerate neither the product randomness
    nor the product transcripts. They are computed once per input pair and
    kept, since the quantum verifiers ask again for every swept qubit state.
    """
    if copies < 1:
        raise ValidationError("need at least one copy")
    secrets = tuple(product(P.secrets, repeat=copies))
    shared = tuple(product(P.shared, repeat=copies))
    alice_private = tuple(product(P.alice_private, repeat=copies))
    bob_private = tuple(product(P.bob_private, repeat=copies))

    def alice_msg(x, s, r, ra):
        return tuple(P.alice_msg(x, s[i], r[i], ra[i]) for i in range(copies))

    def bob_msg(y, r, rb):
        return tuple(P.bob_msg(y, r[i], rb[i]) for i in range(copies))

    def decode(m0, x, m1, y):
        return tuple(P.decode(m0[i], x, m1[i], y) for i in range(copies))

    classes_by_input = {}

    def message_classes(x, y):
        if (x, y) not in classes_by_input:
            hists = {s: message_hist(P, x, y, s) for s in P.secrets}
            per_copy = transcript_classes(hists, lambda m: P.decode(m[0], x, m[1], y))
            denom = (len(P.shared) * len(P.alice_private) * len(P.bob_private)) ** copies
            classes_by_input[(x, y)] = [
                TranscriptClass(tuple(zip(*c.rep)),
                                {s: w / denom for s, w in c.weights.items()},
                                c.count)
                for c in class_product(per_copy, copies)]
        return classes_by_input[(x, y)]

    resources = {f"per_copy_{k}": v for k, v in P.resources.items()}
    resources["copies"] = copies
    if "randomness_bits" in P.resources:
        resources["randomness_bits"] = copies * P.resources["randomness_bits"]
    meta = {"kind": "cds", "compiler": "cds_parallel",
            "parameters": {"copies": copies, "inner": P.meta},
            "message_classes": message_classes}
    return CdsProtocol(P.f, secrets, shared, alice_msg, bob_msg, decode,
                       alice_private=alice_private, bob_private=bob_private,
                       domain=P.domain, resources=resources, meta=meta)


# -- DRE and PSM constructions ------------------------------------------------


def psm_from_dre(D: Dre) -> PsmProtocol:
    """A DRE is already a PSM: send the two encoding halves as the messages."""
    return _dre_as_psm(D)


def _dre_as_psm(D: Dre) -> PsmProtocol:
    # verify_dre sweeps through this private copy: wrappers that trace the
    # public compiler then count one compile per chain stage, not two

    def alice_msg(x, r, ra=None):
        return D.enc_x(x, r)

    def bob_msg(y, r, rb=None):
        return D.enc_y(y, r)

    def decode(m0, m1):
        return D.decode(m0, m1)

    meta = {"kind": "psm", "compiler": "psm_from_dre", "parameters": {"dre": D.meta}}
    return PsmProtocol(D.f, D.shared, alice_msg, bob_msg, decode,
                       domain=D.domain, resources=dict(D.resources), meta=meta)


def psm_generic_table(f: BoolFn, budget: int = DEFAULT_BUDGET) -> PsmProtocol:
    """One-time-table PSM for any small f.

    Shared randomness holds a permuted, masked copy of f's truth table rows:
    Alice sends her permuted row under the mask, Bob sends the permuted
    position of his input and the mask bit there. The referee reads a single
    masked cell. Perfectly correct and perfectly private, but the randomness
    grows with (2^n_y)! so this is for tiny functions only.
    """
    cols = 1 << f.n_y
    total = math.factorial(cols) * (1 << cols)
    if total > budget:
        raise BudgetError(f"one-time table needs {total} randomness states")
    shared = tuple((perm, mask)
                   for perm in permutations(range(cols))
                   for mask in product((0, 1), repeat=cols))

    def alice_msg(x, r, ra=None):
        perm, mask = r
        row = [0] * cols
        for y in range(cols):
            row[perm[y]] = f.eval(x, y) ^ mask[perm[y]]
        return tuple(row)

    def bob_msg(y, r, rb=None):
        perm, mask = r
        return (perm[y], mask[perm[y]])

    def decode(m0, m1):
        pos, bit = m1
        return m0[pos] ^ bit

    resources = {
        "randomness_states": total,
        "randomness_bits": math.log2(total),
        "alice_message_bits": cols,
        "bob_message_bits": f.n_y + 1,
    }
    meta = {"kind": "psm", "compiler": "psm_generic_table",
            "parameters": {"f": f.to_json()}}
    return PsmProtocol(f, shared, alice_msg, bob_msg, decode,
                       resources=resources, meta=meta)


def dre_qr(p: int, alice_positions=None, n_bits=None) -> Dre:
    """Randomized encoding of quadratic residuosity of a split integer.

    Bit i of a (weight 2^(i-1)) is encoded as y_i = a_i * r^2 * 2^(i-1) + s_i
    mod p with r uniform over the units and the s_i uniform summing to zero.
    The y_i sum telescopes to r^2 * a, whose residuosity equals a's; the
    random square factor and additive shares hide everything else. Inputs are
    restricted to a in Z_p^* (nonzero, below p): 0 has no residue class.
    """
    f = named_fn("qr", p=p, alice_positions=alice_positions, n_bits=n_bits)
    n = f.params["n_bits"]
    alice_pos = tuple(sorted(f.params["alice_positions"]))
    bob_pos = tuple(i for i in range(1, n + 1) if i not in alice_pos)

    shared = []
    for r in range(1, p):
        for free in product(range(p), repeat=n - 1):
            s_last = (-sum(free)) % p
            shared.append((r, free + (s_last,)))
    shared = tuple(shared)

    def encode_bits(value, positions, r, s):
        rsq = (r * r) % p
        out = []
        for j, pos in enumerate(positions):
            bit = (value >> j) & 1
            y_i = (bit * rsq * (1 << (pos - 1)) + s[pos - 1]) % p
            out.append((pos, y_i))
        return tuple(out)

    def enc_x(x, rr):
        r, s = rr
        return encode_bits(x, alice_pos, r, s)

    def enc_y(y, rr):
        r, s = rr
        return encode_bits(y, bob_pos, r, s)

    def decode(mx, my):
        total = sum(v for (_, v) in mx) + sum(v for (_, v) in my)
        return euler_qr(total % p, p)

    domain = []
    for a in range(1, p):
        domain.append(qr_split_inputs(f, a))
    domain = tuple(domain)

    resources = {
        "field": p,
        "bits": n,
        "randomness_states": len(shared),
        "randomness_bits": math.log2(len(shared)),
        "encoding_elements": n,
    }
    meta = {"kind": "dre", "compiler": "dre_qr",
            "parameters": {"p": p, "alice_positions": list(alice_pos), "n_bits": n}}
    return Dre(f, shared, enc_x, enc_y, decode, domain=domain,
               resources=resources, meta=meta)


def qr_value(D: Dre, x: int, y: int) -> int:
    """The split integer a some (x, y) pair of a qr DRE assembles to."""
    a = qr_join(D.f, x, y)
    if a % D.f.params["p"] == 0 or a >= D.f.params["p"]:
        raise DomainError(f"a={a} outside Z_{D.f.params['p']}^*")
    return a
