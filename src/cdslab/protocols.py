"""Classical message protocols: CDS, PSM, DRE, and exact verifiers.

Protocols are concrete message functions over finite, fully enumerable
randomness spaces. Verifiers never sample: correctness error and secrecy
leakage come out as exact rationals from sweeping every input, secret, and
randomness value, or every coset of messages that randomness entering
linearly fills. ``verify_cds``, ``verify_psm`` and ``verify_dre`` share one
sweep loop, ``_sweep``, over cases that each name the value they must decode
to and the group they must look like; it charges the whole sweep before it
starts and keeps each worst figure's first witness in a ``Worst``.

Conventions shared by every protocol type here:

* ``shared`` is the common randomness both parties see; ``alice_private`` and
  ``bob_private`` are party-local coin spaces (usually the single value
  ``None``). Only the shared space counts as randomness complexity.
* messages must be hashable so message distributions can be histogrammed.
* ``domain`` optionally restricts the verified input pairs; None means all.
* ``linear``, when not None, is a ``LinearPart``: the messages are affine
  over Z_p in part of the randomness, and each party sends a pair ``(tag,
  values)``. Every message sweep, here or in ``nlqc``'s pad routes, then
  counts one coset at a time (``coset_hist``), and enumerates
  (``message_hist``) only undeclared protocols; the choice is
  ``_sweep_kernel``'s. ``cds_from_span``, ``dre_qr`` and ``psm_from_dre``
  declare it, and ``cds_from_psm`` does over a PSM that declares it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Callable, NamedTuple, Optional

from .algebra import LsssScheme, SpanProgram, echelon, euler_qr, lsss_reconstruct
from .boolfn import BoolFn, literal_input, named_fn, qr_split_inputs
from .errors import ValidationError, charge
from .gardenhose import GhStrategy, gh_eval, gh_verify, RIGHT

DEFAULT_BUDGET = 1 << 24


class VerificationReport:
    """Exact verification outcome of a classical protocol.

    ``eps_hat`` is the worst decode-failure probability over inputs that must
    reveal; ``delta_pair`` is the worst L1 distance between message
    distributions that must look alike (secret pairs for CDS, equal-value
    input pairs for PSM/DRE). Both are exact fractions. The best simulator
    sits somewhere in ``delta_bracket`` = [delta_pair/2, delta_pair].
    """

    def __init__(self, kind: str, eps_hat: Fraction, delta_pair: Fraction,
                 resources: dict, witnesses: dict):
        self.kind, self.eps_hat, self.delta_pair = kind, eps_hat, delta_pair
        self.resources, self.witnesses = resources, witnesses

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
            "notes": [],
        }


class InputDomain:
    """Every record's ``domain`` (None: all of f's inputs) and ``resources``."""

    def __init__(self, domain: Optional[tuple], resources: Optional[dict]):
        self.domain = domain
        self.resources = {} if resources is None else resources

    def input_pairs(self):
        return tuple(self.f.inputs()) if self.domain is None else tuple(self.domain)


class LazySpace:
    """A randomness space of ``size`` elements made on demand.

    ``iterate()`` yields the elements in order, so ``len`` and iteration
    work as on the tuple it stands for without building it. Verifiers only
    ever sweep a space whole, so no element is looked up by index. Sizes
    past 2^63 - 1 are read as ``size`` (see ``space_size``), which ``len``
    cannot return.
    """

    def __init__(self, size: int, iterate: Callable):
        self.size, self.iterate = size, iterate

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return self.iterate()


def space_size(space) -> int:
    """Number of elements of a randomness space, lazy or not, of any size."""
    return space.size if isinstance(space, LazySpace) else len(space)


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


class CdsProtocol(InputDomain):
    """Conditional disclosure of a secret held by Alice.

    Alice sends ``alice_msg(x, s, r, ra)``, Bob sends ``bob_msg(y, r, rb)``;
    the referee, knowing (x, y), should recover s exactly when f(x, y) = 1
    and learn nothing about it otherwise.
    """

    def __init__(self, f: BoolFn, secrets: tuple, shared: tuple, alice_msg: Callable,
                 bob_msg: Callable, decode: Callable, alice_private: tuple = (None,),
                 bob_private: tuple = (None,), domain: Optional[tuple] = None,
                 resources: Optional[dict] = None, linear: Optional[LinearPart] = None):
        self.f, self.secrets, self.shared = f, secrets, shared
        self.alice_msg, self.bob_msg, self.decode = alice_msg, bob_msg, decode
        self.alice_private, self.bob_private = alice_private, bob_private
        self.linear = linear
        super().__init__(domain, resources)


class PsmProtocol(InputDomain):
    """Private simultaneous messages: the referee learns f(x, y) and nothing else."""

    def __init__(self, f: BoolFn, shared: tuple, alice_msg: Callable, bob_msg: Callable,
                 decode: Callable, alice_private: tuple = (None,),
                 bob_private: tuple = (None,), domain: Optional[tuple] = None,
                 resources: Optional[dict] = None, linear: Optional[LinearPart] = None):
        self.f, self.shared = f, shared
        self.alice_msg = alice_msg        # (x, r, ra) -> message
        self.bob_msg = bob_msg            # (y, r, rb) -> message
        self.decode = decode              # (m0, m1) -> value of f
        self.alice_private, self.bob_private = alice_private, bob_private
        self.linear = linear
        super().__init__(domain, resources)


class Dre(InputDomain):
    """Decomposable randomized encoding: per-side encoders plus a decoder.

    The pair (enc_x(x, r), enc_y(y, r)) must determine f(x, y) and its
    distribution must depend on the input only through f(x, y).
    """

    def __init__(self, f: BoolFn, shared: tuple, enc_x: Callable, enc_y: Callable,
                 decode: Callable, domain: Optional[tuple] = None,
                 resources: Optional[dict] = None, linear: Optional[LinearPart] = None):
        self.f, self.shared = f, shared
        self.enc_x, self.enc_y, self.decode = enc_x, enc_y, decode
        self.linear = linear
        super().__init__(domain, resources)


# -- verifiers ---------------------------------------------------------------


def _l1(hist_a, hist_b, denom) -> Fraction:
    keys = set(hist_a) | set(hist_b)
    return Fraction(sum(abs(hist_a.get(k, 0) - hist_b.get(k, 0)) for k in keys), denom)


class Worst:
    """Worst figures by name, each with its witness.

    A figure replaces the running worst only when it exceeds it, so of equal
    figures the first one met stays witness; a name no figure has raised
    above zero has neither.
    """

    def __init__(self):
        self.worst, self.witnesses = {}, {}

    def worse(self, name: str, figure, witness) -> None:
        if figure > self.worst.get(name, 0):
            self.worst[name], self.witnesses[name] = figure, witness


def _joint(P) -> int:
    """Joint randomness states of P: shared times both private spaces."""
    return (space_size(P.shared) * space_size(P.alice_private) *
            space_size(P.bob_private))


def _randomness(P) -> dict:
    resources = dict(P.resources)
    n = space_size(P.shared)
    resources.setdefault("randomness_states", n)
    resources.setdefault("randomness_bits", math.log2(n) if n else 0.0)
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


# -- coset histograms --------------------------------------------------------


class LinearPart(NamedTuple):
    """A protocol's declaration that its messages are affine in rho over Z_p.

    ``embed(nu, rho)`` gives the protocol's own (r, ra, rb) for a value
    ``nu`` of the nonlinear randomness and a vector ``rho`` in Z_p^ell; over
    ``nus`` x Z_p^ell it must hit every element of ``shared x alice_private x
    bob_private`` once. Each party sends a pair ``(tag, values)``: ``tag`` is
    any hashable constant of the input and secret for fixed nu, such as the
    rows a span party reveals, and ``values`` is a tuple of Z_p elements,
    affine in rho. A party's affine map must depend on its tag alone, which
    the sweeps check where they rely on it. The decoder must give one value
    on each coset the messages of one nu fill, as a linear reconstruction
    does.
    """

    p: int
    nus: tuple
    ell: int
    embed: Callable


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


def _tagged(m) -> tuple:
    """(layout, values) of a message pair ((tag0, v0), (tag1, v1)): its layout
    is (tag0, tag1, len(v0), len(v1)) and its values v0 + v1."""
    try:
        (tag0, v0), (tag1, v1) = m
        return (tag0, tag1, len(v0), len(v1)), v0 + v1
    except (TypeError, ValueError):
        raise ValidationError("a linear message is not a (tag, values) pair") from None


def _reduce(vec, basis, pivots, p: int) -> tuple:
    """Canonical member of vec + span(basis): zero in every pivot column."""
    vec = list(vec)
    for row, col in zip(basis, pivots):
        c = vec[col]
        if c:
            vec = [(v - c * w) % p for v, w in zip(vec, row)]
    return tuple(vec)


def coset_hist(P, x, y, *secret) -> dict:
    """Exact counts of P's message pair on (x, y), one entry per coset.

    P declares ``linear``, a ``LinearPart``. For each nonlinear value nu
    the tags are fixed and the concatenated values are b + A rho, so as rho
    runs over Z_p^ell they are uniform on the coset b + V, V the column
    space of A. P's own callables at rho = 0 and at the ell unit vectors give
    b and A, and must keep their tags and value counts; each nu then adds
    p^ell to its coset's ``Coset`` key. Counts sum to the joint randomness,
    as in ``message_hist``, and each coset holds count / p^dim(V) of every
    one of its messages. Cosets of one basis are equal or disjoint, so L1
    distances between such histograms equal those between message
    histograms.
    """
    lin = P.linear
    p, ell = lin.p, lin.ell
    hist = {}
    for nu in lin.nus:
        probes = []
        for k in range(-1, ell):   # rho = 0, then the unit vectors, each made as used
            r, ra, rb = lin.embed(nu, tuple(int(i == k) for i in range(ell)))
            probes.append(_tagged((P.alice_msg(x, *secret, r, ra), P.bob_msg(y, r, rb))))
        (layout, b), *units = probes
        if any(other != layout for other, _ in units):
            raise ValidationError("message tags or value counts move with the "
                                  "linear randomness")
        basis, pivots = echelon([[v - w for v, w in zip(values, b)]
                                 for _, values in units], p)
        c = _reduce(b, basis, pivots, p)
        tag0, tag1, n0, _ = layout
        key = Coset((tag0, c[:n0]), (tag1, c[n0:]), tuple(basis), p ** len(basis))
        hist[key] = hist.get(key, 0) + p ** ell
    return hist


def _same_spaces(hists, spaces: dict) -> None:
    """Refuse compared coset histograms where one layout has two subspaces.

    A layout is a coset's two tags and value counts. Cosets of different
    subspaces may overlap without being equal, so their keys no longer tell
    equal messages from different ones. ``spaces`` keeps each layout's first
    subspace, across calls if passed again. Message histograms pass.
    """
    for hist in hists:
        for c in hist:
            if not isinstance(c, Coset):
                return
            if spaces.setdefault(_tagged(c[:2])[0], c.basis) != c.basis:
                raise ValidationError("compared messages share their tags but "
                                      "not a subspace; no exact distance")


def _coset_alphabet(cosets, p: int, side: int) -> int:
    """Distinct messages of one party (0 Alice, 1 Bob) over ``cosets``.

    Each coset projects to a coset of that party's values, of size p^dim.
    A party's affine map depends only on its tag, so one tag keeps one
    subspace, whose cosets are equal or disjoint; a tag met with two
    subspaces raises rather than count an overlap twice.
    """
    spaces, found = {}, set()
    for c in cosets:
        tag, values = c[side]
        lo = len(c.m0[1]) if side else 0
        basis, pivots = echelon([row[lo:lo + len(values)] for row in c.basis], p)
        if spaces.setdefault(tag, basis) != basis:
            raise ValidationError("one message tag has two subspaces; no exact alphabet")
        found.add((tag, _reduce(values, basis, pivots, p)))
    return sum(p ** len(spaces[tag]) for tag, _ in found)


def _sweep_kernel(P, cases: list, budget: int, what: str) -> tuple:
    """(histogram function, joint randomness) for P's histograms on ``cases``.

    ``cases`` lists the arguments (x, y, *secret) to sweep. A protocol
    declaring ``linear`` is swept by ``coset_hist``, charged the values of
    its ell + 1 message pairs per (case, nu), as many as the most at the
    first nu and rho = 0, which bound what echelon reads and a coset key
    holds, then the ell coordinates of rho each pair reads. Any other
    protocol is swept by ``message_hist``, charged every joint state.
    """
    lin = P.linear
    joint = _joint(P)
    if lin is None:
        charge(joint * max(1, len(cases)), budget, f"{what} joint states")
        return message_hist, joint
    if len(lin.nus) * lin.p ** lin.ell != joint:
        raise ValidationError(f"{what}: declared linear randomness does not "
                              "cover the randomness space")
    pairs = max(1, len(cases)) * len(lin.nus) * (lin.ell + 1)
    charge(pairs, budget, f"{what} message coordinates")   # before the width probe
    r, ra, rb = lin.embed(lin.nus[0], (0,) * lin.ell)
    width = 1
    for (x, y, *s) in cases:
        _, values = _tagged((P.alice_msg(x, *s, r, ra), P.bob_msg(y, r, rb)))
        width = max(width, len(values))
    charge(pairs * width, budget, f"{what} message coordinates")
    charge(pairs * lin.ell, budget, f"{what} randomness coordinates")
    return coset_hist, joint


def _sweep(P, cases: list, decode: Callable, budget: int, what: str,
           seen: Callable = lambda hist: None) -> tuple:
    """(eps, delta, witnesses) of P over ``cases``: the one classical sweep.

    A case (args, want, group) sweeps P's messages on args = (x, y, *secret).
    Unless ``want`` is None they must ``decode(m, x, y)`` to it; eps is the
    worst fraction of the randomness that fails, witnessed by args. Unless
    ``group`` is None they must be distributed as every case of the group;
    delta is the worst L1 distance, witnessed by the first pair (args,
    args') in case order to reach it. A group keeps only its distinct
    histograms, each with its first case: an equal one is as far from every
    other, and two distinct ones' first cases make their first pair. At its
    last case they are compared pairwise and dropped (a CDS holds one
    input's at a time); the distances meet ``Worst`` in case order. A
    protocol with a ``LinearPart`` is swept by coset, else by message;
    decoding is deterministic, so it runs once per coset or distinct message
    pair and counts with its multiplicity. ``seen`` gets every histogram,
    and ``what`` names the caller in budget errors.
    """
    hist_of, joint = _sweep_kernel(P, [args for args, _, _ in cases], budget, what)
    last = {group: i for i, (_, _, group) in enumerate(cases)}
    worst, kept, gaps = Worst(), {}, []
    for i, (args, want, group) in enumerate(cases):
        hist = hist_of(P, *args)
        seen(hist)
        if want is not None:
            fails = sum(c for m, c in hist.items() if decode(m, *args[:2]) != want)
            worst.worse("eps", Fraction(fails, joint), args)
        if group is not None:
            held = kept.setdefault(group, [])
            if all(hist != other for _, other in held):
                held.append((i, hist))
            if last[group] == i:
                _same_spaces((other for _, other in held), {})
                gaps += [(a, b, _l1(u, v, joint))
                         for (a, u), (b, v) in combinations(kept.pop(group), 2)]
    for a, b, gap in sorted(gaps):
        worst.worse("delta", gap, (cases[a][0], cases[b][0]))
    return (worst.worst.get("eps", Fraction(0)), worst.worst.get("delta", Fraction(0)),
            worst.witnesses)


def verify_cds(P: CdsProtocol, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Sweep all (x, y, s, randomness); exact worst-case error and leakage.

    A revealing input must decode every secret and a hiding input send all
    of them alike, a leak witnessed as (x, y, s, s'). Message alphabets are
    counted exactly on either path.
    """
    cases = []
    for (x, y) in P.input_pairs():
        reveal = P.f.eval(x, y) == 1
        cases += [((x, y, s), s if reveal else None, None if reveal else (x, y))
                  for s in P.secrets]
    linear = P.linear is not None
    alphabets, cosets = (set(), set()), set()

    def seen(hist):
        if linear:
            cosets.update(hist)
        else:
            alphabets[0].update(m0 for (m0, _) in hist)
            alphabets[1].update(m1 for (_, m1) in hist)

    eps, delta, witnesses = _sweep(P, cases, lambda m, x, y: P.decode(m[0], x, m[1], y),
                                   budget, "verify_cds", seen)
    if "delta" in witnesses:
        a, b = witnesses["delta"]
        witnesses["delta"] = a + b[2:]
    resources = _randomness(P)
    for side, name in enumerate(("alice_message_alphabet", "bob_message_alphabet")):
        resources[name] = (_coset_alphabet(cosets, P.linear.p, side) if linear
                           else len(alphabets[side]))
    return VerificationReport("cds", eps, delta, resources, witnesses)


def _value_cases(P) -> list:
    """A PSM's cases: each input decodes to f's value and looks like all inputs of it."""
    return [((x, y), v, v) for (x, y) in P.input_pairs() for v in (P.f.eval(x, y),)]


def verify_psm(P: PsmProtocol, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Exact decode error over all inputs; leakage over equal-value input pairs."""
    eps, delta, witnesses = _sweep(P, _value_cases(P),
                                   lambda m, x, y: P.decode(m[0], m[1]), budget, "verify_psm")
    return VerificationReport("psm", eps, delta, _randomness(P), witnesses)


def verify_dre(D: Dre, budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """The PSM sweep of the DRE's encoding halves.

    Privacy holds exactly when equal-value inputs have equal whole-encoding
    histograms, i.e. when ``delta_pair`` is 0.
    """
    P = _dre_as_psm(D)
    eps, delta, witnesses = _sweep(P, _value_cases(P),
                                   lambda m, x, y: P.decode(m[0], m[1]), budget, "verify_dre")
    resources = dict(D.resources)
    resources.setdefault("randomness_states", space_size(D.shared))
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
    shared = product_space((0, 1), m)

    def pair_xors(matching, r):
        parts = []
        for pair in sorted(tuple(sorted(p)) for p in matching):
            i, j = pair
            parts.append((pair, r[i - 1] ^ r[j - 1]))
        return parts

    def alice_msg(x, s, r, ra=None):
        tap, matching = strategy.alice[x]
        return tuple([("tap", s ^ r[tap - 1])] + pair_xors(matching, r))

    def bob_msg(y, r, rb=None):
        matching = strategy.bob[y]
        used = {v for pair in matching for v in pair}
        parts = pair_xors(matching, r)
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
    return CdsProtocol(f, (0, 1), shared, alice_msg, bob_msg, decode,
                       resources=resources)


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
    coordinates) as its values, which ``linear`` declares with no nonlinear
    part. The program must compute f: ``verify_cds`` reports a decode error
    where it rejects a 1-input and a leak where it accepts a 0-input, and
    the CLI refuses it before compiling, naming every such input.
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
    bob_rows = [i for i, (var, _) in enumerate(program.labels) if var > f.n_x]
    # each input's available rows, its party's tag, found once per input
    rows_a = {x: tuple(i for i in program.available_rows(literal_input(f, x, 0))
                       if program.labels[i][0] <= f.n_x) for x in range(1 << f.n_x)}
    rows_b = {y: tuple(i for i in program.available_rows(literal_input(f, 0, y))
                       if program.labels[i][0] > f.n_x) for y in range(1 << f.n_y)}

    if variant == "comm":
        shared = product_space(range(p), e)

        def alice_msg(x, s, u, ra=None):
            shares = scheme.shares_from_vector(u)
            implicit = sum(t * v for t, v in zip(program.target, u)) % p
            pad = (s - implicit) % p
            rows = rows_a[x]
            return rows, (pad,) + tuple(shares[i] for i in rows)

        def bob_msg(y, u, rb=None):
            shares = scheme.shares_from_vector(u)
            rows = rows_b[y]
            return rows, tuple(shares[i] for i in rows)

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
        alice_private = (None,)
        linear = LinearPart(p, (None,), e, lambda nu, rho: (rho, None, None))
    else:
        n_masks = len(bob_rows)
        mask_of = {i: k for k, i in enumerate(bob_rows)}
        shared = product_space(range(p), n_masks)
        alice_private = product_space(range(p), e - 1)

        def alice_msg(x, s, masks, free):
            u = scheme.vector_for(s, free)
            shares = scheme.shares_from_vector(u)
            rows = rows_a[x]
            return rows, (tuple(shares[i] for i in rows) +
                          tuple((shares[i] + mk) % p for i, mk in zip(bob_rows, masks)))

        def bob_msg(y, masks, rb=None):
            rows = rows_b[y]
            return rows, tuple(masks[mask_of[i]] for i in rows)

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
        linear = LinearPart(p, (None,), n_masks + e - 1,
                            lambda nu, rho: (rho[:n_masks], rho[n_masks:], None))

    resources["field"] = p
    resources["program_rows"] = d
    return CdsProtocol(f, (0, 1), shared, alice_msg, bob_msg, decode,
                       alice_private=alice_private, resources=resources, linear=linear)


# -- PSM -> CDS and composition ---------------------------------------------


def cds_from_psm(P: PsmProtocol, substitute=None) -> CdsProtocol:
    """Hide a bit behind a PSM by remapping inputs toward a fixed 0-input.

    Both parties know a shared selector bit s'; they run the PSM on their real
    inputs when s' = 1 and on the fixed 0-input otherwise, so the PSM's output
    becomes f(x, y) AND s'. Alice additionally sends s XOR s'. When
    f(x, y) = 1 the referee reads s' off the PSM and unmasks the secret; when
    f(x, y) = 0 the selector stays hidden, and with it the secret.

    Over a PSM declaring ``linear`` the CDS declares one too: for each
    (nu, s') Alice sends the PSM's tag with the masked bit as her tag, and
    the PSM's values, affine in its rho. So (nu, s') is nonlinear, in
    ``shared``'s order, and rho stays linear. Over any other PSM the whole
    PSM message joins the masked bit as the tag, with no values.
    """
    f = P.f
    values = {f.eval(x, y) for (x, y) in P.input_pairs()}
    if len(values) < 2:
        # constant f (an empty domain counts as 1): Alice sends the secret in
        # the clear when it may be revealed and nothing otherwise
        reveal = values != {0}

        def alice_msg(x, s, r, ra=None):
            return s if reveal else ()

        def bob_msg(y, r, rb=None):
            return ()

        def decode(m0, x, m1, y):
            return m0 if reveal else None

        return CdsProtocol(f, (0, 1), (None,), alice_msg, bob_msg, decode,
                           domain=P.domain, resources={"randomness_bits": 0})

    x_star, y_star = hiding_input(P, substitute)
    n = space_size(P.shared)
    shared = pair_space(P.shared, (0, 1))
    lin = linear = P.linear

    def alice_msg(x, s, rr, ra=None):
        r, sel = rr
        xx = x if sel == 1 else x_star
        m = P.alice_msg(xx, r, ra)
        tag, values = (m, ()) if lin is None else m
        return (tag, s ^ sel), values

    def bob_msg(y, rr, rb=None):
        r, sel = rr
        yy = y if sel == 1 else y_star
        return P.bob_msg(yy, r, rb)

    def decode(m0, x, m1, y):
        (tag, masked), values = m0
        return masked ^ P.decode(tag if lin is None else (tag, values), m1)

    resources = {
        "randomness_states": 2 * n,
        "randomness_bits": math.log2(n) + 1,
        "psm_randomness_states": n,
        "extra_message_bits": 1,
    }
    if lin is not None:

        def embed(nu_sel, rho):
            nu, sel = nu_sel
            r, ra, rb = lin.embed(nu, rho)
            return (r, sel), ra, rb

        linear = LinearPart(lin.p, tuple((nu, sel) for nu in lin.nus
                                         for sel in (0, 1)), lin.ell, embed)
    return CdsProtocol(f, (0, 1), shared, alice_msg, bob_msg, decode,
                       alice_private=P.alice_private, bob_private=P.bob_private,
                       domain=P.domain, resources=resources, linear=linear)


def hiding_input(P, substitute=None) -> tuple:
    """The input a masked run uses for the real one: ``substitute``, else P's
    first input pair with f = 0. f must be 0 there."""
    if substitute is None:
        substitute = next(((x, y) for (x, y) in P.input_pairs() if P.f.eval(x, y) == 0), None)
        if substitute is None:
            raise ValidationError("no hiding input available to mask with")
    if P.f.eval(*substitute) != 0:
        raise ValidationError("substitute input must evaluate to 0")
    return substitute


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
    """Group the transcripts of ``hists`` = {key: {transcript: weight}}.

    Two transcripts share a class when ``decode`` maps them to the same value
    and their weight vectors over the keys are exactly proportional: the
    integer vectors left over a common denominator (floats count as the
    rationals they hold), divided by their gcd, are equal. A referee view
    linear in the weights that reads a transcript only through its decoded
    value is then a positive multiple of one operator across a class, so one
    branch per class gives the fidelity and trace-norm gap of one branch per
    transcript. Classes come in order of their first member, scanning the
    keys in order and each histogram in sweep order. A coset key stands for
    its ``count`` messages, which share its class.
    """
    _same_spaces(hists.values(), {})
    keys = list(hists)
    classes = {}
    for m in dict.fromkeys(m for s in keys for m in hists[s]):
        vec = [hists[s].get(m, 0) for s in keys]
        ratios = [w.as_integer_ratio() for w in vec]
        denom = math.lcm(*(d for _, d in ratios))
        ints = [n * (denom // d) for n, d in ratios]
        g = math.gcd(*ints)
        label = (decode(m), tuple(n // g for n in ints))
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


# -- DRE and PSM constructions ------------------------------------------------


def psm_from_dre(D: Dre) -> PsmProtocol:
    """A DRE is already a PSM: send the two encoding halves as the messages.

    The PSM keeps the DRE's ``linear``: its randomness is the DRE's,
    passed as r with no private coins.
    """
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

    return PsmProtocol(D.f, D.shared, alice_msg, bob_msg, decode,
                       domain=D.domain, resources=dict(D.resources), linear=D.linear)


def psm_generic_table(f: BoolFn, budget: int = DEFAULT_BUDGET) -> PsmProtocol:
    """One-time-table PSM for any small f.

    Shared randomness holds a permuted, masked copy of f's truth table rows:
    Alice sends her permuted row under the mask, Bob sends the permuted
    position of his input and the mask bit there. The referee reads a single
    masked cell. Perfectly correct and perfectly private, but the randomness
    grows with (2^n_y)! so this is for tiny functions only.
    """
    cols = 1 << f.n_y
    # (2^n_y)! 2^(2^n_y) states: past 256 bits and the budget, charge the power
    # of two lgamma (within 1e-3 bits) shows it reaches; (2^20)! takes seconds
    bits = math.lgamma(cols + 1) / math.log(2) + cols - 1e-3
    total = (1 << int(bits) if bits > max(256, budget.bit_length())
             else math.factorial(cols) * (1 << cols))
    charge(total, budget, "psm_generic_table randomness states")
    shared = pair_space(tuple(permutations(range(cols))), product_space((0, 1), cols))

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
    return PsmProtocol(f, shared, alice_msg, bob_msg, decode, resources=resources)


def dre_qr(p: int, alice_positions=None, n_bits=None) -> Dre:
    """Randomized encoding of quadratic residuosity of a split integer.

    Bit i of a (weight 2^(i-1)) is encoded as y_i = a_i * r^2 * 2^(i-1) + s_i
    mod p with r uniform over the units and the s_i uniform summing to zero.
    The y_i sum telescopes to r^2 * a, whose residuosity equals a's; the
    random square factor and additive shares hide everything else. Each side
    sends ``((), values)``, its y_i in position order: the positions are
    fixed, so the tag is empty. Inputs are restricted to a in Z_p^*
    (nonzero, below p): 0 has no residue class.

    ``shared`` lists (r, s) lazily, r-major with the n - 1 free shares in
    ``product`` order. For fixed r the encoding is affine in the free shares,
    which ``linear`` declares (r nonlinear, the free shares linear):
    it fills the coset of the hyperplane sum(y) = r^2 * a, so the verifiers
    count (p - 1) / 2 cosets per input instead of (p - 1) * p^(n-1) values.
    """
    f = named_fn("qr", p=p, alice_positions=alice_positions, n_bits=n_bits)
    n = f.params["n_bits"]
    alice_pos = tuple(sorted(f.params["alice_positions"]))
    bob_pos = tuple(i for i in range(1, n + 1) if i not in alice_pos)

    def shares(free):
        return free + ((-sum(free)) % p,)

    def iterate():
        for r in range(1, p):
            for free in product(range(p), repeat=n - 1):
                yield (r, shares(free))

    shared = LazySpace((p - 1) * p ** (n - 1), iterate)

    def encode_bits(value, positions, r, s):
        rsq = (r * r) % p
        out = []
        for j, pos in enumerate(positions):
            bit = (value >> j) & 1
            out.append((bit * rsq * (1 << (pos - 1)) + s[pos - 1]) % p)
        return (), tuple(out)

    def enc_x(x, rr):
        r, s = rr
        return encode_bits(x, alice_pos, r, s)

    def enc_y(y, rr):
        r, s = rr
        return encode_bits(y, bob_pos, r, s)

    def decode(mx, my):
        return euler_qr((sum(mx[1]) + sum(my[1])) % p, p)

    domain = tuple(qr_split_inputs(f, a) for a in range(1, p))

    resources = {
        "field": p,
        "bits": n,
        "randomness_states": shared.size,
        "randomness_bits": math.log2(shared.size),
        "encoding_elements": n,
    }
    linear = LinearPart(p, tuple(range(1, p)), n - 1,
                        lambda r, free: ((r, shares(free)), None, None))
    return Dre(f, shared, enc_x, enc_y, decode, domain=domain,
               resources=resources, linear=linear)
