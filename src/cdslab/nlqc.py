"""One-round quantum protocols between two senders and a referee.

Covers conditional disclosure of a quantum state (the quantum analogue of
CDS), one-round routing of a qubit to the side named by a boolean function,
and simultaneous-message computation with quantum resources. A protocol
execution is never sampled: ``run(x, y, carrier, q_reg)`` returns its
classical branches as (probability, transcript, residual state) triples, so
verifiers can compute exact figures of merit. Pad-and-disclose runs return
one branch per pad key and transcript class: the transcripts of a class
decode to the same key and have proportional likelihoods under every key,
so the referee's view of each is a positive multiple of one operator and
the class's representative transcript, with the summed probability, stands
for all ``count`` of them exactly. Garden-hose routes return one branch per
Pauli-frame class: teleporting through fresh EPR links, the transcripts of
a class leave the routed qubit in one state up to a phase, and each link
enters the state only when the water path reaches it.

Every protocol here is compiled from classical data (a pad key a CDS or
PSM discloses, or a garden-hose water path), so the compilers need no
amplitude. They read the modules that data comes from at call time: the
pad routes take their message sweeps from ``protocols``, and the
garden-hose route and the routing verifier and conversions take the water
trace and the side names from ``gardenhose``. A garden-hose route thus
loads no classical protocol, and a CDQS from a CDS or a PSQM no garden-hose
model. The statevector layer, ``quantum``, is imported at a protocol's
first run, recovery or verification, and loads no numpy: no verifier here
samples a state. numpy serves only ``quantum.random_qubit``, for
``security_state_sweep``'s seeded secrets, demos and tests.

Verification uses two complementary views:

* correctness feeds half an EPR pair through the protocol and compares the
  recovered output against the untouched reference half, i.e. it checks the
  whole channel at once through its Choi state;
* secrecy treats the referee view as a transcript-indexed block-diagonal
  operator and measures, block by block, how far it sits from the product of
  its marginals (or from the view of another run that should look the same).
"""

from __future__ import annotations

import math
from functools import cache
from itertools import combinations
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .boolfn import BoolFn
from .errors import DEFAULT_BUDGET, InputDomain, ValidationError, Worst, charge

if TYPE_CHECKING:
    from .gardenhose import GhStrategy
    from .protocols import CdsProtocol, PsmProtocol
    from .quantum import PureState

KEYS = ((0, 0), (0, 1), (1, 0), (1, 1))


def _statevector():
    """The ``quantum`` module, imported at its first use.

    Compilers build closures, plans and key classes only, so compiling a
    chain does not load it; runs, recoveries and verifiers fetch it here at
    call time, which also reads ``quantum.MAX_QUBITS`` as it stands then.
    """
    from . import quantum
    return quantum


class RunBranch(NamedTuple):
    """One classical branch of a protocol run, or a class of ``count`` branches.

    A class branch carries its first member as ``transcript`` and the
    members' summed probability; branch counts use ``count``, and the
    verifiers' branch budget charges the class branch once.
    """

    prob: float
    transcript: tuple
    state: Optional[PureState]
    count: int = 1


class QVerificationReport:
    """Exact-to-float verification outcome of a quantum protocol.

    ``worst_infidelity`` is 1 - F over the inputs where the output must be
    delivered; ``worst_gap`` is the largest decoupling gap (or pairwise view
    distance) over the inputs where it must stay hidden.
    """

    def __init__(self, kind: str, worst_infidelity: float, worst_gap: float,
                 per_input: dict, max_branches: int, routing_consistent: bool,
                 resources: dict, witnesses: dict):
        self.kind = kind
        self.worst_infidelity, self.worst_gap = worst_infidelity, worst_gap
        self.per_input, self.max_branches = per_input, max_branches
        self.routing_consistent = routing_consistent
        self.resources, self.witnesses = resources, witnesses

    def perfect(self, tol: float = 1e-9) -> bool:
        return (self.worst_infidelity <= tol and self.worst_gap <= tol
                and self.routing_consistent)

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "worst_infidelity": float(self.worst_infidelity),
            "worst_gap": float(self.worst_gap),
            "max_branches": self.max_branches,
            "routing_consistent": self.routing_consistent,
            "per_input": {f"{x},{y}": dict(sorted(info.items()))
                          for (x, y), info in sorted(self.per_input.items())},
            "resources": {k: self.resources[k] for k in sorted(self.resources)},
            "witnesses": {k: list(v) if isinstance(v, tuple) else v
                          for k, v in sorted(self.witnesses.items())},
            "notes": [],
        }


class CdqsProtocol(InputDomain):
    """Conditional disclosure of a quantum state held by Alice.

    The secret qubit enters in register ``q_reg`` of the carrier state and the
    referee receives the registers named by ``msg_regs`` plus the transcript.
    ``recover`` must restore the secret into ``out_reg`` when f(x, y) = 1.
    A pad-and-disclose protocol also exposes its pad key: ``key_classes(x,
    y)`` gives the transcript classes with their weights under each key, and
    ``key_of(x, y, transcript)`` the key a transcript decodes to.
    """

    def __init__(self, f: BoolFn, run: Callable, msg_regs: Callable, recover: Callable,
                 out_reg: Callable, key_classes: Optional[Callable] = None,
                 key_of: Optional[Callable] = None, domain: Optional[tuple] = None,
                 resources: Optional[dict] = None):
        self.f = f
        self.run = run                    # (x, y, carrier, q_reg) -> [RunBranch]
        self.msg_regs = msg_regs          # (x, y) -> tuple of register names
        self.recover = recover            # (x, y, transcript, state) -> PureState
        self.out_reg = out_reg            # (x, y) -> register name
        self.key_classes = key_classes    # (x, y) -> [TranscriptClass]
        self.key_of = key_of              # (x, y, transcript) -> key
        super().__init__(domain, resources)


class FRoutingProtocol(InputDomain):
    """Route a qubit left or right according to f in one simultaneous round.

    ``exit_info`` names the side and, for branch-verifiable protocols, the
    register where the qubit lands; ``correction`` undoes the accumulated
    frame. Protocols whose left side reconstructs the qubit by local decoding
    instead of holding a branch register supply ``left_output``: the 2x2
    density matrix the left side reconstructs from an input qubit of unit
    amplitudes psi, linear in |psi><psi|.
    ``holdings`` names the registers each side holds after a run; it may
    leave out registers in product with the rest of the state.
    """

    def __init__(self, f: BoolFn, run: Callable, exit_info: Callable,
                 correction: Callable, holdings: Optional[Callable] = None,
                 left_output: Optional[Callable] = None, domain: Optional[tuple] = None,
                 resources: Optional[dict] = None):
        self.f = f
        self.run = run                    # (x, y, carrier, q_reg) -> [RunBranch]
        self.exit_info = exit_info        # (x, y) -> (side, reg name or None)
        self.correction = correction      # (x, y, transcript) -> 2x2 matrix
        self.holdings = holdings          # (x, y) -> {"left": regs, "right": regs}
        self.left_output = left_output    # (x, y, psi_vec) -> 2x2 matrix
        super().__init__(domain, resources)


class PsqmProtocol(InputDomain):
    """Simultaneous messages computing f; the referee sees messages only.

    ``run`` enumerates transcript branches; ``quantum_regs`` names any message
    registers carried by branch states (empty for purely classical schemes).
    """

    def __init__(self, f: BoolFn, run: Callable, decode: Callable, quantum_regs: tuple = (),
                 domain: Optional[tuple] = None, resources: Optional[dict] = None):
        self.f = f
        self.run = run                    # (x, y) -> [RunBranch]
        self.decode = decode              # (transcript) -> value of f
        self.quantum_regs = quantum_regs
        super().__init__(domain, resources)


# -- shared verification plumbing ---------------------------------------------


class _Sweep(Worst):
    """One verification's per-input figures, worst cases and branch budget.

    The budget bounds the running total of branches the verifier walks, one
    per class branch; the per-input ``branches`` figures, and with them
    ``max_branches``, count by ``count``, the transcripts each class stands for.
    Every figure counts toward its worst case, but only one above the
    statevector layer's rounding floor, ``quantum._TOL``, names a witness: of
    figures that are all rounding noise, which one is largest depends on the
    order of floating-point operations, not on the protocol.
    """

    def __init__(self, budget: int):
        super().__init__()
        self.budget = budget
        self.total = 0
        self.per_input = {}

    def worse(self, name: str, figure, witness) -> None:
        if figure > _statevector()._TOL:
            super().worse(name, figure, witness)
        elif figure > self.worst.get(name, 0):
            self.worst[name] = figure

    def run(self, run: Callable, *args) -> tuple:
        """``run(*args)``'s branches and the transcripts they stand for; over budget raises."""
        branches = run(*args)
        self.total += len(branches)
        charge(self.total, self.budget, "branches")
        return branches, sum(b.count for b in branches)

    def record(self, xy: tuple, info: dict, name: str, figure: float) -> None:
        self.per_input[xy] = info
        self.worse(name, figure, xy)

    def report(self, kind: str, error: str, gap: Optional[str], resources: dict,
               consistent: bool = True) -> QVerificationReport:
        max_branches = max((info["branches"] for info in self.per_input.values()),
                           default=0)
        return QVerificationReport(kind, self.worst.get(error, 0.0),
                                   self.worst.get(gap, 0.0), self.per_input,
                                   max_branches, consistent, dict(resources),
                                   self.witnesses)


def _choi_fidelity(branches, fix: Callable, out: str) -> float:
    """Fidelity with |Phi+> of what the branches deliver to (R, ``out``).

    ``fix(b)`` is branch b's state after the receiver's correction. The
    target is pure, so Uhlmann's fidelity is sqrt(<Phi+| rho |Phi+>), with
    rho the branches' probability-weighted mixture, and needs no eigen-solve.
    """
    quantum = _statevector()
    overlap = sum(b.prob * quantum.overlap(fix(b).ptrace(["R", out]), quantum.PHI_PLUS)
                  for b in branches)
    return min(1.0, math.sqrt(max(0.0, overlap)))


def _view_blocks(branches, regs) -> dict:
    """Referee view per transcript: the sum of prob * (state reduced to ``regs``).

    With ``regs`` None, or a branch without a state, the transcript is the
    whole view.
    """
    terms = {}
    for b in branches:
        mat = ((1.0,),) if regs is None or b.state is None else b.state.ptrace(regs)
        terms.setdefault(b.transcript, []).append((b.prob, mat))
    quantum = _statevector()
    return {t: quantum.weighted(ts) for t, ts in terms.items()}


def _block_distance(blocks_a: dict, blocks_b: dict) -> float:
    """Trace distance of two views, their blocks matched by transcript.

    A transcript only one view has is a zero block in the other.
    """
    keys = sorted(set(blocks_a) | set(blocks_b), key=repr)
    if not keys:
        return 0.0
    d = len(next(iter((blocks_a or blocks_b).values())))
    zero = [[0j] * d for _ in range(d)]
    return _statevector().trace_distance([blocks_a.get(k, zero) for k in keys],
                                         [blocks_b.get(k, zero) for k in keys])


def verify_cdqs(P: CdqsProtocol, budget: int = DEFAULT_BUDGET) -> QVerificationReport:
    """Choi-state correctness on revealing inputs, decoupling on hiding ones."""
    quantum = _statevector()
    sweep = _Sweep(budget)
    for (x, y) in P.input_pairs():
        branches, n = sweep.run(P.run, x, y, quantum.epr_pairs([("R", "Q")]), "Q")
        if P.f.eval(x, y) == 1:
            F = _choi_fidelity(branches,
                               lambda b: P.recover(x, y, b.transcript, b.state),
                               P.out_reg(x, y))
            sweep.record((x, y), {"f": 1, "fidelity": F, "branches": n},
                         "infidelity", 1 - F)
        else:
            blocks = _view_blocks(branches, ("R",) + tuple(P.msg_regs(x, y)))
            stack = list(blocks.values())
            gap = quantum.decoupling_gap(stack, 2, len(stack[0]) // 2)
            sweep.record((x, y), {"f": 0, "gap": gap, "branches": n}, "gap", gap)
    return sweep.report("cdqs", "infidelity", "gap", P.resources)


def verify_frouting(P: FRoutingProtocol, budget: int = DEFAULT_BUDGET) -> QVerificationReport:
    """Delivered-qubit fidelity on both sides, worst case over inputs.

    Branch-register sides are checked through the Choi state. A side that
    reconstructs by local decoding reports its exact worst fidelity over
    every pure input qubit, ``quantum.worst_fidelity`` of four runs of
    ``left_output``.
    """
    from .gardenhose import RIGHT

    quantum = _statevector()
    sweep = _Sweep(budget)
    for (x, y) in P.input_pairs():
        fx = P.f.eval(x, y)
        side, reg = P.exit_info(x, y)
        if (side == RIGHT) != (fx == 1):
            sweep.witnesses["side"] = (x, y)
        if reg is not None:
            branches, n = sweep.run(P.run, x, y, quantum.epr_pairs([("R", "Q")]), "Q")
            F = _choi_fidelity(
                branches,
                lambda b: b.state.apply(P.correction(x, y, b.transcript), [reg]),
                reg)
        else:
            if P.left_output is None:
                raise ValidationError("no register and no local reconstruction")
            F = quantum.worst_fidelity(lambda psi: P.left_output(x, y, psi))
            n = 0
        sweep.record((x, y), {"f": fx, "side": side, "fidelity": F, "branches": n},
                     "infidelity", 1 - F)
    return sweep.report("frouting", "infidelity", None, P.resources,
                        consistent="side" not in sweep.witnesses)


def verify_psqm(P: PsqmProtocol, budget: int = DEFAULT_BUDGET) -> QVerificationReport:
    """Decode accuracy on every input; view distance across equal-value inputs.

    As ``protocols._sweep`` does with histograms, a value keeps only its
    distinct views and compares them pairwise in input order.
    """
    sweep = _Sweep(budget)
    views = {}
    for (x, y) in P.input_pairs():
        branches, n = sweep.run(P.run, x, y)
        fx = P.f.eval(x, y)
        fail = sum((b.prob for b in branches if P.decode(b.transcript) != fx), 0.0)
        view = _view_blocks(branches, P.quantum_regs or None)
        if all(P.f.eval(*xy) != fx or other != view for xy, other in views.items()):
            views[(x, y)] = view
        sweep.record((x, y), {"f": fx, "decode_error": fail, "branches": n},
                     "decode", fail)
    for a, b in combinations(views, 2):
        if P.f.eval(*a) == P.f.eval(*b):
            sweep.worse("view", _block_distance(views[a], views[b]), (a, b))
    return sweep.report("psqm", "decode", "view", P.resources)


def security_state_sweep(P: CdqsProtocol, seeds=range(10)) -> dict:
    """Max pairwise referee-view distance across concrete secret qubits.

    Runs every hiding input with the six Pauli eigenstates and seeded random
    qubits as the secret; a protocol that leaks nothing produces views at
    distance zero from each other.
    """
    quantum = _statevector()
    states = [(name, quantum.PureState((("Q", 1),), vec))
              for (name, vec) in quantum.probe_qubits(seeds)]
    worst = Worst()
    per_input = {}
    for (x, y) in P.input_pairs():
        if P.f.eval(x, y) != 0:
            continue
        msg = tuple(P.msg_regs(x, y))
        views = {name: _view_blocks(P.run(x, y, st, "Q"), msg) for name, st in states}
        per_input[(x, y)] = 0.0
        for a, b in combinations(views, 2):
            d = _block_distance(views[a], views[b])
            per_input[(x, y)] = max(per_input[(x, y)], d)
            worst.worse("view", d, (x, y, a, b))
    return {"worst": worst.worst.get("view", 0.0), "per_input": per_input,
            "witness": worst.witnesses.get("view"), "n_states": len(states)}


# -- pad machinery -------------------------------------------------------------


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
    from .protocols import message_count

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


def pauli_frame(outcomes) -> list:
    """Correction undoing a chain of teleportation byproducts.

    Outcome (a, b) at step t means X^a Z^b hit the carried state; later steps
    act on the already-twisted state, so the net twist is the ordered product
    and the correction is its adjoint.
    """
    quantum = _statevector()
    I2, X, Z = quantum.I2, quantum.X, quantum.Z
    net = I2
    for (a, b) in outcomes:
        net = quantum.matmul(quantum.matmul(X if a else I2, Z if b else I2), net)
    return quantum.dagger(net)


def _otp_left_output(classes: list, psi) -> list:
    """The qubit Alice reconstructs from unit amplitudes psi, as a 2x2 matrix.

    ``classes`` are the transcript classes of the key disclosure on one
    input, weighted by probability under each key. The message register
    holds one basis vector per class: within a class the amplitudes
    sqrt(P(m | key)) are proportional, so mapping the members' normalised
    superposition to one basis vector is an isometry on the register, which
    is traced out. The state has 3 + k qubits, k those of the register.
    """
    quantum = _statevector()
    kq = max(1, math.ceil(math.log2(max(2, len(classes)))))
    charge(3 + kq, quantum.MAX_QUBITS, "qubits per factor")
    vec = [0j] * (1 << (3 + kq))
    for s in KEYS:
        padded = quantum.matmul(quantum.phased_pad(*s), psi)
        base = ((s[0] << 1) | s[1]) << (1 + kq)
        for i, c in enumerate(classes):
            prob = c.weights.get(s)
            if not prob:
                continue
            amp = 0.5 * math.sqrt(prob)
            vec[base | i] += amp * padded[0]
            vec[base | i | (1 << kq)] += amp * padded[1]
    state = quantum.PureState((("A1", 1), ("A2", 1), ("Q", 1), ("M", kq)), vec)
    state = state.apply(quantum.U_BELL, ["A1", "A2"])
    return state.ptrace(["A2"])


# -- compilers -----------------------------------------------------------------


def _pad_run(classes_of: Callable) -> Callable:
    """Run of a pad-and-disclose protocol.

    The carrier is padded under each key; each transcript class of
    ``classes_of(x, y)`` with weight under that key is one branch, carrying
    the class's representative, summed probability and member count.
    """
    def run(x, y, carrier, q_reg):
        classes = classes_of(x, y)
        quantum = _statevector()
        branches = []
        for s in KEYS:
            padded = carrier.apply(quantum.phased_pad(*s), [q_reg])
            for c in classes:
                prob = c.weights.get(s)
                if prob:
                    branches.append(RunBranch(0.25 * prob, c.rep, padded, c.count))
        return branches

    return run


def _inverse_pad(s) -> list:
    """Inverse of pad key s, the Hermitian pad itself; the identity for a failed decode."""
    quantum = _statevector()
    return quantum.phased_pad(*s) if s in KEYS else quantum.I2


def _unpad(state: PureState, s) -> PureState:
    """Undo pad key s on register "Q"; a failed decode passes the state through."""
    return state if s not in KEYS else state.apply(_inverse_pad(s), ["Q"])


def _pad_cdqs(f: BoolFn, bit_hists: Callable, bit_of: Callable, denom, domain,
              resources: dict) -> CdqsProtocol:
    """Pad-and-disclose CDQS: the referee gets the padded "Q" and the transcript.

    Alice pads the qubit with two key bits, and each bit is disclosed by one
    independent run. ``bit_hists(x, y)`` maps a key-bit value to one run's
    transcript weights, and ``bit_of(x, y, t)`` decodes one run's transcript
    t to a bit. A transcript of the protocol is the pair of run transcripts.
    Its classes, the product of the per-run classes with weights divided by
    ``denom``, are formed once per input and kept, since the quantum
    verifiers ask again for every swept qubit state.
    """
    @cache
    def key_classes(x, y):
        classes = transcript_classes(bit_hists(x, y), lambda t: bit_of(x, y, t))
        return [c._replace(weights={s: w / denom for s, w in c.weights.items()})
                for c in class_product(classes)]

    def key_of(x, y, transcript):
        return tuple(bit_of(x, y, t) for t in transcript)

    return CdqsProtocol(f, _pad_run(key_classes), lambda x, y: ("Q",),
                        lambda x, y, t, state: _unpad(state, key_of(x, y, t)),
                        lambda x, y: "Q", key_classes=key_classes, key_of=key_of,
                        domain=domain, resources=resources)


def cdqs_from_cds(C: CdsProtocol, budget: int = DEFAULT_BUDGET) -> CdqsProtocol:
    """Quantum one-time pad keyed by two secret bits a classical CDS hides.

    Alice pads the secret qubit with the two-bit key and sends it along; two
    independent runs of the bit-CDS disclose the key exactly on revealing
    inputs. Hiding inputs leave the pad key uniform to the referee, so the
    qubit they hold is maximally mixed and decoupled. Each run's message
    counts come from one sweep per secret by ``verify_cds``'s kernel, by
    coset, charged against ``budget`` before the first (a layout the first nu
    misses, when met); the product weights stay integers until one division
    by the squared joint randomness.
    """
    from .protocols import _joint, _sweep_kernel, space_size

    if set(C.secrets) != {0, 1}:
        raise ValidationError("need a single-bit CDS")
    cases = [(x, y, s) for (x, y) in C.input_pairs() for s in C.secrets]
    kernel = cache(lambda: _sweep_kernel(C, cases, budget, "cdqs_from_cds")[0])

    def bit_hists(x, y):
        return {s: kernel()(x, y, s) for s in C.secrets}

    resources = {"pad_key_bits": 2, "qubits_sent": 1,
                 "cds_randomness_states": space_size(C.shared) ** 2}
    return _pad_cdqs(C.f, bit_hists, lambda x, y, m: C.decode(m[0], x, m[1], y),
                     _joint(C) ** 2, C.domain, resources)


def frouting_from_gh(strategy: GhStrategy, f: BoolFn) -> FRoutingProtocol:
    """Teleport the qubit along the water path, one EPR link per pipe.

    Alice teleports into her tap pipe; every joined pair of pipe ends becomes
    a Bell measurement that forwards the qubit, and the broadcast outcomes fix
    the Pauli frame. The qubit lands on the spill side: left register when
    f = 0, right when f = 1.

    A run returns one branch per Pauli-frame class, not one per transcript.
    Every hop Bell-measures the carried qubit with half of a link no hop has
    used (a water path never reuses a pipe), so each outcome (a, b) has
    probability exactly 1/4 and leaves X^a Z^b on the link's far end. The
    4^h transcripts of h hops therefore split by their net frame X^A Z^B, A
    and B the parities of the a's and of the b's, into four classes of
    4^(h-1) members whose states agree up to a global phase. Class (A, B)
    is represented by its first transcript, (0, 0) at every hop but the last
    and (A, B) there, with probability 1/4 and its raw count.

    A run starts from the carrier alone, and the hop that measures a link
    makes it and tensors it in, so a hop acts on at most four qubits: the
    reference, the carried qubit and a link. Compiling makes no link, links
    off the water path are never made, and ``holdings`` names only the exit
    register, on its side: an EPR pair no operation touched tensors every
    referee view block by the same trace-one operator, so leaving it out
    changes no trace norm. ``gh_trace`` checks the strategy, widths included.
    """
    from .gardenhose import LEFT, RIGHT, gh_trace

    m = strategy.pipes
    outcomes, misrouted = gh_trace(strategy, f)
    if misrouted:
        raise ValidationError("strategy does not compute f")

    def plan_for(outcome):
        plan = [("q", f"L{outcome.path[0][0]}", ("alice", 0, outcome.path[0][0]))]
        for (prev, cur) in zip(outcome.path, outcome.path[1:]):
            if cur[1] == "rl":
                plan.append((f"R{prev[0]}", f"R{cur[0]}",
                             ("bob", prev[0], cur[0])))
            else:
                plan.append((f"L{prev[0]}", f"L{cur[0]}",
                             ("alice", prev[0], cur[0])))
        last_pipe, last_dir = outcome.path[-1]
        exit_reg = (f"R{last_pipe}" if last_dir == "lr" else f"L{last_pipe}")
        held = {LEFT: (), RIGHT: ()}
        held[outcome.side] = (exit_reg,)
        return plan, outcome.side, exit_reg, held

    plans = {xy: plan_for(outcome) for xy, outcome in outcomes.items()}

    def run(x, y, carrier, q_reg):
        quantum = _statevector()
        plan = plans[(x, y)][0]
        state = carrier
        for reg_a, reg_b, desc in plan:
            # a hop's label ends in the pipe whose link it measures half of
            link = quantum.epr_pairs([(f"L{desc[2]}", f"R{desc[2]}")])
            outcomes = state.tensor(link).bell_measure(
                q_reg if reg_a == "q" else reg_a, reg_b)
            state = next(st for ab, _, st in outcomes if ab == (0, 0))
        first = tuple((desc, (0, 0)) for (_, _, desc) in plan[:-1])
        return [RunBranch(0.25, first + ((plan[-1][2], ab),), st, 4 ** len(first))
                for ab, _, st in outcomes]

    def exit_info(x, y):
        _, side, reg, _ = plans[(x, y)]
        return side, reg

    def correction(x, y, transcript):
        return pauli_frame([ab for (_, ab) in transcript])

    def holdings(x, y):
        return plans[(x, y)][3]

    resources = {"epr_pairs": m, "pipes": m,
                 "bound_epr_equals_pipes": True}
    return FRoutingProtocol(f, run, exit_info, correction, holdings=holdings,
                            resources=resources)


def frouting_from_cdqs(C: CdqsProtocol) -> FRoutingProtocol:
    """Pad-and-disclose routing: the key travels only where f allows.

    Alice pads the qubit and sends it right while a key-disclosing scheme runs
    underneath. Revealing inputs let the right side decode the key and unpad.
    On hiding inputs the messages carry no key information, so Alice, who kept
    her key register coherent, can rotate it through the pad-to-EPR basis and
    swap the qubit back onto her side. The route reuses C's run and pad key,
    so any pad-and-disclose CDQS, from a CDS or a PSQM, can be routed; one
    made from a router has no pad key and is refused.
    """
    from .gardenhose import LEFT, RIGHT

    if C.key_of is None:
        raise ValidationError("need a protocol exposing its pad key")
    f = C.f

    def exit_info(x, y):
        if f.eval(x, y) == 1:
            return RIGHT, "Q"
        return LEFT, None

    def correction(x, y, transcript):
        return _inverse_pad(C.key_of(x, y, transcript))

    def holdings(x, y):
        return {"left": (), "right": ("Q",)}

    def left_output(x, y, psi):
        return _otp_left_output(C.key_classes(x, y), psi)

    resources = dict(C.resources)
    resources["qubits_sent"] = 1
    return FRoutingProtocol(f, C.run, exit_info, correction, holdings=holdings,
                            left_output=left_output, domain=C.domain,
                            resources=resources)


def cdqs_from_frouting(R: FRoutingProtocol) -> CdqsProtocol:
    """Disclose a qubit by routing it: the right side forwards everything.

    Run the router on the secret qubit; the referee receives the transcript
    and every register the right side holds. When f = 1 the qubit sits in one
    of them and the frame correction restores it; when f = 0 it never crossed,
    so the forwarded registers are independent of the secret.
    """
    from .gardenhose import RIGHT

    if R.holdings is None:
        raise ValidationError("router must expose per-side register holdings")
    f = R.f

    def msg_regs(x, y):
        return tuple(R.holdings(x, y)["right"])

    def recover(x, y, transcript, state):
        side, reg = R.exit_info(x, y)
        if side != RIGHT or reg is None:
            return state
        return state.apply(R.correction(x, y, transcript), [reg])

    def out_reg(x, y):
        _, reg = R.exit_info(x, y)
        return reg

    resources = dict(R.resources)
    return CdqsProtocol(f, R.run, msg_regs, recover, out_reg, domain=R.domain,
                        resources=resources)


def psqm_from_psm(P: PsmProtocol, budget: int = DEFAULT_BUDGET) -> PsqmProtocol:
    """A classical PSM is a simultaneous-message protocol with no qubits.

    A run is one sweep of P's messages on one input pair by ``verify_psm``'s
    kernel, one branch per coset, the sweeps over every pair charged before
    any run starts (a layout the first nu misses, when met), one layout one
    subspace across them all, as ``verify_psqm``'s view comparisons need.
    """
    from .protocols import _sweep_kernel, message_count

    kernel = cache(lambda: _sweep_kernel(P, list(P.input_pairs()), budget, "psqm_from_psm"))

    def run(x, y):
        hist_of, joint = kernel()
        return [RunBranch(c / joint, m, None, message_count(m)) for m, c in
                sorted(hist_of(x, y).items(), key=lambda kv: repr(kv[0]))]

    return PsqmProtocol(P.f, run, lambda t: P.decode(t[0], t[1]), domain=P.domain,
                        resources=dict(P.resources))


def cdqs_from_psqm(P: PsqmProtocol) -> CdqsProtocol:
    """Pad the qubit with two shared bits; leak each bit through one masked run.

    For each key bit the parties either use their real inputs or a fixed
    hiding input, so the run computes (key bit) AND f(x, y). Revealing inputs
    hand the referee both key bits; hiding inputs make every run's view
    key-independent, leaving the pad intact.
    """
    from .protocols import hiding_input

    if P.quantum_regs:
        raise ValidationError("only classical-message protocols can be lifted here")
    x_star, y_star = hiding_input(P)

    def hist(x, y):
        return {b.transcript: b.prob for b in P.run(x, y)}

    # key bit 0 runs the hiding input, swept once; key bit 1 the real one
    hidden = cache(lambda: hist(x_star, y_star))
    resources = {"pad_key_bits": 2, "qubits_sent": 1, "runs": 2}
    return _pad_cdqs(P.f, lambda x, y: {0: hidden(), 1: hist(x, y)},
                     lambda x, y, t: P.decode(t), 1, P.domain, resources)
