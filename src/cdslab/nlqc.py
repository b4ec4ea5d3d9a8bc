"""One-round quantum protocols between two senders and a referee: the records.

Covers conditional disclosure of a quantum state (the quantum analogue of
CDS), one-round routing of a qubit to the side named by a boolean function,
and simultaneous-message computation, whose one compiled instance is a
classical PSM, holding that PSM alone, and carries no qubit. A disclosure or
routing run is never sampled: ``run(x, y, carrier)``, the qubit in the
carrier's register "Q", returns its classical branches as (integer weight,
transcript, Pauli frame) triples, the weights out of the record's ``denom``,
so verifiers compute exact figures of merit. A CDQS and an f-routing are one
record, as the source paper finds them equivalent: a route's right side is a
CDQS's referee, holding ``msg_regs`` after a run, which may leave out
registers in product with the rest of the state; the qubit lands in
``exit_reg``, where ``recover`` undoes its frame, and exits right exactly
when its referee holds that register. Garden-hose routes return one branch
per Pauli-frame class: teleporting through fresh EPR links, the transcripts
of a class leave the routed qubit under one frame. They hold only the
strategy and trace an input's water path (``gardenhose.gh_eval``) when a
run, exit or referee register asks for it, reading each hop's side off its
parity; they load neither the pad routes (``padroutes``) nor any classical
protocol. The frame kernel, ``frames``, is imported when a route
is compiled; no record reads the dense statevector.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple, Optional

from .boolfn import BoolFn
from .errors import InputDomain, LazySpace

if TYPE_CHECKING:
    from .gardenhose import GhStrategy

class RunBranch(NamedTuple):
    """One classical branch of a protocol run, or a class of ``count`` branches.

    ``weight`` is an integer out of the record's ``denom`` and ``state`` a
    ``frames`` state. A class branch carries its first member as
    ``transcript`` and the members' summed weight; branch counts use
    ``count``, and the verifiers' branch budget charges the class branch
    once.
    """

    weight: int
    transcript: tuple
    state: tuple
    count: int = 1


class FRoutingProtocol(InputDomain):
    """Route a qubit left or right according to f in one simultaneous round,
    or disclose it to a referee exactly where f = 1: one record.

    ``exit_reg(x, y)`` names the register where the qubit lands, which
    ``recover`` corrects, and ``msg_regs(x, y)`` the registers the right
    side, a CDQS's referee, holds; the qubit exits right exactly when they
    include its exit. A pad route's left side reconstructs the qubit from
    Alice's kept key register instead, so its exit is None; it supplies
    ``key_classes``, the transcript classes with their weights under each
    pad key, from which ``frames.left_fidelity`` reads its worst fidelity.
    Every run's branch weights add up to ``denom``.
    """

    def __init__(self, f: BoolFn, run: Callable, denom: int, msg_regs: Callable,
                 recover: Callable, exit_reg: Callable, key_classes: Optional[Callable] = None,
                 domain: Optional[LazySpace] = None, resources: Optional[dict] = None):
        self.f = f
        self.run = run                    # (x, y, carrier) -> [RunBranch]
        self.denom = denom                # what a run's branch weights add up to
        self.msg_regs = msg_regs          # (x, y) -> tuple of register names
        self.recover = recover            # (x, y, transcript, state) -> state
        self.exit_reg = exit_reg          # (x, y) -> register name or None
        self.key_classes = key_classes    # (x, y) -> [TranscriptClass]
        super().__init__(domain, resources)


CdqsProtocol = FRoutingProtocol   # a CDQS is a route read from its right side


class PsqmProtocol(InputDomain):
    """Simultaneous messages computing f; the referee sees messages only.

    The one PSQM compiled, ``padroutes.psqm_from_psm``, sends the messages of
    a classical PSM, ``psm``, and carries no qubit, so its referee's views
    are that PSM's message distributions, and its decoder the PSM's.
    """

    def __init__(self, psm, resources: Optional[dict] = None):
        self.psm, self.f = psm, psm.f
        super().__init__(psm.domain, resources)


# -- garden-hose route ---------------------------------------------------------


def pauli_frame(outcomes) -> tuple:
    """The net frame (A, B) of a chain of teleportation byproducts.

    Outcome (a, b) at a step means X^a Z^b hit the carried qubit. Up to a
    phase the ordered product is X^A Z^B, A and B the parities of the a's
    and of the b's, and XORing the frame with it undoes it.
    """
    A = B = 0
    for (a, b) in outcomes:
        A, B = A ^ a, B ^ b
    return A, B


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
    and (A, B) there, with weight 1 out of 4 and its raw count.

    A run starts from the carrier's frame and moves it one hop at a time, so
    compiling makes no link and a run holds no state beyond the frame. Links
    off the water path are never made, and ``msg_regs`` names the exit
    register when the water spills right, else none: an EPR pair no
    operation touched tensors every referee view block by the same
    trace-one operator, so leaving it out changes no trace norm. ``recover``
    undoes the transcript's Pauli frame. ``gh_routes`` checks the strategy,
    widths included, tracing each input once; the route keeps no trace, and
    ``run``, ``exit_reg`` and ``msg_regs`` trace their input when called.
    """
    from . import frames
    from .gardenhose import RIGHT, gh_eval, gh_routes

    m = strategy.pipes
    gh_routes(strategy, f)

    def run(x, y, carrier):
        path = gh_eval(strategy, x, y).path
        tap = path[0]
        hops = [(("Q", f"L{tap}"), f"R{tap}", ("alice", 0, tap))]   # (pair, far, label)
        for i, (prev, cur) in enumerate(zip(path, path[1:])):
            # Bob's hose joins path[i] to path[i + 1] at even i, Alice's at odd i
            near, far, party = ("L", "R", "alice") if i % 2 else ("R", "L", "bob")
            hops.append(((f"{near}{prev}", f"{near}{cur}"), f"{far}{cur}", (party, prev, cur)))
        state = carrier
        for pair, far, _ in hops:
            outcomes = frames.hop(state, pair, far)
            state = outcomes[0][1]   # outcome (0, 0)
        first = tuple((desc, (0, 0)) for (_, _, desc) in hops[:-1])
        return [RunBranch(1, first + ((hops[-1][2], ab),), st, 4 ** len(first))
                for ab, st in outcomes]

    def exit_reg(x, y):
        outcome = gh_eval(strategy, x, y)
        return f"{'R' if outcome.side == RIGHT else 'L'}{outcome.exit_pipe}"

    def msg_regs(x, y):
        reg = exit_reg(x, y)
        return (reg,) if reg[0] == "R" else ()

    def recover(x, y, transcript, state):
        return frames.xor(state, pauli_frame(ab for (_, ab) in transcript))

    resources = {"epr_pairs": m, "pipes": m,
                 "bound_epr_equals_pipes": True}
    return FRoutingProtocol(f, run, 4, msg_regs, recover, exit_reg, resources=resources)


def cdqs_from_frouting(R: FRoutingProtocol) -> FRoutingProtocol:
    """Disclose a qubit by routing it: the right side forwards everything.

    Run the router on the secret qubit; the referee receives the transcript
    and every register the right side holds. When f = 1 the qubit sits in the
    exit register and the router's recovery restores it; when f = 0 it never
    crossed, so the forwarded registers are independent of the secret. The
    CDQS shares R's fields but ``key_classes``: a router's referee holds no
    pad key, so ``frouting_from_cdqs`` refuses it.
    """
    return FRoutingProtocol(R.f, R.run, R.denom, R.msg_regs, R.recover, R.exit_reg,
                            domain=R.domain, resources=dict(R.resources))
