"""Verifiers of the quantum protocols, which only a quantum verify loads.

* correctness feeds half an EPR pair through the protocol and compares the
  recovered output against the untouched reference half, i.e. it checks the
  whole channel at once through its Choi state;
* secrecy treats the referee view as a transcript-indexed block-diagonal
  operator and measures, block by block, how far it sits from the product of
  its marginals;
* a PSQM carries no qubit, so its views are message distributions, and
  ``verify_psm``'s exact sweep gives its figures.

Runs are Pauli frames with integer weights (``frames``), so each figure is
exact until it is written as a float, and an integer test, no tolerance,
decides it: a figure off its ideal names its input as witness, even where
its float reads 0.0, and a report passes when none is named. A pad route's
left side reports its worst fidelity over every pure input, in closed form
from its key classes.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional

from .errors import ValidationError, Worst, charge

if TYPE_CHECKING:
    from .nlqc import FRoutingProtocol, PsqmProtocol


class QVerificationReport:
    """Exact-to-float verification outcome of a quantum protocol.

    ``worst_infidelity`` is 1 - F over the inputs where the output must be
    delivered; ``worst_gap`` is the largest decoupling gap (or pairwise view
    distance) over the inputs where it must stay hidden. ``max_branches`` is
    the largest per-input ``branches`` figure. The "side" witness is the first
    input where the qubit exits away from f's side, a CDQS's referee lacking it.
    """

    def __init__(self, kind: str, worst_infidelity: float, worst_gap: float,
                 per_input: dict, resources: dict, witnesses: dict):
        self.kind = kind
        self.worst_infidelity, self.worst_gap = worst_infidelity, worst_gap
        self.per_input = per_input
        self.max_branches = max((info["branches"] for info in per_input.values()), default=0)
        self.resources, self.witnesses = resources, witnesses
        self.routing_consistent = "side" not in witnesses

    @property
    def perfect(self) -> bool:
        return not self.witnesses

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "worst_infidelity": float(self.worst_infidelity),
            "worst_gap": float(self.worst_gap),
            "max_branches": self.max_branches,
            "routing_consistent": self.routing_consistent,
            "per_input": {f"{x},{y}": info for (x, y), info in self.per_input.items()},
            "resources": self.resources,
            "witnesses": {k: list(v) if isinstance(v, tuple) else v
                          for k, v in self.witnesses.items()},
            "notes": [],
        }


class _Sweep(Worst):
    """One CDQS or f-routing verification's per-input figures, worst cases
    and branch charge.

    The request's budget bounds the running total of branches the verifier
    walks, charged after each run, one per class branch; the per-input
    ``branches`` figures, and with them ``max_branches``, count by ``count``,
    the transcripts each class stands for.
    """

    def __init__(self):
        super().__init__()
        self.total = 0
        self.per_input = {}

    def run(self, run: Callable, *args) -> tuple:
        """``run(*args)``'s branches and the transcripts they stand for; over budget raises."""
        branches = run(*args)
        self.total += len(branches)
        charge(self.total, "branches")
        return branches, sum(b.count for b in branches)

    def record(self, xy: tuple, info: dict, name: str, figure: float, exact: bool) -> None:
        """Keep ``info``; unless ``exact``, the figure's integer test failed at ``xy``,
        which is its witness while no larger figure is met, 0.0 included."""
        self.per_input[xy] = info
        if not exact:
            self.worse(name, figure, xy)
            self.witnesses.setdefault(name, xy)

    def report(self, kind: str, error: str, gap: Optional[str],
               resources: dict) -> QVerificationReport:
        return QVerificationReport(kind, self.worst.get(error, 0.0), self.worst.get(gap, 0.0),
                                   self.per_input, dict(resources), self.witnesses)


def _choi_fidelity(P: FRoutingProtocol, x, y, branches, out: str) -> tuple:
    """(F, F = 1) for what P's ``recover`` delivers to (R, ``out``) on (x, y).

    F is the fidelity with |Phi+>. The four frames on |Phi+> are the
    orthogonal Bell states, so F squared, <Phi+| rho |Phi+> for the
    branches' weighted mixture rho, is the weight of the branches whose
    recovered frame is the identity over ``P.denom``, and F is 1 exactly
    when that weight is all of ``P.denom``.
    """
    hit = 0
    for br in branches:
        reg, a, b = P.recover(x, y, br.transcript, br.state)
        if reg != out:
            raise ValidationError(f"the qubit is carried in {reg}, not in {out}")
        if not a | b:
            hit += br.weight
    return min(1.0, math.sqrt(hit / P.denom)), hit == P.denom


def verify_cdqs(P: FRoutingProtocol) -> QVerificationReport:
    """Choi-state correctness on revealing inputs, whose exit register the referee
    must hold (the first it lacks is the "side" witness); decoupling on hiding ones."""
    from . import frames
    sweep = _Sweep()
    for (x, y) in P.domain:
        branches, n = sweep.run(P.run, x, y, frames.CARRIER)
        if P.f.eval(x, y) == 1:
            if (reg := P.exit_reg(x, y)) not in P.msg_regs(x, y):
                sweep.witnesses.setdefault("side", (x, y))
            F, exact = _choi_fidelity(P, x, y, branches, reg)
            sweep.record((x, y), {"f": 1, "fidelity": F, "branches": n},
                         "infidelity", 1 - F, exact)
        else:
            gap, exact = frames.decoupling_gap(branches, P.msg_regs(x, y), P.denom)
            sweep.record((x, y), {"f": 0, "gap": gap, "branches": n}, "gap", gap, exact)
    return sweep.report("cdqs", "infidelity", "gap", P.resources)


def verify_frouting(P: FRoutingProtocol) -> QVerificationReport:
    """Delivered-qubit fidelity on both sides, worst case over inputs.

    The qubit exits right exactly when the right side holds its exit
    register, and must where f = 1. Branch-register sides are checked
    through the Choi state. A pad route's left side, which has no exit
    register, reports its worst fidelity over every pure input qubit,
    ``frames.left_fidelity`` of its key classes, 1 exactly when each class
    weighs the four keys alike.
    """
    from . import frames
    from .gardenhose import LEFT, RIGHT

    sweep = _Sweep()
    for (x, y) in P.domain:
        fx, reg = P.f.eval(x, y), P.exit_reg(x, y)
        side = RIGHT if reg in P.msg_regs(x, y) else LEFT
        if (side == RIGHT) != (fx == 1):
            sweep.witnesses.setdefault("side", (x, y))
        if reg is not None:
            branches, n = sweep.run(P.run, x, y, frames.CARRIER)
            F, exact = _choi_fidelity(P, x, y, branches, reg)
        else:
            if P.key_classes is None:
                raise ValidationError("no register and no local reconstruction")
            classes, n = P.key_classes(x, y), 0
            F = frames.left_fidelity(classes, P.denom)
            exact = all(len({c.weights.get(s, 0) for s in frames.KEYS}) == 1 for c in classes)
        sweep.record((x, y), {"f": fx, "side": side, "fidelity": F, "branches": n},
                     "infidelity", 1 - F, exact)
    return sweep.report("frouting", "infidelity", None, P.resources)


def verify_psqm(P: PsqmProtocol) -> QVerificationReport:
    """``verify_psm``'s sweep of the PSM whose messages P sends, exactly.

    The referee's view of an input is its message distribution, so the
    decode error is the sweep's eps, the view distance, a trace distance of
    distributions, is half its L1 distance delta_pair, and each is witnessed
    as the sweep witnesses it. An input's ``branches`` are its distinct
    messages.
    """
    from .protocols import message_count
    from .verifiers import _value_sweep

    per_input = {}

    def seen(xy, hist, fails):
        per_input[xy] = {"f": P.f.eval(*xy), "decode_error": fails / P.denom,
                         "branches": sum(map(message_count, hist))}

    eps, delta, found = _value_sweep(P.psm, "psqm_from_psm", seen)
    witnesses = {{"eps": "decode", "delta": "view"}[k]: w for k, w in found.items()}
    return QVerificationReport("psqm", eps, delta / 2, per_input, dict(P.resources), witnesses)
