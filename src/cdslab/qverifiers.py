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
exact until it is written as a float, and a perfect protocol's figures are
exact zeros that name no witness. A pad route's left side reports its worst
fidelity over every pure input, in closed form from its key classes.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional

from .errors import ValidationError, Worst, charge

if TYPE_CHECKING:
    from .nlqc import CdqsProtocol, FRoutingProtocol, PsqmProtocol


class QVerificationReport:
    """Exact-to-float verification outcome of a quantum protocol.

    ``worst_infidelity`` is 1 - F over the inputs where the output must be
    delivered; ``worst_gap`` is the largest decoupling gap (or pairwise view
    distance) over the inputs where it must stay hidden. ``max_branches`` is
    the largest per-input ``branches`` figure.
    """

    def __init__(self, kind: str, worst_infidelity: float, worst_gap: float,
                 per_input: dict, routing_consistent: bool, resources: dict,
                 witnesses: dict):
        self.kind = kind
        self.worst_infidelity, self.worst_gap = worst_infidelity, worst_gap
        self.per_input = per_input
        self.max_branches = max((info["branches"] for info in per_input.values()), default=0)
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

    def record(self, xy: tuple, info: dict, name: str, figure: float) -> None:
        self.per_input[xy] = info
        self.worse(name, figure, xy)

    def report(self, kind: str, error: str, gap: Optional[str], resources: dict,
               consistent: bool = True) -> QVerificationReport:
        return QVerificationReport(kind, self.worst.get(error, 0.0),
                                   self.worst.get(gap, 0.0), self.per_input,
                                   consistent, dict(resources), self.witnesses)


def _choi_fidelity(branches, fix: Callable, out: str, denom: int) -> float:
    """Fidelity with |Phi+> of what the branches deliver to (R, ``out``).

    ``fix(b)`` is branch b's frame after the record's ``recover``. The four
    frames on |Phi+> are the orthogonal Bell states, so the squared
    fidelity, <Phi+| rho |Phi+> for the branches' weighted mixture rho, is
    the weight of the branches whose frame is the identity, over ``denom``.
    """
    hit = 0
    for br in branches:
        reg, a, b = fix(br)
        if reg != out:
            raise ValidationError(f"the qubit is carried in {reg}, not in {out}")
        if not a | b:
            hit += br.weight
    return min(1.0, math.sqrt(hit / denom))


def verify_cdqs(P: CdqsProtocol) -> QVerificationReport:
    """Choi-state correctness on revealing inputs, decoupling on hiding ones."""
    from . import frames
    sweep = _Sweep()
    for (x, y) in P.domain:
        branches, n = sweep.run(P.run, x, y, frames.CARRIER)
        if P.f.eval(x, y) == 1:
            F = _choi_fidelity(branches,
                               lambda b: P.recover(x, y, b.transcript, b.state),
                               P.out_reg(x, y), P.denom)
            sweep.record((x, y), {"f": 1, "fidelity": F, "branches": n},
                         "infidelity", 1 - F)
        else:
            gap = frames.decoupling_gap(branches, P.msg_regs(x, y), P.denom)
            sweep.record((x, y), {"f": 0, "gap": gap, "branches": n}, "gap", gap)
    return sweep.report("cdqs", "infidelity", "gap", P.resources)


def verify_frouting(P: FRoutingProtocol) -> QVerificationReport:
    """Delivered-qubit fidelity on both sides, worst case over inputs.

    Branch-register sides are checked through the Choi state. A pad route's
    left side, which has no exit register, reports its worst fidelity over
    every pure input qubit, ``frames.left_fidelity`` of its key classes.
    """
    from . import frames
    from .gardenhose import RIGHT

    sweep = _Sweep()
    for (x, y) in P.domain:
        fx = P.f.eval(x, y)
        side, reg = P.exit_info(x, y)
        if (side == RIGHT) != (fx == 1):
            sweep.witnesses["side"] = (x, y)
        if reg is not None:
            branches, n = sweep.run(P.run, x, y, frames.CARRIER)
            F = _choi_fidelity(branches, lambda b: P.recover(x, y, b.transcript, b.state),
                               reg, P.denom)
        else:
            if P.key_classes is None:
                raise ValidationError("no register and no local reconstruction")
            F, n = frames.left_fidelity(P.key_classes(x, y), P.denom), 0
        sweep.record((x, y), {"f": fx, "side": side, "fidelity": F, "branches": n},
                     "infidelity", 1 - F)
    return sweep.report("frouting", "infidelity", None, P.resources,
                        consistent="side" not in sweep.witnesses)


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
    return QVerificationReport("psqm", eps, delta / 2, per_input, True, dict(P.resources),
                               witnesses)
