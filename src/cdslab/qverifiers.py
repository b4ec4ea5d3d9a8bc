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
from its key classes. Each verifier builds its report as it sweeps: the
report charges the branch budget, keeps the worst figures and witnesses,
and holds each distinct per-input entry once, every input with that entry
sharing it under the key "x,y" the report writes.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from .errors import LEFT, RIGHT, ValidationError, Worst, charge

if TYPE_CHECKING:
    from .nlqc import FRoutingProtocol, PsqmProtocol


class QVerificationReport(Worst):
    """Exact-to-float verification outcome of a quantum protocol, built as it sweeps.

    ``worst_infidelity`` is 1 - F over the inputs where the output must be
    delivered; ``worst_gap`` is the largest decoupling gap (or pairwise view
    distance) over the inputs where it must stay hidden. ``per_input`` holds
    each input's entry under the key "x,y" a report writes, and
    ``max_branches`` is its largest ``branches`` figure, the transcripts its
    class branches stand for; the request's budget bounds the running total
    of class branches ``run`` walks. The "side" witness is the first input
    where the qubit exits away from f's side, a CDQS's referee lacking it.
    """

    def __init__(self, kind: str, resources: dict):
        super().__init__()
        self.kind, self.resources = kind, dict(resources)
        self.total = self.max_branches = 0
        self.per_input, self.entries = {}, {}

    def run(self, run: Callable, *args) -> tuple:
        """``run(*args)``'s branches and the transcripts they stand for; over budget raises."""
        branches = run(*args)
        self.total += len(branches)
        charge(self.total, "branches")
        return branches, sum(b.count for b in branches)

    def record(self, xy: tuple, info: dict, name: str = "", figure: float = 0.0,
               exact: bool = True) -> None:
        """Keep ``info`` under its written key "x,y", as the equal entry kept before
        if any; unless ``exact``, the figure's integer test failed at ``xy``,
        which is its witness while no larger figure is met, 0.0 included. A
        shared entry writes the same bytes: each field always has one type (no
        1 beside a 1.0 or a True), and no figure can be -0.0, the one float
        equal to a float it is not written as."""
        self.max_branches = max(self.max_branches, info["branches"])
        self.per_input["%d,%d" % xy] = self.entries.setdefault(tuple(info.items()), info)
        if not exact:
            self.worse(name, figure, xy)
            self.witnesses.setdefault(name, xy)

    @property
    def worst_infidelity(self) -> float:
        return self.worst.get("infidelity", 0.0)

    @property
    def worst_gap(self) -> float:
        return self.worst.get("gap", 0.0)

    @property
    def routing_consistent(self) -> bool:
        return "side" not in self.witnesses

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
            "per_input": self.per_input,
            "resources": self.resources,
            "witnesses": {k: list(v) if isinstance(v, tuple) else v
                          for k, v in self.witnesses.items()},
            "notes": [],
        }


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
    report = QVerificationReport("cdqs", P.resources)
    for (x, y) in P.domain:
        branches, n = report.run(P.run, x, y, frames.CARRIER)
        if P.f.eval(x, y) == 1:
            if (reg := P.exit_reg(x, y)) not in P.msg_regs(x, y):
                report.witnesses.setdefault("side", (x, y))
            F, exact = _choi_fidelity(P, x, y, branches, reg)
            report.record((x, y), {"f": 1, "fidelity": F, "branches": n},
                          "infidelity", 1 - F, exact)
        else:
            gap, exact = frames.decoupling_gap(branches, P.msg_regs(x, y), P.denom)
            report.record((x, y), {"f": 0, "gap": gap, "branches": n}, "gap", gap, exact)
    return report


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

    report = QVerificationReport("frouting", P.resources)
    for (x, y) in P.domain:
        fx, reg = P.f.eval(x, y), P.exit_reg(x, y)
        side = RIGHT if reg in P.msg_regs(x, y) else LEFT
        if (side == RIGHT) != (fx == 1):
            report.witnesses.setdefault("side", (x, y))
        if reg is not None:
            branches, n = report.run(P.run, x, y, frames.CARRIER)
            F, exact = _choi_fidelity(P, x, y, branches, reg)
        else:
            if P.key_classes is None:
                raise ValidationError("no register and no local reconstruction")
            classes, n = P.key_classes(x, y), 0
            F = frames.left_fidelity(classes, P.denom)
            exact = all(len({c.weights.get(s, 0) for s in frames.KEYS}) == 1 for c in classes)
        report.record((x, y), {"f": fx, "side": side, "fidelity": F, "branches": n},
                      "infidelity", 1 - F, exact)
    return report


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

    report = QVerificationReport("psqm", P.resources)

    def seen(xy, hist, fails):
        # the histogram's counts add up to the PSM's joint randomness
        report.record(xy, {"f": P.f.eval(*xy), "decode_error": fails / sum(hist.values()),
                           "branches": sum(map(message_count, hist))})

    eps, delta, joint, found = _value_sweep(P.psm, "psqm_from_psm", seen)
    report.worst.update(infidelity=eps / joint, gap=delta / (2 * joint))
    report.witnesses.update({{"eps": "decode", "delta": "view"}[k]: w for k, w in found.items()})
    return report
