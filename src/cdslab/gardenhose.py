"""Garden-hose strategies: water-flow evaluation and the check that one computes f.

Pipes are numbered 1..m and run between the two players. Alice connects a tap
to one pipe's left opening and may join other left openings in pairs; Bob
joins right openings in pairs. Water entering the tap pipe traverses hoses
until it spills from an unconnected opening: spilling on Bob's side means
f(x, y) = 1, on Alice's side f(x, y) = 0. The search lives in ``ghsearch``;
the spill rows it builds are traced here.
"""

from __future__ import annotations

from typing import NamedTuple

from .boolfn import BoolFn
from .errors import LEFT, RIGHT, DomainError, ValidationError, refuse


def _partners(pairs) -> dict:
    """Each opening the matching ``pairs`` joins -> the opening its hose leads
    to; a pipe matched with itself or an opening used twice is refused."""
    out = {}
    for a, b in pairs:
        if a == b:
            raise ValidationError(f"pipe {a} matched with itself")
        for v, w in ((a, b), (b, a)):
            if v in out:
                raise ValidationError(f"pipe opening {v} used twice in a matching")
            out[v] = w
    return out


def hoses(ends: dict) -> tuple:
    """The hoses of a matching's partner map ``ends``, each once as a sorted
    pair, in sorted order."""
    return tuple(sorted((a, b) for a, b in ends.items() if a < b))


class GhStrategy:
    """A garden-hose strategy for a two-party function.

    Attributes:
        pipes: number of pipes m.
        n_x, n_y: input widths.
        alice: map x -> (tap pipe, left matching); the matching never touches
            the tap pipe's left opening.
        bob: map y -> right matching.
    The constructor takes each matching as pairs {i, j} and holds it as its
    partner map, each opening it joins -> the opening its hose leads to;
    ``hoses`` lists its pairs again.
    """

    def __init__(self, pipes: int, n_x: int, n_y: int, alice: dict, bob: dict):
        self.pipes, self.n_x, self.n_y = pipes, n_x, n_y
        if self.pipes < 1:
            raise ValidationError("need at least one pipe")
        valid = set(range(1, self.pipes + 1))
        for side, name, inputs, width in (("alice", "x", alice, n_x), ("bob", "y", bob, n_y)):
            # the count first: a width past the inputs' count makes no range
            if not (0 <= width < len(inputs).bit_length() and len(inputs) == 1 << width
                    and set(inputs) == set(range(len(inputs)))):
                raise ValidationError(f"{side} must cover every {name}")
        self.alice, self.bob = {}, {}
        for x, (tap, matching) in alice.items():
            if tap not in valid:
                raise ValidationError(f"tap {tap} outside 1..{self.pipes}")
            ends = _partners(matching)
            if not ends.keys() <= valid:
                raise ValidationError("left matching uses unknown pipe")
            if tap in ends:
                raise ValidationError(f"x={x}: tap pipe {tap} also matched on the left")
            self.alice[x] = (tap, ends)
        for y, matching in bob.items():
            self.bob[y] = ends = _partners(matching)
            if not ends.keys() <= valid:
                raise ValidationError("right matching uses unknown pipe")

    def __eq__(self, other) -> bool:
        return type(other) is GhStrategy and vars(self) == vars(other)

    def to_jsonable(self) -> dict:
        return {
            "pipes": self.pipes,
            "n_x": self.n_x,
            "n_y": self.n_y,
            "alice": {str(x): {"tap": tap, "match": [list(h) for h in hoses(ends)]}
                      for x, (tap, ends) in self.alice.items()},
            "bob": {str(y): {"match": [list(h) for h in hoses(ends)]}
                    for y, ends in self.bob.items()},
        }

    @staticmethod
    def from_jsonable(obj: dict) -> "GhStrategy":
        alice = {int(x): (entry["tap"], entry["match"]) for x, entry in obj["alice"].items()}
        bob = {int(y): entry["match"] for y, entry in obj["bob"].items()}
        return GhStrategy(obj["pipes"], obj["n_x"], obj["n_y"], alice, bob)


class GhOutcome(NamedTuple):
    """Where the water ends up: ``path``, the pipes in flow order, tap first.

    Water enters the tap pipe left to right, and each next pipe is reached
    through a hose on the side the last one ended: Bob's from ``path[i]`` to
    ``path[i + 1]`` at even i, Alice's at odd i. So the water spills right
    after an odd count of pipes, from the last one.
    """

    path: tuple

    @property
    def side(self) -> str:
        return RIGHT if len(self.path) % 2 else LEFT

    @property
    def exit_pipe(self) -> int:
        return self.path[-1]


def gh_eval(strategy: GhStrategy, x: int, y: int) -> GhOutcome:
    """Trace the water, one partner lookup per hop. Terminates after at most
    2m hops since every opening joins at most one hose and the flow never
    revisits an opening."""
    if x not in strategy.alice:
        raise DomainError(f"x={x} not covered")
    if y not in strategy.bob:
        raise DomainError(f"y={y} not covered")
    pipe, left = strategy.alice[x]
    right = strategy.bob[y]
    path = [pipe]
    for _ in range(strategy.pipes):
        nxt = right.get(pipe)
        if nxt is None:
            return GhOutcome(tuple(path))
        path.append(nxt)
        pipe = left.get(nxt)
        if pipe is None:
            return GhOutcome(tuple(path))
        path.append(pipe)
    raise AssertionError("water revisited an opening; matchings were not disjoint")


def gh_trace(strategy: GhStrategy, f: BoolFn) -> list:
    """In input order, the inputs of f whose spill side ``gh_eval`` finds is not
    f's; other input widths are refused. No trace is kept."""
    if (strategy.n_x, strategy.n_y) != (f.n_x, f.n_y):
        raise ValidationError("strategy and function input widths differ")
    return [(x, y) for (x, y) in f.inputs()
            if (gh_eval(strategy, x, y).side == RIGHT) != (f.eval(x, y) == 1)]


def gh_routes(strategy: GhStrategy, f: BoolFn) -> None:
    """Refuse a strategy that ``gh_trace`` finds routes some input to the
    wrong side, naming those inputs, or is of other widths."""
    refuse("strategy routes some input to the wrong side", gh_trace(strategy, f))


def _spill_rows(m, choices, matchings) -> list:
    """Bob-side spill masks of Alice's ``choices`` at m pipes.

    Bit j of a choice's row is set when its water spills on Bob's side
    against ``matchings[j]``; each bit is one trace of a 0+0-bit strategy
    through ``gh_eval``.
    """
    rows = []
    for choice in choices:
        mask = 0
        for j, matching in enumerate(matchings):
            single = GhStrategy(m, 0, 0, {0: choice}, {0: matching})
            if gh_eval(single, 0, 0).side == RIGHT:
                mask |= 1 << j
        rows.append(mask)
    return rows
