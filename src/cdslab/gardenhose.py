"""Garden-hose strategies: water-flow evaluation, verification, and search.

Pipes are numbered 1..m and run between the two players. Alice connects a tap
to one pipe's left opening and may join other left openings in pairs; Bob
joins right openings in pairs. Water entering the tap pipe traverses hoses
until it spills from an unconnected opening: spilling on Bob's side means
f(x, y) = 1, on Alice's side f(x, y) = 0.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .boolfn import BoolFn
from .errors import DomainError, ValidationError, charge

LEFT = "left"
RIGHT = "right"


def _freeze_matching(pairs):
    out = set()
    used = set()
    for pair in pairs:
        a, b = tuple(pair)
        if a == b:
            raise ValidationError(f"pipe {a} matched with itself")
        for v in (a, b):
            if v in used:
                raise ValidationError(f"pipe opening {v} used twice in a matching")
            used.add(v)
        out.add(frozenset((a, b)))
    return frozenset(out)


class GhStrategy:
    """A garden-hose strategy for a two-party function.

    Attributes:
        pipes: number of pipes m.
        n_x, n_y: input widths.
        alice: map x -> (tap pipe, left matching); the matching never touches
            the tap pipe's left opening.
        bob: map y -> right matching.
    Matchings are frozensets of frozenset pairs {i, j}.
    """

    def __init__(self, pipes: int, n_x: int, n_y: int, alice: dict, bob: dict):
        self.pipes, self.n_x, self.n_y = pipes, n_x, n_y
        self.alice, self.bob = alice, bob
        if self.pipes < 1:
            raise ValidationError("need at least one pipe")
        valid = set(range(1, self.pipes + 1))
        if set(self.alice) != set(range(1 << self.n_x)):
            raise ValidationError("alice must cover every x")
        if set(self.bob) != set(range(1 << self.n_y)):
            raise ValidationError("bob must cover every y")
        for x, (tap, matching) in self.alice.items():
            if tap not in valid:
                raise ValidationError(f"tap {tap} outside 1..{self.pipes}")
            ends = {v for pair in matching for v in pair}
            if not ends <= valid:
                raise ValidationError("left matching uses unknown pipe")
            if tap in ends:
                raise ValidationError(f"x={x}: tap pipe {tap} also matched on the left")
            _freeze_matching(matching)
        for y, matching in self.bob.items():
            ends = {v for pair in matching for v in pair}
            if not ends <= valid:
                raise ValidationError("right matching uses unknown pipe")
            _freeze_matching(matching)

    def __eq__(self, other) -> bool:
        return type(other) is GhStrategy and vars(self) == vars(other)

    def to_jsonable(self) -> dict:
        return {
            "pipes": self.pipes,
            "n_x": self.n_x,
            "n_y": self.n_y,
            "alice": {
                str(x): {"tap": tap, "match": sorted(sorted(pair) for pair in matching)}
                for x, (tap, matching) in self.alice.items()
            },
            "bob": {
                str(y): {"match": sorted(sorted(pair) for pair in matching)}
                for y, matching in self.bob.items()
            },
        }

    @staticmethod
    def from_jsonable(obj: dict) -> "GhStrategy":
        alice = {
            int(x): (entry["tap"], _freeze_matching(entry["match"]))
            for x, entry in obj["alice"].items()
        }
        bob = {int(y): _freeze_matching(entry["match"]) for y, entry in obj["bob"].items()}
        return GhStrategy(int(obj["pipes"]), int(obj["n_x"]), int(obj["n_y"]), alice, bob)


class GhOutcome(NamedTuple):
    """Where the water ends up: spill side, exit pipe, traversal order.

    ``path`` lists (pipe, direction) hops, direction "lr" (left to right,
    Alice to Bob) or "rl".
    """

    side: str
    exit_pipe: int
    path: tuple


def _partner(matching, pipe):
    for pair in matching:
        if pipe in pair:
            (other,) = pair - {pipe}
            return other
    return None


def gh_eval(strategy: GhStrategy, x: int, y: int) -> GhOutcome:
    """Trace the water. Terminates after at most 2m hops since every opening
    joins at most one hose and the flow never revisits an opening."""
    if x not in strategy.alice:
        raise DomainError(f"x={x} not covered")
    if y not in strategy.bob:
        raise DomainError(f"y={y} not covered")
    tap, left_match = strategy.alice[x]
    right_match = strategy.bob[y]
    path = [(tap, "lr")]
    pipe, direction = tap, "lr"
    for _ in range(2 * strategy.pipes):
        if direction == "lr":
            nxt = _partner(right_match, pipe)
            if nxt is None:
                return GhOutcome(RIGHT, pipe, tuple(path))
            pipe, direction = nxt, "rl"
        else:
            nxt = _partner(left_match, pipe)
            if nxt is None:
                return GhOutcome(LEFT, pipe, tuple(path))
            pipe, direction = nxt, "lr"
        path.append((pipe, direction))
    raise AssertionError("water revisited an opening; matchings were not disjoint")


def gh_trace(strategy: GhStrategy, f: BoolFn) -> tuple:
    """(outcomes, misrouted): ``gh_eval`` of each input of f, traced once, and in input
    order the inputs whose spill side is not f's; other input widths are refused."""
    if (strategy.n_x, strategy.n_y) != (f.n_x, f.n_y):
        raise ValidationError("strategy and function input widths differ")
    outcomes = {(x, y): gh_eval(strategy, x, y) for (x, y) in f.inputs()}
    return outcomes, [xy for xy, o in outcomes.items() if (o.side == RIGHT) != (f.eval(*xy) == 1)]


def gh_generic_pipes(n_x: int) -> int:
    """Pipe count of ``gh_generic`` for any f with n_x Alice bits."""
    return 1 << (n_x + 1)


def gh_generic(f: BoolFn) -> GhStrategy:
    """2^(n_x+1)-pipe strategy that works for every f.

    Pipes come in pairs (2i+1, 2i+2) for each possible Alice input i. Alice
    taps her own pair's first pipe; Bob bridges pair i exactly when
    f(i, y) = 0, sending the water back to spill on the left.
    """
    m = gh_generic_pipes(f.n_x)
    alice = {x: (2 * x + 1, frozenset()) for x in range(1 << f.n_x)}
    bob = {}
    for y in range(1 << f.n_y):
        pairs = [frozenset((2 * i + 1, 2 * i + 2))
                 for i in range(1 << f.n_x) if f.eval(i, y) == 0]
        bob[y] = frozenset(pairs)
    return GhStrategy(m, f.n_x, f.n_y, alice, bob)


def _matchings(elems):
    """All partial matchings of a list, deterministically ordered.

    Every matching either leaves the first element single or pairs it with
    one later element, so the two branches partition the space.
    """
    elems = list(elems)
    if len(elems) < 2:
        return [frozenset()]
    first, rest = elems[0], elems[1:]
    out = list(_matchings(rest))
    for i, other in enumerate(rest):
        remaining = rest[:i] + rest[i + 1:]
        for m in _matchings(remaining):
            out.append(m | {frozenset((first, other))})
    return out


def _alice_choices(m):
    choices = []
    for tap in range(1, m + 1):
        others = [i for i in range(1, m + 1) if i != tap]
        for matching in _matchings(others):
            choices.append((tap, matching))
    return choices


# m -> (number of tap-1 Alice choices, Alice choices, Bob matchings, spill
# rows), shared by every search; keys are bounded by the searches' max_pipes
_TABLES = {}


def _tables(m):
    """The choice lists at m pipes and the spill rows built for them so far.

    Alice's choices are listed tap by tap, so the tap-1 choices are a prefix
    of the list and are kept as its length.
    """
    if m not in _TABLES:
        alice = _alice_choices(m)
        _TABLES[m] = (sum(tap == 1 for tap, _ in alice), alice,
                      _matchings(list(range(1, m + 1))), [])
    return _TABLES[m]


def _spill_rows(m, n_rows):
    """Bob-side spill masks of the first ``n_rows`` Alice choices at m pipes.

    Bit j of row i is set when water from Alice's i-th choice spills on Bob's
    side against Bob's j-th matching; each bit is one trace of a 0+0-bit
    strategy through ``gh_eval``. Rows are built once and kept.
    """
    _, alice_choices, bob_choices, rows = _tables(m)
    for choice in alice_choices[len(rows):n_rows]:
        mask = 0
        for j, matching in enumerate(bob_choices):
            single = GhStrategy(m, 0, 0, {0: choice}, {0: matching})
            if gh_eval(single, 0, 0).side == RIGHT:
                mask |= 1 << j
        rows.append(mask)
    return rows


def _first_alice_pick(per_alice, spill, column, n_y_inputs, full):
    """Lex-first Alice pick (row indices) leaving every y a Bob choice.

    ``column(x)[y]`` is f(x, y). Returns (pick, masks), masks[y] being the
    Bob choices consistent with f's column y under the pick, or None.
    """
    pick = []

    def descend(x, masks):
        if x == len(per_alice):
            return masks
        for i in per_alice[x]:
            row = spill[i]
            narrowed = [mask & (row if bit else full ^ row)
                        for mask, bit in zip(masks, column(x))]
            if all(narrowed):
                pick.append(i)
                found = descend(x + 1, narrowed)
                if found is not None:
                    return found
                pick.pop()
        return None

    masks = descend(0, [full] * n_y_inputs)
    return None if masks is None else (pick, masks)


def gh_search(f: BoolFn, max_pipes: int, budget: int = 10 ** 8):
    """Smallest working strategy with at most ``max_pipes`` pipes, or None.

    Exhaustive over per-input tap/matching choices, in a fixed lexicographic
    order, so the result is deterministic: the first (Alice pick, Bob pick)
    in ``product(*per_alice) x product(bob_choices, repeat=2^n_y)`` order
    that computes f. One symmetry is quotiented out: pipes can be relabelled
    consistently on both sides, so the tap for x = 0 is pinned to pipe 1
    without loss of generality (anything else is a relabelling of something
    enumerated). ``budget`` bounds that candidate count at each m, checked
    before the search at m evaluates f or builds a table row; f's columns
    are evaluated once each, when the search first reaches them.

    Nothing is traced per candidate. A spill table, built once per m and
    shared by every search, holds for each Alice choice the bitmask of Bob
    matchings that make the water spill on Bob's side. A depth-first search
    walks Alice's picks in product order, keeping per y the mask of Bob
    choices that agree with f's column y on the rows picked so far, and
    prunes a prefix once any mask is empty. Bob's y-th choice meets only
    column y, so the valid Bob picks of an Alice pick are the product of
    the per-y masks, and the lex-first of them takes each mask's lowest bit.
    """
    n_inputs_x = 1 << f.n_x
    n_inputs_y = 1 << f.n_y

    @cache
    def column(x):
        return [f.eval(x, y) for y in range(n_inputs_y)]

    for m in range(1, max_pipes + 1):
        n_first, alice_choices, bob_choices, _ = _tables(m)
        per_alice = [range(n_first)] + [range(len(alice_choices))] * (n_inputs_x - 1)
        total = 1
        for c in per_alice:
            total *= len(c)
        total *= len(bob_choices) ** n_inputs_y
        charge(total, budget, f"gh_search candidate strategies at m={m}")
        spill = _spill_rows(m, len(per_alice[-1]))
        found = _first_alice_pick(per_alice, spill, column, n_inputs_y,
                                  (1 << len(bob_choices)) - 1)
        if found is None:
            continue
        pick, masks = found
        alice = {x: alice_choices[i] for x, i in enumerate(pick)}
        bob = {y: bob_choices[(mask & -mask).bit_length() - 1]
               for y, mask in enumerate(masks)}
        strategy = GhStrategy(m, f.n_x, f.n_y, alice, bob)
        if gh_trace(strategy, f)[1]:
            raise AssertionError("spill table disagrees with the water trace")
        return strategy
    return None
