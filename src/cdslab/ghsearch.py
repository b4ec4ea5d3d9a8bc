"""Minimum-pipe garden-hose search and the generic strategy for every f; only
``sweep`` and a ``gh`` build without an embedded strategy load them.
"""

from __future__ import annotations

from functools import cache

from .boolfn import BoolFn
from .errors import charge
from .gardenhose import GhStrategy, _spill_rows, gh_trace


def gh_generic_pipes(n_x: int) -> int:
    """Pipe count of ``gh_generic`` for any f with n_x Alice bits."""
    return 1 << (n_x + 1)


def gh_generic(f: BoolFn) -> GhStrategy:
    """2^(n_x+1)-pipe strategy that works for every f.

    Pipes come in pairs (2i+1, 2i+2) for each possible Alice input i. Alice
    taps her own pair's first pipe; Bob bridges pair i exactly when
    f(i, y) = 0, sending the water back to spill on the left.
    """
    alice = {x: (2 * x + 1, ()) for x in range(1 << f.n_x)}
    bob = {y: [(2 * i + 1, 2 * i + 2) for i in range(1 << f.n_x) if f.eval(i, y) == 0]
           for y in range(1 << f.n_y)}
    return GhStrategy(gh_generic_pipes(f.n_x), f.n_x, f.n_y, alice, bob)


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


def gh_search(f: BoolFn, max_pipes: int):
    """Smallest working strategy with at most ``max_pipes`` pipes, or None.

    Exhaustive over per-input tap/matching choices, in a fixed lexicographic
    order, so the result is deterministic: the first (Alice pick, Bob pick)
    in ``product(*per_alice) x product(bob_choices, repeat=2^n_y)`` order
    that computes f. One symmetry is quotiented out: pipes can be relabelled
    consistently on both sides, so the tap for x = 0 is pinned to pipe 1
    without loss of generality (anything else is a relabelling of something
    enumerated). The request's budget (``errors.budget``, else
    ``DEFAULT_BUDGET``) bounds that candidate count at each m, charged
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
        n_first, alice_choices, bob_choices, spill = _tables(m)
        per_alice = [range(n_first)] + [range(len(alice_choices))] * (n_inputs_x - 1)
        total = 1
        for c in per_alice:
            total *= len(c)
        total *= len(bob_choices) ** n_inputs_y
        charge(total, f"gh_search candidate strategies at m={m}")
        # extends the rows kept in _TABLES in place
        spill += _spill_rows(m, alice_choices[len(spill):len(per_alice[-1])], bob_choices)
        found = _first_alice_pick(per_alice, spill, column, n_inputs_y,
                                  (1 << len(bob_choices)) - 1)
        if found is None:
            continue
        pick, masks = found
        alice = {x: alice_choices[i] for x, i in enumerate(pick)}
        bob = {y: bob_choices[(mask & -mask).bit_length() - 1]
               for y, mask in enumerate(masks)}
        strategy = GhStrategy(m, f.n_x, f.n_y, alice, bob)
        if gh_trace(strategy, f):
            raise AssertionError("spill table disagrees with the water trace")
        return strategy
    return None
