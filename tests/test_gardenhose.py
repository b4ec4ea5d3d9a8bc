"""Garden-hose strategies: water tracing, search, the generic upper bound."""

from __future__ import annotations

import importlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdslab.boolfn import BoolFn, all_functions
from cdslab.errors import BudgetError, DomainError, ValidationError, budget
from cdslab.families import named_fn
from cdslab.gardenhose import GhStrategy, LEFT, RIGHT, gh_eval, gh_trace
from cdslab.ghsearch import _matchings, gh_generic, gh_search

AND1 = named_fn("and", n=1)
XOR1 = named_fn("xor", n=1)


def _and_strategy():
    # 3 pipes: tap 1 on x=0 (dead end unless nothing bridges), tap 2 on x=1;
    # Bob bridges {1,2} on y=0 so x=1 water returns and spills left via pipe 2,
    # on y=1 he bridges {1,3}: tap-2 water spills right only when x=1.
    return GhStrategy(
        pipes=3, n_x=1, n_y=1,
        alice={0: (1, frozenset()), 1: (2, frozenset())},
        bob={0: frozenset({frozenset({1, 2})}),
             1: frozenset({frozenset({1, 3})})},
    )


def test_hand_traced_and_strategy():
    s = _and_strategy()
    # frozen water traces, worked out by hand from the pipe diagram
    o = gh_eval(s, 0, 0)
    assert (o.side, o.exit_pipe, o.path) == (LEFT, 2, (1, 2))
    o = gh_eval(s, 0, 1)
    assert (o.side, o.exit_pipe, o.path) == (LEFT, 3, (1, 3))
    o = gh_eval(s, 1, 0)
    assert (o.side, o.exit_pipe, o.path) == (LEFT, 1, (2, 1))
    o = gh_eval(s, 1, 1)
    assert (o.side, o.exit_pipe, o.path) == (RIGHT, 2, (2,))
    assert gh_trace(s, AND1) == []
    # against xor1 the strategy is wrong exactly where and1 and xor1 differ
    assert gh_trace(s, XOR1) == [(0, 1), (1, 0), (1, 1)]


def test_matchings_count_is_telephone_number():
    # involution counts: 1, 1, 2, 4, 10, 26
    for n, want in [(0, 1), (1, 1), (2, 2), (3, 4), (4, 10), (5, 26)]:
        ms = _matchings(list(range(n)))
        assert len(ms) == want
        assert len(set(ms)) == want


def test_generic_strategy_every_two_bit_function():
    for f in all_functions(1, 1):
        s = gh_generic(f)
        assert s.pipes == 4
        assert gh_trace(s, f) == []


def test_generic_strategy_wider_inputs():
    f = named_fn("ip", n=2)
    s = gh_generic(f)
    assert s.pipes == 8
    assert gh_trace(s, f) == []


def test_search_finds_three_pipe_and_xor():
    for f in (AND1, XOR1):
        s = gh_search(f, 3)
        assert s is not None and s.pipes == 3
        assert gh_trace(s, f) == []


def test_no_two_pipe_strategy_for_and_or_xor():
    # exhaustive: gh_search enumerates every 1- and 2-pipe strategy
    for name in ("and", "or", "xor", "eq"):
        assert gh_search(named_fn(name, n=1), 2) is None


def test_search_deterministic():
    a = gh_search(AND1, 3)
    b = gh_search(AND1, 3)
    assert a.to_jsonable() == b.to_jsonable()


def test_search_budget():
    with pytest.raises(BudgetError), budget(1):
        gh_search(AND1, 3)


def test_constant_functions_need_one_pipe():
    ones = BoolFn(1, 1, (1, 1, 1, 1))
    zeros = BoolFn(1, 1, (0, 0, 0, 0))
    assert gh_search(ones, 1).pipes == 1
    assert gh_search(zeros, 2).pipes <= 2


def test_strategy_validation():
    with pytest.raises(ValidationError):  # tap also matched
        GhStrategy(2, 1, 1,
                   {0: (1, frozenset({frozenset({1, 2})})), 1: (1, frozenset())},
                   {0: frozenset(), 1: frozenset()})
    with pytest.raises(ValidationError):  # missing x coverage
        GhStrategy(2, 1, 1, {0: (1, frozenset())},
                   {0: frozenset(), 1: frozenset()})
    with pytest.raises(ValidationError):  # opening reused across pairs
        GhStrategy(3, 1, 1,
                   {0: (1, frozenset()), 1: (1, frozenset())},
                   {0: frozenset({frozenset({1, 2}), frozenset({2, 3})}),
                    1: frozenset()})
    with pytest.raises(ValidationError):  # unknown pipe
        GhStrategy(2, 1, 1,
                   {0: (3, frozenset()), 1: (1, frozenset())},
                   {0: frozenset(), 1: frozenset()})


def test_eval_domain_checks():
    s = _and_strategy()
    with pytest.raises(DomainError):
        gh_eval(s, 2, 0)
    with pytest.raises(ValidationError, match="strategy and function input widths differ"):
        gh_trace(s, named_fn("ip", n=2))


def test_json_round_trip():
    s = gh_search(XOR1, 3)
    again = GhStrategy.from_jsonable(s.to_jsonable())
    assert again == s
    assert gh_trace(again, XOR1) == []


def test_path_alternates_sides():
    # water enters the tap left to right, so each step path[i] -> path[i + 1]
    # is one of Bob's hoses at even i and one of Alice's at odd i, and the
    # last pipe's opening on the spill side joins no hose
    f = named_fn("eq", n=1)
    zigzag = GhStrategy(4, 0, 0, {0: (1, [(3, 2)])}, {0: [(1, 2), (4, 3)]})
    for s in (gh_generic(f), zigzag):
        for x in s.alice:
            tap, left = s.alice[x]
            for y in s.bob:
                path = gh_eval(s, x, y).path
                sides = [s.bob[y], left]
                assert path[0] == tap
                assert all(sides[i % 2].get(a) == b for i, (a, b) in enumerate(zip(path, path[1:])))
                assert path[-1] not in sides[(len(path) - 1) % 2]
    assert gh_eval(zigzag, 0, 0).path == (1, 2, 3, 4)


# -- random strategies against the parent's codec and the benchmark's own trace ---


@pytest.fixture(scope="module")
def workloads():
    """``bench/workloads.py``, read only: it traces the water with its own code."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
        yield importlib.import_module("workloads")


@st.composite
def _drawn(draw):
    """(pipes, n_x, n_y, alice, bob) of a strategy of up to 2+2 bits on 1..7
    pipes, each matching a list of pairs in drawn order and orientation."""
    m, n_x, n_y = draw(st.integers(1, 7)), draw(st.integers(0, 2)), draw(st.integers(0, 2))

    def pairs(ends):
        ends = draw(st.permutations(ends))
        return [tuple(ends[2 * i:2 * i + 2]) for i in range(draw(st.integers(0, len(ends) // 2)))]

    alice = {}
    for x in range(1 << n_x):
        tap = draw(st.integers(1, m))
        alice[x] = (tap, pairs([i for i in range(1, m + 1) if i != tap]))
    return m, n_x, n_y, alice, {y: pairs(list(range(1, m + 1))) for y in range(1 << n_y)}


@settings(max_examples=150, deadline=None)
@given(_drawn())
def test_random_strategies_keep_their_pairs_and_trace_as_the_benchmark(workloads, drawn):
    m, n_x, n_y, alice, bob = drawn
    s = GhStrategy(m, n_x, n_y, alice, bob)
    obj = s.to_jsonable()
    # each matching is written as its input pairs, each sorted, in sorted
    # order, whatever order and orientation they came in
    assert obj == {"pipes": m, "n_x": n_x, "n_y": n_y,
                   "alice": {str(x): {"tap": tap, "match": sorted(sorted(p) for p in pairs)}
                             for x, (tap, pairs) in alice.items()},
                   "bob": {str(y): {"match": sorted(sorted(p) for p in pairs)}
                           for y, pairs in bob.items()}}
    assert GhStrategy.from_jsonable(obj) == s
    bench = workloads.Strategy(m, n_x, n_y, tuple(alice[x] for x in range(1 << n_x)),
                               tuple(bob[y] for y in range(1 << n_y)))
    for x, (tap, pairs) in alice.items():
        for y in bob:
            hops, spilled_right = workloads.water(bench, x, y)
            # the pipe the benchmark's water reaches after its hop count
            ends, pipe = (workloads._partners(pairs), workloads._partners(bob[y])), tap
            for i in range(1, hops):
                pipe = ends[i % 2][pipe]
            o = gh_eval(s, x, y)
            assert (o.side, o.exit_pipe, len(o.path)) == \
                (RIGHT if spilled_right else LEFT, pipe, hops)
