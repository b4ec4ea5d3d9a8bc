"""Garden-hose strategies: water tracing, search, the generic upper bound."""

from __future__ import annotations

import pytest

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
    assert (o.side, o.exit_pipe, o.path) == (LEFT, 2, ((1, "lr"), (2, "rl")))
    o = gh_eval(s, 0, 1)
    assert (o.side, o.exit_pipe, o.path) == (LEFT, 3, ((1, "lr"), (3, "rl")))
    o = gh_eval(s, 1, 0)
    assert (o.side, o.exit_pipe, o.path) == (LEFT, 1, ((2, "lr"), (1, "rl")))
    o = gh_eval(s, 1, 1)
    assert (o.side, o.exit_pipe, o.path) == (RIGHT, 2, ((2, "lr"),))
    outcomes, misrouted = gh_trace(s, AND1)
    assert misrouted == []
    # one trace per input, in input order, each the one gh_eval gives
    assert list(outcomes) == list(AND1.inputs())
    assert all(o == gh_eval(s, x, y) for (x, y), o in outcomes.items())
    # against xor1 the strategy is wrong exactly where and1 and xor1 differ
    assert gh_trace(s, XOR1)[1] == [(0, 1), (1, 0), (1, 1)]


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
        assert gh_trace(s, f)[1] == []


def test_generic_strategy_wider_inputs():
    f = named_fn("ip", n=2)
    s = gh_generic(f)
    assert s.pipes == 8
    assert gh_trace(s, f)[1] == []


def test_search_finds_three_pipe_and_xor():
    for f in (AND1, XOR1):
        s = gh_search(f, 3)
        assert s is not None and s.pipes == 3
        assert gh_trace(s, f)[1] == []


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
    assert gh_trace(again, XOR1)[1] == []


def test_path_alternates_sides():
    f = named_fn("eq", n=1)
    s = gh_generic(f)
    for (x, y) in f.inputs():
        path = gh_eval(s, x, y).path
        dirs = [d for _, d in path]
        assert dirs == ["lr", "rl"] * (len(dirs) // 2) + (["lr"] if len(dirs) % 2 else [])
