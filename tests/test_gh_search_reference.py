"""gh_search against the candidate loop it replaced, and its budget order.

The reference below is the loop ``gh_search`` used to run: build and verify a
strategy for every (Alice pick, Bob pick) in product order and return the
first that works. It lives here only as a reference; the spill-table search
must return the same strategy, or None, everywhere it is compared.
"""

from __future__ import annotations

import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdslab import gardenhose
from cdslab.boolfn import all_functions, from_table, named_fn
from cdslab.cli import main
from cdslab.errors import BudgetError
from cdslab.gardenhose import (GhStrategy, _alice_choices, _matchings, gh_search,
                               gh_verify)


def _reference_search(f, max_pipes):
    """The candidate loop: one strategy built and traced per candidate."""
    n_inputs_x = 1 << f.n_x
    n_inputs_y = 1 << f.n_y
    for m in range(1, max_pipes + 1):
        per_alice = [_alice_choices(m, fix_tap=1)] + [_alice_choices(m)] * (n_inputs_x - 1)
        bob_choices = _matchings(list(range(1, m + 1)))
        for alice_pick in product(*per_alice):
            alice = {x: alice_pick[x] for x in range(n_inputs_x)}
            for bob_pick in product(bob_choices, repeat=n_inputs_y):
                bob = {y: bob_pick[y] for y in range(n_inputs_y)}
                strategy = GhStrategy(m, f.n_x, f.n_y, alice, bob)
                if gh_verify(strategy, f):
                    return strategy
    return None


def _same_as_reference(f, max_pipes):
    got, want = gh_search(f, max_pipes), _reference_search(f, max_pipes)
    if want is None:
        assert got is None, f.name
    else:
        assert got is not None and got.to_json() == want.to_json(), f.name
    return want


def test_every_1x1_function_up_to_four_pipes():
    for f in all_functions(1, 1):
        _same_as_reference(f, 4)


@pytest.mark.parametrize("n_x,n_y", [(2, 1), (1, 2)])
def test_every_3_bit_function_up_to_two_pipes(n_x, n_y):
    for f in all_functions(n_x, n_y):
        _same_as_reference(f, 2)


@pytest.mark.parametrize("n_x,n_y", [(2, 1), (1, 2)])
def test_sampled_3_bit_functions_up_to_three_pipes(n_x, n_y):
    functions = list(all_functions(n_x, n_y))
    # the constants add the 1-pipe (all ones) and a 2-pipe result
    indices = set(random.Random(4).sample(range(len(functions)), 16)) | {0, 255}
    pipes = set()
    for i in sorted(indices):
        found = _same_as_reference(functions[i], 3)
        pipes.add(None if found is None else found.pipes)
    assert {1, 2, 3} <= pipes


@settings(max_examples=40, deadline=None)
@given(packed=st.integers(0, (1 << 16) - 1))
def test_random_2x2_tables_up_to_two_pipes(packed):
    f = from_table(2, 2, [(packed >> i) & 1 for i in range(16)], name=f"t{packed:x}")
    _same_as_reference(f, 2)


# -- budget order ----------------------------------------------------------------------

EQ2 = named_fn("eq", n=2)


def test_budget_message_unchanged():
    assert gh_search(EQ2, 3) is None
    with pytest.raises(BudgetError) as exc:
        gh_search(EQ2, 4)
    assert str(exc.value) == ("163840000 candidate strategies at m=4 exceeds "
                              "budget 100000000")


def test_sweep_2x2_four_pipes_exceeds_budget(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--nx", "2", "--ny", "2", "--max-pipes", "4",
                 "--out", str(out)]) == 3


def test_tables_stay_within_the_admitted_budget(monkeypatch):
    calls = []
    trace = gardenhose.gh_eval

    def counted(*args):
        calls.append(args)
        return trace(*args)

    monkeypatch.setattr(gardenhose, "_TABLES", {})
    monkeypatch.setattr(gardenhose, "gh_eval", counted)
    with pytest.raises(BudgetError, match="at m=4 "):
        gh_search(EQ2, 12, budget=10 ** 6)
    # full tables for m = 1..3, none for the m that exceeds the budget
    admitted = sum(len(_alice_choices(m)) * len(_matchings(list(range(1, m + 1))))
                   for m in (1, 2, 3))
    assert len(calls) == admitted <= 10 ** 6


def test_alice_without_input_bits_builds_only_tap_one_rows(monkeypatch):
    monkeypatch.setattr(gardenhose, "_TABLES", {})
    f = from_table(0, 2, (0, 1, 1, 0))
    assert gh_search(f, 3) == _reference_search(f, 3)
    for first, _, _, rows in gardenhose._TABLES.values():
        assert len(rows) == len(first)
