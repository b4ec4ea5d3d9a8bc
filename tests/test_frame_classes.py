"""Pauli-frame classes of garden-hose routes against a flat frame reference.

The reference runs a route one branch per transcript: a Bell measurement per
hop on every branch, 4^h of them after h hops, each of weight 4^(H - h) out
of the 4^H of the longest path. The class path must give the same
fidelities, gaps and secret sweeps within 1e-12, and the same raw branch
counts. ``tests/test_pauli_frames.py`` checks the frames themselves against
dense statevectors.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdslab import frames, gardenhose, nlqc
from cdslab.boolfn import BoolFn
from cdslab.families import named_fn
from cdslab.gardenhose import RIGHT, GhStrategy, gh_eval
from cdslab.ghsearch import gh_generic, gh_search
from cdslab.nlqc import RunBranch, cdqs_from_frouting, frouting_from_gh
from cdslab.quantum import PureState
from cdslab.qverifiers import verify_cdqs, verify_frouting
from cdslab.toolkit import security_state_sweep
from dense_reference import plan

TOL = 1e-12
AND1 = named_fn("and", n=1)


def replace(P, **changes):
    """Protocol P rebuilt through its constructor with ``changes`` to its fields."""
    return type(P)(**{**vars(P), **changes})


# -- the flat reference ----------------------------------------------------------------


def _longest(strategy, f) -> int:
    return max(len(plan(strategy, x, y)) for (x, y) in f.inputs())


def _flat_run(strategy, hops: int):
    """One branch per transcript, weights out of 4^``hops``."""
    def run(x, y, carrier):
        branches = [((), carrier)]
        for (pair, far, desc) in plan(strategy, x, y):
            branches = [(t + ((desc, ab),), st2) for (t, st) in branches
                        for (ab, st2) in frames.hop(st, pair, far)]
        return [RunBranch(4 ** (hops - len(t)), t, st) for (t, st) in branches]

    return run


def _same_report(a, b) -> None:
    assert a.max_branches == b.max_branches
    assert abs(a.worst_infidelity - b.worst_infidelity) <= TOL
    assert abs(a.worst_gap - b.worst_gap) <= TOL
    assert a.routing_consistent == b.routing_consistent
    assert sorted(a.per_input) == sorted(b.per_input)
    for key, info in a.per_input.items():
        other = b.per_input[key]
        assert sorted(info) == sorted(other), key
        for field, v in info.items():
            if field in ("branches", "f", "side"):
                assert v == other[field], (key, field)
            else:
                assert abs(v - other[field]) <= TOL, (key, field, v, other[field])


def _check_against_flat(strategy: GhStrategy, f, sweep_seeds=range(2)) -> None:
    R = frouting_from_gh(strategy, f)
    hops = _longest(strategy, f)
    flat = replace(R, run=_flat_run(strategy, hops), denom=4 ** hops)
    _same_report(verify_frouting(R), verify_frouting(flat))
    C, C_flat = cdqs_from_frouting(R), cdqs_from_frouting(flat)
    _same_report(verify_cdqs(C), verify_cdqs(C_flat))
    got, want = (security_state_sweep(C, seeds=sweep_seeds),
                 security_state_sweep(C_flat, seeds=sweep_seeds))
    assert abs(got["worst"] - want["worst"]) <= TOL
    assert sorted(got["per_input"]) == sorted(want["per_input"])
    for key, v in got["per_input"].items():
        assert abs(v - want["per_input"][key]) <= TOL, key


def _table_of(strategy: GhStrategy):
    return BoolFn(strategy.n_x, strategy.n_y,
                  tuple(int(gh_eval(strategy, x, y).side == RIGHT)
                        for x in range(1 << strategy.n_x)
                        for y in range(1 << strategy.n_y)))


@st.composite
def _strategies(draw):
    """Garden-hose strategies of 1+1 or 2+1 bits on at most 6 pipes."""
    m = draw(st.integers(1, 6))
    n_x = draw(st.sampled_from([1, 2]))

    def matching(ends):
        ends = draw(st.permutations(ends))
        k = draw(st.integers(0, len(ends) // 2))
        return frozenset(frozenset(ends[2 * i:2 * i + 2]) for i in range(k))

    alice = {}
    for x in range(1 << n_x):
        tap = draw(st.integers(1, m))
        alice[x] = (tap, matching([i for i in range(1, m + 1) if i != tap]))
    bob = {y: matching(list(range(1, m + 1))) for y in range(2)}
    return GhStrategy(m, n_x, 1, alice, bob)


# -- class path against the flat reference ----------------------------------------------


@settings(max_examples=12, deadline=None)
@given(strategy=_strategies())
def test_random_strategies_match_flat(strategy):
    _check_against_flat(strategy, _table_of(strategy), sweep_seeds=range(1))


@pytest.mark.parametrize("f", [named_fn("and", n=1), named_fn("xor", n=1),
                               named_fn("eq", n=1)], ids=lambda f: f.name)
def test_golden_and_generic_routes_match_flat(f):
    _check_against_flat(gh_search(f, 3), f)
    _check_against_flat(gh_generic(f), f)


def test_class_branches_keep_raw_counts_and_first_transcripts():
    f = named_fn("eq", n=1)
    strategy = gh_generic(f)
    R = frouting_from_gh(strategy, f)
    flat = _flat_run(strategy, _longest(strategy, f))
    for (x, y) in f.inputs():
        classes, branches = R.run(x, y, frames.CARRIER), flat(x, y, frames.CARRIER)
        assert len(classes) == 4
        assert sum(b.count for b in classes) == len(branches)
        assert [b.weight for b in classes] == [1] * 4
        # a class's representative is the first flat transcript with its frame
        firsts = {}
        for b in branches:
            outcomes = [ab for (_, ab) in b.transcript]
            frame = tuple(sum(o[i] for o in outcomes) % 2 for i in (0, 1))
            firsts.setdefault(frame, b.transcript)
        assert [b.transcript for b in classes] == list(firsts.values())


# -- planted faults ------------------------------------------------------------------------


def _route(f):
    return frouting_from_gh(gh_search(f, 3), f)


def test_correction_from_the_wrong_outcome_is_caught(monkeypatch):
    frame = nlqc.pauli_frame
    monkeypatch.setattr(nlqc, "pauli_frame",
                        lambda outcomes: frame([(b, a) for (a, b) in outcomes]))
    R = _route(AND1)
    assert verify_frouting(R).worst_infidelity > 0.1
    assert verify_cdqs(cdqs_from_frouting(R)).worst_infidelity > 0.1


def test_dropped_class_is_caught():
    R = _route(AND1)
    dropped = replace(R, run=lambda *args: R.run(*args)[:-1])
    assert verify_frouting(dropped).worst_infidelity > 0.1
    assert verify_cdqs(cdqs_from_frouting(dropped)).worst_infidelity > 0.1


# -- what the class path costs ---------------------------------------------------------------


@pytest.mark.parametrize("fn", ["eq", "ip"])
def test_generic_two_bit_routes_stay_within_small_factors(monkeypatch, fn):
    # gh_generic spends 8 pipes on these, 18 qubits as one dense state; a run
    # holds one frame and builds no dense state at all
    f = named_fn(fn, n=2)
    R = frouting_from_gh(gh_search(f, 3) or gh_generic(f), f)
    assert R.resources["pipes"] == 8
    built = []
    init = PureState.__init__

    def counted(self, regs, vec):
        init(self, regs, vec)
        built.append(self.n_qubits)

    monkeypatch.setattr(PureState, "__init__", counted)
    report = verify_frouting(R)
    assert report.perfect and report.worst_infidelity == 0
    assert verify_cdqs(cdqs_from_frouting(R)).perfect
    assert built == []
    assert security_state_sweep(cdqs_from_frouting(R), seeds=range(1))["worst"] <= 1e-9


def test_plans_traced_once_per_input(monkeypatch):
    # nlqc reads gardenhose.gh_eval when a route is compiled, so the spy sits
    # there and the strategy is searched before it: compiling traces each
    # input once, for the check, and keeps no trace; a run, an exit or the
    # referee's registers trace their input again when called
    calls, strategy = [], gh_search(AND1, 3)

    def counted(strategy, x, y):
        calls.append((x, y))
        return gh_eval(strategy, x, y)

    monkeypatch.setattr(gardenhose, "gh_eval", counted)
    R = frouting_from_gh(strategy, AND1)
    assert calls == list(AND1.inputs())
    for call in (lambda: R.run(1, 0, frames.CARRIER), lambda: R.exit_reg(1, 0),
                 lambda: R.msg_regs(1, 0)):
        calls.clear()
        call()
        assert calls == [(1, 0)]
    calls.clear()
    assert verify_frouting(R).perfect
    assert set(calls) == set(AND1.inputs())
