"""Pauli-frame classes of garden-hose routes against a flat teleport reference.

The reference runs a route the way ``frouting_from_gh`` did before classes:
one dense state holding the carrier and every pipe's EPR link, a Bell
measurement per hop on every branch, and one branch per transcript, 4^h of
them after h hops. Its right side's registers are physical: every link half
on the right that no hop measures, idle links included, where the class path
names only the exit register. The class path must give the same fidelities, gaps and secret
sweeps within 1e-12, and the same raw branch counts, which shows that
leaving idle links out of the state and of the referee's view is exact.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdslab import gardenhose, nlqc
from cdslab.boolfn import BoolFn
from cdslab.families import named_fn
from cdslab.gardenhose import RIGHT, GhStrategy, gh_eval
from cdslab.ghsearch import gh_generic, gh_search
from cdslab.nlqc import RunBranch, cdqs_from_frouting, frouting_from_gh
from cdslab.quantum import PureState, epr_pairs
from cdslab.qverifiers import verify_cdqs, verify_frouting
from cdslab.toolkit import security_state_sweep

TOL = 1e-12
AND1 = named_fn("and", n=1)


def replace(P, **changes):
    """Protocol P rebuilt through its constructor with ``changes`` to its fields."""
    return type(P)(**{**vars(P), **changes})


# -- the flat reference ----------------------------------------------------------------


def _plan(strategy: GhStrategy, x: int, y: int) -> list:
    """(measured register, fresh link half, broadcast label) per hop."""
    path = gh_eval(strategy, x, y).path
    plan = [("Q", f"L{path[0][0]}", ("alice", 0, path[0][0]))]
    for (prev, cur) in zip(path, path[1:]):
        end, party = ("R", "bob") if cur[1] == "rl" else ("L", "alice")
        plan.append((f"{end}{prev[0]}", f"{end}{cur[0]}", (party, prev[0], cur[0])))
    return plan


def _flat_run(strategy: GhStrategy):
    """One branch per transcript, each with its own dense state."""
    m = strategy.pipes

    def run(x, y, carrier):
        state = carrier.tensor(epr_pairs([(f"L{i}", f"R{i}") for i in range(1, m + 1)]))
        branches = [(1.0, (), state)]
        for (reg_a, reg_b, desc) in _plan(strategy, x, y):
            branches = [(p * q, t + ((desc, ab),), st2)
                        for (p, t, st) in branches
                        for (ab, q, st2) in st.bell_measure(reg_a, reg_b)]
        return [RunBranch(p, t, st) for (p, t, st) in branches]

    return run


def _physical_msg_regs(strategy: GhStrategy):
    """Every link half on the right that no hop measures, idle links included."""
    m = strategy.pipes

    def msg_regs(x, y):
        measured = {r for (a, b, _) in _plan(strategy, x, y) for r in (a, b)}
        return tuple(f"R{i}" for i in range(1, m + 1) if f"R{i}" not in measured)

    return msg_regs


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
    flat = replace(R, run=_flat_run(strategy), msg_regs=_physical_msg_regs(strategy))
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
    flat = _flat_run(strategy)
    for (x, y) in f.inputs():
        carrier = epr_pairs([("R", "Q")])
        classes, branches = R.run(x, y, carrier), flat(x, y, carrier)
        assert len(classes) == 4
        assert sum(b.count for b in classes) == len(branches)
        assert [b.prob for b in classes] == [0.25] * 4
        # a class's representative is the first flat transcript with its frame
        frames = {}
        for b in branches:
            outcomes = [ab for (_, ab) in b.transcript]
            frame = tuple(sum(o[i] for o in outcomes) % 2 for i in (0, 1))
            frames.setdefault(frame, b.transcript)
        assert [b.transcript for b in classes] == list(frames.values())


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
    # gh_generic spends 8 pipes on these: 18 qubits as one dense state
    f = named_fn(fn, n=2)
    R = frouting_from_gh(gh_search(f, 3) or gh_generic(f), f)
    assert R.resources["pipes"] == 8
    peak = [0]
    init = PureState.__init__

    def counted(self, regs, vec):
        init(self, regs, vec)
        peak[0] = max(peak[0], self.n_qubits)

    monkeypatch.setattr(PureState, "__init__", counted)
    report = verify_frouting(R)
    assert report.perfect(1e-9)
    assert verify_cdqs(cdqs_from_frouting(R)).perfect(1e-9)
    assert security_state_sweep(cdqs_from_frouting(R), seeds=range(1))["worst"] <= 1e-9
    assert peak[0] <= 4


def test_plans_traced_once_per_input(monkeypatch):
    # nlqc reads gardenhose.gh_eval at call time, so the spy sits there and
    # the strategy is searched before it
    calls, strategy = [], gh_search(AND1, 3)

    def counted(strategy, x, y):
        calls.append((x, y))
        return gh_eval(strategy, x, y)

    monkeypatch.setattr(gardenhose, "gh_eval", counted)
    R = frouting_from_gh(strategy, AND1)
    assert sorted(calls) == sorted(AND1.inputs())
    verify_frouting(R)
    verify_cdqs(cdqs_from_frouting(R))
    security_state_sweep(cdqs_from_frouting(R), seeds=range(1))
    assert len(calls) == 4
