"""Tests of the benchmark itself: seeded generation and outcome classification.

Run with ``python3 -m pytest bench/tests -q`` from the repository root. The
classifier is driven by ``stub_child.py``, never by a real memory blow-up.
"""

import json
import sys
from pathlib import Path

import pytest

import child
import run
import workloads

STUB = str(Path(__file__).with_name("stub_child.py"))
ROOT = Path(__file__).resolve().parents[2]


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_jobs_and_bytes(tmp_path, workload):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    assert workloads.generate(workload, 7, str(a)) == workloads.generate(workload, 7, str(b))
    assert _files(a) == _files(b)


@pytest.mark.parametrize("workload", ["classical", "routing"])
def test_other_seed_gives_other_inputs(tmp_path, workload):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    jobs_a = workloads.generate(workload, 1, str(a))
    jobs_b = workloads.generate(workload, 2, str(b))
    assert [j.name for j in jobs_a] == [j.name for j in jobs_b]
    assert jobs_a != jobs_b or _files(a) != _files(b)


def test_generated_strategies_have_the_fixed_hop_profile():
    rng = workloads.random.Random(3)
    s = workloads.strategy_with_profile(rng, 1, 1, 6, (6, 5, 3, 2))
    assert workloads.hop_profile(s) == (6, 5, 3, 2)
    # the spill side is Bob's exactly when the path has an odd number of hops
    for x in range(2):
        for y in range(2):
            hops, f = workloads.water(s, x, y)
            assert f == hops % 2
    assert workloads.table_of(workloads.tampered(rng, s)) != workloads.table_of(s)


def _stub(tmp_path, mode, timeout=20.0):
    out = tmp_path / "out"
    if out.exists():
        out.unlink()
    result = child.run_child([sys.executable, STUB, mode, str(out)], str(tmp_path),
                             child.child_env(str(ROOT / "src")), 512, timeout)
    return result, str(out)


@pytest.mark.parametrize("mode, expect, ok, reason", [
    ("pass-classical", workloads.PASS, True, "pass"),
    ("pass-quantum", workloads.PASS, True, "pass"),
    ("leaky-quantum", workloads.PASS, False, "verdict figures out of tolerance"),
    ("fail-witness", workloads.TAMPERED, True, "fail with witness"),
    ("fail-witness", workloads.PASS, False, "verdict fail (exit 1)"),
    ("fail-no-witness", workloads.TAMPERED, False, "exit 1 without a witness"),
    ("pass-classical", workloads.TAMPERED, False, "accepted a tampered descriptor"),
    ("exit3", workloads.PASS, False, "exit 3"),
    ("memory", workloads.PASS, False, "MemoryError"),
    ("signal", workloads.PASS, False, "signal SIGKILL"),
    ("csv", workloads.SWEEP, False, "digest mismatch"),
])
def test_classify_each_outcome(tmp_path, mode, expect, ok, reason):
    result, out = _stub(tmp_path, mode)
    assert child.classify(expect, result, out) == (ok, reason)


@pytest.mark.parametrize("reason, wrong", [
    ("verdict figures out of tolerance", True), ("accepted a tampered descriptor", True),
    ("digest mismatch", True), ("exit 3", False), ("MemoryError", False),
    ("signal SIGKILL", False), ("timeout", False),
])
def test_wrong_answers_are_told_from_failures_to_answer(reason, wrong):
    assert child.is_wrong(reason) == wrong


def test_timeout_kills_the_child(tmp_path):
    result, out = _stub(tmp_path, "sleep", timeout=0.5)
    assert result.timed_out and result.signal is not None
    assert result.wall_s < 10
    assert child.classify(workloads.PASS, result, out) == (False, "timeout")


def test_child_sets_its_own_address_limit_and_thread_caps(tmp_path):
    probe = ("import os, resource, sys; "
             "ok = resource.getrlimit(resource.RLIMIT_AS)[0] == 512 << 20 "
             "and os.environ['OMP_NUM_THREADS'] == str(os.cpu_count()); "
             "sys.exit(0 if ok else 1)")
    result = child.run_child([sys.executable, "-c", probe], str(tmp_path),
                             child.child_env(str(ROOT / "src")), 512, 20)
    assert result.code == 0
    import resource
    assert resource.getrlimit(resource.RLIMIT_AS)[0] == resource.RLIM_INFINITY


def test_benchmark_json_matches_the_metrics_the_run_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == run.PER_LAYER[m["name"]]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WORKLOADS


def test_no_machine_killing_ceiling_in_any_workload(tmp_path):
    for workload in workloads.WORKLOADS:
        d = tmp_path / workload
        d.mkdir()
        for job in workloads.generate(workload, 0, str(d)):
            args = " ".join(job.build)
            assert not ("span" in args and "ip" in args and "--nx 2" in args)
            assert job.as_mb <= workloads.DEFAULT_AS_MB


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", str(tmp_path / "src"))
    assert run.main(["--workload", "qchain", "--seed", "0"]) == 2
