#!/usr/bin/env python3
"""cdslab benchmark: ``cdslab`` CLI jobs timed end to end, or traced per layer.

    python3 bench/run.py --workload classical --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is taken from ``src/``.
One closed-loop client starts one child at a time. Each job is a ``cdslab
build`` child (set-up) and a ``cdslab verify`` or ``cdslab sweep`` child, and
every verdict is checked against the job's expected outcome
(``workloads.py``). A run:

1. writes the workload's seeded inputs to ``.bench_work/<workload>-<seed>/``;
2. builds every timed job's descriptor ``SETUP_REPS`` times (the copies must
   be byte-identical) and every ceiling job's descriptor once;
3. runs rounds of every job's verify or sweep child (a build-only ceiling
   builds instead). There are ``--seconds`` divided by the workload's
   nominal round time (``workloads.ROUND_S``) rounds, at least one: a fixed
   number, so that every run takes as many samples whatever the machine's
   speed at the time.

``verify_s`` sums, over the timed jobs, the shortest wall time of each job's
verify (or sweep) child across the rounds; ``setup_s`` sums the median wall
time of each job's build children. Other tenants of a shared machine can
slow a child by half or more for seconds at a time; the shortest of a job's
repeats is the one they disturbed least.

With ``--trace 1`` a run instead makes one untraced pass and one pass whose
children run through ``tracer.py``, and reports the per-layer metrics with
``trace.overhead_s``, the traced minus the untraced wall time. Spans and job
outcomes are written to the run's directory when it ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
from collections import defaultdict

import child
import workloads
from workloads import TIMED

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPS = 3
RUN_LIMIT_S = 170.0        # a run must end within 180 s
TRACE_SLOWDOWN = 4.0       # traced children get this much more wall time

END_TO_END = {
    "verify_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "failed_frac": "ratio",
}
PER_LAYER = {
    "cli.import_s": "s", "cli.main_s": "s", "cli.child_cpu_s": "s", "cli.self_s": "s",
    "boolfn.eval_calls": "count", "boolfn.self_s": "s",
    "gardenhose.search_s": "s", "gardenhose.candidates": "count",
    "gardenhose.candidates_per_found": "ratio", "gardenhose.self_s": "s",
    "algebra.in_span_calls": "count", "algebra.in_span_s": "s",
    "algebra.lsss_calls": "count", "algebra.lsss_s": "s", "algebra.self_s": "s",
    "protocols.compile_s": "s", "protocols.shared_states": "count",
    "protocols.verify_s": "s", "protocols.joint_states": "count",
    "protocols.msg_calls": "count", "protocols.decode_calls": "count",
    "protocols.self_s": "s",
    "quantum.apply_calls": "count", "quantum.apply_s": "s",
    "quantum.bell_measure_calls": "count", "quantum.bell_measure_s": "s",
    "quantum.ptrace_calls": "count", "quantum.ptrace_s": "s",
    "quantum.peak_qubits": "qubits", "quantum.amp_bytes": "B_computed",
    "quantum.budget_errors": "count", "quantum.self_s": "s",
    "nlqc.compile_s": "s", "nlqc.verify_s": "s", "nlqc.run_s": "s",
    "nlqc.branches": "count", "nlqc.transcripts": "count",
    "nlqc.transcripts_per_branch": "ratio", "nlqc.recover_calls": "count",
    "nlqc.recover_s": "s", "nlqc.otp_s": "s", "nlqc.budget_errors": "count",
    "nlqc.self_s": "s",
    "trace.overhead_s": "s",
}


class Session:
    """Children of one run: limits, deadline, outcomes and traces."""

    def __init__(self, workdir: str, deadline: float, traced: bool = False):
        self.workdir = workdir
        self.deadline = deadline
        self.traced = traced
        self.env = child.child_env(SRC)
        self.outcomes = []         # (job, step, ok, reason, ChildRun or None)
        self.traces = []

    def argv(self, job, cli_args, step: str) -> list:
        if not self.traced:
            return [sys.executable, "-m", "cdslab.cli", *cli_args]
        out = f"{job.name}.{step}.trace.json"
        self.traces.append(os.path.join(self.workdir, out))
        return [sys.executable, os.path.join(BENCH, "tracer.py"), out,
                f"{job.name}.{step}", *cli_args]

    def run(self, job, cli_args, step: str):
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return None
        timeout = job.timeout_s * (TRACE_SLOWDOWN if self.traced else 1.0)
        return child.run_child(self.argv(job, cli_args, step), self.workdir,
                               self.env, job.as_mb, min(timeout, remaining))

    def build(self, job):
        """(ok, reason, run) of the job's build child."""
        out = os.path.join(self.workdir, job.build[job.build.index("--out") + 1])
        if os.path.exists(out):
            os.unlink(out)
        run = self.run(job, job.build, "build")
        if run is None:
            return False, "timeout (run limit)", None
        ok, reason = child.classify_build(run, out)
        return ok, reason, run

    def verify(self, job):
        out = os.path.join(self.workdir, job.output)
        if os.path.exists(out):
            os.unlink(out)
        run = self.run(job, job.verify, "verify")
        if run is None:
            return False, "timeout (run limit)", None
        ok, reason = child.classify(job.expect, run, out)
        return ok, reason, run


def setup(session: Session, jobs, reps: int) -> dict:
    """Build every timed job's descriptor ``reps`` times, each ceiling's once.

    A ceiling job that also verifies is built here, untimed, so that a round
    repeats only its failing step. Build-only ceilings are built in every
    round instead. Returns {job name: failure reason} for the jobs whose
    build failed or whose descriptor bytes differ between builds.
    """
    broken, first = {}, {}
    for rep in range(reps):
        for job in jobs:
            if not job.build or not (job.role == TIMED or (job.verify and rep == 0)):
                continue
            ok, reason, run = session.build(job)
            session.outcomes.append((job, "setup" if job.role == TIMED else "ceiling-build",
                                     ok, reason, run))
            if not ok:
                broken[job.name] = reason
                continue
            desc = os.path.join(session.workdir, f"{job.name}.json")
            with open(desc, "rb") as fh:
                data = fh.read()
            if first.setdefault(job.name, data) != data:
                broken[job.name] = "report: descriptor bytes differ between builds"
    return broken


def run_round(session: Session, jobs, broken: dict) -> None:
    """One pass over every job: each verify or sweep, and build-only ceilings."""
    for job in jobs:
        if job.name in broken:
            session.outcomes.append((job, "verify", False, f"build: {broken[job.name]}", None))
        elif job.verify:
            session.outcomes.append((job, "verify", *session.verify(job)))
        else:
            session.outcomes.append((job, "build", *session.build(job)))


def wall_sum(session: Session, step: str, statistic) -> float:
    """Sum over timed jobs of ``statistic`` of the wall times of their ``step`` children."""
    walls = defaultdict(list)
    for job, st, _, _, run in session.outcomes:
        if job.role == TIMED and st == step and run is not None:
            walls[job.name].append(run.wall_s)
    return sum(statistic(w) for w in walls.values())


def tally(outcomes: list) -> dict:
    """Attempts, failures, correctness and reasons over recorded outcomes.

    A job attempt is its last step in a round. Set-up builds are not attempts
    of their own: a timed job whose build failed fails in every round.
    """
    attempted = failed = 0
    correct = True
    reasons = defaultdict(int)
    for job, step, ok, reason, _ in outcomes:
        if step in ("setup", "ceiling-build"):
            continue
        attempted += 1
        if not ok:
            failed += 1
            reasons[f"{job.name}: {reason}"] += 1
            if child.is_wrong(reason) or job.role == TIMED:
                correct = False
    return {"attempted": attempted, "failed": failed, "correct": correct,
            "reasons": dict(reasons)}


def baseline_checks(session: Session, jobs) -> list:
    """Compare each job's last outcome with the exact figures it must show."""
    last = {}
    for job, step, ok, reason, run in session.outcomes:
        last[job.name] = (ok, reason)
    checks = []
    for job in jobs:
        if job.baseline_reason:
            got = last.get(job.name, (None, "not run"))[1]
            checks.append((job.name, "outcome", job.baseline_reason, got))
        if job.baseline:
            path = os.path.join(session.workdir, job.output)
            try:
                with open(path) as fh:
                    report = json.load(fh)
            except (OSError, ValueError):
                report = {}
            for dotted, want in job.baseline:
                got = report
                for key in dotted.split("."):
                    got = got.get(key) if isinstance(got, dict) else None
                checks.append((job.name, dotted, want, got))
    return [{"job": j, "check": c, "expected": w, "got": g, "ok": w == g}
            for (j, c, w, g) in checks]


def peak_rss_mb(session: Session) -> float:
    rss = [run.maxrss_kb for job, *_, run in session.outcomes
           if run is not None and job.role == TIMED]
    return max(rss) / 1024.0 if rss else 0.0


def untraced(jobs, workdir: str, rounds: int, deadline: float) -> tuple:
    session = Session(workdir, deadline)
    broken = setup(session, jobs, SETUP_REPS)
    for done in range(1, rounds + 1):
        t0 = time.perf_counter()
        run_round(session, jobs, broken)
        now = time.perf_counter()
        if done < rounds and now + 1.5 * (now - t0) > deadline:
            rounds = done   # stop early rather than overrun the run limit
            break
    counts = tally(session.outcomes)
    metrics = {
        "verify_s": wall_sum(session, "verify", min),
        "setup_s": wall_sum(session, "setup", statistics.median),
        "peak_rss_mb": peak_rss_mb(session),
        "failed_frac": counts["failed"] / max(1, counts["attempted"]),
    }
    return session, counts, metrics, {"rounds": rounds}


def layer_metrics(traces: list, overhead_s: float, child_cpu_s: float) -> tuple:
    """(per-layer metrics summed over the traced children, their merged spans)."""
    counts, times, spans = defaultdict(int), defaultdict(float), []
    peak = 0
    for path in traces:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, ValueError):
            continue
        for k, v in data["counts"].items():
            if k == "quantum.peak_qubits":
                peak = max(peak, v)
            else:
                counts[k] += v
        for k, v in data["times"].items():
            times[k] += v
        base = len(spans)
        spans.extend([name, start, end, None if parent is None else parent + base, job]
                     for name, start, end, parent, job in data["spans"])
    values = dict(times)
    values.update(counts)
    values["quantum.peak_qubits"] = peak
    values["cli.child_cpu_s"] = child_cpu_s
    values["trace.overhead_s"] = overhead_s
    values["gardenhose.candidates_per_found"] = (
        counts["gardenhose.candidates"] / max(1, counts["gardenhose.found"]))
    values["nlqc.transcripts_per_branch"] = (
        counts["nlqc.transcripts"] / max(1, counts["nlqc.branches"]))
    return {name: values.get(name, 0) for name in PER_LAYER}, spans


def traced(jobs, workdir: str, deadline: float) -> tuple:
    """One untraced pass and one traced pass over set-up and a round."""
    passes = []
    for is_traced in (False, True):
        session = Session(workdir, deadline, traced=is_traced)
        run_round(session, jobs, setup(session, jobs, 1))
        passes.append((session, sum(run.wall_s for *_, run in session.outcomes if run)))
    (plain, plain_wall), (session, traced_wall) = passes
    cpu = sum(run.cpu_s for *_, run in plain.outcomes if run is not None)
    metrics, spans = layer_metrics(session.traces, traced_wall - plain_wall, cpu)
    with open(os.path.join(workdir, "spans.json"), "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job"],
                   "spans": spans}, fh)
    record = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall}
    return session, tally(plain.outcomes + session.outcomes), metrics, record


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--list", action="store_true",
                    help="print the workload's jobs for this seed and exit")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cdslab", "cli.py")):
        print(f"no cdslab sources under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    jobs = workloads.generate(args.workload, args.seed, workdir)
    if args.list:
        for job in jobs:
            print(json.dumps({"name": job.name, "role": job.role, "expect": job.expect,
                              "build": list(job.build), "verify": list(job.verify)}))
        return 0
    deadline = started + RUN_LIMIT_S
    if args.trace:
        session, counts, metrics, record = traced(jobs, workdir, deadline)
        units = PER_LAYER
    else:
        rounds = max(1, int(args.seconds // workloads.ROUND_S[args.workload]))
        session, counts, metrics, record = untraced(jobs, workdir, rounds, deadline)
        units = END_TO_END
    checks = baseline_checks(session, jobs)
    record.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "counts": counts, "metrics": metrics, "baseline": checks,
                   "outcomes": [[job.name, step, ok, reason] + (
                                    [run.code, run.signal, round(run.wall_s, 4),
                                     round(run.cpu_s, 4), run.maxrss_kb] if run else [])
                                for job, step, ok, reason, run in session.outcomes]})
    with open(os.path.join(workdir, "record.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for reason, n in sorted(counts["reasons"].items()):
        print(f"failed x{n}  {reason}")
    for c in checks:
        mark = "ok" if c["ok"] else "MISMATCH"
        print(f"baseline {mark}  {c['job']} {c['check']}: "
              f"expected {c['expected']!r}, got {c['got']!r}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": counts["correct"], "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
