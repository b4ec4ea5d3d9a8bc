"""Run one child process under its own limits and classify how it ended.

Each child sets ``RLIMIT_AS`` on itself before it starts and gets a wall
timeout; BLAS and OpenMP thread pools are capped at the CPU count. The
harness itself runs unlimited. ``os.wait4`` gives the child's own rusage, so
its peak RSS and CPU time are not mixed with any other child's.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import signal
import subprocess
import threading
import time
from dataclasses import dataclass

from workloads import PASS, QUANTUM_TOL, SWEEP, SWEEP_SHA256, TAMPERED

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

# Reasons for an outcome that is a wrong answer rather than an inability to
# answer; any of them makes the run incorrect, whatever the job's role.
WRONG = ("verdict", "accepted", "digest", "report")


@dataclass(frozen=True)
class ChildRun:
    """How one child ended: exit code or signal, wall time and own rusage."""

    code: int | None
    signal: int | None
    timed_out: bool
    wall_s: float
    maxrss_kb: int
    cpu_s: float
    stderr: str


def child_env(src_dir: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    env["PYTHONHASHSEED"] = "0"
    threads = str(os.cpu_count() or 1)
    for var in THREAD_VARS:
        env[var] = threads
    return env


def run_child(argv, cwd: str, env: dict, as_mb: int, timeout_s: float) -> ChildRun:
    """Start ``argv`` in ``cwd``, wait for it, kill it at ``timeout_s``."""
    limit = as_mb << 20

    def limit_self():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    err_path = os.path.join(cwd, ".stderr")
    with open(err_path, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                preexec_fn=limit_self)
        fired = threading.Event()

        def kill():
            fired.set()
            proc.kill()

        timer = threading.Timer(max(timeout_s, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    os.unlink(err_path)
    code = os.WEXITSTATUS(status) if os.WIFEXITED(status) else None
    sig = os.WTERMSIG(status) if os.WIFSIGNALED(status) else None
    timed_out = fired.is_set() and sig == signal.SIGKILL   # not one that ended first
    return ChildRun(code, sig, timed_out, wall,
                    usage.ru_maxrss, usage.ru_utime + usage.ru_stime, stderr)


# -- outcome classification ---------------------------------------------------------


def _ended(run: ChildRun):
    """Failure reason shared by every kind of child, or None if it exited."""
    if run.timed_out:
        return "timeout"
    if run.signal is not None:
        return f"signal {signal.Signals(run.signal).name}"
    if "MemoryError" in run.stderr:
        return "MemoryError"
    if run.code == 3:
        return "exit 3"
    return None


def classify_build(run: ChildRun, out_path: str) -> tuple:
    """(ok, reason) of a ``cdslab build`` child."""
    reason = _ended(run)
    if reason:
        return False, reason
    if run.code != 0:
        return False, f"exit {run.code}"
    try:
        with open(out_path) as fh:
            json.load(fh)
    except (OSError, ValueError):
        return False, "report: no descriptor written"
    return True, "pass"


def _quantum_ok(rep: dict) -> bool:
    return (rep["worst_infidelity"] <= QUANTUM_TOL and rep["worst_gap"] <= QUANTUM_TOL
            and rep["routing_consistent"])


def _classical_ok(rep: dict) -> bool:
    return rep["eps_hat"]["num"] == 0 and rep["delta_pair"]["num"] == 0


def classify(expect: str, run: ChildRun, out_path: str) -> tuple:
    """(ok, reason) of a verify or sweep child against its expected outcome.

    Exit 3, a MemoryError, a signal (the child's own limits end it with one)
    and a timeout are failures to answer. A wrong answer has a reason that
    starts with one of ``WRONG``.
    """
    reason = _ended(run)
    if reason:
        return False, reason
    if expect == SWEEP:
        if run.code != 0:
            return False, f"exit {run.code}"
        try:
            with open(out_path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            return False, "report: no CSV written"
        return (True, "pass") if digest == SWEEP_SHA256 else (False, "digest mismatch")
    try:
        with open(out_path) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        return False, f"report: none written (exit {run.code})"
    if expect == TAMPERED:
        if run.code == 1 and result.get("status") == "fail" and result.get("witness"):
            return True, "fail with witness"
        if run.code == 0:
            return False, "accepted a tampered descriptor"
        return False, f"exit {run.code} without a witness"
    if expect != PASS:
        raise ValueError(f"unknown expectation {expect!r}")
    if run.code != 0 or result.get("status") != "pass":
        return False, f"verdict fail (exit {run.code})"
    rep = result.get("report", {})
    try:
        ok = _quantum_ok(rep) if "worst_infidelity" in rep else (
            _classical_ok(rep) if "eps_hat" in rep else True)
    except (KeyError, TypeError):
        return False, "report: missing figures"
    return (True, "pass") if ok else (False, "verdict figures out of tolerance")


def is_wrong(reason: str) -> bool:
    return reason.startswith(WRONG)
