"""Traced ``cdslab`` child: time the calls into each module from outside.

Usage: ``python3 bench/tracer.py TRACE_OUT JOB_ID CLI_ARG...``

Runs ``cdslab.cli.main(CLI_ARG...)`` after installing wrappers from this
file, so nothing under ``src/`` changes. A layer is a ``cdslab`` module:

* every public function is replaced in every ``cdslab`` module namespace
  that holds it, since ``cli`` and ``nlqc`` import by name;
* ``PureState``, ``BoolFn.eval`` and ``LsssScheme`` methods are wrapped on
  their classes;
* the callbacks of each protocol object a compiler returns (``alice_msg``,
  ``bob_msg``, ``decode``, ``run``, ``recover``, ...) are wrapped on the
  object, counted and timed in aggregate.

Each wrapped call pushes a frame, so a layer's self time is its calls' time
minus the part covered by calls into other wrapped functions. Spans (name,
start, end, parent, job id) are kept in memory for the first
``SPANS_PER_NAME`` calls of each public function and are written, with the
counters, to TRACE_OUT when the child ends, also when it fails.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

SPANS_PER_NAME = 64
KERNELS = ("apply", "apply_isometry", "measure", "bell_measure", "ptrace", "tensor")
COMPILERS = {
    "protocols": ("cds_from_gh", "cds_from_span", "cds_from_psm", "cds_parallel",
                  "psm_from_dre", "psm_generic_table", "dre_qr"),
    "nlqc": ("cdqs_from_cds", "frouting_from_gh", "frouting_from_cdqs",
             "cdqs_from_frouting", "psqm_from_psm", "cdqs_from_psqm"),
}
STATS = {  # public function -> counter stem
    "main": "cli.main", "gh_search": "gardenhose.search", "in_span": "algebra.in_span",
    "lsss_reconstruct": "algebra.lsss", "lsss_privacy_check": "algebra.lsss",
    "otp_reconstruct_left": "nlqc.otp",
}
CALLBACKS = {  # protocol field -> counter stem
    "alice_msg": "msg", "bob_msg": "msg", "enc_x": "msg", "enc_y": "msg",
    "decode": "decode", "run": "run", "recover": "recover",
}


class Tracer:
    """Frame stack, counters and spans of one traced child."""

    def __init__(self, job: str):
        self.job = job
        self.stack = []            # frames: [start, covered, own span, enclosing span]
        self.active = defaultdict(int)   # open frames per counter stem
        self.count = defaultdict(int)
        self.time = defaultdict(float)
        self.spans = []            # [name, start, end, parent span, job]
        self.peak_qubits = 0

    def budget_error(self, exc: BaseException, layer: str) -> None:
        """Attribute an exceeded budget to the innermost layer it left."""
        if not getattr(exc, "_bench_counted", False):
            exc._bench_counted = True
            self.count[f"{layer}.budget_errors"] += 1

    def wrap(self, fn, name: str, layer: str, stat=None, span=False, after=None):
        """Time ``fn`` as a frame of ``layer``; count it under ``stat``.

        The inclusive time of ``stat`` counts only outermost calls, so
        nested calls of one stem are not counted twice.
        """
        from cdslab.errors import BudgetError

        perf = time.perf_counter
        stack, spans, active = self.stack, self.spans, self.active
        times, counts, job = self.time, self.count, self.job
        self_key, calls_key, time_key = f"{layer}.self_s", f"{stat}_calls", f"{stat}_s"
        left = [SPANS_PER_NAME if span else 0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enclosing = stack[-1][3] if stack else None
            frame = [perf(), 0.0, None, enclosing]
            if left[0]:
                left[0] -= 1
                frame[2] = frame[3] = len(spans)
                spans.append([name, frame[0], None, enclosing, job])
            stack.append(frame)
            if stat:
                active[stat] += 1
            try:
                result = fn(*args, **kwargs)
            except BudgetError as exc:
                self.budget_error(exc, layer)
                raise
            finally:
                end = perf()
                stack.pop()
                dur = end - frame[0]
                times[self_key] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if frame[2] is not None:
                    spans[frame[2]][2] = end
                if stat:
                    counts[calls_key] += 1
                    active[stat] -= 1
                    if not active[stat]:
                        times[time_key] += dur
            if after is not None:
                after(args, result)
            return result

        wrapper.__bench_wrapped__ = True
        return wrapper

    # -- per-function hooks ---------------------------------------------------------

    def protocol_built(self, args, obj) -> None:
        """Count the shared space of a protocol and wrap its callbacks."""
        from cdslab.nlqc import CdqsProtocol, FRoutingProtocol, PsqmProtocol
        from cdslab.protocols import CdsProtocol, Dre, PsmProtocol

        if isinstance(obj, (CdsProtocol, PsmProtocol, Dre)):
            layer = "protocols"
            self.count["protocols.shared_states"] += len(obj.shared)
        elif isinstance(obj, (CdqsProtocol, FRoutingProtocol, PsqmProtocol)):
            layer = "nlqc"
        else:
            return
        kind = type(obj).__name__
        for field, stem in CALLBACKS.items():
            fn = getattr(obj, field, None)
            if fn is None or getattr(fn, "__bench_wrapped__", False):
                continue
            after = self.branches_seen if stem == "run" and layer == "nlqc" else None
            setattr(obj, field, self.wrap(fn, f"{kind}.{field}", layer,
                                          stat=f"{layer}.{stem}", after=after))

    def branches_seen(self, args, branches) -> None:
        if self.active["nlqc.run"]:   # a run nested in another run
            return
        self.count["nlqc.branches"] += len(branches)
        self.count["nlqc.transcripts"] += len({b.transcript for b in branches})

    def joint_states(self, fn, kind: str):
        @functools.wraps(fn)
        def counted(P, *args, **kwargs):
            pairs = max(1, len(P.input_pairs()))
            if kind == "dre":
                joint = len(P.shared)
            else:
                joint = len(P.shared) * len(P.alice_private) * len(P.bob_private)
                if kind == "cds":
                    joint *= len(P.secrets)
            report = fn(P, *args, **kwargs)
            self.count["protocols.joint_states"] += joint * pairs   # swept in full
            return report
        return counted

    def kernel_seen(self, args, result) -> None:
        n = max(args[0].n_qubits, getattr(result, "n_qubits", 0))
        self.peak_qubits = max(self.peak_qubits, n)
        self.count["quantum.amp_bytes"] += 16 << n

    def search_candidate(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active["gardenhose.search"]:
                self.count["gardenhose.candidates"] += 1
            return fn(*args, **kwargs)
        return counted

    def search_result(self, args, found) -> None:
        if found is not None:
            self.count["gardenhose.found"] += 1

    # -- installation -----------------------------------------------------------------

    def install(self) -> None:
        import cdslab
        from cdslab import algebra, boolfn, cli, gardenhose, nlqc, protocols, quantum

        modules = {"cli": cli, "boolfn": boolfn, "gardenhose": gardenhose,
                   "algebra": algebra, "protocols": protocols, "quantum": quantum,
                   "nlqc": nlqc}
        wrapped = {}
        for layer, mod in modules.items():
            for name, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and not name.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrapped[fn] = self.function_wrapper(fn, name, layer)
        for mod in list(modules.values()) + [cdslab]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, name, wrapped[obj])

        boolfn.BoolFn.eval = self.wrap(boolfn.BoolFn.eval, "BoolFn.eval", "boolfn",
                                       stat="boolfn.eval")
        for name in ("vector_for", "shares_from_vector", "share"):
            setattr(algebra.LsssScheme, name,
                    self.wrap(getattr(algebra.LsssScheme, name), f"LsssScheme.{name}",
                              "algebra", stat="algebra.lsss"))
        for name, attr in list(vars(quantum.PureState).items()):
            if name.startswith("_") or isinstance(attr, property):
                continue
            static = isinstance(attr, staticmethod)
            fn = attr.__func__ if static else attr
            if not inspect.isfunction(fn):
                continue
            stat = f"quantum.{name}" if name in KERNELS else None
            after = self.kernel_seen if name in KERNELS else None
            w = self.wrap(fn, f"PureState.{name}", "quantum", stat=stat, after=after)
            setattr(quantum.PureState, name, staticmethod(w) if static else w)

    def function_wrapper(self, fn, name: str, layer: str):
        after = {"gh_search": self.search_result}.get(name)
        if name in COMPILERS.get(layer, ()):
            stat, after = f"{layer}.compile", self.protocol_built
        elif name.startswith("verify_"):
            stat = f"{layer}.verify"
        else:
            stat = STATS.get(name)
        if name in ("verify_cds", "verify_psm", "verify_dre"):
            fn = self.joint_states(fn, name[len("verify_"):])
        if name == "gh_verify":
            fn = self.search_candidate(fn)
        return self.wrap(fn, name, layer, stat=stat, span=True, after=after)

    def dump(self, path: str, import_s: float) -> None:
        counters = dict(self.count)
        times = dict(self.time)
        times["cli.import_s"] = import_s
        counters["quantum.peak_qubits"] = self.peak_qubits
        with open(path, "w") as fh:
            json.dump({"job": self.job, "counts": counters, "times": times,
                       "spans": self.spans}, fh)


def main(argv) -> int:
    out, job, cli_args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    import cdslab.cli
    import_s = time.perf_counter() - start
    tracer = Tracer(job)
    tracer.install()
    try:
        return cdslab.cli.main(cli_args)
    finally:
        tracer.dump(out, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
