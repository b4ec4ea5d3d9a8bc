"""Seeded inputs and job lists of the three benchmark workloads.

Every job is one or two ``cdslab`` CLI children. ``generate(workload, seed,
workdir)`` writes the generated descriptors into ``workdir`` and returns the
job list; the program sees only those files and the CLI arguments. The same
seed gives byte-identical files, and nothing here imports ``cdslab``: the
garden-hose strategies and their truth tables come from this module's own
water trace, so the program cannot grade its own homework.

Job roles:

* ``timed`` jobs pass at the seed commit and enter every metric;
* ``ceiling`` jobs are known ceilings that fail today (exit 3, MemoryError).
  They enter only ``failed_frac``, so a change that raises a ceiling lowers
  ``failed_frac`` and is not charged for the work the newly decided instance
  does.

Expected outcomes (``expect``):

* ``pass``: exit 0 and a passing report. A classical report needs zero
  numerators for ``eps_hat`` and ``delta_pair``; a quantum report needs every
  figure at most ``QUANTUM_TOL``.
* ``tampered``: exit 1 with a non-empty witness.
* ``sweep``: the CSV matches, byte for byte, ``SWEEP_SHA256``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

TIMED = "timed"
CEILING = "ceiling"
PASS = "pass"
TAMPERED = "tampered"
SWEEP = "sweep"

QUANTUM_TOL = 1e-9

# sha256 of `cdslab sweep --nx 2 --ny 1 --max-pipes 3` (CSV) at the commit
# that introduced this benchmark.
SWEEP_ARGS = ("sweep", "--nx", "2", "--ny", "1", "--max-pipes", "3")
SWEEP_SHA256 = "0f588c9f373932a4d5f828e4b88ae101dcbcc849ac8e4ede50d4b6544048e9a9"

# Address-space limit every child sets on itself, in MiB. The qr p=11 build
# gets less so that its MemoryError stays cheap for the machine; its shared
# tuples need about 2 GiB today.
DEFAULT_AS_MB = 2048
QR11_AS_MB = 1024

WORKLOADS = {
    "classical": "gh/span CDS on seeded 2+1 tables, qr DRE/PSM, a pipe sweep; "
                 "gardenhose, algebra and protocols do the work, quantum and "
                 "nlqc none, and child start-up is a large share",
    "qchain": "qr p=5 and p=7 through cds,cdqs and psqm,cdqs; per-branch "
              "Python bookkeeping in nlqc and protocol closures dominates, "
              "with at most 4 distinct 2-qubit states",
    "routing": "seeded 5-6-pipe garden-hose strategies routed as f-routing "
               "and cdqs; 10-14-qubit statevector kernels dominate, many "
               "branches, each a distinct large state",
}

# Seconds of ``--seconds`` each round of a workload is charged; a run makes
# ``--seconds // ROUND_S`` rounds (at least one), a number that does not
# depend on how fast the machine happens to be during the run.
ROUND_S = {"classical": 15.0, "qchain": 30.0, "routing": 4.0}


@dataclass(frozen=True)
class Job:
    """One unit of work: an optional ``cdslab build`` then a verify or sweep.

    ``build`` is empty when the benchmark generated the descriptor itself.
    ``verify`` is empty for a job that is only a build (a construction
    ceiling). ``baseline`` holds exact figures the report must show, as
    (dotted report path, value) pairs; ``baseline_reason`` is the failure
    reason a ceiling must show. A mismatch is reported, never adjusted.
    """

    name: str
    role: str
    expect: str
    build: tuple = ()
    verify: tuple = ()
    as_mb: int = DEFAULT_AS_MB
    timeout_s: float = 60.0
    baseline: tuple = ()
    baseline_reason: str = ""

    @property
    def output(self) -> str:
        """File the last child writes: the report, or the sweep CSV."""
        if self.expect == SWEEP:
            return f"{self.name}.csv"
        return f"{self.name}.report.json"


# -- garden-hose strategies and their own water trace --------------------------


@dataclass(frozen=True)
class Strategy:
    """Pipes 1..m; alice[x] = (tap, pairs), bob[y] = pairs; pairs are sorted."""

    pipes: int
    n_x: int
    n_y: int
    alice: tuple
    bob: tuple

    def to_jsonable(self) -> dict:
        return {
            "alice": {str(x): {"match": [list(p) for p in pairs], "tap": tap}
                      for x, (tap, pairs) in enumerate(self.alice)},
            "bob": {str(y): {"match": [list(p) for p in pairs]}
                    for y, pairs in enumerate(self.bob)},
            "n_x": self.n_x,
            "n_y": self.n_y,
            "pipes": self.pipes,
        }


def _partners(pairs) -> dict:
    out = {}
    for a, b in pairs:
        out[a] = b
        out[b] = a
    return out


def water(strategy: Strategy, x: int, y: int) -> tuple:
    """(hops, f): pipes the water runs through, and 1 if it spills on Bob's side."""
    tap, left = strategy.alice[x]
    left, right = _partners(left), _partners(strategy.bob[y])
    pipe, hops, towards_bob = tap, 1, True
    while True:
        nxt = (right if towards_bob else left).get(pipe)
        if nxt is None:
            return hops, int(towards_bob)
        pipe, hops, towards_bob = nxt, hops + 1, not towards_bob


def table_of(strategy: Strategy) -> tuple:
    return tuple(water(strategy, x, y)[1]
                 for x in range(1 << strategy.n_x)
                 for y in range(1 << strategy.n_y))


def hop_profile(strategy: Strategy) -> tuple:
    return tuple(sorted((water(strategy, x, y)[0]
                         for x in range(1 << strategy.n_x)
                         for y in range(1 << strategy.n_y)), reverse=True))


def _random_pairs(rng: random.Random, ends: list) -> tuple:
    ends = list(ends)
    rng.shuffle(ends)
    k = rng.randint(0, len(ends) // 2)
    return tuple(sorted(tuple(sorted(ends[2 * i:2 * i + 2])) for i in range(k)))


def random_strategy(rng: random.Random, n_x: int, n_y: int, pipes: int) -> Strategy:
    alice = []
    for _ in range(1 << n_x):
        tap = rng.randint(1, pipes)
        alice.append((tap, _random_pairs(rng, [i for i in range(1, pipes + 1) if i != tap])))
    bob = tuple(_random_pairs(rng, range(1, pipes + 1)) for _ in range(1 << n_y))
    return Strategy(pipes, n_x, n_y, tuple(alice), bob)


def strategy_with_profile(rng: random.Random, n_x: int, n_y: int, pipes: int,
                          profile: tuple) -> Strategy:
    """Rejection-sample a strategy whose sorted water-path lengths are ``profile``.

    Fixing the profile fixes the branch count (4 per hop on each input), so
    the work a descriptor costs does not depend on the seed.
    """
    while True:
        s = random_strategy(rng, n_x, n_y, pipes)
        if hop_profile(s) == profile:
            return s


def tampered(rng: random.Random, strategy: Strategy) -> Strategy:
    """Re-draw one of Bob's matchings until the strategy computes another table."""
    want = table_of(strategy)
    while True:
        bob = list(strategy.bob)
        y = rng.randrange(len(bob))
        bob[y] = _random_pairs(rng, range(1, strategy.pipes + 1))
        out = Strategy(strategy.pipes, strategy.n_x, strategy.n_y,
                       strategy.alice, tuple(bob))
        if table_of(out) != want:
            return out


# -- tables and descriptors --------------------------------------------------------


def table_hex(table) -> str:
    return format(sum(b << i for i, b in enumerate(table)), "x")


def random_table(rng: random.Random, n_x: int, n_y: int, ones: int) -> tuple:
    size = 1 << (n_x + n_y)
    hot = set(rng.sample(range(size), ones))
    return tuple(int(i in hot) for i in range(size))


def table_arg(n_x: int, n_y: int, table) -> str:
    return f"{n_x}:{n_y}:{table_hex(table)}"


def descriptor_text(chain: tuple, table, strategy: Strategy, seed: int) -> str:
    """A ``gh``-based descriptor in the format ``cdslab build`` writes."""
    desc = {
        "artifacts": {"gh_strategy": strategy.to_jsonable()},
        "chain": list(chain),
        "fn": {"n_x": strategy.n_x, "n_y": strategy.n_y,
               "name": f"t{table_hex(table)}", "params": {},
               "table": table_hex(table)},
        "format": "cdslab-descriptor",
        "kind": chain[-1],
        "options": {"max_pipes": strategy.pipes, "p": 2, "seed": seed,
                    "variant": "comm"},
        "version": 1,
    }
    return json.dumps(desc, sort_keys=True, indent=2) + "\n"


@dataclass
class _Builder:
    """Collects the jobs of one workload and writes generated descriptors."""

    workdir: str
    seed: int
    jobs: list = field(default_factory=list)

    def write(self, name: str, text: str) -> str:
        path = f"{name}.json"
        with open(f"{self.workdir}/{path}", "w") as fh:
            fh.write(text)
        return path

    def built(self, name: str, chain: str, fn_args: tuple, role: str = TIMED,
              **kw) -> None:
        """A ``cdslab build`` child followed by a ``cdslab verify`` child."""
        desc = f"{name}.json"
        build = ("build", "--chain", chain) + tuple(fn_args) + (
            "--seed", str(self.seed), "--out", desc)
        verify = ("verify", desc, "--out", f"{name}.report.json")
        self.jobs.append(Job(name, role, PASS, build=build, verify=verify, **kw))

    def generated(self, name: str, text: str, expect: str = PASS, **kw) -> None:
        desc = self.write(name, text)
        self.jobs.append(Job(name, TIMED, expect,
                             verify=("verify", desc, "--out", f"{name}.report.json"),
                             **kw))


def _classical(b: _Builder, rng: random.Random) -> None:
    b.jobs.append(Job("sweep21", TIMED, SWEEP,
                      verify=SWEEP_ARGS + ("--out", "sweep21.csv")))
    for i in range(2):
        table = random_table(rng, 2, 1, rng.randint(2, 6))
        b.built(f"gh_cds_{i}", "gh,cds",
                ("--table", table_arg(2, 1, table), "--max-pipes", "3"))
    # (variant, field, ones k): k fixes the span width and so the joint
    # states swept, p^(1+2k) shared vectors for comm and p^(3k) shared times
    # private for rand, times p secrets and 8 inputs: 6k-52k per job.
    for variant, p, ones in (("comm", 2, 4), ("comm", 3, 3),
                             ("rand", 2, 3), ("rand", 3, 2)):
        table = random_table(rng, 2, 1, ones)
        b.built(f"span_{variant}_z{p}", "span,cds",
                ("--table", table_arg(2, 1, table), "--p", str(p),
                 "--variant", variant))
    b.built("dre_qr13", "dre", ("--fn", "qr", "--p", "13"))
    b.built("dre_psm_qr11", "dre,psm", ("--fn", "qr", "--p", "11"))
    strategy = strategy_with_profile(rng, 2, 1, 4, (4, 4, 3, 3, 2, 2, 1, 1))
    b.generated("gh_cds_tampered", descriptor_text(
        ("gh", "cds"), table_of(strategy), tampered(rng, strategy), b.seed),
        expect=TAMPERED)
    b.built("dre_qr17", "dre", ("--fn", "qr", "--p", "17"), role=CEILING,
            baseline_reason="exit 3")


def _qchain(b: _Builder, rng: random.Random) -> None:
    b.built("cds_cdqs_qr5", "dre,psm,cds,cdqs", ("--fn", "qr", "--p", "5"),
            baseline=(("report.max_branches", 40000),))
    b.built("cds_cdqs_qr7", "dre,psm,cds,cdqs", ("--fn", "qr", "--p", "7"),
            timeout_s=120,
            baseline=(("report.max_branches", 345744),
                      ("report.resources.cds_randomness_states", 588 * 588)))
    b.built("psqm_cdqs_qr7", "dre,psm,psqm,cdqs", ("--fn", "qr", "--p", "7"),
            baseline=(("report.max_branches", 86436),))
    b.built("frouting_qr5", "dre,psm,cds,cdqs,frouting", ("--fn", "qr", "--p", "5"),
            role=CEILING, baseline_reason="exit 3")
    b.jobs.append(Job("build_qr11", CEILING, PASS,
                      build=("build", "--chain", "dre,psm,cds,cdqs", "--fn", "qr",
                             "--p", "11", "--seed", str(b.seed),
                             "--out", "build_qr11.json"),
                      as_mb=QR11_AS_MB, baseline_reason="MemoryError"))


def _routing(b: _Builder, rng: random.Random) -> None:
    # (chain, pipes, sorted hops per 1+1 input): the longest path sets the
    # branch count 4^hops and the register size 2 + 2 * pipes qubits.
    for chain, pipes, profile in ((("gh", "frouting"), 6, (6, 5, 3, 2)),
                                  (("gh", "frouting"), 5, (5, 4, 3, 2)),
                                  (("gh", "frouting", "cdqs"), 6, (6, 5, 3, 2)),
                                  (("gh", "frouting", "cdqs"), 5, (5, 4, 3, 2))):
        strategy = strategy_with_profile(rng, 1, 1, pipes, profile)
        name = f"{'_'.join(chain[1:])}_m{pipes}"
        b.generated(name, descriptor_text(chain, table_of(strategy), strategy, b.seed))
    for n_x, ones in ((1, 2), (2, 4)):
        for chain in ("gh,frouting,cdqs", "gh,cds,cdqs,frouting"):
            table = random_table(rng, n_x, 1, ones)
            b.built(f"{chain.replace(',', '_')}_{n_x}x1", chain,
                    ("--table", table_arg(n_x, 1, table), "--max-pipes", "3"))
    strategy = strategy_with_profile(rng, 1, 1, 5, (5, 4, 3, 2))
    b.generated("frouting_tampered", descriptor_text(
        ("gh", "frouting"), table_of(strategy), tampered(rng, strategy), b.seed),
        expect=TAMPERED)
    b.built("frouting_cdqs_eq2", "gh,frouting,cdqs",
            ("--fn", "eq", "--nx", "2", "--max-pipes", "3"),
            role=CEILING, baseline_reason="exit 3")
    b.built("frouting_ip2", "gh,frouting", ("--fn", "ip", "--nx", "2", "--max-pipes", "3"),
            role=CEILING, baseline_reason="exit 3")


_GENERATORS = {"classical": _classical, "qchain": _qchain, "routing": _routing}


def generate(workload: str, seed: int, workdir: str) -> list:
    """Write the workload's generated descriptors into ``workdir``; return its jobs."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; known: {sorted(_GENERATORS)}")
    b = _Builder(workdir, seed)
    _GENERATORS[workload](b, random.Random(f"{workload}:{seed}"))
    return b.jobs
