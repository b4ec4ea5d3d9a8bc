"""Golden CLI outputs: every compile edge and every verify kind, frozen.

Each case builds a descriptor, verifies it and compares both files with the
copies under ``tests/golden``. Descriptors, the sweep CSV and classical
reports must match byte for byte. Quantum reports hold floats, computed
from exact Pauli-frame weights but for a pad route's left side's eigen-solve,
so they must match field for field with floats within 1e-12.

The golden files are ``run_case``'s output on the code before a refactor.
After an intended output change, rewrite only the cases it changes, files
and exit codes (``exit_codes.json``) alike, with

    PYTHONPATH=src python tests/test_cli_golden.py CASE [CASE ...]
"""

from __future__ import annotations

import csv
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from cdslab.cli import main

GOLDEN = Path(__file__).parent / "golden"
FLOAT_TOL = 1e-12
QUANTUM_KINDS = ("cdqs", "frouting", "psqm")

# name -> (build arguments, verify format)
CASES = {
    "gh": (["--chain", "gh", "--fn", "and"], "json"),
    "span": (["--chain", "span", "--fn", "and"], "json"),
    "gh_cds": (["--chain", "gh,cds", "--fn", "and"], "json"),
    "gh_frouting": (["--chain", "gh,frouting", "--fn", "and"], "csv"),
    "span_cds_eq_rand": (["--chain", "span,cds", "--fn", "eq", "--p", "3",
                          "--variant", "rand"], "json"),
    "dre_qr7": (["--chain", "dre", "--fn", "qr", "--p", "7"], "json"),
    "dre_psm_qr7": (["--chain", "dre,psm", "--fn", "qr", "--p", "7"], "json"),
    "dre_psm_cds_cdqs_qr5": (["--chain", "dre,psm,cds,cdqs", "--fn", "qr",
                              "--p", "5"], "json"),
    "psm_cds_index": (["--chain", "psm,cds", "--fn", "index"], "json"),
    "psm_cds_const0": (["--chain", "psm,cds", "--table", "1:1:0"], "json"),
    "psm_cds_const1": (["--chain", "psm,cds", "--table", "1:1:f"], "json"),
    "psm_psqm_and": (["--chain", "psm,psqm", "--fn", "and"], "json"),
    "dre_psm_psqm_qr7": (["--chain", "dre,psm,psqm", "--fn", "qr", "--p", "7"], "json"),
    "psm_psqm_cdqs_and": (["--chain", "psm,psqm,cdqs", "--fn", "and"], "json"),
    "psm_psqm_cdqs_frouting_and": (["--chain", "psm,psqm,cdqs,frouting", "--fn", "and"],
                                   "json"),
    "gh_frouting_cdqs": (["--chain", "gh,frouting,cdqs", "--fn", "and"], "json"),
    "gh_cds_cdqs_frouting": (["--chain", "gh,cds,cdqs,frouting", "--fn", "and"],
                             "json"),
    "gh_frouting_ip2": (["--chain", "gh,frouting", "--fn", "ip", "--nx", "2",
                         "--max-pipes", "3"], "json"),
    "gh_frouting_cdqs_eq2": (["--chain", "gh,frouting,cdqs", "--fn", "eq", "--nx", "2",
                              "--max-pipes", "3"], "json"),
}


# sweep case name -> sweep arguments; the 3-pipe cases freeze every search
# result over the 256 functions of each shape, and the 2-pipe 1+2 case leaves
# most of them to the generic strategy
SWEEPS = {
    "sweep": ["--nx", "1", "--ny", "1"],
    "sweep21": ["--nx", "2", "--ny", "1", "--max-pipes", "3"],
    "sweep12": ["--nx", "1", "--ny", "2", "--max-pipes", "3"],
    "sweep12_m2": ["--nx", "1", "--ny", "2", "--max-pipes", "2"],
}


def _tamper(desc_bytes: bytes) -> str:
    """Swap Alice's two taps, so some input spills on the wrong side."""
    obj = json.loads(desc_bytes)
    taps = obj["artifacts"]["gh_strategy"]["alice"]
    taps["0"], taps["1"] = taps["1"], taps["0"]
    return json.dumps(obj)


def run_case(name: str, tmp: Path) -> dict:
    """Run one case; returns {golden file name: bytes} plus exit codes."""
    out = {}
    if name in SWEEPS:
        path = tmp / f"{name}.csv"
        code = main(["sweep"] + SWEEPS[name] + ["--out", str(path)])
        out[path.name] = path.read_bytes()
        return {"files": out, "codes": [code]}
    if name == "tampered":
        desc = tmp / "tampered.desc.json"
        desc.write_text(_tamper((GOLDEN / "gh_cds.desc.json").read_bytes()))
        rep = tmp / "tampered.report.json"
        code = main(["verify", str(desc), "--out", str(rep)])
        out["tampered.report.json"] = rep.read_bytes()
        return {"files": out, "codes": [code]}
    build_args, fmt = CASES[name]
    desc = tmp / f"{name}.desc.json"
    rep = tmp / f"{name}.report.{fmt}"
    codes = [main(["build"] + build_args + ["--out", str(desc)]),
             main(["verify", str(desc), "--format", fmt, "--out", str(rep)])]
    out[desc.name] = desc.read_bytes()
    out[rep.name] = rep.read_bytes()
    return {"files": out, "codes": codes}


def _close(a, b, where: str) -> None:
    if isinstance(a, dict):
        assert isinstance(b, dict) and sorted(a) == sorted(b), where
        for k in a:
            _close(a[k], b[k], f"{where}.{k}")
    elif isinstance(a, list):
        assert isinstance(b, list) and len(a) == len(b), where
        for i, (u, v) in enumerate(zip(a, b)):
            _close(u, v, f"{where}[{i}]")
    elif isinstance(a, float) and not isinstance(b, bool):
        assert isinstance(b, (int, float)) and abs(a - b) <= FLOAT_TOL, (where, a, b)
    else:
        assert a == b, (where, a, b)


def _csv_fields(data: bytes) -> dict:
    """Report CSV as {key: value}."""
    rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    assert rows[0] == ["key", "value"]
    out = {}
    for key, value in rows[1:]:
        try:
            out[key] = float(value)
        except ValueError:
            out[key] = value
    return out


def _quantum(fname: str, data: bytes) -> bool:
    if fname.endswith(".report.csv"):
        return _csv_fields(data).get("kind") in QUANTUM_KINDS
    return fname.endswith(".report.json") and json.loads(data).get("kind") in QUANTUM_KINDS


@pytest.mark.parametrize("name", list(CASES) + list(SWEEPS) + ["tampered"])
def test_cli_output_matches_golden(name, tmp_path):
    got = run_case(name, tmp_path)
    want_codes = json.loads((GOLDEN / "exit_codes.json").read_text())[name]
    assert got["codes"] == want_codes
    for fname, data in got["files"].items():
        want = (GOLDEN / fname).read_bytes()
        if not _quantum(fname, want):
            assert data == want, fname
        elif fname.endswith(".csv"):
            _close(_csv_fields(want), _csv_fields(data), fname)
        else:
            _close(json.loads(want), json.loads(data), fname)


def test_choi_fidelity_in_closed_form_matches_uhlmann(tmp_path, monkeypatch):
    # every Choi state a quantum golden case scores: the closed form, the
    # weight of the identity frame, against the eigen-solved Uhlmann fidelity
    # of the dense mixture of the branches' Bell states
    import numpy as np

    from cdslab import nlqc, quantum, qverifiers, toolkit

    closed = qverifiers._choi_fidelity
    phi = np.asarray(quantum.PHI_PLUS)
    target = np.outer(phi, phi.conj())
    scored = []

    def bell(a, b):
        v = np.kron(np.eye(2), np.asarray(quantum.phased_pad(a, b))) @ phi
        return np.outer(v, v.conj())

    def compared(P, x, y, branches, out):
        got, exact = closed(P, x, y, branches, out)
        rho = sum(b.weight / P.denom * bell(*P.recover(x, y, b.transcript, b.state)[1:])
                  for b in branches)
        assert abs(got - toolkit.fidelity(rho, target)) <= FLOAT_TOL
        assert exact == (got == 1.0)   # each golden fidelity is 1 or well below it
        scored.append(got)
        return got, exact

    monkeypatch.setattr(qverifiers, "_choi_fidelity", compared)
    for name, (build_args, _) in CASES.items():
        if set(build_args[1].split(",")) & set(QUANTUM_KINDS):
            run_case(name, tmp_path)
    # and mixed ones: a garden-hose route corrected with its outcomes swapped
    frame = nlqc.pauli_frame
    monkeypatch.setattr(nlqc, "pauli_frame",
                        lambda outcomes: frame([(b, a) for (a, b) in outcomes]))
    run_case("gh_frouting_cdqs", tmp_path)
    assert len(scored) >= 20 and min(scored) < 0.9


def regenerate(names) -> None:
    """Rewrite the golden files and exit codes of the named cases only."""
    unknown = [n for n in names if n not in {*CASES, *SWEEPS, "tampered"}]
    if unknown:
        raise SystemExit(f"unknown cases: {unknown}")
    codes_path = GOLDEN / "exit_codes.json"
    codes = json.loads(codes_path.read_text())
    for name in names:
        with tempfile.TemporaryDirectory() as tmp:
            got = run_case(name, Path(tmp))
        for fname, data in got["files"].items():
            (GOLDEN / fname).write_bytes(data)
        codes[name] = got["codes"]
    codes_path.write_text(json.dumps(codes, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    regenerate(sys.argv[1:])
