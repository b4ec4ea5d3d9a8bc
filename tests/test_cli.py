"""Command-line surface: build/verify/sweep, exit codes, determinism."""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import time
from functools import cache
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from cdslab import __version__
from cdslab.cli import _parse, main
from cdslab.clicore import BASES, COMPILE, OPTIONS, _counts, _emit, _flatten
from cdslab.errors import DEFAULT_BUDGET, ValidationError
from cdslab.families import named_fn


def _read(path):
    return path.read_bytes()


def _child_env():
    """Environment for a ``cdslab`` child process run from this checkout."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]))


def test_version_flag(capsys):
    assert main(["--version"]) == 0


# -- the option table against argparse ---------------------------------------------


def _reference_parser() -> argparse.ArgumentParser:
    """The argparse grammar the option table replaced, kept as the reference."""
    parser = argparse.ArgumentParser(
        prog="cdslab",
        description="build, verify, and sweep disclosure/routing protocol chains",
    )
    parser.add_argument("--version", action="version", version=f"cdslab {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="compile a chain and write its descriptor")
    b.add_argument("--chain", required=True,
                   help="comma list, e.g. gh,cds or dre,psm,psqm,cdqs")
    b.add_argument("--fn", default=None,
                   help="named function family: and or xor eq ip index qr")
    b.add_argument("--table", default=None,
                   help="explicit truth table as nx:ny:hex (bit (x<<ny)|y is "
                        "hex bit i, least significant first)")
    b.add_argument("--nx", type=int, default=1, help="bits per side / Alice bits")
    b.add_argument("--p", type=int, default=2, help="prime field / qr modulus")
    b.add_argument("--variant", choices=("comm", "rand"), default="comm",
                   help="span-based disclosure flavour")
    b.add_argument("--max-pipes", type=int, default=4)
    b.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    b.add_argument("--seed", type=int, default=0,
                   help="recorded in the descriptor; all searches are "
                        "deterministic, so this only tags the output")
    b.add_argument("--out", default=None, help="descriptor path (default stdout)")
    b.add_argument("--format", choices=("json",), default="json")

    v = sub.add_parser("verify", help="rebuild a descriptor and verify it")
    v.add_argument("descriptor", help="path to a descriptor JSON file")
    v.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    v.add_argument("--out", default=None, help="report path (default stdout)")
    v.add_argument("--format", choices=("json", "csv"), default="json")

    s = sub.add_parser("sweep", help="pipe-count search over all functions")
    s.add_argument("--nx", type=int, required=True)
    s.add_argument("--ny", type=int, required=True)
    s.add_argument("--max-pipes", type=int, default=4)
    s.add_argument("--budget", type=int, default=10 ** 8)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", default=None)
    s.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _reference(argv):
    """The reference's namespace for ``argv`` as a sorted item list, or None
    where it refuses (exit 2)."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return sorted(vars(_reference_parser().parse_args(argv)).items())
    except SystemExit as exc:
        assert exc.code == 2, argv
        return None


def _abbreviates(token: str, cmd: str) -> bool:
    """Whether argparse reads ``token`` as a unique-prefix abbreviation of one of
    ``cmd``'s options, which the option table no longer reads."""
    name = token.partition("=")[0]
    return name[:2] == "--" and len(name) > 2 and any(o != name and o.startswith(name)
                                                      for o in [*OPTIONS[cmd], "--help"])


# well-formed values of each type, and strings that probe the option rule:
# leading dashes, spaces, dots and "=", bad numbers and unknown choices
_VALID = {int: st.integers(-10 ** 6, 10 ** 6).map(str),
          str: st.sampled_from(["gh,cds", "d.json", "-", "-1", "-a b", " x"])}
_ODD = st.one_of(st.text(alphabet="-ab 1.=,", max_size=4), st.sampled_from(
    ["1.5", "abc", " 7", "0x10", "1_000", "-0", "--1", "1e-9", "-1e-5", "-.5", "-5.", "nan",
     "inf", "--", "JSON", "-h x"]))
_STRAYS = st.sampled_from(["--bogus", "--bogus=1", "-x", "--nxx", "--chains",
                           "--ny", "--chain", "--", "a", "-1"])


@st.composite
def _argv(draw, cmd):
    """A command's argv: its required options most of the time, others, some
    repeated, in any order and either form; unless it is clean, with odd
    values, missing values and stray strings."""
    table, clean = OPTIONS[cmd], draw(st.booleans())
    names = [name for name, (_, default, _) in table.items()
             if default is ... and draw(st.integers(0, 5))]
    tokens = []
    for name in names + draw(st.lists(st.sampled_from(list(table)), max_size=5)):
        kind = table[name][0]
        valid = st.sampled_from(kind) if isinstance(kind, tuple) else _VALID[kind]
        value = draw(valid if clean else st.one_of(valid, _ODD))
        form = draw(st.sampled_from(["pair", "equals"] + ["bare"] * (not clean)))
        if not name.startswith("-"):
            tokens.append([value])
        else:
            tokens.append({"pair": [name, value], "equals": [f"{name}={value}"],
                           "bare": [name]}[form])
    tokens += [[stray] for stray in draw(st.lists(_STRAYS, max_size=0 if clean else 2))]
    return [cmd, *(t for group in draw(st.permutations(tokens)) for t in group)]


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(list(OPTIONS)).flatmap(_argv))
@example(["build", "--chain", "gh,cds", "--nx", "-1"])
@example(["build", "--chain=gh", "--chain", "dre", "--max-pipes=-3", "--variant", "rand"])
@example(["verify", "--budget", "-5", "--out=-a b", "d.json", "--format", "csv"])
@example(["verify", "--budget", "-1e-5", "d.json"])
@example(["verify", "--", "--out"])
@example(["verify", "d.json", "--"])
@example(["verify", "d.json", "--out", "x", "--"])
@example(["verify", "d.json", "--tol", "1e-9"])   # no tolerance decides a verdict
@example(["build", "--chain", "-h x"])
@example(["build", "--chain", "--help=a b"])
@example(["build", "--chain", "--= a"])
@example(["sweep", "--ny", "1", "--nx"])
@example(["sweep", "--ny", "1", "--nx", "1", "--format", "JSON"])
def test_the_option_table_reads_argv_as_argparse_did(argv):
    # where argparse accepted, the same values; where it refused, exit 2
    # with a usage error; the one change is that no abbreviation is read
    assume(not any(_abbreviates(token, argv[0]) for token in argv[1:]))
    want = _reference(argv)
    # argparse 3.11 strips "--" from an explicit value too: --opt=-- read as []
    assume(want is None or [] not in dict(want).values())
    if want is not None:
        assert repr(sorted(vars(_parse(argv)).items())) == repr(want), argv
        return
    with pytest.raises(ValidationError):
        _parse(argv)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert main(argv) == 2, argv
    assert err.getvalue().startswith("usage error: "), (argv, err.getvalue())


def test_abbreviations_are_refused(capsys):
    argv = ["sweep", "--nx", "1", "--ny", "1", "--max", "2"]
    assert _reference(argv) is not None
    assert main(argv) == 2
    assert capsys.readouterr().err == "usage error: unrecognized argument '--max'\n"


@pytest.mark.parametrize("argv", [["-h"], ["--help"], *([cmd, flag] for cmd in OPTIONS
                                                        for flag in ("-h", "--help"))])
def test_help_names_every_option_and_exits_0(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    for cmd in OPTIONS if argv[0].startswith("-") else [argv[0]]:
        assert f"usage: cdslab {cmd}" in out
        assert all(f"  {name} " in out for name in OPTIONS[cmd]), out


def test_the_entry_point_prints_the_version_and_help():
    # as the benchmark starts its children: exit 0, text on stdout alone, and
    # help that names each option of the commands it covers
    for argv, commands in ((["--version"], []), (["--help"], list(OPTIONS)),
                           (["build", "--help"], ["build"])):
        run = subprocess.run([sys.executable, "-m", "cdslab.cli", *argv], env=_child_env(),
                             capture_output=True, text=True, timeout=60)
        assert (run.returncode, run.stderr) == (0, ""), argv
        if not commands:
            assert run.stdout == f"cdslab {__version__}\n"
        for cmd in commands:
            assert f"usage: cdslab {cmd}" in run.stdout, argv
            assert all(f"  {name} " in run.stdout for name in OPTIONS[cmd]), (argv, cmd)


def _readme_options() -> dict:
    """{command: {option: (type cell, default cell)}} of the README's options table;
    a row with an empty command cell continues the command above it."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| command | option | type or choices | default |")
    table, cmd = {}, None
    for line in itertools.takewhile(lambda text: text.startswith("|"), lines[start + 2:]):
        cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
        cmd = cells[0].strip("`") or cmd
        for name in re.findall(r"`([^`]+)`", cells[1]):
            table.setdefault(cmd, {})[name] = (cells[2], cells[3])
    return table


def test_the_readme_options_table_is_the_option_table():
    # every command, option, type or choices and default of ``OPTIONS``, and
    # nothing else, so a removed option leaves no row behind
    readme = _readme_options()
    assert {cmd: sorted(rows) for cmd, rows in readme.items()} == \
        {cmd: sorted(table) for cmd, table in OPTIONS.items()}
    for cmd, table in OPTIONS.items():
        for name, (kind, default, _) in table.items():
            kind_cell, default_cell = readme[cmd][name]
            if isinstance(kind, tuple):
                assert kind_cell == ", ".join(f"`{c}`" for c in kind), (cmd, name)
                assert default_cell == f"`{default}`", (cmd, name)
                continue
            assert (kind_cell.split()[0] == "int") == (kind is int), (cmd, name)
            assert not kind_cell.startswith("float"), (cmd, name)   # no option is a float
            if default is ...:
                assert default_cell == "required", (cmd, name)
            elif default is None:
                assert default_cell == ("stdout" if name == "--out" else "none"), (cmd, name)
            else:
                assert default_cell.split()[0] == str(default), (cmd, name)


def test_build_verify_gh_cds(tmp_path):
    desc = tmp_path / "d.json"
    rep = tmp_path / "r.json"
    assert main(["build", "--chain", "gh,cds", "--fn", "and",
                 "--out", str(desc)]) == 0
    obj = json.loads(desc.read_text())
    assert obj["format"] == "cdslab-descriptor"
    assert obj["chain"] == ["gh", "cds"]
    assert "gh_strategy" in obj["artifacts"]
    assert main(["verify", str(desc), "--out", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["status"] == "pass"
    assert report["report"]["perfect"] is True


def test_verify_corrupted_descriptor_gives_witness(tmp_path):
    desc = tmp_path / "d.json"
    rep = tmp_path / "r.json"
    assert main(["build", "--chain", "gh,frouting", "--fn", "and",
                 "--out", str(desc)]) == 0
    obj = json.loads(desc.read_text())
    # flip one tap so some input routes to the wrong side
    taps = obj["artifacts"]["gh_strategy"]["alice"]
    taps["0"], taps["1"] = taps["1"], taps["0"]
    desc.write_text(json.dumps(obj))
    assert main(["verify", str(desc), "--out", str(rep)]) == 1
    report = json.loads(rep.read_text())
    assert report["status"] == "fail"
    assert report["witness"]["inputs"]  # concrete failing input pairs


ZERO_1X1 = {"n_x": 1, "n_y": 1, "name": "zero", "params": {}, "table": "0"}


@pytest.mark.parametrize("chain,args,fn,error,witness", [
    *(pytest.param(chain, ["and", "--nx", "2"], ZERO_1X1,
                   "descriptor rejected: strategy and function input widths differ",
                   "strategy and function input widths differ", id=chain)
      for chain in ("gh", "gh,frouting", "gh,frouting,cdqs", "gh,cds")),
    # entry (x=1, y=0) of qr7's table flipped: 0x97 -> 0x87
    pytest.param("dre,psm,cds", ["qr", "--p", "7"], {"table": "87"},
                 "encoding disagrees with the function", {"inputs": [[1, 0]]},
                 id="dre,psm,cds"),
    # a 1+1 table that agrees with qr7's entries at y < 2: refused on the
    # 1+2 widths its qr parameters imply, before the encoding is built
    pytest.param("dre,psm,cds", ["qr", "--p", "7"], {"n_y": 1, "table": "7"},
                 "descriptor rejected: qr widths 1+2 differ from the function's 1+1",
                 "qr widths 1+2 differ from the function's 1+1", id="dre,psm,cds-widths"),
    # the embedded and strategy checked against xor1
    pytest.param("gh,cds", ["and"], named_fn("xor", n=1).to_jsonable(),
                 "strategy routes some input to the wrong side",
                 {"inputs": [[0, 1], [1, 0], [1, 1]]}, id="gh,cds-xor"),
    # entry a=0 (x=0, y=0) of qr7's table flipped: 0x97 -> 0x96. verify_dre
    # sweeps a in 1..6 only, so the base check alone sees it
    pytest.param("dre", ["qr", "--p", "7"], {"table": "96"},
                 "encoding disagrees with the function", {"inputs": [[0, 0]]}, id="dre-a0"),
])
def test_a_base_is_checked_against_the_descriptor_function(tmp_path, chain, args, fn,
                                                           error, witness):
    # a base the descriptor embeds or rebuilds is checked against the
    # descriptor's fn, whatever chain follows it
    desc, rep = tmp_path / "d.json", tmp_path / "r.json"
    assert main(["build", "--chain", chain, "--fn", *args, "--out", str(desc)]) == 0
    tampered = json.loads(desc.read_text())
    tampered["fn"].update(fn)
    desc.write_text(json.dumps(tampered))
    assert main(["verify", str(desc), "--out", str(rep)]) == 1
    report = json.loads(rep.read_text())
    assert (report["status"], report["error"], report["witness"]) == ("fail", error, witness)


NULL_ARTIFACTS = "descriptor rejected: artifacts: must be dict"


@pytest.mark.parametrize("chain,args,fn,error,witness", [
    ("dre", ["qr", "--p", "7"], {"table": "96"}, NULL_ARTIFACTS,
     NULL_ARTIFACTS.split(": ", 1)[1]),
    ("gh,cds", ["and"], {}, NULL_ARTIFACTS, NULL_ARTIFACTS.split(": ", 1)[1]),
    ("span,cds", ["and"], {}, NULL_ARTIFACTS, NULL_ARTIFACTS.split(": ", 1)[1]),
], ids=["dre-a0", "gh,cds", "span,cds"])
def test_null_artifacts_do_not_pass_for_a_build(tmp_path, chain, args, fn, error, witness):
    # "artifacts": null in a descriptor is read, not taken for a build's
    # missing descriptor: the walk refuses it before any base is made
    desc, rep = tmp_path / "d.json", tmp_path / "r.json"
    assert main(["build", "--chain", chain, "--fn", *args, "--out", str(desc)]) == 0
    tampered = json.loads(desc.read_text())
    tampered["fn"].update(fn)
    tampered["artifacts"] = None
    desc.write_text(json.dumps(tampered))
    assert main(["verify", str(desc), "--out", str(rep)]) == 1
    report = json.loads(rep.read_text())
    assert (report["status"], report["error"], report["witness"]) == ("fail", error, witness)


@pytest.mark.parametrize("fn,error", [
    ({"params": {"p": 7, "alice_positions": [0], "n_bits": 3}},
     "alice positions outside 1..3"),
    ({"params": {"p": 7, "alice_positions": [4], "n_bits": 3}},
     "alice positions outside 1..3"),
    # a 1+1 split of 2 bits: the widths agree, but a = 4, 5, 6 have no inputs
    (named_fn("qr", p=7, n_bits=2).to_jsonable(), "a=4 does not fit in 2 bits"),
], ids=["position-0", "position-4", "n_bits-2"])
def test_qr_parameters_a_descriptor_names_are_refused(tmp_path, capsys, fn, error):
    desc, rep = tmp_path / "d.json", tmp_path / "r.json"
    assert main(["build", "--chain", "dre,psm", "--fn", "qr", "--p", "7",
                 "--out", str(desc)]) == 0
    tampered = json.loads(desc.read_text())
    tampered["fn"].update(fn)
    desc.write_text(json.dumps(tampered))
    capsys.readouterr()
    assert main(["verify", str(desc), "--out", str(rep)]) == 1
    assert json.loads(rep.read_text())["error"] == f"descriptor rejected: {error}"
    assert "Traceback" not in capsys.readouterr().err


def test_a_dre_request_builds_at_most_one_qr_table(tmp_path, monkeypatch):
    # the dre base encodes the function it is given and walks its table
    # against the residue rule, so a build makes only the --fn qr table and
    # a verify reads the descriptor's
    from cdslab import families

    calls, split = [], families._qr_split

    def spy(*args, **kwargs):
        calls.append(args or kwargs)
        return split(*args, **kwargs)

    monkeypatch.setattr(families, "_qr_split", spy)
    monkeypatch.setitem(families._REGISTRY, "qr", spy)
    desc, rep = tmp_path / "d.json", tmp_path / "r.json"
    assert main(["build", "--chain", "dre", "--fn", "qr", "--p", "131101",
                 "--out", str(desc)]) == 0
    assert len(calls) == 1
    assert main(["verify", str(desc), "--out", str(rep)]) == 3
    assert (len(calls), json.loads(rep.read_text())["space"]) == (
        1, "verify_dre message coordinates")


def test_verify_unreadable_descriptor(tmp_path):
    rep = tmp_path / "r.json"
    assert main(["verify", str(tmp_path / "missing.json"),
                 "--out", str(rep)]) == 1
    assert json.loads(rep.read_text())["status"] == "fail"


def test_verify_wrong_format_file(tmp_path):
    assert _rejected(tmp_path, {"format": "something-else"}) == (
        "descriptor rejected: format: must be 'cdslab-descriptor'")
    assert _rejected(tmp_path, [1]) == "descriptor rejected: descriptor: must be dict"


def test_chain_validation_exit_codes(tmp_path, capsys):
    assert main(["build", "--chain", "cds,gh", "--fn", "and"]) == 2
    assert main(["build", "--chain", "gh,nope", "--fn", "and"]) == 2
    assert main(["build", "--chain", "gh,cds"]) == 2  # no --fn/--table
    assert main(["build", "--chain", "gh,cds", "--table", "1:1"]) == 2
    assert main(["build", "--chain", "dre,psm", "--fn", "and"]) == 2  # dre wants qr
    assert main(["not-a-command"]) == 2
    # a malformed table or width is a usage error, not a traceback
    for shape in (["--table", "1:1:z"], ["--table", "1:one:8"], ["--fn", "and", "--nx", "-1"]):
        capsys.readouterr()
        assert main(["build", "--chain", "gh,cds", *shape]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")


@pytest.mark.parametrize("table", ["1:1:0x8", "1:1:+8", "1:1:-0", "1_0:1:8", "01:1:8",
                                   "1:1:F", "1: 1:8", "1:1:z", "1:one:8", "14:0:",
                                   pytest.param("1" * 5000 + ":1:8", id="5000-digit-width")])
def test_a_table_argument_has_one_spelling(capsys, table):
    # --table reads its widths and hex by the rules of a descriptor's, so one
    # function has one spelling: no prefix, sign, underscore, space, leading
    # zero in a width or capital, and no width past int's digit limit
    assert main(["build", "--chain", "gh,cds", "--table", table]) == 2
    assert capsys.readouterr().err == "usage error: --table wants nx:ny:hex\n"


def test_budget_exit_code(tmp_path):
    assert main(["build", "--chain", "psm,cds", "--fn", "ip", "--nx", "4",
                 "--out", str(tmp_path / "d.json")]) == 3


def test_build_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["build", "--chain", "span,cds", "--fn", "eq", "--p", "3",
            "--variant", "rand"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert _read(a) == _read(b)


def test_verify_deterministic_bytes(tmp_path):
    desc = tmp_path / "d.json"
    assert main(["build", "--chain", "dre,psm,psqm,cdqs", "--fn", "qr",
                 "--p", "5", "--out", str(desc)]) == 0
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["verify", str(desc), "--out", str(r1)]) == 0
    assert main(["verify", str(desc), "--out", str(r2)]) == 0
    assert _read(r1) == _read(r2)


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--nx", "1", "--ny", "1", "--max-pipes", "3",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "index,table,pipes,method"
    assert len(lines) == 17
    pipes = [int(line.split(",")[2]) for line in lines[1:]]
    assert max(pipes) <= 3


def test_sweep_equal_seeds_identical_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--nx", "1", "--ny", "1", "--max-pipes", "3", "--seed", "7"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert _read(a) == _read(b)


def test_sweep_json_format(tmp_path):
    out = tmp_path / "sweep.json"
    assert main(["sweep", "--nx", "1", "--ny", "1", "--format", "json",
                 "--out", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert obj["format"] == "cdslab-sweep"
    assert len(obj["results"]) == 16


def test_sweep_size_guard(capsys):
    for nx, ny in ((3, 2), (0, 0)):   # no function has zero input bits
        assert main(["sweep", "--nx", str(nx), "--ny", str(ny)]) == 2
        assert capsys.readouterr().err.startswith("usage error: ")


def test_table_function_chain(tmp_path):
    desc = tmp_path / "d.json"
    rep = tmp_path / "r.json"
    # 1:1:6 packs the truth table of xor
    assert main(["build", "--chain", "gh,cds,cdqs", "--table", "1:1:6",
                 "--out", str(desc)]) == 0
    assert main(["verify", str(desc), "--out", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["status"] == "pass"
    assert report["report"]["worst_infidelity"] <= 1e-9


def test_verify_csv_format(tmp_path):
    desc = tmp_path / "d.json"
    rep = tmp_path / "r.csv"
    assert main(["build", "--chain", "gh,cds", "--fn", "xor",
                 "--out", str(desc)]) == 0
    assert main(["verify", str(desc), "--format", "csv",
                 "--out", str(rep)]) == 0
    lines = rep.read_text().strip().split("\n")
    assert lines[0] == "key,value"
    assert any(line.startswith("status,") for line in lines)


def test_verify_csv_rows_have_two_fields(tmp_path):
    # per-input keys such as "report.per_input.0,0.fidelity" hold a comma
    desc = tmp_path / "d.json"
    rep = tmp_path / "r.csv"
    assert main(["build", "--chain", "gh,frouting", "--fn", "and",
                 "--out", str(desc)]) == 0
    assert main(["verify", str(desc), "--format", "csv",
                 "--out", str(rep)]) == 0
    with open(rep, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["key", "value"]
    assert any(row[0].startswith("report.per_input.0,0.") for row in rows)
    assert all(len(row) == 2 for row in rows)


_LEAVES = (st.none() | st.booleans() | st.sampled_from([1e-16, math.inf, -math.inf, math.nan])
           | st.floats() | st.integers() | st.integers(1 << 250, 1 << 300).map(lambda n: -n)
           | st.integers(1 << 250, 1 << 300) | st.text())
# each dict's keys inserted in descending order, so the encoder orders them
_REPORTS = st.dictionaries(st.text(), st.recursive(_LEAVES, lambda inner: st.lists(
    inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4).map(
    lambda d: dict(sorted(d.items(), reverse=True))), max_leaves=30)).map(
    lambda d: dict(sorted(d.items(), reverse=True)))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example({"z": {}, "é\"\n\\": [], "a": [1 << 300, 1e-16, math.nan, True, None]})
@example({"rows": list(range(5000)), "per_input": {f"{i},0": {"f": 1} for i in range(900)}})
@given(_REPORTS)
def test_emit_writes_what_the_whole_text_would_be(tmp_path_factory, capsys, obj):
    # the chunked writer against the whole text it replaces: json.dumps with
    # sorted keys and an indent, and csv.writer of the flattened rows, each of
    # the object with its ints past 256 bits written as counts
    want = copy.deepcopy(obj)
    _counts(want)
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(("key", "value"))
    writer.writerows((k, f"{v}") for k, v in _flatten(want, ""))
    path = tmp_path_factory.getbasetemp() / "emitted"
    for fmt, text in (("json", json.dumps(want, sort_keys=True, indent=2) + "\n"),
                      ("csv", table.getvalue())):
        _emit(copy.deepcopy(obj), str(path), fmt)
        with open(path, newline="") as fh:
            assert fh.read() == text, fmt
        capsys.readouterr()
        _emit(copy.deepcopy(obj), None, fmt)
        assert capsys.readouterr().out == text, fmt


def test_stdout_output(capsys):
    assert main(["sweep", "--nx", "1", "--ny", "0"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("index,table,pipes,method")


@pytest.mark.parametrize("chain,fn,extra", [
    ("gh,cds", "and", []),
    ("gh,frouting", "xor", []),
    ("gh,frouting,cdqs", "and", []),
    ("span,cds", "or", ["--p", "3"]),
    ("psm,cds", "index", []),
    ("psm,psqm", "and", []),
    ("psm,psqm,cdqs,frouting", "and", []),
    ("dre,psm,psqm,cdqs,frouting", "qr", ["--p", "5"]),
])
def test_every_listed_edge_passes(tmp_path, chain, fn, extra):
    desc = tmp_path / "d.json"
    rep = tmp_path / "r.json"
    assert main(["build", "--chain", chain, "--fn", fn, *extra,
                 "--out", str(desc)]) == 0
    assert main(["verify", str(desc), "--out", str(rep)]) == 0
    assert json.loads(rep.read_text())["status"] == "pass"


def test_cds_cdqs_frouting_chain(tmp_path):
    desc = tmp_path / "d.json"
    rep = tmp_path / "r.json"
    assert main(["build", "--chain", "gh,cds,cdqs,frouting", "--fn", "and",
                 "--out", str(desc)]) == 0
    assert main(["verify", str(desc), "--out", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["status"] == "pass"
    assert report["kind"] == "frouting"


_CLASSICAL_RUN = """
import sys
from cdslab.cli import main
chains = [("gh,cds", "--fn", "and"), ("span,cds", "--fn", "eq"),
          ("dre,psm,cds", "--fn", "qr", "--p", "5"), ("gh,cds", "--table", "1:1:8")]
codes = []
for i, chain in enumerate(chains):
    codes.append(main(["build", "--chain", *chain, "--out", f"{i}.json"]))
    codes.append(main(["verify", f"{i}.json", "--out", f"{i}.rep.json"]))
codes.append(main(["sweep", "--nx", "1", "--ny", "1", "--out", "sweep.csv"]))
print(codes, sorted(m for m in ("dataclasses", "inspect", "numpy", "cdslab.nlqc",
                                "cdslab.quantum") if m in sys.modules))
"""


_LOADS = """
import json, sys
from cdslab.cli import main
code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("cdslab")
                                or m in ("csv", "decimal", "fractions", "numbers")),
                  sorted(m for m in ("argparse", "gettext", "locale") if m in sys.modules)]))
"""
# what every request loads: the package, the CLI's argv reader, what its
# commands share and the modules those import
_START = {"cdslab", "cdslab.boolfn", "cdslab.cli", "cdslab.clicore", "cdslab.errors"}
# and each command's own module: build and sweep share one, verify has its own
_BUILD, _VERIFY = _START | {"cdslab.clibuild"}, _START | {"cdslab.cliverify"}
# and what a classical verify adds: the protocols, the echelon form their
# cosets are reduced by and their verifiers, whose exact figures are integer
# numerators over one denominator, so no fractions, decimal or numbers
_CLASSICAL = _VERIFY | {"cdslab.protocols", "cdslab.zp", "cdslab.verifiers"}


@cache
def _bare_modules() -> frozenset:
    """The modules a bare interpreter, ``python -c pass``, holds."""
    run = subprocess.run([sys.executable, "-c", "import sys; print(*sys.modules)"],
                         env=_child_env(), capture_output=True, text=True, check=True)
    return frozenset(run.stdout.split())


def _stages(cwd, argv) -> list:
    """The stages of the chain a build or verify request names; a sweep's none."""
    if argv[0] == "build":
        return argv[argv.index("--chain") + 1].split(",")
    if argv[0] == "verify":
        return json.loads((Path(cwd) / argv[1]).read_text())["chain"]
    return []


def _loaded_by(cwd, argv) -> tuple:
    """(exit code, the ``cdslab`` modules and those of ``csv``, ``decimal``,
    ``fractions`` and ``numbers`` loaded, and those of ``argparse``,
    ``gettext`` and ``locale`` that a bare interpreter does not hold) of a
    fresh child that runs ``main(argv)`` in ``cwd``; no request loads
    ``toolkit``, the code only demos and tests call, a verify loads no build
    or sweep module and a build or sweep no verify module, and a request
    without a span stage loads no span compiler."""
    run = subprocess.run([sys.executable, "-c", _LOADS, json.dumps(argv)], cwd=cwd,
                         env=_child_env(), capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    code, loaded, parsing = json.loads(run.stdout)
    assert "cdslab.toolkit" not in loaded, argv
    if argv[0] == "verify":
        assert "cdslab.clibuild" not in loaded, argv
    else:
        assert "cdslab.cliverify" not in loaded, argv
    if "span" not in _stages(cwd, argv):
        assert "cdslab.spancds" not in loaded, argv
    return code, set(loaded), set(parsing) - _bare_modules()


def test_classical_chain_never_imports_numpy(tmp_path):
    # quantum stages load nlqc, and with it numpy, only when a chain has one;
    # records are plain classes, so nothing loads dataclasses or inspect
    env = _child_env()
    out = subprocess.run([sys.executable, "-c", _CLASSICAL_RUN], cwd=tmp_path,
                         env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[0, 0, 0, 0, 0, 0, 0, 0, 0] []"
    # a request loads only the modules its stages run: no gardenhose without
    # a gh stage and no search for an embedded strategy, no algebra without a
    # span stage, no function families for a table, no compiler but a base's
    # (a span base's algebra reads the echelon form in zp; the gh, dre and
    # psm bases' edges are in bases, the span base's in spancds), no verifier
    # in a build, and sweep loads no protocol, algebra or families; no
    # request loads fractions; a dre build makes no encoding, so a psm base's
    # is the one build that loads protocols
    for argv, loaded in ((["verify", "0.json"],
                          _CLASSICAL | {"cdslab.gardenhose", "cdslab.bases"}),
                         (["verify", "1.json"], _CLASSICAL | {"cdslab.algebra", "cdslab.spancds"}),
                         (["verify", "2.json"], _CLASSICAL | {"cdslab.families", "cdslab.bases"}),
                         (["verify", "2.json", "--format", "csv"],
                          _CLASSICAL | {"cdslab.families", "cdslab.bases", "csv"}),
                         (["verify", "3.json"],
                          _CLASSICAL | {"cdslab.gardenhose", "cdslab.bases"}),
                         (["build", "--chain", "span,cds", "--fn", "eq"],
                          _BUILD | {"cdslab.families", "cdslab.algebra", "cdslab.zp"}),
                         (["build", "--chain", "gh,cds", "--table", "1:1:8"],
                          _BUILD | {"cdslab.gardenhose", "cdslab.ghsearch"}),
                         (["build", "--chain", "dre,psm,cds", "--fn", "qr", "--p", "5"],
                          _BUILD | {"cdslab.families"}),
                         (["build", "--chain", "psm,cds", "--table", "1:1:8"],
                          _BUILD | {"cdslab.bases", "cdslab.protocols", "cdslab.zp"}),
                         (["sweep", "--nx", "1", "--ny", "1"],
                          _BUILD | {"cdslab.gardenhose", "cdslab.ghsearch"})):
        assert _loaded_by(tmp_path, argv + ["--out", "loads.out"]) == (0, loaded, set()), argv


_QUANTUM_RUN = """
import json, sys
from cdslab.cli import main

def loaded():
    return sorted(m for m in ("dataclasses", "inspect", "numpy", "cdslab.quantum")
                  if m in sys.modules)

chains = [("gh,frouting", "--fn", "and"), ("gh,frouting,cdqs", "--fn", "eq"),
          ("dre,psm,psqm,cdqs", "--fn", "qr", "--p", "5"),
          ("dre,psm,cds,cdqs", "--fn", "qr", "--p", "5"),
          ("dre,psm,psqm,cdqs,frouting", "--fn", "qr", "--p", "5")]
built = [main(["build", "--chain", *c, "--out", f"{i}.json"]) for i, c in enumerate(chains)]
built.append(main(["build", "--chain", "dre,psm,psqm", "--fn", "qr", "--p", "5",
                   "--out", "stop.json"]))
after_build = loaded()
desc = json.load(open("0.json"))
desc["chain"] = ["gh", "frouting", "cdqs", "frouting"]
json.dump(desc, open("bad.json", "w"))
refused = [main(["verify", "bad.json", "--out", "bad.rep.json"]),
           main(["verify", "stop.json", "--budget", "50", "--out", "stop.rep.json"])]
after_refusal = loaded()
verified = [main(["verify", f"{i}.json", "--out", f"{i}.rep.json"])
            for i in range(len(chains))]
print(json.dumps([built, after_build, refused, after_refusal, verified, loaded()]))
"""


def test_quantum_chains_compile_without_numpy(tmp_path):
    # every quantum compile edge builds from classical data, and a run moves
    # Pauli frames, so neither compiling nor verifying a garden-hose route or
    # a pad-and-disclose CDQS or PSQM loads numpy, or the inspect it loads, or
    # the dense statevector; nothing loads dataclasses
    run = subprocess.run([sys.executable, "-c", _QUANTUM_RUN], cwd=tmp_path,
                         env=_child_env(), capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    built, after_build, refused, after_refusal, verified, after_runs = json.loads(run.stdout)
    assert (built, after_build) == ([0, 0, 0, 0, 0, 0], [])
    assert (refused, after_refusal) == ([1, 3], [])
    rejected = json.loads((tmp_path / "bad.rep.json").read_text())
    assert rejected["error"].startswith("descriptor rejected")
    stop = json.loads((tmp_path / "stop.rep.json").read_text())
    # 4 inputs x 4 values of r x 3 coordinates, then the one layout's 2 x 3
    # maps, charged before the first run makes a coset key
    assert (stop["space"], stop["size"]) == ("psqm_from_psm message coordinates", 54)
    assert verified == [0, 0, 0, 0, 0]
    for i in range(5):
        assert json.loads((tmp_path / f"{i}.rep.json").read_text())["status"] == "pass"
    assert after_runs == []
    # a garden-hose route loads no protocols, pad routes or algebra, and
    # with an embedded strategy no search; a pad route no algebra, a qr
    # chain no gardenhose (a pad CDQS states its exits without the
    # garden-hose sides), and a build only its base's modules: no compiler
    # past the base, verifier or frame kernel; a PSQM carries no qubit, so
    # its verify, the classical sweep, loads the classical verifiers and no
    # frame kernel, and like every request no fractions; a pad route's
    # f-routing verify names its sides without loading gardenhose
    routing = _VERIFY | {"cdslab.gardenhose", "cdslab.nlqc"}
    pads = _VERIFY | {"cdslab.families", "cdslab.bases", "cdslab.protocols", "cdslab.zp",
                      "cdslab.nlqc", "cdslab.padroutes"}
    checked = {"cdslab.qverifiers", "cdslab.frames"}
    searched = _BUILD | {"cdslab.families", "cdslab.gardenhose", "cdslab.ghsearch"}
    for argv, loaded in ((["build", "--chain", "gh,frouting", "--fn", "and"], searched),
                         (["build", "--chain", "gh,cds,cdqs,frouting", "--fn", "and"], searched),
                         (["verify", "0.json"], routing | checked),
                         (["verify", "1.json"], routing | checked),
                         (["build", "--chain", "dre,psm,cds,cdqs", "--fn", "qr", "--p", "5"],
                          _BUILD | {"cdslab.families"}),
                         (["verify", "2.json"], pads | checked),   # dre,psm,psqm,cdqs
                         (["verify", "3.json"], pads | checked),   # dre,psm,cds,cdqs
                         (["verify", "4.json"], pads | checked),   # ...,psqm,cdqs,frouting
                         (["verify", "stop.json"],
                          pads | {"cdslab.qverifiers", "cdslab.verifiers"})):
        assert _loaded_by(tmp_path, argv + ["--out", "loads.out"]) == (0, loaded, set()), argv


_LEFT_SIDE_RUN = """
import json, sys
from cdslab.cli import main

chains = [("gh,cds,cdqs,frouting", "--fn", "and"),
          ("dre,psm,cds,cdqs,frouting", "--fn", "qr", "--p", "5")]
codes = []
for i, chain in enumerate(chains):
    codes.append(main(["build", "--chain", *chain, "--out", f"{i}.json"]))
    codes.append(main(["verify", f"{i}.json", "--out", f"{i}.rep.json"]))
print(json.dumps([codes, sorted(m for m in ("inspect", "numpy") if m in sys.modules)]))
"""


def test_pad_routes_left_side_loads_no_numpy(tmp_path):
    # a pad route's left side reconstructs the qubit by local decoding; its
    # exact worst fidelity comes from four fixed inputs, so neither building
    # nor verifying it loads numpy, or the inspect numpy loads
    run = subprocess.run([sys.executable, "-c", _LEFT_SIDE_RUN], cwd=tmp_path,
                         env=_child_env(), capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    codes, loaded = json.loads(run.stdout)
    assert (codes, loaded) == ([0, 0, 0, 0], [])
    for i in range(2):
        report = json.loads((tmp_path / f"{i}.rep.json").read_text())
        assert report["status"] == "pass"
        assert any(info["side"] == "left" for info in report["report"]["per_input"].values())


def test_a_budget_count_too_long_to_print_is_reported_by_its_bit_length(capsys):
    # 2^14 Alice inputs make 2^16384 candidate strategies at m=2, 4,933 digits,
    # past the 4,300 Python formats: the stop is still exit 3 with its fields
    assert main(["build", "--chain", "gh", "--table", "14:0:" + "0" * 4096]) == 3
    fields = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert fields == {"status": "budget", "space": "gh_search candidate strategies at m=2",
                      "size": "at least 2^16384", "limit": 1 << 24}


def test_an_oversized_one_time_table_is_refused_before_its_count_is_formed(capsys):
    # (2^20)! alone takes seconds to form: the charge reads the count's size
    # off lgamma, and 2^20507331 is the power of two the exact count reaches
    start = time.perf_counter()
    assert main(["build", "--chain", "psm", "--table", "0:20:0"]) == 3
    assert time.perf_counter() - start < 2
    fields = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert fields == {"status": "budget", "space": "psm_generic_table randomness states",
                      "size": "at least 2^20507331", "limit": 1 << 24}


def test_a_small_one_time_table_is_charged_its_exact_count(capsys):
    assert main(["build", "--chain", "psm", "--table", "0:4:0"]) == 3
    message, fields = capsys.readouterr().err.strip().splitlines()
    total = math.factorial(16) * 2 ** 16
    assert message == ("budget exceeded: psm_generic_table randomness states: "
                       f"{total} exceed budget {1 << 24}")
    assert json.loads(fields) == {"status": "budget", "size": total, "limit": 1 << 24,
                                  "space": "psm_generic_table randomness states"}


def test_dre_qr17_verifies_within_the_default_budget(tmp_path):
    desc = tmp_path / "d.json"
    rep = tmp_path / "r.json"
    assert main(["build", "--chain", "dre", "--fn", "qr", "--p", "17",
                 "--out", str(desc)]) == 0
    assert main(["verify", str(desc), "--out", str(rep)]) == 0
    report = json.loads(rep.read_text())["report"]
    assert report["perfect"] is True
    assert report["resources"]["randomness_states"] == 16 * 17 ** 4


@pytest.mark.parametrize("chain,fn", [("gh,frouting,cdqs", "eq"), ("gh,frouting", "ip")])
def test_generic_two_bit_routes_verify(tmp_path, chain, fn):
    # no 3-pipe strategy exists, so these route through gh_generic's 8 pipes
    desc = tmp_path / "d.json"
    rep = tmp_path / "r.json"
    assert main(["build", "--chain", chain, "--fn", fn, "--nx", "2",
                 "--max-pipes", "3", "--out", str(desc)]) == 0
    assert main(["verify", str(desc), "--out", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["status"] == "pass"
    assert report["report"]["resources"]["pipes"] == 8
    assert report["report"]["max_branches"] == 16


def _chains(stages: int) -> list:
    """Every chain of at most ``stages`` stages along the compile edges."""
    chains = []

    def extend(chain):
        chains.append(chain)
        if len(chain) < stages:
            for (a, b) in COMPILE:
                if a == chain[-1]:
                    extend(chain + (b,))

    for base in BASES:
        extend((base,))
    return [",".join(chain) for chain in chains]


_CHAIN_ARGS = {"gh": ["--fn", "and"], "span": ["--fn", "and"], "psm": ["--fn", "and"],
               "dre": ["--fn", "qr", "--p", "5"]}


@pytest.mark.parametrize("chain", _chains(6))
def test_every_compile_chain_builds(tmp_path, monkeypatch, chain):
    # a CDQS made from a router has no pad key to route by, which the CLI
    # states; every other path along the compile edges builds and verifies.
    # A build makes only the chain's base and its verify compiles each edge
    # once, so an edge that refused only when compiled would fail the verify
    compiled = []

    def counted(edge, compile_edge):
        def run(obj, f, opts):
            compiled.append(edge)
            return compile_edge(obj, f, opts)
        return run

    for edge, compile_edge in COMPILE.items():
        monkeypatch.setitem(COMPILE, edge, counted(edge, compile_edge))
    desc, rep = tmp_path / "d.json", tmp_path / "r.json"
    code = main(["build", "--chain", chain, *_CHAIN_ARGS[chain.split(",")[0]],
                 "--out", str(desc)])
    assert (code, compiled) == (2 if "frouting,cdqs,frouting" in chain else 0, [])
    if code == 0:
        assert main(["verify", str(desc), "--out", str(rep)]) == 0
        assert json.loads(rep.read_text())["status"] == "pass"
        assert len(compiled) == chain.count(",")


@pytest.mark.parametrize("chain", ["psm,psqm,cdqs", "psm,psqm,cdqs,frouting"])
def test_a_psqm_lift_of_a_constant_one_function_is_refused_at_build(capsys, chain):
    # cdqs_from_psqm masks a run with an input where f is 0; a build, which
    # compiles no edge, refuses a constant-1 function with that edge's message
    assert main(["build", "--chain", chain, "--table", "1:1:f"]) == 2
    assert capsys.readouterr().err == "usage error: no hiding input available to mask with\n"
    assert main(["build", "--chain", chain, "--table", "1:1:7"]) == 0


def test_a_dre_base_of_no_qr_function_is_refused(tmp_path, capsys):
    # the dre base encodes the request's own qr function: a build of another
    # function is a usage error, and a verify of a descriptor whose fn is no
    # qr function rejects it, both with the one message dre_qr refuses it by
    for argv in (["--chain", "dre", "--fn", "and"], ["--chain", "dre,psm", "--table", "1:1:8"]):
        assert main(["build", *argv]) == 2, argv
        assert capsys.readouterr().err == "usage error: the dre base needs --fn qr\n", argv
    golden = Path(__file__).parent / "golden"
    desc = json.loads((golden / "dre_qr7.desc.json").read_text())
    desc["fn"] = json.loads((golden / "gh_cds.desc.json").read_text())["fn"]
    path, rep = tmp_path / "d.json", tmp_path / "r.json"
    path.write_text(json.dumps(desc))
    assert main(["verify", str(path), "--out", str(rep)]) == 1
    report = json.loads(rep.read_text())
    assert (report["status"], report["error"]) == (
        "fail", "descriptor rejected: the dre base needs --fn qr")


@pytest.mark.parametrize("case,path,value,error", [
    pytest.param("gh_cds", ("version",), 2, "version: must be 1",
                 id="path0-2-version 2 is not 1"),
    pytest.param("gh_cds", ("version",), True, "version: must be 1",
                 id="path1-True-version True is not 1"),
    pytest.param("gh_cds", ("version",), 1.0, "version: must be 1",
                 id="path2-1.0-version 1.0 is not 1"),
    pytest.param("gh_cds", ("kind",), "psqm", "kind 'psqm' is not the chain's last stage",
                 id="path3-psqm-kind 'psqm' is not the chain's last stage"),
    pytest.param("gh_cds", ("artifacts", "gh_strategy", "alice", "0", "tap"), True,
                 "artifacts.gh_strategy.alice.0.tap: must be int",
                 id="path4-True-pipes are numbered by ints, not True"),
    pytest.param("gh_cds", ("artifacts", "gh_strategy", "bob", "1", "match"), [[1, 3.0]],
                 "artifacts.gh_strategy.bob.1.match.0.1: must be int",
                 id="path5-value5-pipes are numbered by ints, not 3.0"),
    pytest.param("gh_cds", ("artifacts", "gh_strategy", "pipes"), True,
                 "artifacts.gh_strategy.pipes: must be int",
                 id="path6-True-pipes are numbered by ints, not True"),
    ("gh_cds", ("fn", "n_x"), True, "fn.n_x: must be int"),
    ("gh_cds", ("fn", "n_x"), 1.0, "fn.n_x: must be int"),
    ("gh_cds", ("artifacts", "gh_strategy", "n_y"), "1", "artifacts.gh_strategy.n_y: must be int"),
    ("gh_cds", ("fn", "name"), 5, "fn.name: must be str"),
    ("dre_qr7", ("fn", "table"), "0x97", "fn.table: must match [0-9a-f]+"),
    ("dre_qr7", ("fn", "table"), "9_7", "fn.table: must match [0-9a-f]+"),
    ("dre_qr7", ("options", "p"), "x", "options.p: must be int"),
    ("dre_qr7", ("options", "max_pipes"), "4", "options.max_pipes: must be int"),
    ("dre_qr7", ("fn", "params", "p"), 7.0, "fn.params.p: must be int"),
    ("dre_qr7", ("fn", "params", "n_bits"), "3", "fn.params.n_bits: must be int"),
    ("span", ("artifacts", "span_program", "p"), "3", "artifacts.span_program.p: must be int"),
    ("span", ("artifacts", "span_program", "p"), True, "artifacts.span_program.p: must be int"),
    ("span", ("options", "variant"), "bogus", "options.variant: must be 'comm' or 'rand'"),
    ("psm_cds_index", ("fn", "params", "n_x"), "1", "fn.params.n_x: must be int")])
def test_a_field_no_build_writes_is_a_rejected_descriptor(tmp_path, case, path, value, error):
    # JSON's true and 1.0 equal 1 and "1" reads as 1, so a width, pipe or
    # option of either would pass for 1; a table of another spelling would
    # name another function; and a kind other than the chain's last stage is
    # no report's
    desc = json.loads((Path(__file__).parent / "golden" / f"{case}.desc.json").read_text())
    assert _rejected(tmp_path, _edited(desc, path, value)) == f"descriptor rejected: {error}"


def test_qr11_pad_route_builds(tmp_path):
    # the build makes only the qr table; its verify's cdqs_from_cds sizes
    # the key's randomness, 26,620^2 states, without building it
    assert main(["build", "--chain", "dre,psm,cds,cdqs", "--fn", "qr", "--p", "11",
                 "--out", str(tmp_path / "d.json")]) == 0


_SPAN_IP = """
import json, resource, sys
from cdslab.cli import main
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
common = ["--fn", "ip", "--nx", "2", "--p", "3"]
codes = [main(["build", "--chain", "span,cds", *common, "--out", "a.json"]),
         main(["verify", "a.json", "--out", "a.rep.json"]),
         main(["build", "--chain", "span,cds,cdqs", *common, "--out", "b.json"]),
         main(["verify", "b.json", "--out", "b.rep.json"])]
print(json.dumps(codes))
"""


def test_span_ip_spaces_are_lazy(tmp_path):
    # 3^19 shared vectors: the classical chain and the key sweep of the
    # quantum one both run by coset, so both pass within 1 GiB
    env = _child_env()
    run = subprocess.run([sys.executable, "-c", _SPAN_IP], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [0, 0, 0, 0]
    assert json.loads((tmp_path / "a.rep.json").read_text())["status"] == "pass"
    assert json.loads((tmp_path / "b.rep.json").read_text())["status"] == "pass"


_LIMITED_MAIN = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from cdslab.cli import main
sys.exit(main(sys.argv[1:]))
"""
# the 24-bit qr runs hold their 2^24-entry table as one 16 MiB bytes, so each
# runs in 256 MiB of address space, a quarter of what the others get
_LIMITED_MAIN_256M = _LIMITED_MAIN.replace("1 << 30", "1 << 28")


@pytest.mark.parametrize("chain,args,stop", [
    ("gh,cds", ["--fn", "ip", "--nx", "6", "--max-pipes", "1"], "verify_cds message coordinates"),
    ("dre,psm,cds", ["--fn", "qr", "--p", "1031"], "verify_cds message coordinates"),
    ("psm,psqm", ["--fn", "ip", "--nx", "3"], "psqm_from_psm message coordinates"),
    ("dre", ["--fn", "qr", "--p", "257"], None),
    ("dre", ["--fn", "qr", "--p", "1237"], "verify_dre message coordinates"),
    ("dre,psm", ["--fn", "qr", "--p", "1237"], "verify_psm message coordinates"),
    ("dre,psm,psqm", ["--fn", "qr", "--p", "1237"], "psqm_from_psm message coordinates"),
    ("dre,psm,cds,cdqs", ["--fn", "qr", "--p", "1031"], "cdqs_from_cds message coordinates"),
    ("span,cds", ["--fn", "index", "--nx", "3", "--p", "3"], "span program entries"),
    ("gh,cds", ["--fn", "ip", "--nx", "4", "--max-pipes", "1"], {
        "alice_message_alphabet": 2, "alice_message_bits": 1,
        "bob_message_alphabet": 251723776, "bob_message_bits": 24,
        "bound_randomness_equals_pipes": True, "pipes": 32, "randomness_bits": 32,
        "randomness_states": 4294967296}),
    ("dre", ["--fn", "qr", "--p", "8388617"], "verify_dre message coordinates"),
    ("dre,psm,cds,cdqs", ["--fn", "qr", "--p", "8388617"],
     ("cdqs_from_cds message coordinates", 4 * 8388616 ** 2)),
    ("dre,psm,psqm,cdqs", ["--fn", "qr", "--p", "8388617"],
     ("psqm_from_psm message coordinates", 8388616 ** 2)),
])
def test_hostile_chains_build_and_stop_on_budget(tmp_path, chain, args, stop):
    # ip6's 128 pipes, every one a rho coordinate under one nu: each layout's
    # 128 map rows, about 12,400 coordinates, are charged as met, and the
    # budget ends the sweep some 1,290 layouts in. 10,321,920 one-time
    # tables, counted per input before one is listed; lazy spaces past 2^63,
    # and qr coset keys that would not fit in 1 GiB: 1236^2 * 11 =
    # 16,804,656 coordinates at p=1237 for the DRE, its PSM and PSQM, and
    # 4 * 1030^2 * 11 = 46,679,600 at p=1031 for the CDS routes, which sweep
    # both secrets and selectors; each build sizes its spaces without
    # listing them, and each verify ends on a budget before it sweeps them.
    # index3's span program, 11,264 rows by 10,241 columns, is charged
    # before it is built. A dict is a passing verify's resources: ip4's 32
    # pipes, one coset per case, pass within the default budget. The 24-bit
    # qr build holds its 2^24-entry table (the default budget) once, a
    # residue table of p entries, and its p - 1 domain pairs unlisted; its
    # verify charges those pairs' (case, nu) pairs before it lists one. Its
    # pad routes build without listing the domain (the constant-f test and
    # the hiding input stop at once), and their verifies stop on the
    # kernel's (case, nu) pairs, both secrets and selectors for the CDS
    env = _child_env()
    script = _LIMITED_MAIN_256M if "8388617" in args else _LIMITED_MAIN
    build_stop = stop == "span program entries"   # the build, not the verify, stops
    passes = isinstance(stop, dict)
    commands = [(["build", "--chain", chain, *args, "--out", "d.json"], 3 if build_stop else 0)]
    if stop is not None and not build_stop:
        commands.append((["verify", "d.json", "--out", "r.json"], 0 if passes else 3))
    for argv, code in commands:
        run = subprocess.run([sys.executable, "-c", script, *argv], cwd=tmp_path,
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == code, (argv, run.returncode, run.stderr)
        for word in ("MemoryError", "OverflowError", "Traceback"):
            assert word not in run.stderr, (argv, run.stderr)
    if build_stop:
        fields = json.loads(run.stderr.splitlines()[-1])
        assert (fields["status"], fields["space"]) == ("budget", stop)
    elif passes:
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["status"] == "pass" and report["report"]["perfect"] is True
        assert report["report"]["resources"] == stop
    elif stop is not None:
        report = json.loads((tmp_path / "r.json").read_text())
        space, size = stop if isinstance(stop, tuple) else (stop, report["size"])
        assert (report["status"], report["space"], report["size"]) == ("budget", space, size)


def test_a_wide_garden_hose_route_and_its_report_fit_in_128_mib(tmp_path):
    # ip8's generic strategy, 65,536 inputs: the route keeps each input's
    # traced water path and no plan, and the 7.6 MB report is encoded in chunks
    # straight to its file, so the verify peaks near 70 MiB; a plan per input
    # and the indented report held as one string do not fit in 128 MiB
    script = _LIMITED_MAIN.replace("1 << 30", "1 << 27")
    for argv in (["build", "--chain", "gh,frouting", "--fn", "ip", "--nx", "8",
                  "--max-pipes", "1", "--out", "d.json"], ["verify", "d.json", "--out", "r.json"]):
        run = subprocess.run([sys.executable, "-c", script, *argv], cwd=tmp_path,
                             env=_child_env(), capture_output=True, text=True, timeout=300)
        assert (run.returncode, run.stderr) == (0, ""), argv
    report = json.loads((tmp_path / "r.json").read_text())
    assert (report["status"], report["report"]["witnesses"]) == ("pass", {})
    assert len(report["report"]["per_input"]) == 1 << 16


def test_sixteen_pipe_gh_cds_passes_by_coset(tmp_path):
    # gh_generic's 16 pipes for ip3, all rho under one nu: one coset for
    # each of 128 cases. It passes within the default budget and 1 GiB,
    # with the figures the 2^16-state enumeration gave
    env = _child_env()
    for argv in (["build", "--chain", "gh,cds", "--fn", "ip", "--nx", "3", "--max-pipes", "1",
                  "--out", "d.json"], ["verify", "d.json", "--out", "r.json"]):
        run = subprocess.run([sys.executable, "-c", _LIMITED_MAIN, *argv], cwd=tmp_path,
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, (argv, run.returncode, run.stderr)
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["status"] == "pass" and report["report"]["perfect"] is True
    assert report["report"]["resources"] == {
        "alice_message_alphabet": 2, "alice_message_bits": 1,
        "bob_message_alphabet": 28928, "bob_message_bits": 12,
        "bound_randomness_equals_pipes": True, "pipes": 16, "randomness_bits": 16,
        "randomness_states": 65536}


def _qr_runs(p: int) -> int:
    """Randomness states of qr's PSM at p: (p - 1) p^(n - 1), n the bits of p.

    A run of the PSM alone has half as many distinct transcripts, since r
    and -r encode alike.
    """
    return (p - 1) * p ** (p.bit_length() - 1)


@pytest.mark.parametrize("chain,args,branches", [
    ("dre,psm,cds,cdqs", ["--fn", "qr", "--p", "17"], (2 * _qr_runs(17)) ** 2),
    ("dre,psm,cds,cdqs", ["--fn", "qr", "--p", "19"], (2 * _qr_runs(19)) ** 2),
    ("dre,psm,psqm,cdqs", ["--fn", "qr", "--p", "17"], _qr_runs(17) ** 2),
    ("dre,psm,psqm,cdqs", ["--fn", "qr", "--p", "19"], _qr_runs(19) ** 2),
    ("dre,psm,psqm", ["--fn", "qr", "--p", "31"], _qr_runs(31) // 2),   # r, -r alike
    ("span,cds,cdqs", ["--fn", "ip", "--nx", "2", "--p", "3"], (2 * 3 ** 17) ** 2),
    ("span,cds,cdqs", ["--fn", "ip", "--nx", "2", "--p", "5"], (2 * 5 ** 17) ** 2),
])
def test_pad_routes_pass_by_coset(tmp_path, chain, args, branches):
    # each run's classes form by coset, so these pass within the default
    # budget and 1 GiB; per-input branch counts are exact ints past 2^53
    env = _child_env()
    for argv in (["build", "--chain", chain, *args, "--out", "d.json"],
                 ["verify", "d.json", "--out", "r.json"]):
        run = subprocess.run([sys.executable, "-c", _LIMITED_MAIN, *argv], cwd=tmp_path,
                             env=env, capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, (argv, run.returncode, run.stderr)
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["status"] == "pass"
    assert report["report"]["max_branches"] == branches
    counts = [info["branches"] for info in report["report"]["per_input"].values()]
    assert all(type(n) is int for n in counts) and max(counts) == branches


@pytest.mark.parametrize("argv", [
    ["build", "--chain", "gh,cds", "--fn", "and", "--nx", "20"],
    ["build", "--chain", "psm", "--fn", "eq", "--nx", "14"],
    ["build", "--chain", "gh,cds", "--table", "20:20:1"],
    ["verify", "wide.json", "--out", "r.json"],
])
def test_truth_tables_are_charged_before_they_are_built(tmp_path, argv):
    # 2^40 and 2^28 entries: each stops on the budget before any table exists
    # (unlimited, the first runs for minutes and the others die of MemoryError)
    if argv[0] == "verify":   # a gh,cds descriptor whose fn claims 20+20 input bits
        assert main(["build", "--chain", "gh,cds", "--fn", "and",
                     "--out", str(tmp_path / "wide.json")]) == 0
        desc = json.loads((tmp_path / "wide.json").read_text())
        desc["fn"].update(n_x=20, n_y=20)
        (tmp_path / "wide.json").write_text(json.dumps(desc))
    run = subprocess.run([sys.executable, "-c", _LIMITED_MAIN, *argv], cwd=tmp_path,
                         env=_child_env(), capture_output=True, text=True, timeout=300)
    assert run.returncode == 3, (argv, run.stderr)
    for word in ("MemoryError", "Traceback"):
        assert word not in run.stderr, (argv, run.stderr)
    if argv[0] == "verify":
        report = json.loads((tmp_path / "r.json").read_text())
        assert (report["status"], report["space"], report["size"]) == (
            "budget", "truth table entries", 1 << 40)


def _budget_report(tmp_path, build_args, verify_args=()):
    desc = tmp_path / "d.json"
    rep = tmp_path / "r.json"
    assert main(["build", *build_args, "--out", str(desc)]) == 0
    assert main(["verify", str(desc), *verify_args, "--out", str(rep)]) == 3
    report = json.loads(rep.read_text())
    assert report["status"] == "budget"
    return report["space"], report["size"], report["limit"]


def test_verify_reports_a_branch_budget_stop(tmp_path):
    # the budget counts class branches, four Pauli frames per input however
    # many hops (the first input's two hops make 16 transcripts), so the second
    # input passes a budget of 4; at 3, and1's 4-entry truth table would stop first
    got = _budget_report(tmp_path, ["--chain", "gh,frouting", "--fn", "and"],
                         ["--budget", "4"])
    assert got == ("branches", 8, 4)


@pytest.mark.parametrize("chain,raw", [("dre,psm,cds,cdqs", 40_000),
                                       ("dre,psm,psqm,cdqs", 10_000)])
def test_branch_budget_charges_class_branches(tmp_path, chain, raw):
    # qr p=5: each input's run walks a few class branches that stand for
    # ``raw`` transcripts; charged raw, a budget of 2,000 stopped on the first
    desc = tmp_path / "d.json"
    rep = tmp_path / "r.json"
    assert main(["build", "--chain", chain, "--fn", "qr", "--p", "5",
                 "--out", str(desc)]) == 0
    assert main(["verify", str(desc), "--budget", "2000", "--out", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["status"] == "pass"
    assert report["report"]["max_branches"] == raw


_QR5 = ["--fn", "qr", "--p", "5"]
# (chain, space) -> (build arguments, --budget, the size the stop names), one
# chain per verifier kind. On qr p=5, (2 secrets * 4 inputs) * (4 values of
# r * 2 selectors) * 3 values of the CDS (the masked bit is in Alice's tag),
# or 4 inputs * 4 values of r * 3 values of the PSM and the DRE, charged
# before the first sweep, and then 2 * 3 coordinates of maps per layout the
# first nu meets, in one step: the CDS has two layouts, one per masked bit,
# the PSM one. A garden-hose route walks four class branches per input, and
# the running total passes the budget at the third input (and1) or the fourth
# (eq1). verify_psqm is the PSM's sweep under the name psqm_from_psm, so its
# stop is the PSM's.
_VERIFY_STOPS = {
    ("dre,psm,cds,cdqs", "cdqs_from_cds message coordinates"): (_QR5, 200, 8 * 8 * 3 + 2 * 6),
    ("dre,psm,psqm", "psqm_from_psm message coordinates"): (_QR5, 50, 4 * 4 * 3 + 6),
    ("dre,psm,cds", "verify_cds message coordinates"): (_QR5, 200, 8 * 8 * 3 + 2 * 6),
    ("dre,psm", "verify_psm message coordinates"): (_QR5, 50, 4 * 4 * 3 + 6),
    ("dre", "verify_dre message coordinates"): (_QR5, 50, 4 * 4 * 3 + 6),
    ("gh,frouting,cdqs", "branches"): (["--fn", "and"], 10, 3 * 4),
    ("gh,frouting", "branches"): (["--fn", "eq", "--nx", "1"], 12, 4 * 4),
}


@pytest.mark.parametrize("chain,space", list(_VERIFY_STOPS))
def test_verify_budget_reaches_the_quantum_sweeps(tmp_path, chain, space):
    # verify --budget is the limit of every verifier's charge
    args, budget, size = _VERIFY_STOPS[chain, space]
    got = _budget_report(tmp_path, ["--chain", chain, *args], ["--budget", str(budget)])
    assert got == (space, size, budget)


def test_verify_reports_an_evaluation_budget_stop(tmp_path):
    # 6 inputs x 6 values of r, each a pair of 3 coordinates, then the one
    # layout's maps, 2 rows of 3 coordinates
    got = _budget_report(tmp_path, ["--chain", "dre", "--fn", "qr", "--p", "7"],
                         ["--budget", "110"])
    assert got == ("verify_dre message coordinates", 6 * 6 * 3 + 2 * 3, 110)


def test_a_frame_route_holds_no_qubits_to_charge(tmp_path, monkeypatch):
    # a route's runs move one Pauli frame and build no dense state, so even a
    # 3-qubit cap, which stopped this verify on a 4-qubit factor, stops nothing
    from cdslab import quantum
    monkeypatch.setattr(quantum, "MAX_QUBITS", 3)
    desc, rep = tmp_path / "d.json", tmp_path / "r.json"
    for chain in ("gh,frouting", "gh,cds,cdqs,frouting"):
        assert main(["build", "--chain", chain, "--fn", "and", "--out", str(desc)]) == 0
        assert main(["verify", str(desc), "--out", str(rep)]) == 0
        report = json.loads(rep.read_text())["report"]
        assert (report["worst_infidelity"], report["witnesses"]) == (0.0, {})


@pytest.mark.parametrize("args,space", [
    (["build", "--chain", "gh", "--fn", "eq", "--nx", "2", "--max-pipes", "4",
      "--budget", "1000"], "gh_search candidate strategies at m=3"),
    (["sweep", "--nx", "1", "--ny", "1", "--budget", "1"],
     "gh_search candidate strategies at m=2"),
    (["build", "--chain", "psm,cds", "--fn", "ip", "--nx", "4"],
     "psm_generic_table randomness states"),
])
def test_build_and_sweep_print_budget_fields(capsys, args, space):
    assert main(args) == 3
    fields = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert fields["status"] == "budget"
    assert fields["space"] == space
    assert fields["size"] > fields["limit"]


def test_the_budget_ledger_nests_restores_and_is_no_parameter():
    import importlib
    import inspect
    import types

    from cdslab import errors

    assert errors.current_limit() == errors.DEFAULT_BUDGET
    with errors.budget(100):
        with errors.budget(5):
            assert errors.current_limit() == 5
        assert errors.current_limit() == 100
        with pytest.raises(errors.BudgetError) as exc, errors.budget(3):
            errors.charge(4, "things")
        assert (exc.value.limit, errors.current_limit()) == (3, 100)
    assert errors.current_limit() == errors.DEFAULT_BUDGET

    def budget_takers(module) -> list:
        takers = []
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            # a class takes its parameters through the methods it defines,
            # static and class methods unwrapped to the functions they hold
            members = list(vars(obj).values()) if inspect.isclass(obj) else [obj]
            takers += [f"{module.__name__}.{name}" for m in map(
                           lambda m: getattr(m, "__func__", m), members)
                       if inspect.isfunction(m) and "budget" in inspect.signature(m).parameters]
        return takers

    # the walk sees a budget on a function and on any kind of method
    planted = types.ModuleType("planted")
    exec("def plain(f, budget=1): pass\n"
         "class Loaded:\n"
         "    @classmethod\n"
         "    def from_jsonable(cls, data, budget=1): pass\n"
         "class Fixed:\n"
         "    @staticmethod\n"
         "    def build(budget): pass\n"
         "class Clean:\n"
         "    @classmethod\n"
         "    def from_jsonable(cls, data): pass\n", vars(planted))
    assert budget_takers(planted) == ["planted.plain", "planted.Loaded", "planted.Fixed"]
    # the ledger is the only budget: no function, class or method takes one
    takers = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "cdslab").glob("*.py")):
        takers += budget_takers(importlib.import_module(
            "cdslab" + ("" if path.stem == "__init__" else f".{path.stem}")))
    assert takers == []


def test_a_table_value_wider_than_its_widths_is_refused(tmp_path, capsys):
    # bits past 2^(nx+ny) would make the descriptor verify another function
    # than the one it records; a descriptor and --table are refused alike
    desc, rep = tmp_path / "d.json", tmp_path / "r.json"
    assert main(["build", "--chain", "gh,cds", "--fn", "and", "--out", str(desc)]) == 0
    obj = json.loads(desc.read_text())
    assert obj["fn"]["table"] == "8"
    obj["fn"]["table"] = "f8"
    desc.write_text(json.dumps(obj))
    assert main(["verify", str(desc), "--out", str(rep)]) == 1
    report = json.loads(rep.read_text())
    assert report["status"] == "fail"
    assert report["error"] == "descriptor rejected: table value wider than 2^(nx+ny) bits"
    for table, error in (("1:1:1f", "table value wider than 2^(nx+ny) bits"),
                         ("1:1:-8", "--table wants nx:ny:hex")):   # a sign is no hex digit
        capsys.readouterr()
        assert main(["build", "--chain", "gh,cds", "--table", table]) == 2
        assert capsys.readouterr().err == f"usage error: {error}\n"


def _wide_span_descriptor(tmp_path, width: int) -> Path:
    """A ``span,cds`` descriptor of and1 whose program's target is ``width`` wide.

    The two rows and the target gain zero columns, so the program still
    computes and1 and the descriptor reaches the verifier.
    """
    path = tmp_path / f"wide{width}.json"
    assert main(["build", "--chain", "span,cds", "--fn", "and", "--out", str(path)]) == 0
    desc = json.loads(path.read_text())
    program = desc["artifacts"]["span_program"]
    pad = [0] * (width - len(program["target"]))
    program["matrix"] = [row + pad for row in program["matrix"]]
    program["target"] = program["target"] + pad
    path.write_text(json.dumps(desc))
    return path


def test_a_wide_span_program_stops_on_its_randomness_coordinates(tmp_path):
    # 8 cases of at most 3 message values, then in one step the maps of the
    # four layouts the one nu meets, 20,000 rows as wide as their values: 1,
    # 2, 2 and 3 for the four inputs. The default budget admits all 160,024
    # coordinates; this one stops on them, before any echelon form, with a
    # report
    desc = _wide_span_descriptor(tmp_path, 20_000)
    run = subprocess.run([sys.executable, "-c", _LIMITED_MAIN, "verify", str(desc),
                          "--budget", "100000", "--out", "r.json"], cwd=tmp_path,
                         env=_child_env(), capture_output=True, text=True, timeout=300)
    assert run.returncode == 3, run.stderr
    assert "MemoryError" not in run.stderr and "Traceback" not in run.stderr
    report = json.loads((tmp_path / "r.json").read_text())
    assert (report["status"], report["space"], report["size"]) == (
        "budget", "verify_cds message coordinates", 8 * 3 + 20_000 * (1 + 2 + 2 + 3))


def test_a_descriptor_span_program_is_charged_before_it_is_echeloned(tmp_path, monkeypatch):
    # the 2-row, 20,000-wide program holds 40,000 entries: one budget short
    # of them stops before any echelon form, the next one checks the program
    from cdslab import algebra

    desc, rep = _wide_span_descriptor(tmp_path, 20_000), tmp_path / "r.json"
    calls, echelon = [], algebra.echelon
    monkeypatch.setattr(algebra, "echelon", lambda rows, p: calls.append(p) or echelon(rows, p))
    assert main(["verify", str(desc), "--budget", "39999", "--out", str(rep)]) == 3
    report = json.loads(rep.read_text())
    assert (report["space"], report["size"]) == ("span program entries", 40_000)
    assert calls == []
    assert main(["verify", str(desc), "--budget", "40000", "--out", str(rep)]) == 3
    assert json.loads(rep.read_text())["space"] == "verify_cds message coordinates"
    assert calls


@pytest.mark.parametrize("variant", ["comm", "rand"])
def test_a_wide_span_program_passes_with_a_report(tmp_path, variant):
    # the maps of a 20,000-wide and1 program cost 160,024 message
    # coordinates, so the default budget admits it, and no rho is built: it
    # verifies within 1 GiB. The comm variant's 2^20,000 randomness states,
    # 6,021 digits, are written as the power of two they reach
    desc = _wide_span_descriptor(tmp_path, 20_000)
    obj = json.loads(desc.read_text())
    obj["options"]["variant"] = variant
    desc.write_text(json.dumps(obj))
    run = subprocess.run([sys.executable, "-c", _LIMITED_MAIN, "verify", str(desc),
                          "--out", "r.json"], cwd=tmp_path, env=_child_env(),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["status"] == "pass" and report["report"]["perfect"] is True
    assert report["report"]["resources"]["randomness_states"] == {
        "comm": "at least 2^20000", "rand": 2}[variant]


def test_a_61_bit_field_builds_and_verifies(tmp_path):
    # primality is a Miller-Rabin test, exact below its bound: the Mersenne
    # prime 2^61 - 1 is decided at once, and a field past the bound is refused
    desc, rep = tmp_path / "d.json", tmp_path / "r.json"
    p = 2 ** 61 - 1
    assert main(["build", "--chain", "span,cds", "--fn", "eq", "--nx", "1", "--p", str(p),
                 "--out", str(desc)]) == 0
    assert main(["verify", str(desc), "--out", str(rep)]) == 0
    report = json.loads(rep.read_text())
    assert report["status"] == "pass" and report["report"]["resources"]["field"] == p
    tampered = json.loads(desc.read_text())
    tampered["artifacts"]["span_program"]["p"] = 2 ** 89 - 1
    desc.write_text(json.dumps(tampered))
    assert main(["verify", str(desc), "--out", str(rep)]) == 1
    assert json.loads(rep.read_text())["error"] == (
        "descriptor rejected: primality is decided only below 3317044064679887385961981")


def test_a_span_base_is_evaluated_once_per_input(tmp_path, monkeypatch):
    # a build trusts the program it made; a verify checks the descriptor's
    # on every input and names each one it gets wrong, and cds_from_span
    # does not evaluate it again
    from cdslab import algebra, clicore, spancds
    calls, sp_eval = [], algebra.sp_eval

    def counted(program, z):
        calls.append(z)
        return sp_eval(program, z)

    for module in (algebra, clicore, spancds):
        if hasattr(module, "sp_eval"):
            monkeypatch.setattr(module, "sp_eval", counted)
    desc, rep = tmp_path / "d.json", tmp_path / "r.json"
    assert main(["build", "--chain", "span,cds", "--fn", "ip", "--nx", "2", "--p", "3",
                 "--out", str(desc)]) == 0
    assert len(calls) == 0
    assert main(["verify", str(desc), "--out", str(rep)]) == 0
    assert len(calls) == 16
    # the and1 program checked against xor1 fails on three of four inputs
    assert main(["build", "--chain", "span,cds", "--fn", "and", "--out", str(desc)]) == 0
    xor = tmp_path / "x.json"
    assert main(["build", "--chain", "gh,cds", "--fn", "xor", "--out", str(xor)]) == 0
    tampered = json.loads(desc.read_text())
    tampered["fn"] = json.loads(xor.read_text())["fn"]
    desc.write_text(json.dumps(tampered))
    assert main(["verify", str(desc), "--out", str(rep)]) == 1
    report = json.loads(rep.read_text())
    assert report["error"] == "span program disagrees with the function"
    assert report["witness"] == {"inputs": [[0, 1], [1, 0], [1, 1]]}


def test_a_build_trusts_its_base_and_a_verify_checks_it(tmp_path, monkeypatch):
    # a build writes the base it made unchecked and compiles no edge: a
    # searched strategy checks itself and the qr table is made by the rule
    # qr_mismatches walks. A verify checks the base the descriptor states (an
    # embedded strategy, by the one trace cds_from_gh makes of it) and trusts
    # a strategy it searches, as a build does
    from cdslab import families, gardenhose, ghsearch
    calls = []

    def spy(name, *modules):
        real = getattr(modules[0], name)

        def counted(*args):
            calls.append(name)
            return real(*args)

        for module in modules:
            monkeypatch.setattr(module, name, counted)

    spy("qr_mismatches", families)
    spy("gh_trace", gardenhose, ghsearch)
    desc, rep = tmp_path / "d.json", tmp_path / "r.json"
    for argv, counts in ((["build", "--chain", "dre", "--fn", "qr", "--p", "7"], {}),
                         (["verify", str(desc)], {"qr_mismatches": 1}),
                         (["build", "--chain", "gh,cds", "--fn", "and"], {"gh_trace": 1}),
                         (["verify", str(desc)], {"gh_trace": 1})):
        calls.clear()
        assert main(argv + ["--out", str(desc if argv[0] == "build" else rep)]) == 0
        assert {name: calls.count(name) for name in set(calls)} == counts, argv
    # with no strategy embedded the verify re-searches it: the search's
    # self-check and cds_from_gh trace it, the CLI does not
    emptied = json.loads(desc.read_text())
    emptied["artifacts"] = {}
    desc.write_text(json.dumps(emptied))
    calls.clear()
    assert main(["verify", str(desc), "--out", str(rep)]) == 0
    assert calls == ["gh_trace", "gh_trace"]


@cache
def _built(chain: str, tmp: Path, fn: tuple = ("--fn", "and")) -> str:
    """The descriptor text ``build --chain chain *fn`` writes, built once."""
    path = tmp / f"{chain}.json"
    assert main(["build", "--chain", chain, *fn, "--out", str(path)]) == 0
    return path.read_text()


def _composes(tokens) -> bool:
    return (bool(tokens) and tokens[0] in BASES
            and all(edge in COMPILE for edge in zip(tokens, tokens[1:])))


def _hostile(recipe, tmp: Path) -> bytes:
    """The descriptor bytes a drawn ``recipe`` names; see ``HOSTILE``."""
    kind, *args = recipe
    if kind == "span":
        width, variant = args
        desc = json.loads(_wide_span_descriptor(tmp, width).read_text())
        desc["options"]["variant"] = variant
    elif kind == "pipes":
        chain, pipes = args   # the pipes past and1's three stay unconnected
        desc = json.loads(_built(chain, tmp))
        desc["artifacts"]["gh_strategy"]["pipes"] = pipes
    elif kind == "table":
        chain, table = args
        desc = json.loads(_built(chain, tmp))
        desc["fn"]["table"] = format(table, "x")
    elif kind == "qr":
        key, value = args
        desc = json.loads(_built("dre,psm,cds,cdqs", tmp, ("--fn", "qr", "--p", "5")))
        desc["fn"]["params"][key] = value
    elif kind == "field":
        desc = json.loads(_built("span,cds", tmp))
        desc["artifacts"]["span_program"]["p"] = args[0]
    elif kind == "chain":
        desc = json.loads(_built("gh,cds", tmp))
        desc["chain"] = args[0]
    elif kind == "truncated":
        text = _built("gh,cds", tmp)
        return text[:args[0] % (len(text) - 1)].encode()   # short of "}\n"
    else:
        return args[0]
    return json.dumps(desc).encode()


TOKENS = (*BASES, "cds", "cdqs", "frouting", "psqm", "nope")
# verify children that must each stop with a report: span targets whose
# maps, ell = width rows each, exceed a budget of the width (the default
# budget admits them, see test_a_wide_span_program_passes_with_a_report),
# garden-hose strategies of 22-30 pipes whose message coordinates exceed a
# budget of the pipe count (the default budget admits their cosets), truth
# tables wider than their widths or negative, a p = 5 qr descriptor's p or
# n_bits (3) set to any other value, span program fields p checked under a
# budget of 4, which admits and1's 4 program entries and stops its sweep's
# 8 cases, malformed JSON and bytes, and chains whose stages do not compose
HOSTILE = st.one_of(
    st.tuples(st.just("span"), st.integers(2_000, 50_000), st.sampled_from(["comm", "rand"])),
    st.tuples(st.just("pipes"), st.sampled_from(["gh,cds", "gh,cds,cdqs"]),
              st.integers(22, 30)),
    st.tuples(st.just("table"), st.sampled_from(["gh,cds", "span,cds", "gh,frouting"]),
              st.integers(1 << 4, 1 << 64) | st.integers(-(1 << 64), -1)),
    st.tuples(st.just("qr"), st.just("p"), st.integers(-(1 << 64), 1 << 64).filter(
        lambda p: p != 5)),
    st.tuples(st.just("qr"), st.just("n_bits"), st.integers(-(1 << 64), 1 << 64).filter(
        lambda n: n != 3)),
    st.tuples(st.just("field"), st.integers(-(1 << 64), 1 << 100)),
    st.tuples(st.just("chain"), st.lists(st.sampled_from(TOKENS), max_size=4).filter(
        lambda tokens: not _composes(tokens))),
    st.tuples(st.just("truncated"), st.integers(0, 1 << 16)),
    st.tuples(st.just("bytes"), st.binary(max_size=40)),
)


@settings(max_examples=20, deadline=None)
@example(("table", "gh,cds", 0xf8))
@example(("span", 20_000, "comm"))
@example(("qr", "p", 2 ** 31 - 1))
@example(("qr", "p", 10 ** 12 + 39))
@example(("qr", "p", 2 ** 64 - 59))   # a prime whose range(p) has no len
@example(("qr", "n_bits", 40))
@example(("qr", "n_bits", 24))
@example(("field", 2 ** 61 - 1))
@given(HOSTILE)
def test_hostile_descriptors_end_with_a_report(tmp_path_factory, recipe):
    # one `cdslab verify` child at a time, each setting its own 1 GiB address
    # limit: whatever the descriptor, it exits 1, 2 or 3 with a report, never
    # on a signal
    tmp = tmp_path_factory.getbasetemp() / "hostile"
    tmp.mkdir(exist_ok=True)
    desc, rep = tmp / "d.json", tmp / "r.json"
    desc.write_bytes(_hostile(recipe, tmp))
    rep.unlink(missing_ok=True)
    budget = {"span": ["--budget", str(recipe[1])],
              "pipes": ["--budget", str(recipe[-1])],
              "field": ["--budget", "4"]}.get(recipe[0], [])
    start = time.perf_counter()
    run = subprocess.run([sys.executable, "-c", _LIMITED_MAIN, "verify", str(desc),
                          *budget, "--out", str(rep)], env=_child_env(),
                         capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert run.returncode in (1, 2, 3), (recipe, run.returncode, run.stderr)
    assert "MemoryError" not in run.stderr and "Traceback" not in run.stderr, run.stderr
    report = json.loads(rep.read_text())
    assert report["status"] in ("fail", "budget")
    if recipe == ("qr", "n_bits", 24):
        # refused on its widths before a 2^24-entry table is built
        assert (run.returncode, report["error"]) == (
            1, "descriptor rejected: qr widths 1+23 differ from the function's 1+2")
        assert elapsed < 1, elapsed


# a JSON value of each type; a field is mutated to each one of another type
_JSON_VALUES = (None, True, 5, 1.5, "x", [1, 2], {"0": 1})


def _fields(obj, path=()):
    """(path, value) of every field of a JSON value, depth first."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _fields(value, path + (key,))


GOLDEN_DESCRIPTORS = sorted(path.name.split(".")[0] for path in
                            (Path(__file__).parent / "golden").glob("*.desc.json"))


def _edited(desc: dict, path: tuple, value) -> dict:
    """A copy of ``desc`` with the field at ``path`` set to ``value``."""
    edited = json.loads(json.dumps(desc))
    node = edited
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return edited


def _rejected(tmp_path, desc) -> str:
    """The error of a verify of ``desc``, which must exit 1 with a report."""
    file, rep = tmp_path / "d.json", tmp_path / "r.json"
    file.write_text(json.dumps(desc))
    rep.unlink(missing_ok=True)
    assert main(["verify", str(file), "--out", str(rep)]) == 1
    report = json.loads(rep.read_text())
    assert report["status"] == "fail"
    return report["error"]


@pytest.mark.parametrize("case", GOLDEN_DESCRIPTORS)
def test_a_field_of_another_json_type_ends_with_a_report(tmp_path, capsys, case):
    # every field of a golden descriptor, set to a value of each other JSON
    # type, and an unknown key put in each of its objects: the verify exits 1
    # with a report naming that field, before anything is charged or built
    golden = json.loads((Path(__file__).parent / "golden" / f"{case}.desc.json").read_text())
    for path, old in _fields(golden):
        for value in _JSON_VALUES:
            if type(value) is not type(old):
                assert _rejected(tmp_path, _edited(golden, path, value)).startswith(
                    f"descriptor rejected: {'.'.join(map(str, path))}: "), (path, value)
    for path in [()] + [path for path, old in _fields(golden) if isinstance(old, dict)]:
        where = ".".join(map(str, (*path, "unknown")))
        assert _rejected(tmp_path, _edited(golden, (*path, "unknown"), 0)) == (
            f"descriptor rejected: {where}: unknown field"), path
    capsys.readouterr()


_DENSE_LOADS = """
import json, sys
from cdslab.cli import main
code = main(["verify", sys.argv[1], "--out", "r.json"])
print(json.dumps([code, [m for m in ("cdslab.quantum", "cdslab.toolkit", "numpy")
                          if m in sys.modules]]))
"""
GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("case", [case for case in GOLDEN_DESCRIPTORS if {"cdqs", "frouting"} & set(
    json.loads((GOLDEN / f"{case}.desc.json").read_text())["chain"])])
def test_a_quantum_verify_loads_no_dense_statevector(tmp_path, case):
    # every CDQS and f-routing runs on Pauli frames, and a pad route's left
    # side is in closed form: no verify loads the dense statevector with its
    # eigen-solver, toolkit or numpy
    run = subprocess.run([sys.executable, "-c", _DENSE_LOADS, str(GOLDEN / f"{case}.desc.json")],
                         cwd=tmp_path, env=_child_env(), capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == [0, []]


def test_a_strategy_wider_than_its_inputs_is_rejected_within_a_gib(tmp_path):
    # the strategy's own n_x of 40 is read against its two inputs before any
    # range of 2^40 is made
    desc = tmp_path / "d.json"
    golden = json.loads((GOLDEN / "gh_cds.desc.json").read_text())
    desc.write_text(json.dumps(_edited(golden, ("artifacts", "gh_strategy", "n_x"), 40)))
    run = subprocess.run([sys.executable, "-c", _LIMITED_MAIN, "verify", str(desc),
                          "--out", "r.json"], cwd=tmp_path, env=_child_env(),
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stderr
    assert "Traceback" not in run.stderr
    report = json.loads((tmp_path / "r.json").read_text())
    assert report["error"] == "descriptor rejected: alice must cover every x"


@pytest.mark.parametrize("field", ["n_bits", "alice_positions"])
def test_a_qr_function_that_omits_a_param_is_rejected_by_name(tmp_path, field):
    golden = json.loads((GOLDEN / "dre_qr7.desc.json").read_text())
    del golden["fn"]["params"][field]
    assert _rejected(tmp_path, golden) == (
        f"descriptor rejected: fn.params: a qr function names {field}")


def test_a_strategy_input_key_past_19_digits_is_rejected_by_the_schema(tmp_path):
    # no input of a table has more than 19 digits, and 5,000 are past what
    # Python converts to an int; 19 digits pass the schema and name no input
    golden = json.loads((GOLDEN / "gh_cds.desc.json").read_text())
    alice = golden["artifacts"]["gh_strategy"]["alice"]
    for key, error in (("1" * 5000, f"artifacts.gh_strategy.alice.{'1' * 5000}: unknown field"),
                       ("9" * 19, "alice must cover every x")):
        edited = _edited(golden, ("artifacts", "gh_strategy", "alice", key), alice["0"])
        assert _rejected(tmp_path, edited) == f"descriptor rejected: {error}"
