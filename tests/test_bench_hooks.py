"""The names the benchmark's tracer hooks into still exist in ``cdslab``, and
the descriptors the benchmark writes are ones a verify takes.

``bench/tracer.py`` imports ``cdslab`` modules and classes and wraps methods
on them by name, in every traced child, and ``bench/workloads.py`` writes
``gh`` descriptors of its own. A ``src/`` change that moves or renames one of
those names, or refuses those descriptors, should fail here, in tier-1,
rather than crash a traced benchmark run or count its jobs as failed.
"""

from __future__ import annotations

import ast
import importlib
import json
import random
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
# the methods the tracer wraps on classes, beside the names it imports
WRAPPED = {("boolfn", "BoolFn", "eval"), ("algebra", "LsssScheme", "vector_for"),
           ("algebra", "LsssScheme", "shares_from_vector"), ("algebra", "LsssScheme", "share")}


def _cdslab_imports(tree) -> set:
    """(module, name) of every ``cdslab`` import in ``tree``, at any depth;
    name is None for a module imported as a whole."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update((alias.name, None) for alias in node.names
                         if alias.name.split(".")[0] == "cdslab")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cdslab":
            for alias in node.names:
                if node.module == "cdslab":
                    found.add((f"cdslab.{alias.name}", None))
                else:
                    found.add((node.module, alias.name))
    return found


def test_the_tracer_imports_are_found():
    tree = ast.parse("import cdslab.cli\ndef f():\n    from cdslab import nlqc, quantum\n"
                     "    from cdslab.errors import BudgetError\nimport json\n")
    assert _cdslab_imports(tree) == {("cdslab.cli", None), ("cdslab.nlqc", None),
                                     ("cdslab.quantum", None),
                                     ("cdslab.errors", "BudgetError")}


@pytest.mark.parametrize("module,name", sorted(_cdslab_imports(ast.parse(TRACER.read_text())),
                                               key=repr))
def test_every_name_the_tracer_imports_resolves(module, name):
    mod = importlib.import_module(module)
    assert name is None or hasattr(mod, name), f"{module}.{name}"


def test_every_method_the_tracer_wraps_exists():
    for module, cls, method in sorted(WRAPPED):
        owner = getattr(importlib.import_module(f"cdslab.{module}"), cls)
        assert callable(getattr(owner, method, None)), f"{cls}.{method}"
    from cdslab.quantum import PureState

    assert {"apply", "bell_measure", "ptrace", "tensor"} <= set(vars(PureState))


@pytest.mark.parametrize("chain", [("gh", "cds"), ("gh", "frouting"), ("gh", "frouting", "cdqs")])
def test_a_descriptor_the_benchmark_writes_passes_the_walk_and_verifies(tmp_path, monkeypatch,
                                                                       chain):
    # the routing and classical workloads verify descriptors that
    # ``descriptor_text`` writes; one the schema refused would count as failed
    from cdslab.cli import SCHEMA, _walk, main

    monkeypatch.syspath_prepend(str(TRACER.parent))
    workloads = importlib.import_module("workloads")
    strategy = workloads.strategy_with_profile(random.Random(0), 1, 1, 3, (3, 2, 1, 1))
    text = workloads.descriptor_text(chain, workloads.table_of(strategy), strategy, 5)
    _walk(json.loads(text), SCHEMA)
    desc, rep = tmp_path / "d.json", tmp_path / "r.json"
    desc.write_text(text)
    assert main(["verify", str(desc), "--out", str(rep)]) == 0
    assert json.loads(rep.read_text())["status"] == "pass"
