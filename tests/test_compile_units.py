"""Each request compiles the ``cdslab`` sources in small units, and the entry once.

Every ``cdslab`` request is a fresh interpreter, and with no bytecode cache
(``PYTHONDONTWRITEBYTECODE=1``) it compiles each module it imports from
source. The compiler holds one module's whole syntax tree at a time, so its
peak memory, and with it a child's peak RSS, grows with the largest module
the request loads, not with their sum. So no module a request can load
exceeds ``NODE_BOUND`` syntax-tree nodes, counted as
``sum(1 for _ in ast.walk(ast.parse(source)))``: ``quantum`` and
``toolkit``, which no request loads, are exempt.

``python -m cdslab.cli`` runs the entry as ``__main__``; a module that
imported ``cdslab.cli`` would compile and run it a second time. So no
module imports it, at any depth: each command lives in its own module, which
``cli`` reaches through ``clicore._layer``.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cdslab"
MODULES = sorted(SRC.glob("*.py"))
GOLDEN = Path(__file__).parent / "golden"
NODE_BOUND = 2000
NO_REQUEST = ("quantum", "toolkit")   # what only demos and tests load


def _nodes(source: str) -> int:
    return sum(1 for _ in ast.walk(ast.parse(source)))


def _oversized(sources: dict) -> dict:
    """Name -> node count of each of ``sources`` past ``NODE_BOUND``."""
    counts = {name: _nodes(source) for name, source in sources.items()}
    return {name: n for name, n in counts.items() if n > NODE_BOUND}


def test_no_module_a_request_loads_exceeds_the_node_bound():
    request_modules = {m.stem: m.read_text() for m in MODULES if m.stem not in NO_REQUEST}
    assert {"cli", "clicore", "protocols"} <= set(request_modules)
    assert _oversized(request_modules) == {}


def test_the_check_flags_an_over_bound_source():
    # a list display of n constants is n + 6 nodes: module, assignment, its
    # target name and context, the list and its context
    at_bound = "x = [" + "0, " * (NODE_BOUND - 6) + "]\n"
    over = "x = [" + "0, " * (NODE_BOUND - 5) + "]\n"
    assert _nodes(at_bound) == NODE_BOUND
    assert _oversized({"at_bound": at_bound, "over": over, "small": "x = 1\n"}) == {
        "over": NODE_BOUND + 1}


def _entry_imports(tree) -> list:
    """Lines where ``tree`` imports ``cdslab.cli``, at any depth: an import
    statement, absolute or relative (a ``cdslab`` module's level-1 import is of
    the package), or a call of ``import_module``, ``__import__`` or ``_layer``
    on the entry's name."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hit = any(a.name == "cdslab.cli" or a.name.startswith("cdslab.cli.")
                      for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            full = ".".join(filter(None, ("cdslab" if node.level else None, node.module)))
            hit = (full == "cdslab.cli" or full.startswith("cdslab.cli.")
                   or full == "cdslab" and any(a.name == "cli" for a in node.names))
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            hit = name in ("import_module", "__import__", "_layer") and any(
                isinstance(a, ast.Constant) and a.value in ("cli", ".cli", "cdslab.cli")
                for a in node.args)
        else:
            continue
        if hit:
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_the_entry(module):
    assert _entry_imports(ast.parse(module.read_text(), filename=str(module))) == [], module.name


def test_the_check_sees_an_entry_import():
    for planted in ("import cdslab.cli\n", "from cdslab import cli\n",
                    "from cdslab.cli import main\n", "from . import errors, cli\n",
                    "from .cli import _parse\n", "import cdslab.cli as entry\n",
                    "def f():\n    from .cli import main\n",
                    "class A:\n    def f(self):\n        import cdslab.cli\n",
                    "import importlib\nm = importlib.import_module('cdslab.cli')\n",
                    "def f():\n    return _layer('cli').main\n",
                    "m = __import__('cdslab.cli')\n"):
        assert _entry_imports(ast.parse(planted)), planted
    for clean in ("from .clicore import OPTIONS, _layer\n", "import cdslab.clibuild\n",
                  "from . import clicore, cliverify\n", "m = _layer('cliverify')\n",
                  "m = importlib.import_module(f'{__package__}.{name}')\n",
                  "from cdslab.errors import budget\n"):
        assert _entry_imports(ast.parse(clean)) == [], clean


_ENTRY_RUN = """
import json, runpy, sys
codes = []
for desc in sys.argv[1:]:
    sys.argv = ["cdslab", "verify", desc, "--out", "r.json"]
    try:
        runpy.run_module("cdslab.cli", run_name="__main__")
    except SystemExit as exc:
        codes.append(exc.code)
    codes.append(json.load(open("r.json"))["status"])
print(json.dumps([codes, "cdslab.cli" in sys.modules,
                  sorted(m for m in sys.modules if m.startswith("cdslab.cli"))]))
"""


def test_a_verify_through_the_entry_never_imports_it(tmp_path):
    # as ``python -m cdslab.cli`` runs it: the entry runs as __main__, and
    # no module a verify of any base loads, the commands' own included,
    # imports ``cdslab.cli`` beside it
    cases = ("gh_cds_cdqs_frouting", "gh_frouting_cdqs", "span_cds_eq_rand",
             "dre_psm_cds_cdqs_qr5", "psm_psqm_cdqs_frouting_and")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _ENTRY_RUN,
                          *(str(GOLDEN / f"{case}.desc.json") for case in cases)],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    codes, entry_loaded, cli_modules = json.loads(run.stdout)
    assert codes == [0, "pass"] * len(cases)
    assert not entry_loaded
    assert cli_modules == ["cdslab.clicore", "cdslab.cliverify"]
