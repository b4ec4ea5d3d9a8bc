"""Every name a ``cdslab`` module imports is used there; each imports at import only the
``cdslab`` modules pinned for it; none imports ``dataclasses``,
only ``toolkit.random_qubit`` imports numpy, only a classical report's ``Fraction`` views
import ``fractions``, only ``protocols`` reads the message-histogram kernel, only ``gardenhose``
and the two route compilers read the water trace ``gh_eval``, none enumerates messages or passes a record message
callbacks, none re-checks a sweep's subspaces or lists a domain, the pad routes read no
``Fraction``,
every definition is read by the program itself, not by tests alone, and what only demos
and tests read lives in ``toolkit`` or in the dense statevector reference ``quantum``,
which no request loads.

No linter ships with the package, and deleting code tends to leave imports
behind, so this parses each module with ``ast``. A use is a name read
anywhere in the module, including annotations written as strings, or a
listing in ``__all__``.

``dataclasses`` loads ``inspect``, and each ``@dataclass`` compiles its
methods at every import: together about 25 ms of each ``cdslab`` child's
start-up. Records are plain classes or ``typing.NamedTuple``s instead.
Compiling a module is most of a child's start-up too, so each module
imports at import only the ``cdslab`` modules pinned for it, and reads the
others at call time: ``nlqc`` reads ``gardenhose`` and ``padroutes``
``protocols`` in the functions that use them, and
``qverifiers`` reads ``verifiers`` for the PSQM's sweep,
``protocols`` reads neither ``algebra`` nor ``families``: ``spancds``, the
span program's edge, reads ``algebra``, and ``bases`` reads ``families`` only
where the qr encoding is and ``gardenhose`` only where a strategy's CDS is;
``cli`` reads each command's module, and ``clicore`` every module a
request's stages run, so a garden-hose route never compiles ``protocols``
or ``algebra``, a pad route never compiles ``algebra``, a build no compile edge,
a ``dre`` or ``span`` build no ``protocols``, ``sweep`` no ``families``
and a descriptor's strategy no search: the echelon form that the coset
kernel and span membership share lives in ``zp``, which imports nothing,
``qr_residue`` in ``families`` and ``all_functions`` in ``boolfn``. What only demos and tests call lives in ``toolkit``, which
no request loads. numpy is imported only inside the one function that
needs it, ``toolkit.random_qubit``, so no module loads it at import and no
``cdslab`` build or verify loads it at all. ``fractions``, which loads
``decimal`` and ``numbers``, is imported only inside the two
``VerificationReport`` properties that read a figure as a ``Fraction``
(``eps_hat`` and ``delta_pair``), which only library callers read: the sweep
keeps its figures as integer numerators over its joint randomness and a
report writes them in integer arithmetic, so no request loads it. A function, class, method or module-level constant that nothing
in the sources, tests, demos or benchmark reads is dead code that a
deletion left behind or that nothing ever needed. One that only tests read
is no part of the program either: the sources, demos and benchmark must read
it, so a test checks a figure the program computes, or keeps its own helper.
Every message sweep is by coset: ``protocols._sweep_kernel`` binds
``coset_hist``, makes the sweep's cases from the domain and charges them by
its size, so no other module reads the kernel, and none names
``input_pairs`` or lists a ``.domain`` with ``tuple``, ``list``, ``set`` or
``sorted``: a domain is walked, after its charge, and never held. Every module checks a garden-hose strategy
through ``gh_trace``, or ``gh_routes``, which fails a misrouted strategy with
its inputs as witness; each checks the input widths and traces each input
once, keeping no trace, so no module writes its own copy of the check. Only
``gardenhose`` and the compilers of a strategy's route and CDS, ``nlqc`` and
``bases``, read ``gh_eval``: those two trace an input when a run or a decode
asks for its path.
No module defines or names the enumerating ``message_hist``,
which a test helper keeps as the reference, and no record takes message
callbacks (``alice_msg``, ``bob_msg``, ``enc_x``, ``enc_y``): a record's
forms state its messages and its randomness spaces.
The kernel it binds holds each layout of tags and value counts to one
subspace across the whole sweep, so no module defines or reads the
after-the-fact check ``_same_spaces``, and the only private ``protocols``
names ``padroutes`` imports, at call time, are ``_sweep_kernel`` and
``_joint``.
Only ``protocols`` and the compilers split out of it that state forms,
``bases`` and ``spancds``, read the linear message format, in which a
protocol's parties send ``(tag, values)`` pairs that its ``LinearPart``
states as affine forms: no other module names ``Coset`` or ``LinearPart``,
or reads a field that only those records have (a coset's members and basis,
a declaration's nus, coordinate counts, forms, maps and sent tags); ``padroutes``
counts a coset key's messages through ``message_count``.
The pad routes key their transcript classes on integer tuples, a PSQM's
message counts among them, so nothing in ``padroutes``, where
``transcript_classes`` and ``class_product`` live, or in ``nlqc`` reads
``Fraction``. Records carry only fields something reads: every attribute
the ``__init__`` of ``InputDomain`` or ``Worst`` or of a class descending
from either stores is read by the sources outside that ``__init__``, a
protocol's linear part is its ``linear`` field, no ``.meta`` attribute is read or written, and
the codecs exchange dicts, so only the CLI modules that read and write the
files, ``clicore`` and ``cliverify``, import ``json``, and ``clicore``'s
writer encodes a report in chunks to its file: no module calls ``json.dumps``
with an indent or holds text in a ``StringIO``.
``cli`` reads argv by its own option table, so no module imports
``argparse``. Every charge reads the request's one budget from
``errors``' ledger, so no module but ``errors``, which defines it, and
``clicore``, whose option table defaults ``--budget`` to it, reads
``DEFAULT_BUDGET``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cdslab"
MODULES = sorted(SRC.glob("*.py"))
# the program: what a build, a verify, a demo or the benchmark can run
PROGRAM = MODULES + sorted(p for d in ("demos", "bench") for p in (ROOT / d).rglob("*.py"))
READERS = PROGRAM + sorted((ROOT / "tests").rglob("*.py"))


def _imported(tree) -> dict:
    """Bound name -> line of every import outside ``__future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a string annotation such as "PureState" names what it refers to
            try:
                inner = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            used.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return used


def test_every_module_is_checked():
    assert {p.stem for p in MODULES} >= {"cli", "clicore", "nlqc", "protocols", "quantum"}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_unused_import(module):
    tree = ast.parse(module.read_text(), filename=str(module))
    unused = {name: line for name, line in _imported(tree).items()
              if name not in _used(tree)}
    assert unused == {}, f"{module.name}: imported but unused {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import json\nfrom typing import Callable, Optional\n"
                     "x: 'Optional[int]' = None\n__all__ = ['Callable']\n")
    imported = _imported(tree)
    assert {n for n in imported if n not in _used(tree)} == {"json"}


def _executed_at_import(tree):
    """The nodes an import of the module runs: all but those inside functions."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _imports(nodes, module: str) -> bool:
    """True when an import among ``nodes`` loads ``module`` or a submodule of it."""
    for node in nodes:
        if isinstance(node, ast.Import) and any(
                alias.name.split(".")[0] == module for alias in node.names):
            return True
        if (isinstance(node, ast.ImportFrom) and not node.level
                and node.module.split(".")[0] == module):
            return True
    return False


# module -> the cdslab modules it imports at import, by file stem ("__init__":
# a name of the package itself); the rest it imports where it calls them
IMPORTED_AT_IMPORT = {
    "__init__": {"errors"},
    "errors": set(),
    "boolfn": {"errors"},
    "families": {"boolfn", "errors"},
    "algebra": {"boolfn", "errors", "zp"},
    "gardenhose": {"boolfn", "errors"},
    "ghsearch": {"boolfn", "errors", "gardenhose"},
    "protocols": {"boolfn", "errors", "zp"},
    "bases": {"boolfn", "errors", "protocols"},
    "spancds": {"algebra", "boolfn", "errors", "protocols"},
    "verifiers": {"errors", "protocols"},
    "quantum": {"errors"},
    "frames": {"errors"},
    "nlqc": {"boolfn", "errors"},
    "qverifiers": {"errors"},
    "padroutes": {"errors", "nlqc"},
    "toolkit": {"algebra", "errors", "frames", "quantum"},
    "cli": {"__init__", "clicore", "errors"},
    "clicore": {"boolfn", "errors"},
    "clibuild": {"boolfn", "clicore", "errors"},
    "cliverify": {"boolfn", "clicore", "errors"},
    "zp": set(),
}


def _cdslab_imported_at_import(tree) -> set:
    """The ``cdslab`` modules, by file stem, that importing the module imports:
    its imports outside functions and ``if TYPE_CHECKING:`` blocks."""
    stems, found, stack = {p.stem for p in MODULES}, set(), list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            stack.extend(node.orelse)
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ("cdslab" if node.level else None, node.module)))
            paths = ([base] if base != "cdslab" else
                     [f"cdslab.{alias.name}" for alias in node.names])
        else:
            continue
        for parts in (path.split(".") for path in paths):
            if parts[0] == "cdslab":
                found.add(parts[1] if len(parts) > 1 and parts[1] in stems else "__init__")
    return found


def test_every_module_has_its_imports_pinned():
    assert set(IMPORTED_AT_IMPORT) == {p.stem for p in MODULES}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_module_imports_at_import_only_what_is_pinned(module):
    # a chain loads only the modules its stages name: an eager import here
    # would compile a module into every child that loads this one
    tree = ast.parse(module.read_text(), filename=str(module))
    assert _cdslab_imported_at_import(tree) == IMPORTED_AT_IMPORT[module.stem], module.name


def test_the_check_sees_an_import_at_import():
    for planted, stems in (("from .protocols import Worst\n", {"protocols"}),
                           ("from . import __version__, quantum\n", {"__init__", "quantum"}),
                           ("import cdslab.gardenhose\n", {"gardenhose"}),
                           ("from cdslab import algebra\n", {"algebra"}),
                           ("from cdslab.nlqc import KEYS\n", {"nlqc"}),
                           ("try:\n    from .algebra import echelon\nexcept ImportError:\n"
                            "    pass\n", {"algebra"}),
                           ("class A:\n    from .boolfn import BoolFn\n", {"boolfn"}),
                           ("if TYPE_CHECKING:\n    from .quantum import PureState\n"
                            "else:\n    from .errors import charge\n", {"errors"}),
                           ("def f():\n    from .protocols import _joint\n"
                            "g = lambda: __import__('x')\n", set()),
                           ("import json\nfrom typing import TYPE_CHECKING\n", set())):
        assert _cdslab_imported_at_import(ast.parse(planted)) == stems, planted


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_dataclasses(module):
    tree = ast.parse(module.read_text(), filename=str(module))
    assert not _imports(ast.walk(tree), "dataclasses"), f"{module.name} imports dataclasses"


def test_the_check_sees_a_dataclasses_import():
    for planted in ("from dataclasses import dataclass\n", "import dataclasses as dc\n",
                    "def f():\n    from dataclasses import field\n"):
        assert _imports(ast.walk(ast.parse(planted)), "dataclasses"), planted
    assert not _imports(ast.walk(ast.parse("from typing import NamedTuple\n")),
                        "dataclasses")


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_numpy_at_import(module):
    # numpy costs a child about 0.13 s to load; only random_qubit's seeded
    # draws need it, and they import it when called
    tree = ast.parse(module.read_text(), filename=str(module))
    assert not _imports(_executed_at_import(tree), "numpy"), f"{module.name} imports numpy"


def test_the_check_sees_a_module_level_numpy_import():
    for planted in ("import numpy as np\n", "from numpy import linalg\n",
                    "import numpy.linalg\n", "if True:\n    import numpy\n",
                    "class A:\n    import numpy\n"):
        assert _imports(_executed_at_import(ast.parse(planted)), "numpy"), planted
    for allowed in ("def f():\n    import numpy as np\n", "from . import quantum\n",
                    "class A:\n    def f(self):\n        import numpy\n"):
        assert not _imports(_executed_at_import(ast.parse(allowed)), "numpy"), allowed


def _import_scopes(tree, module: str) -> list:
    """Dotted name of the function or class around each import of ``module``;
    "" at module level."""
    scopes = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if _imports([child], module):
                scopes.append(scope)
            visit(child, scope)

    visit(tree, "")
    return scopes


# module -> the functions that may import numpy
NUMPY_ALLOWED = {"toolkit": {"random_qubit"}}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_numpy_is_imported_only_by_random_qubit(module):
    # every build and verify runs on the standard library; numpy serves only
    # random_qubit's seeded draws, for the security state sweep, demos and tests
    tree = ast.parse(module.read_text(), filename=str(module))
    assert set(_import_scopes(tree, "numpy")) <= NUMPY_ALLOWED.get(module.stem, set()), module.name


def test_the_check_sees_a_numpy_import_anywhere():
    for planted, scopes in (("import numpy.linalg\n", [""]),
                            ("def f():\n    import numpy as np\n", ["f"]),
                            ("class A:\n    def g(self):\n        from numpy import linalg\n",
                             ["A.g"]),
                            ("def random_qubit(seed):\n    def draw():\n"
                             "        import numpy\n", ["random_qubit.draw"]),
                            ("def random_qubit(seed):\n    if seed:\n"
                             "        import numpy as np\n", ["random_qubit"]),
                            ("from . import quantum\ndef f():\n    import math\n", [])):
        assert _import_scopes(ast.parse(planted), "numpy") == scopes, planted


# module -> the functions that may import fractions: a classical report's
# Fraction views, which no request reads
FRACTIONS_ALLOWED = {"verifiers": {"VerificationReport.eps_hat", "VerificationReport.delta_pair"}}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_fractions_is_imported_only_by_the_classical_verifiers(module):
    # fractions loads decimal and numbers, about 2.1 ms and 0.39 MiB of the
    # RSS high-water of a child that holds the classical verify modules; a
    # sweep's figures are integers over one denominator, so no request loads it
    tree = ast.parse(module.read_text(), filename=str(module))
    assert not _imports(_executed_at_import(tree), "fractions"), module.name
    allowed = FRACTIONS_ALLOWED.get(module.stem, set())
    assert set(_import_scopes(tree, "fractions")) <= allowed, module.name


def test_the_check_sees_a_fractions_import():
    for planted in ("from fractions import Fraction\n", "import fractions\n",
                    "if TYPE_CHECKING:\n    from fractions import Fraction\n",
                    "class VerificationReport:\n    from fractions import Fraction\n"):
        assert _imports(_executed_at_import(ast.parse(planted)), "fractions"), planted
    for planted, scopes in (("def _l1(a, b, n):\n    from fractions import Fraction\n", ["_l1"]),
                            ("class VerificationReport:\n    def to_jsonable(self):\n"
                             "        import fractions\n", ["VerificationReport.to_jsonable"]),
                            ("def verify_cds(P):\n    from fractions import Fraction\n",
                             ["verify_cds"]),
                            ("from . import protocols\ndef f():\n    import math\n", [])):
        tree = ast.parse(planted)
        assert not _imports(_executed_at_import(tree), "fractions"), planted
        assert _import_scopes(tree, "fractions") == scopes, planted


# the message-histogram kernel: only protocols._sweep_kernel binds it
KERNELS = {"coset_hist"}


def _kernel_reads(tree) -> set:
    """The kernels a module names, as a name, an attribute or an import."""
    names, _ = _reads(tree)
    return names & KERNELS


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_only_protocols_reads_a_histogram_kernel(module):
    # every sweep of a protocol's messages, the pad routes' included, gets
    # its kernel and its budget charge from protocols._sweep_kernel
    if module.stem == "protocols":
        return
    tree = ast.parse(module.read_text(), filename=str(module))
    assert _kernel_reads(tree) == set(), module.name


def test_the_check_sees_a_kernel_read():
    for planted in ("from .protocols import coset_hist\n",
                    "from . import protocols\nh = protocols.coset_hist\n",
                    "def f(P):\n    return coset_hist(P, 0, 0)\n"):
        assert _kernel_reads(ast.parse(planted)), planted
    assert not _kernel_reads(ast.parse("from .protocols import _sweep_kernel\n"))



# the water trace: gardenhose calls gh_eval, and so do the two compilers that
# trace an input's path when asked for it; every module checks a strategy
# against its function through gh_trace or gh_routes
TRACE_READERS = {"gardenhose", "nlqc", "bases"}


def _traces(tree) -> bool:
    """True when a module names ``gh_eval``, as a name, an attribute or an import."""
    return "gh_eval" in _reads(tree)[0]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_only_gardenhose_reads_the_water_trace(module):
    tree = ast.parse(module.read_text(), filename=str(module))
    assert _traces(tree) == (module.stem in TRACE_READERS), module.name


def test_the_check_sees_a_trace_read():
    for planted in ("from .gardenhose import RIGHT, gh_eval\n",
                    "from . import gardenhose\nside = gardenhose.gh_eval(s, 0, 0).side\n",
                    "def f(s):\n    return gh_eval(s, 0, 0)\n"):
        assert _traces(ast.parse(planted)), planted
    assert not _traces(ast.parse("from .gardenhose import gh_trace\n"))
# what no record takes: message callbacks; and the enumerating kernel, which
# only the tests' reference keeps
CALLBACK_FIELDS = {"alice_msg", "bob_msg", "enc_x", "enc_y"}
RECORDS = {"CdsProtocol", "PsmProtocol", "Dre"}


def _message_callbacks(tree) -> set:
    """``message_hist`` if a module names it, and each callback field it
    passes to a record's constructor or reads or writes as an attribute."""
    found = {"message_hist"} & _named(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in RECORDS:
                found.update(k.arg for k in node.keywords if k.arg in CALLBACK_FIELDS)
        elif isinstance(node, ast.Attribute) and node.attr in CALLBACK_FIELDS:
            found.add(node.attr)
    return found


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_module_enumerates_messages_or_passes_callbacks(module):
    # every record states its messages as forms, and every sweep reads them
    # by coset; a form with no rho coordinates is enumeration
    tree = ast.parse(module.read_text(), filename=str(module))
    assert _message_callbacks(tree) == set(), module.name


def test_the_check_sees_message_hist_and_callbacks():
    for planted, names in (
            ("def message_hist(P, x, y):\n    pass\n", {"message_hist"}),
            ("from .protocols import message_hist\n", {"message_hist"}),
            ("from . import protocols\nh = protocols.message_hist\n", {"message_hist"}),
            ("P = CdsProtocol(f, (0, 1), alice_msg=a, bob_msg=b, decode=d)\n",
             {"alice_msg", "bob_msg"}),
            ("from . import protocols\nD = protocols.Dre(f, enc_x=e, enc_y=g, decode=d)\n",
             {"enc_x", "enc_y"}),
            ("m = P.alice_msg(x, 0, r, None)\n", {"alice_msg"}),
            ("self.bob_msg = bob_msg\n", {"bob_msg"})):
        assert _message_callbacks(ast.parse(planted)) == names, planted
    for allowed in ("P = CdsProtocol(f, (0, 1), linear, decode, domain=d)\n",
                    "tag, b = lin.alice_form(x, 0, nu)\n",
                    "n = message_count(m)\nh = coset_hist(P, x, y)\n"):
        assert _message_callbacks(ast.parse(allowed)) == set(), allowed


# the linear message format: its records, and the fields of a Coset or
# LinearPart no other record has; its owners, the records' module and the
# compilers split out of it that state forms
FORMAT_OWNERS = {"protocols", "bases", "spancds"}
FORMAT_NAMES = {"Coset", "LinearPart"}
FORMAT_FIELDS = {"m0", "m1", "basis", "nus", "coords", "alice_form", "bob_form", "maps",
                 "sent"}


def _format_reads(tree) -> set:
    """The format's records and fields a module names."""
    names, attributes = _reads(tree)
    return names & FORMAT_NAMES | attributes & FORMAT_FIELDS


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_only_protocols_reads_the_linear_message_format(module):
    # coset keys reach the pad routes as transcripts, which padroutes decodes
    # through the protocol's own decoder and counts through message_count
    tree = ast.parse(module.read_text(), filename=str(module))
    if module.stem in FORMAT_OWNERS:   # each owner states forms
        assert "LinearPart" in _format_reads(tree), module.name
        return
    assert _format_reads(tree) == set(), module.name
    if module.stem == "padroutes":
        assert {"message_count", "_sweep_kernel"} <= _reads(tree)[0]


def test_the_check_sees_a_format_read():
    for planted in ("from .protocols import Coset\n",
                    "from . import protocols\n"
                    "lin = protocols.LinearPart(3, (), (0, 0, 0), a, b, m)\n",
                    "def f(m):\n    return len(m.basis)\n",
                    "def f(m):\n    tag, values = m.m0\n",
                    "def f(P):\n    return P.linear.nus\n",
                    "def f(P):\n    return sum(P.linear.coords)\n",
                    "def f(P, x):\n    return P.linear.alice_form(x, 0, None)\n",
                    "def f(lin, y):\n    return lin.bob_form(y, None)\n",
                    "def f(lin):\n    return lin.maps(0, ())\n",
                    "def f(lin):\n    return lin.sent(0, ())\n"):
        assert _format_reads(ast.parse(planted)), planted
    assert not _format_reads(ast.parse(
        "from .protocols import message_count\nn = message_count(m) * b.count\n"))


def _named(tree) -> set:
    """Every name a module defines, binds, imports or reads."""
    names = _reads(tree)[0]
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    return names


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_module_names_same_spaces(module):
    # a sweep's kernel refuses a layout's second subspace where the coset is
    # made, so no caller re-checks histograms after the fact
    tree = ast.parse(module.read_text(), filename=str(module))
    assert "_same_spaces" not in _named(tree), module.name


def test_the_check_sees_same_spaces():
    for planted in ("def _same_spaces(hists, spaces):\n    pass\n",
                    "from .protocols import _same_spaces\n",
                    "from . import protocols\nprotocols._same_spaces([h], {})\n",
                    "check = _same_spaces\n", "_same_spaces = None\n"):
        assert "_same_spaces" in _named(ast.parse(planted)), planted
    assert "_same_spaces" not in _named(ast.parse("same_spaces = 1  # _same_spaces\n"))


def _private_protocols_reads(tree) -> set:
    """Private names a module imports from ``protocols`` or reads as its attributes."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("protocols"):
            names.update(alias.name for alias in node.names if alias.name.startswith("_"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "protocols" and node.attr.startswith("_")):
            names.add(node.attr)
    return names


def test_pad_routes_read_only_the_sweep_kernel_and_joint_privately():
    # the pad routes get their kernel, and with it the subspace rule, from
    # _sweep_kernel, and the joint randomness from _joint; no other private
    # helper of protocols is theirs to call, and the records' module none
    reads = {stem: _private_protocols_reads(ast.parse((SRC / f"{stem}.py").read_text()))
             for stem in ("nlqc", "padroutes")}
    assert reads == {"nlqc": set(), "padroutes": {"_sweep_kernel", "_joint"}}


def test_the_check_sees_a_private_protocols_read():
    for planted, names in (("from .protocols import Worst, _joint, _shift\n",
                            {"_joint", "_shift"}),
                           ("from cdslab.protocols import _same_spaces\n", {"_same_spaces"}),
                           ("from . import protocols\nf = protocols._coset_alphabet\n",
                            {"_coset_alphabet"}),
                           ("from .algebra import _x\nfrom .protocols import Coset\n"
                            "y = quantum._TOL\n", set())):
        assert _private_protocols_reads(ast.parse(planted)) == names, planted


def _domain_listings(tree) -> list:
    """Lines that name ``input_pairs`` or pass a ``.domain`` to a list builder."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Name, ast.Attribute, ast.FunctionDef, ast.alias))
                and "input_pairs" in (getattr(node, k, None) for k in ("id", "attr", "name"))):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("tuple", "list", "set", "sorted")
              and any(isinstance(a, ast.Attribute) and a.attr == "domain" for a in node.args)):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_module_lists_a_domain(module):
    # a domain is a sized space that sweeps charge by its size and walk
    # lazily; listing it would hold every input pair before any charge
    tree = ast.parse(module.read_text(), filename=str(module))
    assert _domain_listings(tree) == [], module.name


def test_the_check_sees_a_domain_listed():
    for planted in ("pairs = P.input_pairs()\n", "def input_pairs(self):\n    pass\n",
                    "from .errors import input_pairs\n", "cases = list(P.domain)\n",
                    "xs = sorted(C.domain)\n", "n = len(tuple(self.domain))\n",
                    "seen = set(P.domain)\n"):
        assert _domain_listings(ast.parse(planted)), planted
    assert _domain_listings(ast.parse(
        "for xy in P.domain:\n    pass\nn = space_size(P.domain)\nt = tuple(domain)\n")) == []


# module -> the top-level functions that must not read Fraction; None: the
# whole module must not
FRACTION_FREE = {"nlqc": None, "padroutes": None}


def _fraction_readers(tree, functions) -> set:
    """Those of ``functions`` (the module, as "", when None) that read ``Fraction``."""
    scopes = ({"": tree} if functions is None else
              {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name in functions})
    assert functions is None or set(scopes) == functions, "a checked function is gone"
    return {name for name, node in scopes.items() if "Fraction" in _reads(node)[0]}


@pytest.mark.parametrize("module", sorted(FRACTION_FREE))
def test_pad_route_classes_read_no_fraction(module):
    # classes are keyed by (decoded value, primitive integer weight vector),
    # so no pad route builds a Fraction per transcript and key
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert _fraction_readers(tree, FRACTION_FREE[module]) == set(), module


def test_the_check_sees_a_fraction_read():
    planted = ast.parse("from fractions import Fraction\nimport math\n"
                        "def transcript_classes(h):\n    return [Fraction(w) for w in h]\n"
                        "def class_product(c):\n    return math.lcm(*c)\n"
                        "def other(w):\n    return Fraction(w)\n")
    assert _fraction_readers(planted, {"transcript_classes", "class_product"}) == {
        "transcript_classes"}
    assert _fraction_readers(planted, None) == {""}
    for module in ("import fractions\nx = fractions.Fraction(1, 2)\n",
                   "def f(w):\n    from fractions import Fraction\n"):
        assert _fraction_readers(ast.parse(module), None) == {""}, module
    assert _fraction_readers(ast.parse("import math\nx = math.gcd(4, 6)\n"), None) == set()
    with pytest.raises(AssertionError):
        _fraction_readers(planted, {"transcript_classes", "gone"})


def _reads_default_budget(tree) -> bool:
    """True when ``tree`` imports ``DEFAULT_BUDGET`` or reads it as an attribute."""
    return any((isinstance(node, ast.ImportFrom)
                and any(alias.name == "DEFAULT_BUDGET" for alias in node.names))
               or (isinstance(node, ast.Attribute) and node.attr == "DEFAULT_BUDGET")
               for node in ast.walk(tree))


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_only_errors_and_cli_read_the_default_budget(module):
    # errors defines the default and the CLI's --budget, in clicore's option
    # table, defaults to it; every other layer charges against the ledger, so
    # the default has one source
    tree = ast.parse(module.read_text(), filename=str(module))
    assert module.stem in ("errors", "clicore") or not _reads_default_budget(tree), module.name


def test_the_check_sees_a_default_budget_read():
    for planted in ("from .errors import DEFAULT_BUDGET\n",
                    "def f():\n    from cdslab.errors import DEFAULT_BUDGET as d\n",
                    "from . import errors\nx = errors.DEFAULT_BUDGET\n"):
        assert _reads_default_budget(ast.parse(planted)), planted
    assert not _reads_default_budget(ast.parse("from .errors import budget, charge\n"))


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_only_cli_imports_json(module):
    # BoolFn, GhStrategy and SpanProgram convert to and from dicts; the CLI
    # alone turns those into text: clicore writes it, cliverify reads it
    tree = ast.parse(module.read_text(), filename=str(module))
    assert _imports(ast.walk(tree), "json") == (module.stem in ("clicore", "cliverify")), (
        module.name)


def _whole_texts(tree) -> list:
    """Lines that hold a whole text before writing it: a ``dumps`` call with an
    ``indent``, or any use of ``StringIO``."""
    def name(node):
        return getattr(node, "attr", getattr(node, "id", getattr(node, "name", None)))
    return sorted({node.lineno for node in ast.walk(tree) if name(node) == "StringIO" or (
        isinstance(node, ast.Call) and name(node.func) == "dumps"
        and any(k.arg == "indent" for k in node.keywords))})


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_module_holds_a_whole_report_text(module):
    # ``clicore._emit`` encodes a report in chunks straight to its file; an indent
    # makes ``json.dumps`` join the pure-Python encoder's chunks into one
    # string, and a wide garden-hose report's string does not fit in memory.
    # ``json.dumps`` stays for the one-line budget record on stderr
    tree = ast.parse(module.read_text(), filename=str(module))
    assert _whole_texts(tree) == [], module.name


def test_the_check_sees_a_whole_report_text():
    for planted in ("x = 1\ntext = json.dumps(obj, sort_keys=True, indent=2)\n",
                    "from json import dumps\ntext = dumps(obj, indent=None)\n",
                    "import io\nbuf = io.StringIO()\n", "x = 1\nfrom io import StringIO\n"):
        assert _whole_texts(ast.parse(planted)) == [2], planted
    for clean in ("print(json.dumps(fields, sort_keys=True), file=sys.stderr)\n",
                  "chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj)\n"):
        assert _whole_texts(ast.parse(clean)) == [], clean


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_argparse(module):
    # the CLI reads argv by its own option table, so no request loads
    # argparse or the gettext and locale modules argparse loads
    tree = ast.parse(module.read_text(), filename=str(module))
    assert not _imports(ast.walk(tree), "argparse"), module.name


def test_the_check_sees_an_argparse_import():
    for planted in ("import argparse\n", "def main():\n    from argparse import ArgumentParser\n",
                    "import argparse as ap\n"):
        assert _imports(ast.walk(ast.parse(planted)), "argparse"), planted
    assert not _imports(ast.walk(ast.parse("from . import argparsing\n")), "argparse")


def _meta_uses(tree) -> list:
    """Lines that read or write an attribute named ``meta``."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "meta"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_no_module_uses_a_meta_attribute(module):
    # a record's linear part is its ``linear`` field; no provenance is kept
    tree = ast.parse(module.read_text(), filename=str(module))
    assert _meta_uses(tree) == [], module.name


def test_the_checks_see_json_and_meta():
    for planted in ("import json\n", "def f():\n    from json import dumps\n"):
        assert _imports(ast.walk(ast.parse(planted)), "json"), planted
    assert not _imports(ast.walk(ast.parse("from . import jsonable\n")), "json")
    for planted in ("lin = P.meta['linear']\n", "self.meta = {}\n",
                    "def f(P):\n    return P.meta.get('linear')\n"):
        assert _meta_uses(ast.parse(planted)) == [len(planted.splitlines())], planted
    assert _meta_uses(ast.parse("lin = P.linear\nmeta = {}\nf(meta=meta)\n")) == []


def _unread_record_fields(trees) -> dict:
    """Class -> the attributes its ``__init__`` stores on ``self`` that no tree
    reads outside that ``__init__``, for ``InputDomain``, ``Worst`` and every
    class that descends from either in ``trees``."""
    classes = {node.name: node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)}
    records = {"InputDomain", "Worst"}
    while True:
        more = {name for name, node in classes.items() if name not in records
                and any(isinstance(b, ast.Name) and b.id in records for b in node.bases)}
        if not more:
            break
        records |= more
    inits = {name: next((item for item in classes[name].body if isinstance(item, ast.FunctionDef)
                         and item.name == "__init__"), None)
             for name in records if name in classes}
    unread = {}
    for name, init in inits.items():
        if init is None:
            continue
        stored = [t.attr for node in ast.walk(init) if isinstance(node, ast.Assign)
                  for target in node.targets
                  for t in (target.elts if isinstance(target, ast.Tuple) else [target])
                  if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                  and t.value.id == "self"]
        inside = {id(node) for node in ast.walk(init)}
        read = {node.attr for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and id(node) not in inside}
        missing = [attr for attr in stored if attr not in read]
        if missing:
            unread[name] = missing
    return unread


def test_every_record_field_is_read():
    # a record carries only fields something reads: a field the program
    # stores and never reads is a contract no caller keeps
    assert _unread_record_fields(_trees(MODULES)) == {}


def test_the_check_sees_an_unread_record_field():
    errors = ast.parse("class InputDomain:\n    def __init__(self, domain):\n"
                       "        self.domain = domain\n")
    module = ast.parse("class Route(InputDomain):\n"
                       "    def __init__(self, run, holdings, key_of):\n"
                       "        self.run, self.holdings = run, holdings\n"
                       "        self.key_of = key_of\n        self.key_of(0)\n"
                       "class Cdqs(Route):\n    def __init__(self, out_reg):\n"
                       "        self.out_reg = out_reg\n"
                       "class Other:\n    def __init__(self, unread):\n"
                       "        self.unread = unread\n"
                       "def verify(P):\n    return P.run(P.domain), P.out_reg\n")
    assert _unread_record_fields([errors, module]) == {"Route": ["holdings", "key_of"]}
    reader = ast.parse("def route(R):\n    return R.holdings, R.key_of\n")
    assert _unread_record_fields([errors, module, reader]) == {}
    # a report built as it sweeps is a Worst: an accumulator it keeps and
    # never reads again is caught too
    worst = ast.parse("class Worst:\n    def __init__(self):\n"
                      "        self.worst, self.witnesses = {}, {}\n")
    report = ast.parse("class Report(Worst):\n    def __init__(self, kind):\n"
                       "        super().__init__()\n        self.kind, self.total = kind, 0\n"
                       "def write(R):\n    return R.kind, R.worst, R.witnesses\n")
    assert _unread_record_fields([worst, report]) == {"Report": ["total"]}


def _reads(tree) -> tuple:
    """(names read as a name, attribute or import; names read as an attribute)."""
    names, attributes = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            attributes.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names | attributes, attributes


def _unread(tree, names: set, attributes: set) -> list:
    """Top-level functions, classes and constants not in ``names``, methods not
    in ``attributes``."""
    unread = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            unread += [t.id for t in targets if isinstance(t, ast.Name)
                       and not t.id.startswith("__") and t.id not in names]
            continue
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name not in names:
            unread.append(node.name)
        if isinstance(node, ast.ClassDef):
            unread += [f"{node.name}.{item.name}" for item in node.body
                       if isinstance(item, ast.FunctionDef)
                       and not item.name.startswith("__") and item.name not in attributes]
    return unread


def _trees(paths) -> list:
    return [ast.parse(path.read_text(), filename=str(path)) for path in paths]


def _unread_in(modules: dict, readers: list) -> dict:
    """Module name -> those of its definitions that no tree in ``readers`` reads."""
    names, attributes = set(), set()
    for tree in readers:
        read = _reads(tree)
        names |= read[0]
        attributes |= read[1]
    unread = {name: _unread(tree, names, attributes) for name, tree in modules.items()}
    return {k: v for k, v in unread.items() if v}


def _modules() -> dict:
    return dict(zip((module.name for module in MODULES), _trees(MODULES)))


def test_every_definition_is_referenced():
    assert _unread_in(_modules(), _trees(READERS)) == {}


# definitions the program reads by a name no ast node holds
READ_BY_STRING = {
    "LsssScheme.share",  # bench/tracer.py wraps it through getattr on a string
}


def test_no_definition_is_read_only_by_tests():
    # a definition only tests read is no part of the program: a test checks
    # the figure the program computes, or keeps its helper to itself
    unread = {k: [d for d in v if d not in READ_BY_STRING]
              for k, v in _unread_in(_modules(), _trees(PROGRAM)).items()}
    assert {k: v for k, v in unread.items() if v} == {}


def test_the_check_sees_a_definition_only_tests_read():
    module = ast.parse("def kernel():\n    pass\ndef helper():\n    pass\n"
                       "class S:\n    def run(self):\n        return helper()\n"
                       "    def probe(self):\n        pass\n")
    program = ast.parse("from m import S\nS().run()\n")
    test = ast.parse("from m import kernel, S\nkernel()\nS().probe()\n")
    assert _unread_in({"m": module}, [module, program]) == {"m": ["kernel", "S.probe"]}
    assert _unread_in({"m": module}, [module, program, test]) == {}


# the modules no CLI request loads: toolkit, and the dense statevector reference,
# whose absence from every quantum verify tests/test_cli.py pins
NO_REQUEST = ("toolkit", "quantum")
# what a CLI request can run: every other module, and the benchmark
REQUEST_PATH = ([m for m in MODULES if m.stem not in NO_REQUEST]
                + sorted((ROOT / "bench").rglob("*.py")))


def _demo_only(modules: dict, request_path: list) -> dict:
    """Module name -> its top-level functions and classes that no tree in
    ``request_path`` reads, those of the modules no request loads excepted."""
    unread = _unread_in({k: v for k, v in modules.items()
                         if k[:-len(".py")] not in NO_REQUEST}, request_path)
    unread = {k: [d for d in v if "." not in d] for k, v in unread.items()}
    return {k: v for k, v in unread.items() if v}


def test_code_only_demos_and_tests_read_lives_in_toolkit():
    # no CLI request loads toolkit or the dense reference quantum, so what
    # only demos and tests call there adds nothing to any request's start-up;
    # anywhere else, every child that loads its module compiles it
    assert _demo_only(_modules(), _trees(REQUEST_PATH)) == {}


def test_the_check_sees_code_only_demos_read():
    module = ast.parse("def kernel():\n    pass\ndef tour():\n    pass\n"
                       "class Probe:\n    def draw(self):\n        pass\n")
    toolkit = ast.parse("def sweep():\n    return kernel()\n")
    program = ast.parse("from m import kernel\nkernel()\n")
    demo = ast.parse("from m import tour, Probe\ntour()\nProbe().draw()\n")
    modules = {"m.py": module, "toolkit.py": toolkit}
    assert _demo_only(modules, [module, program]) == {"m.py": ["tour", "Probe"]}
    assert _demo_only(modules, [module, program, demo]) == {}


def test_the_check_sees_an_unread_definition():
    tree = ast.parse("def used():\n    pass\ndef unused():\n    pass\n"
                     "class A:\n    def __len__(self):\n        return 0\n"
                     "    def m(self):\n        pass\n    @property\n"
                     "    def p(self):\n        return used()\n"
                     "    def q(self):\n        pass\n"
                     "A().p\nq = 1\n")
    names, attributes = _reads(tree)
    assert _unread(tree, names, attributes) == ["unused", "A.m", "A.q", "q"]


def test_the_check_sees_a_constant_only_tests_read():
    module = ast.parse("__all__ = ['gate']\nX = 1\nH: tuple = (1, 1)\nSCALE = 2\n"
                       "def gate():\n    return X * SCALE\n")
    program = ast.parse("from m import gate\ngate()\n")
    test = ast.parse("from m import H\nassert H\n")
    assert _unread_in({"m": module}, [module, program]) == {"m": ["H"]}
    assert _unread_in({"m": module}, [module, program, test]) == {}


# the modules whose dict codecs read a descriptor's fields, which the CLI's
# SCHEMA has typed before any codec runs
CODECS = ("boolfn", "gardenhose", "algebra")


def _codec_type_checks(tree) -> list:
    """Lines where a ``from_jsonable`` in ``tree`` calls ``isinstance`` or ``type``,
    or ``int`` on anything but a base-16 string or a key a comprehension binds
    from ``.items()``."""
    lines = []
    for codec in ast.walk(tree):
        if not (isinstance(codec, ast.FunctionDef) and codec.name == "from_jsonable"):
            continue
        keys = {gen.target.elts[0].id for node in ast.walk(codec)
                for gen in getattr(node, "generators", ())
                if isinstance(gen.target, ast.Tuple) and isinstance(gen.target.elts[0], ast.Name)
                and isinstance(gen.iter, ast.Call)
                and getattr(gen.iter.func, "attr", "") == "items"}
        for call in ast.walk(codec):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)):
                continue
            args = call.args
            hex_or_key = (len(args) == 2 and isinstance(args[1], ast.Constant)
                          and args[1].value == 16) or (
                len(args) == 1 and isinstance(args[0], ast.Name) and args[0].id in keys)
            if call.func.id in ("isinstance", "type") or call.func.id == "int" and not hex_or_key:
                lines.append(call.lineno)
    return lines


@pytest.mark.parametrize("module", CODECS)
def test_codecs_only_convert_what_the_schema_typed(module):
    # the CLI's SCHEMA is the one place a descriptor's JSON types are known:
    # a codec converts hex and decimal keys to ints and lists to tuples
    tree = ast.parse((SRC / f"{module}.py").read_text())
    assert any(isinstance(node, ast.FunctionDef) and node.name == "from_jsonable"
               for node in ast.walk(tree)), module
    assert _codec_type_checks(tree) == [], module


def test_the_check_sees_a_type_check_in_a_codec():
    codec = ("class C:\n    @staticmethod\n    def from_jsonable(obj):\n"
             "        side = {int(x): v for x, v in obj['side'].items()}\n"
             "        return C(int(obj['table'], 16), side, {len(v) for v in obj['rows']})\n")
    assert _codec_type_checks(ast.parse(codec)) == []
    for planted in ("int(obj['n_x'])", "isinstance(obj['side'], dict)", "type(obj['p'])",
                    "int(obj['table'])", "int(v)"):
        tree = ast.parse(codec.replace("len(v)", planted))
        assert _codec_type_checks(tree) == [5], planted
    other = ast.parse("def to_jsonable(obj):\n    return int(obj['n_x'])\n")
    assert _codec_type_checks(other) == []
