"""Every name a ``cdslab`` module imports is used there; none imports ``dataclasses``,
only ``quantum.random_qubit`` imports numpy, only ``protocols`` reads a message-histogram
kernel, none re-checks a sweep's subspaces, the pad routes read no ``Fraction``, and every
definition is read somewhere.

No linter ships with the package, and deleting code tends to leave imports
behind, so this parses each module with ``ast``. A use is a name read
anywhere in the module, including annotations written as strings, or a
listing in ``__all__``.

``dataclasses`` loads ``inspect``, and each ``@dataclass`` compiles its
methods at every import: together about 25 ms of each ``cdslab`` child's
start-up. Records are plain classes or ``typing.NamedTuple``s instead.
numpy is imported only inside the one function that needs it,
``quantum.random_qubit``, so no module loads it at import and no ``cdslab``
build or verify loads it at all. A function, class or method that nothing
in the sources, tests, demos or benchmark reads is dead code that a
deletion left behind or that nothing ever needed. The choice between
``message_hist`` and ``coset_hist``, and the sweep's budget charge, are made
in ``protocols._sweep_kernel`` alone, so no other module reads either kernel.
The kernel it binds holds each layout of tags and value counts to one
subspace across the whole sweep, so no module defines or reads the
after-the-fact check ``_same_spaces``, and the only private ``protocols``
names ``nlqc`` imports are ``_sweep_kernel`` and ``_joint``.
Only ``protocols`` reads the linear message format, in which a declaring
protocol's parties send ``(tag, values)`` pairs: no other module names
``Coset``, ``LinearPart`` or ``_tagged``, the one reader of a message pair's
tags and values, or reads a field that only those records have; ``nlqc``
counts a coset key's messages through ``message_count``.
The pad routes key their transcript classes on integer tuples, so nothing in
``nlqc``, where ``transcript_classes`` and ``class_product`` live, reads
``Fraction``. Records carry only fields something reads: a protocol's linear
part is its ``linear`` field, no ``.meta`` attribute is read or written, and
the codecs exchange dicts, so only ``cli``, which reads and writes the files,
imports ``json``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cdslab"
MODULES = sorted(SRC.glob("*.py"))
READERS = MODULES + sorted(p for d in ("tests", "demos", "bench")
                           for p in (ROOT / d).rglob("*.py"))


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
    assert {p.stem for p in MODULES} >= {"cli", "nlqc", "protocols", "quantum"}


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


def _numpy_scopes(tree) -> list:
    """Dotted name of the function or class around each numpy import; "" at module level."""
    scopes = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if _imports([child], "numpy"):
                scopes.append(scope)
            visit(child, scope)

    visit(tree, "")
    return scopes


# module -> the functions that may import numpy
NUMPY_ALLOWED = {"quantum": {"random_qubit"}}


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_numpy_is_imported_only_by_random_qubit(module):
    # every build and verify runs on the standard library; numpy serves only
    # random_qubit's seeded draws, for the security state sweep, demos and tests
    tree = ast.parse(module.read_text(), filename=str(module))
    assert set(_numpy_scopes(tree)) <= NUMPY_ALLOWED.get(module.stem, set()), module.name


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
        assert _numpy_scopes(ast.parse(planted)) == scopes, planted


# the message-histogram kernels: only protocols._sweep_kernel picks one
KERNELS = {"message_hist", "coset_hist"}


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
    for planted in ("from .protocols import message_hist\n",
                    "from . import protocols\nh = protocols.coset_hist\n",
                    "def f(P):\n    return coset_hist(P, 0, 0)\n"):
        assert _kernel_reads(ast.parse(planted)), planted
    assert not _kernel_reads(ast.parse("from .protocols import _sweep_kernel\n"))


# the linear message format: the records and the reader of a pair's tags and
# values, and the fields of a Coset or LinearPart no other record has
FORMAT_NAMES = {"Coset", "LinearPart", "_tagged"}
FORMAT_FIELDS = {"m0", "m1", "basis", "nus", "ell", "embed"}


def _format_reads(tree) -> set:
    """The format's records, reader and fields a module names."""
    names, attributes = _reads(tree)
    return names & FORMAT_NAMES | attributes & FORMAT_FIELDS


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_only_protocols_reads_the_linear_message_format(module):
    # coset keys reach the pad routes as transcripts, which nlqc decodes
    # through the protocol's own decoder and counts through message_count
    if module.stem == "protocols":
        return
    tree = ast.parse(module.read_text(), filename=str(module))
    assert _format_reads(tree) == set(), module.name
    if module.stem == "nlqc":
        assert {"message_count", "_sweep_kernel"} <= _reads(tree)[0]


def test_the_check_sees_a_format_read():
    for planted in ("from .protocols import Coset\n",
                    "from . import protocols\nlin = protocols.LinearPart(3, (), 0, f)\n",
                    "def f(C):\n    return _tagged(C.run(0, 0))\n",
                    "def f(m):\n    return len(m.basis)\n",
                    "def f(m):\n    tag, values = m.m0\n",
                    "def f(P):\n    return P.linear.nus\n"):
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


def test_nlqc_reads_only_the_sweep_kernel_and_joint_privately():
    # the pad routes get their kernel, and with it the subspace rule, from
    # _sweep_kernel, and the joint randomness from _joint; no other private
    # helper of protocols is theirs to call
    tree = ast.parse((SRC / "nlqc.py").read_text())
    assert _private_protocols_reads(tree) == {"_sweep_kernel", "_joint"}


def test_the_check_sees_a_private_protocols_read():
    for planted, names in (("from .protocols import Worst, _joint, _tagged\n",
                            {"_joint", "_tagged"}),
                           ("from cdslab.protocols import _same_spaces\n", {"_same_spaces"}),
                           ("from . import protocols\nf = protocols._coset_alphabet\n",
                            {"_coset_alphabet"}),
                           ("from .algebra import _x\nfrom .protocols import Coset\n"
                            "y = quantum._TOL\n", set())):
        assert _private_protocols_reads(ast.parse(planted)) == names, planted


# module -> the top-level functions that must not read Fraction; None: the
# whole module must not
FRACTION_FREE = {"nlqc": None}


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


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.stem)
def test_only_cli_imports_json(module):
    # BoolFn, GhStrategy and SpanProgram convert to and from dicts; the CLI
    # alone turns those into text
    tree = ast.parse(module.read_text(), filename=str(module))
    assert _imports(ast.walk(tree), "json") == (module.stem == "cli"), module.name


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
    """Top-level functions and classes not in ``names``, methods not in ``attributes``."""
    unread = []
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name not in names:
            unread.append(node.name)
        if isinstance(node, ast.ClassDef):
            unread += [f"{node.name}.{item.name}" for item in node.body
                       if isinstance(item, ast.FunctionDef)
                       and not item.name.startswith("__") and item.name not in attributes]
    return unread


def test_every_definition_is_referenced():
    names, attributes = set(), set()
    for path in READERS:
        read = _reads(ast.parse(path.read_text(), filename=str(path)))
        names |= read[0]
        attributes |= read[1]
    unread = {module.name: _unread(ast.parse(module.read_text()), names, attributes)
              for module in MODULES}
    assert {k: v for k, v in unread.items() if v} == {}


def test_the_check_sees_an_unread_definition():
    tree = ast.parse("def used():\n    pass\ndef unused():\n    pass\n"
                     "class A:\n    def __len__(self):\n        return 0\n"
                     "    def m(self):\n        pass\n    @property\n"
                     "    def p(self):\n        return used()\n"
                     "    def q(self):\n        pass\n"
                     "A().p\nq = 1\n")
    names, attributes = _reads(tree)
    assert _unread(tree, names, attributes) == ["unused", "A.m", "A.q"]
