"""What every CLI command shares: options, compile edges, bases and the writer.

``cli`` reads argv by the option table ``OPTIONS`` and runs a command from
its own module, ``clibuild`` for ``build`` and ``sweep``, ``cliverify`` for
``verify``; each reads the rest from here: the ``COMPILE`` and ``VERIFY``
tables, the chain rule and the bases a chain starts from, the truth-table
and span-program charges, and ``_emit``, the one writer of descriptors,
reports and sweep tables. Every other module is read at call time, through
``_layer``, so a request loads only the modules its stages run.
"""

from __future__ import annotations

import importlib
import json
import re
import sys
from contextlib import nullcontext
from itertools import chain, islice
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .boolfn import BoolFn, literal_input
from .errors import DEFAULT_BUDGET, BudgetError, ValidationError, charge, count_text, refuse

if TYPE_CHECKING:
    from .algebra import SpanProgram

BASES = ("gh", "span", "dre", "psm")
ARTIFACTS = {"gh": "gh_strategy", "span": "span_program"}   # base -> what a descriptor embeds
COMPILE_OPTIONS = ("p", "variant", "max_pipes")   # the build options a chain compiles by


def _layer(name: str):
    """The ``cdslab`` module ``name``, imported at a request's first call into it.

    Every command, compiler, verifier and base the CLI runs is read from its
    module here, at call time, so a request loads only the modules its
    command and stages name, and a wrapper installed on a module after
    import is what runs.
    """
    return importlib.import_module(f"{__package__}.{name}")


COMPILE = {  # (from, to) -> compile(obj, f, opts)
    ("gh", "cds"): lambda obj, f, opts: _layer("bases").cds_from_gh(obj, f),
    ("gh", "frouting"): lambda obj, f, opts: _layer("nlqc").frouting_from_gh(obj, f),
    ("span", "cds"): lambda obj, f, opts: _layer("spancds").cds_from_span(
        obj, f, variant=opts["variant"]),
    ("dre", "psm"): lambda obj, f, opts: _layer("protocols").psm_from_dre(obj),
    ("psm", "cds"): lambda obj, f, opts: _layer("protocols").cds_from_psm(obj),
    ("psm", "psqm"): lambda obj, f, opts: _layer("padroutes").psqm_from_psm(obj),
    ("cds", "cdqs"): lambda obj, f, opts: _layer("padroutes").cdqs_from_cds(obj),
    ("cdqs", "frouting"): lambda obj, f, opts: _layer("padroutes").frouting_from_cdqs(obj),
    ("frouting", "cdqs"): lambda obj, f, opts: _layer("nlqc").cdqs_from_frouting(obj),
    ("psqm", "cdqs"): lambda obj, f, opts: _layer("padroutes").cdqs_from_psqm(obj),
}
VERIFY = {  # kind -> verify(obj)
    "cds": lambda obj: _layer("verifiers").verify_cds(obj),
    "psm": lambda obj: _layer("verifiers").verify_psm(obj),
    "dre": lambda obj: _layer("verifiers").verify_dre(obj),
    "cdqs": lambda obj: _layer("qverifiers").verify_cdqs(obj),
    "frouting": lambda obj: _layer("qverifiers").verify_frouting(obj),
    "psqm": lambda obj: _layer("qverifiers").verify_psqm(obj),
}

DESCRIPTOR_FORMAT = "cdslab-descriptor"
REPORT_FORMAT = "cdslab-report"


# -- argument handling ---------------------------------------------------------


OPTIONS = {  # command -> {option: (type or choices, default, help)}; default ...: required
    "build": {
        "--chain": (str, ..., "comma list, e.g. gh,cds or dre,psm,psqm,cdqs"),
        "--fn": (str, None, "named function family: and or xor eq ip index qr"),
        "--table": (str, None, "truth table nx:ny:hex, entry (x<<ny)|y at hex bit i, lsb first"),
        "--nx": (int, 1, "bits per side / Alice bits"),
        "--p": (int, 2, "prime field / qr modulus"),
        "--variant": (("comm", "rand"), "comm", "span-based disclosure flavour"),
        "--max-pipes": (int, 4, "most pipes the garden-hose search tries"),
        "--budget": (int, DEFAULT_BUDGET, "enumeration budget"),
        "--seed": (int, 0, "tags the descriptor; every search is deterministic"),
        "--out": (str, None, "descriptor path, else stdout"),
        "--format": (("json",), "json", "descriptor format")},
    "verify": {
        "descriptor": (str, ..., "path to a descriptor JSON file"),
        "--budget": (int, DEFAULT_BUDGET, "enumeration budget"),
        "--out": (str, None, "report path, else stdout"),
        "--format": (("json", "csv"), "json", "report format")},
    "sweep": {
        "--nx": (int, ..., "Alice's input bits"),
        "--ny": (int, ..., "Bob's input bits"),
        "--max-pipes": (int, 4, "most pipes the garden-hose search tries"),
        "--budget": (int, 10 ** 8, "enumeration budget"),
        "--seed": (int, 0, "unused: the sweep is deterministic"),
        "--out": (str, None, "table path, else stdout"),
        "--format": (("csv", "json"), "csv", "table format")},
}

# a width or input key, below 10^19 as every width and key of a table is, and a table
_DEC, _HEX = re.compile("0|[1-9][0-9]{0,18}"), re.compile("[0-9a-f]+")


def _charge_table(n_x: int, n_y: int) -> None:
    """Charge a truth table's 2^(n_x+n_y) entries before it exists."""
    if n_x < 0 or n_y < 0 or n_x + n_y >= sys.maxsize.bit_length():
        # no table holds 2^63 entries, whatever the budget
        raise ValidationError(f"input widths {n_x}+{n_y} outside 0..62 bits")
    charge(1 << (n_x + n_y), "truth table entries")


def _span_for(f: BoolFn, p: int) -> SpanProgram:
    """f's span program: a named one, else ``span_dnf`` of its 1-inputs, whose
    rows (one per literal) times columns are charged before it is built."""
    algebra = _layer("algebra")
    named = {"and1": algebra.span_and1, "or1": algebra.span_or1, "eq1": algebra.span_eq1}
    if f.name in named:
        return named[f.name](p)
    ones = f.ones()
    if not ones:
        raise ValidationError("constant-0 function has no satisfying terms")
    terms = [[(k + 1, bit) for k, bit in enumerate(literal_input(f, x, y))] for (x, y) in ones]
    rows = sum(map(len, terms))
    charge(rows * (1 + rows - len(terms)), "span program entries")
    return algebra.span_dnf(terms, f.n_x + f.n_y, p)


# -- chain compilation -----------------------------------------------------------


def _check_chain(tokens) -> None:
    """Refuse a chain no compile edges make, with the message of the edge
    that refuses it: a build compiles no edge, so the CLI states the rule."""
    if not tokens:
        raise ValidationError("empty chain")
    if tokens[0] not in BASES:
        raise ValidationError(f"chain must start at one of {BASES}")
    for a, b in zip(tokens, tokens[1:]):
        if (a, b) not in COMPILE:
            raise ValidationError(f"no rule builds {b!r} from {a!r}")
    # cdqs_from_frouting hands on the router's record without pad key classes,
    # which frouting_from_cdqs needs to route by
    if ("frouting", "cdqs", "frouting") in zip(tokens, tokens[1:], tokens[2:]):
        raise ValidationError("need a protocol exposing its pad key")


def _base_artifact(token: str, f: BoolFn, opts: dict, desc: dict | None):
    """The base object of a chain ``_check_chain`` accepted, made from ``f`` or read.

    A build passes ``desc`` None and trusts what it makes from ``f``, of a
    ``dre`` base nothing: a searched strategy checks itself. A verify passes
    the descriptor it read and checks against ``f`` what that states, an
    embedded strategy, a span program and the qr encoding; a strategy it
    searches or makes is trusted. An embedded strategy is traced once: by its
    chain's compile edge, which refuses it as ``gh_routes`` does, else here."""
    embedded = {} if desc is None else desc["artifacts"]
    if token == "gh":
        gardenhose = _layer("gardenhose")
        if ARTIFACTS["gh"] in embedded:
            strategy = gardenhose.GhStrategy.from_jsonable(embedded[ARTIFACTS["gh"]])
            if len(desc["chain"]) == 1:
                gardenhose.gh_routes(strategy, f)
            return strategy
        ghsearch = _layer("ghsearch")
        return ghsearch.gh_search(f, opts["max_pipes"]) or ghsearch.gh_generic(f)
    if token == "span":
        algebra = _layer("algebra")
        if ARTIFACTS["span"] in embedded:
            program = algebra.SpanProgram.from_jsonable(embedded[ARTIFACTS["span"]])
            charge(program.size * program.width, "span program entries")
        else:
            program = _span_for(f, opts["p"])
        if desc is not None:
            refuse("span program disagrees with the function",
                   [(x, y) for (x, y) in f.inputs()
                    if algebra.sp_eval(program, literal_input(f, x, y)) != f.eval(x, y)])
        return program
    if token == "dre":
        if desc is None:
            if "p" not in f.params:
                raise ValidationError("the dre base needs --fn qr")
            return None
        dre = _layer("bases").dre_qr(f)
        refuse("encoding disagrees with the function", _layer("families").qr_mismatches(f))
        return dre
    return _layer("bases").psm_generic_table(f)   # psm


# -- io helpers --------------------------------------------------------------------


def _counts(obj) -> None:
    """Each int past 256 bits in ``obj`` as ``count_text``, in place."""
    for k, v in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
        if isinstance(v, (dict, list)):
            _counts(v)
        elif isinstance(v, int) and v.bit_length() > 256:
            obj[k] = count_text(v)


def _emit(obj, path, fmt="json") -> None:
    """``obj`` to the file at ``path``, else stdout: JSON as ``json.dumps(obj,
    sort_keys=True, indent=2)`` and a newline, a CSV report as its ``_flatten``
    rows under ``key,value``, a list as its lines; encoded in pieces, written a
    few thousand at a time, so no whole text is held and no piece is a write."""
    _counts(obj)
    if fmt == "json":
        chunks = chain(json.JSONEncoder(sort_keys=True, indent=2).iterencode(obj), "\n")
    elif isinstance(obj, dict):
        import csv

        lines = []
        writer = csv.writer(SimpleNamespace(write=lines.append), lineterminator="\n")
        rows = chain([("key", "value")], ((k, f"{v}") for k, v in _flatten(obj, "")))
        chunks = (lines.pop() for _ in map(writer.writerow, rows))
    else:
        chunks = iter(obj)
    with open(path, "w") if path else nullcontext(sys.stdout) as fh:
        while batch := "".join(islice(chunks, 4096)):
            fh.write(batch)


def _flatten(obj, prefix):
    """(dotted key, value) of each leaf of ``obj``, keys sorted; a list is one leaf."""
    if isinstance(obj, dict):
        for k in sorted(obj, key=str):
            yield from _flatten(obj[k], f"{prefix}{k}.")
    elif isinstance(obj, (list, tuple)):
        yield prefix.rstrip("."), ";".join(str(v) for v in obj)
    else:
        yield prefix.rstrip("."), obj


def _budget_fields(exc: BudgetError) -> dict:
    return {"status": "budget", "space": exc.space, "size": exc.size,
            "limit": exc.limit}


def _report_budget(exc: BudgetError) -> None:
    """The budget stop on stderr: its message, then its fields as JSON."""
    print(f"budget exceeded: {exc}", file=sys.stderr)
    print(json.dumps(_budget_fields(exc), sort_keys=True), file=sys.stderr)
