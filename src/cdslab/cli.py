"""Command line: build protocol chains, verify them, sweep pipe counts.

Three subcommands:

* ``build``  makes the base of a chain such as ``gh,cds`` or ``dre,psm,psqm,cdqs``
  for a chosen function and writes a self-contained descriptor (a construction
  recipe with every searched artifact embedded), trusting the base it made.
* ``verify`` checks a descriptor's base against its ``fn``, compiles the chain
  and runs the matching exhaustive verifier, writing a pass/fail report.
  Tampered descriptors fail with a witness, malformed ones naming a field.
* ``sweep``  runs the pipe-count search over every function of a given shape.

Their options are the table ``OPTIONS``: ``_parse`` reads argv by it, with
no argparse and so no abbreviated option, and ``-h`` prints it.

Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 budget exceeded.
A command runs inside ``errors.budget(--budget)``; a stop names the space it
counted, its size and the limit: ``verify`` writes them as a report with
status "budget", ``build`` and ``sweep`` print them to stderr. A size or
count past 256 bits is written as the power of two it reaches ("at least
2^k"). Outputs are deterministic: same inputs and seed give identical bytes.

A request loads only the modules its stages run: ``families`` for ``--fn``
or a ``dre`` verify, ``gardenhose`` for ``gh`` (``ghsearch`` only to search),
``algebra`` and ``zp`` for ``span``, ``protocols`` for a ``psm`` base, and
to verify ``protocols`` for a classical stage, ``nlqc`` for a quantum one
(``padroutes`` for a pad route), ``frames`` for a CDQS or an f-routing,
and ``verifiers`` (with ``fractions``) or ``qverifiers``; ``csv`` only for a
CSV report. No request loads the dense ``quantum`` and its eigen-solver,
``toolkit``, numpy or argparse: quantum figures, even a left side's, are
exact.
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

from . import __version__
from .boolfn import BoolFn, all_functions, from_packed, literal_input
from .errors import (DEFAULT_BUDGET, BudgetError, DomainError, ValidationError, VerifyFailure,
                     budget, charge, count_text, refuse)

if TYPE_CHECKING:
    from .algebra import SpanProgram

BASES = ("gh", "span", "dre", "psm")
ARTIFACTS = {"gh": "gh_strategy", "span": "span_program"}   # base -> what a descriptor embeds
COMPILE_OPTIONS = ("p", "variant", "max_pipes")   # the build options a chain compiles by


def _layer(name: str):
    """The ``cdslab`` module ``name``, imported at a request's first call into it.

    Every compiler, verifier and base the CLI runs is read from its module
    here, at call time, so a chain loads only the modules its stages name,
    and a wrapper installed on a module after import is what runs.
    """
    return importlib.import_module(f"{__package__}.{name}")


COMPILE = {  # (from, to) -> compile(obj, f, opts)
    ("gh", "cds"): lambda obj, f, opts: _layer("protocols").cds_from_gh(obj, f),
    ("gh", "frouting"): lambda obj, f, opts: _layer("nlqc").frouting_from_gh(obj, f),
    ("span", "cds"): lambda obj, f, opts: _layer("protocols").cds_from_span(
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
SCHEMA = {  # descriptor field -> its JSON rule; artifacts and params may omit fields
    "format": (DESCRIPTOR_FORMAT,), "version": (1,), "chain": [str], "kind": str,
    "fn": {"n_x": int, "n_y": int, "table": _HEX, "name": str, "params": {
        "p": int, "n_bits": int, "n": int, "n_x": int, "alice_positions": [int]}},
    "options": {name: OPTIONS["build"]["--" + name.replace("_", "-")][0]
                for name in (*COMPILE_OPTIONS, "seed")},
    "artifacts": {"gh_strategy": {"pipes": int, "n_x": int, "n_y": int, "alice": {
        _DEC: {"tap": int, "match": [[int, int]]}}, "bob": {_DEC: {"match": [[int, int]]}}},
        "span_program": {"matrix": [[int]], "labels": [[int, int]], "target": [int],
                         "p": int, "n_vars": int}}}


def _walk(value, rule, path=()) -> None:
    """Refuse ``value`` unless it is what ``rule`` states, naming the first field that
    is not: ``fn.n_x: must be int``. A rule is int, str, choices, a str pattern, [rule]
    a list, [rule, rule] a pair, {pattern: rule} a map, or {field: rule} an object."""
    def reject(text, *key):
        raise ValidationError(f"{'.'.join(path + key) or 'descriptor'}: {text}")
    kind = rule if type(rule) is type else type(rule)
    if kind in (int, str, dict, list) and type(value) is not kind:   # a bool is no int
        reject(f"must be {kind.__name__}")
    if kind is dict:
        if isinstance(keys := next(iter(rule)), re.Pattern):
            rule = dict.fromkeys(filter(keys.fullmatch, value), rule[keys])
        for key in dict.fromkeys([*value, *rule]):
            if key in value and key in rule:
                _walk(value[key], rule[key], path + (key,))
            elif key in value or path[-1:] not in (("artifacts",), ("params",)):
                reject("unknown field" if key in value else "missing", key)
    elif kind is list:
        if len(rule) > 1 and len(value) != len(rule):
            reject(f"must be a list of {len(rule)}")
        for i, item in enumerate(value):
            _walk(item, rule[i % len(rule)], path + (str(i),))
    elif kind is tuple and (type(value), value) not in [(type(c), c) for c in rule]:
        reject("must be " + " or ".join(map(repr, rule)))   # true and 1.0 are no 1
    elif kind is re.Pattern and not (type(value) is str and rule.fullmatch(value)):
        reject(f"must match {rule.pattern}")


def _help(commands) -> str:
    """The usage of each of ``commands``: every option as ``OPTIONS`` states it."""
    return "".join(f"usage: cdslab {cmd} [options]\n" + "".join(
        f"  {name} {kind.__name__.upper() if callable(kind) else '{%s}' % ','.join(kind)}: "
        f"{text} ({'required' if default is ... else f'default {default}'})\n"
        for name, (kind, default, text) in OPTIONS[cmd].items()) for cmd in commands)


def _is_option(arg: str, table: dict) -> bool:
    """argparse's rule: ``-``, a negative number and a string with a space are
    values, unless they name an option (``--opt=value`` too), start ``-h`` or
    ``--help=``, or start ``--=``, which argparse finds ambiguous."""
    return arg[:1] == "-" and arg != "-" and (
        arg.partition("=")[0] in table or arg.startswith(("-h", "--help=", "--="))
        or not (re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg))


def _parse(argv) -> SimpleNamespace | None:
    """``argv`` read by ``OPTIONS`` into ``cmd`` and each option's value by name
    (``--max-pipes`` as ``max_pipes``), or None once help or the version is
    printed. An option takes ``--opt value`` or ``--opt=value``, in any order,
    the last of a repeat wins, and every string after ``--`` is positional."""
    cmd = argv[0] if argv else None
    if cmd in ("-h", "--help", "--version"):
        sys.stdout.write(f"cdslab {__version__}\n" if cmd == "--version" else _help(OPTIONS))
        return None
    if cmd not in OPTIONS:
        raise ValidationError(f"the commands are {', '.join(OPTIONS)}")
    table, rest, given, beside = OPTIONS[cmd], iter(argv[1:]), [], False
    values = {name: default for name, (_, default, _) in table.items()}
    for arg in rest:
        name, eq, value = arg.partition("=")
        if arg == "--":   # argparse drops it only beside a positional string
            count = len(given)
            given += rest
            if len(given) == count and not beside:
                raise ValidationError("unrecognized argument '--'")
            break
        beside = not _is_option(arg, table)
        if beside:
            given.append(arg)
            continue
        if arg in ("-h", "--help"):
            sys.stdout.write(_help([cmd]))
            return None
        if name not in table:
            raise ValidationError(f"unrecognized argument {arg!r}")
        if not eq and _is_option(value := next(rest, "--"), table):  # "--": none left
            raise ValidationError(f"argument {name}: expected one argument")
        kind = table[name][0]
        try:   # ``index`` refuses a string outside the choices
            values[name] = kind(value) if callable(kind) else kind[kind.index(value)]
        except ValueError:
            raise ValidationError(f"argument {name}: invalid value {value!r}") from None
    positionals = [name for name in table if name[0] != "-"]   # each a string
    values.update(zip(positionals, given))
    missing = [name for name, value in values.items() if value is ...]
    if missing or given[len(positionals):]:
        raise ValidationError(f"missing {', '.join(missing)}" if missing else
                              f"unrecognized arguments {given[len(positionals):]}")
    return SimpleNamespace(cmd=cmd, **{name.lstrip("-").replace("-", "_"): value
                                        for name, value in values.items()})


def _charge_table(n_x: int, n_y: int) -> None:
    """Charge a truth table's 2^(n_x+n_y) entries before it exists."""
    if n_x < 0 or n_y < 0 or n_x + n_y >= sys.maxsize.bit_length():
        # no table holds 2^63 entries, whatever the budget
        raise ValidationError(f"input widths {n_x}+{n_y} outside 0..62 bits")
    charge(1 << (n_x + n_y), "truth table entries")


def _parse_fn(args) -> BoolFn:
    if args.table:   # read by the rules of a descriptor's widths and table
        shape = re.fullmatch(f"({_DEC.pattern}):({_DEC.pattern}):({_HEX.pattern})", args.table)
        if shape is None:
            raise ValidationError("--table wants nx:ny:hex")
        n_x, n_y, hex_table = int(shape[1]), int(shape[2]), shape[3]
        _charge_table(n_x, n_y)
        return from_packed(n_x, n_y, int(hex_table, 16), name=f"t{hex_table}")
    if not args.fn:
        raise ValidationError("need --fn or --table")
    name, named_fn = args.fn.lower(), _layer("families").named_fn
    if name == "qr":
        _charge_table(args.p.bit_length(), 0)
        return named_fn("qr", p=args.p)
    if name == "index":   # Bob's input is a 2^nx-bit database
        _charge_table(args.nx, 1 << max(args.nx, 0))
        return named_fn("index", n_x=args.nx)
    _charge_table(args.nx, args.nx)
    return named_fn(name, n=args.nx)


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
        dre = _layer("protocols").dre_qr(f)
        refuse("encoding disagrees with the function", _layer("families").qr_mismatches(f))
        return dre
    return _layer("protocols").psm_generic_table(f)   # psm


# -- verification dispatch --------------------------------------------------------


def _verify_object(kind, obj) -> dict:
    if kind in ("gh", "span"):   # a chain of its base alone passes once the base is checked
        return {"status": "pass", "kind": kind, "report": {"pipes": obj.pipes} if kind == "gh"
                else {"rows": obj.size, "width": obj.width, "p": obj.p}}
    rep = VERIFY[kind](obj)
    out = {"status": "pass" if rep.perfect else "fail", "kind": kind,
           "report": rep.to_jsonable()}
    if not rep.perfect:
        out["witness"] = out["report"].get("witnesses", {})
    return out


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


# -- subcommands --------------------------------------------------------------------


def _cmd_build(args) -> int:
    f = _parse_fn(args)
    tokens = [t.strip() for t in args.chain.split(",") if t.strip()]
    _check_chain(tokens)
    if ("psqm", "cdqs") in zip(tokens, tokens[1:]) and 0 not in f.table:
        # cdqs_from_psqm masks a run with an input where f is 0
        raise ValidationError("no hiding input available to mask with")
    opts = {name: getattr(args, name) for name in COMPILE_OPTIONS}
    base = _base_artifact(tokens[0], f, opts, None)
    artifacts = {ARTIFACTS[tokens[0]]: base.to_jsonable()} if tokens[0] in ARTIFACTS else {}
    _emit({"format": DESCRIPTOR_FORMAT, "version": 1, "chain": tokens, "kind": tokens[-1],
           "fn": f.to_jsonable(), "options": {**opts, "seed": args.seed},
           "artifacts": artifacts}, args.out, "json")
    return 0


def _cmd_verify(args) -> int:
    try:
        with open(args.descriptor) as fh:
            desc = json.load(fh)
    except (OSError, ValueError) as exc:   # ValueError: bad JSON or bad UTF-8
        _emit({"format": REPORT_FORMAT, "version": 1, "status": "fail",
               "error": f"unreadable descriptor: {exc}"}, args.out, args.format)
        return 1
    result = {"format": REPORT_FORMAT, "version": 1}
    try:
        _walk(desc, SCHEMA)   # before anything is charged or built
        _charge_table(desc["fn"]["n_x"], desc["fn"]["n_y"])
        f, tokens, opts = BoolFn.from_jsonable(desc["fn"]), desc["chain"], desc["options"]
        _check_chain(tokens)
        if desc["kind"] != tokens[-1]:
            raise ValidationError(f"kind {desc['kind']!r} is not the chain's last stage")
        obj = _base_artifact(tokens[0], f, opts, desc)
        for edge in zip(tokens, tokens[1:]):   # only a verify compiles the chain
            obj = COMPILE[edge](obj, f, opts)
        result.update(_verify_object(tokens[-1], obj))
        result["chain"] = tokens
        result["fn"] = desc["fn"]
    except VerifyFailure as exc:
        result.update({"status": "fail", "error": str(exc),
                       "witness": exc.witness})
    except (KeyError, TypeError, ValueError) as exc:   # ValidationError, DomainError too
        result.update({"status": "fail",
                       "error": f"descriptor rejected: {exc}",
                       "witness": str(exc)})
    except BudgetError as exc:
        _report_budget(exc)
        result.update(_budget_fields(exc))
    _emit(result, args.out, args.format)
    return {"pass": 0, "budget": 3}.get(result.get("status"), 1)


def _cmd_sweep(args) -> int:
    if args.nx < 0 or args.ny < 0 or not 0 < args.nx + args.ny <= 4:
        raise ValidationError("sweep supports 0 < nx+ny <= 4")
    ghsearch = _layer("ghsearch")
    rows = []
    for index, f in enumerate(all_functions(args.nx, args.ny)):
        found = ghsearch.gh_search(f, args.max_pipes)
        if found is not None:
            rows.append((index, f.name, found.pipes, "search"))
        else:
            rows.append((index, f.name, ghsearch.gh_generic_pipes(f.n_x), "generic"))
    if args.format == "json":
        obj = [{"index": i, "table": name, "pipes": p, "method": m}
               for (i, name, p, m) in rows]
        _emit({"format": "cdslab-sweep", "version": 1, "n_x": args.nx,
               "n_y": args.ny, "results": obj}, args.out, "json")
    else:
        _emit(["index,table,pipes,method\n",
               *(f"{i},{name},{p},{m}\n" for (i, name, p, m) in rows)], args.out, "csv")
    return 0


def _budget_fields(exc: BudgetError) -> dict:
    return {"status": "budget", "space": exc.space, "size": exc.size,
            "limit": exc.limit}


def _report_budget(exc: BudgetError) -> None:
    """The budget stop on stderr: its message, then its fields as JSON."""
    print(f"budget exceeded: {exc}", file=sys.stderr)
    print(json.dumps(_budget_fields(exc), sort_keys=True), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:   # help or the version was printed
            return 0
        with budget(args.budget):
            return {"build": _cmd_build, "verify": _cmd_verify,
                    "sweep": _cmd_sweep}[args.cmd](args)
    except (ValidationError, DomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        _report_budget(exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
