"""The ``build`` and ``sweep`` commands.

``build`` reads its function from ``--fn`` or ``--table``, makes the chain's
base and writes a descriptor with every searched artifact embedded, trusting
the base it made and compiling no edge; ``sweep`` runs the pipe-count search
over every function of a shape. Only a build or a sweep loads this module.
"""

from __future__ import annotations

import re

from .boolfn import BoolFn, all_functions, from_packed
from .clicore import (ARTIFACTS, COMPILE_OPTIONS, DESCRIPTOR_FORMAT, _DEC, _HEX,
                      _base_artifact, _charge_table, _check_chain, _emit, _layer)
from .errors import ValidationError


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
