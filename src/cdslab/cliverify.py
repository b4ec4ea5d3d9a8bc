"""The ``verify`` command: check a descriptor, compile its chain, verify the result.

``SCHEMA`` states each descriptor field's JSON rule and ``_walk`` checks a
descriptor against it before anything is charged or built; the base is
then checked against the descriptor's ``fn``, the chain compiled by the
``COMPILE`` edges and its last stage run through its ``VERIFY`` entry, and
the outcome written as a report. Only a verify loads this module.
"""

from __future__ import annotations

import json
import re

from .boolfn import BoolFn
from .clicore import (COMPILE, COMPILE_OPTIONS, DESCRIPTOR_FORMAT, OPTIONS, REPORT_FORMAT,
                      VERIFY, _DEC, _HEX, _base_artifact, _budget_fields, _charge_table,
                      _check_chain, _emit, _report_budget)
from .errors import BudgetError, ValidationError, VerifyFailure

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
