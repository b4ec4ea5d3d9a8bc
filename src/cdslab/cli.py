"""Command line: build protocol chains, verify them, sweep pipe counts.

Three subcommands:

* ``build``  makes the base of a chain such as ``gh,cds`` or ``dre,psm,psqm,cdqs``
  for a chosen function and writes a self-contained descriptor (a construction
  recipe with every searched artifact embedded), trusting the base it made.
* ``verify`` checks a descriptor's base against its ``fn``, compiles the chain
  and runs the matching exhaustive verifier, writing a pass/fail report.
  Tampered descriptors fail with a witness, malformed ones naming a field.
* ``sweep``  runs the pipe-count search over every function of a given shape.

Their options are the table ``clicore.OPTIONS``: ``_parse`` reads argv by
it, with no argparse and so no abbreviated option, and ``-h`` prints it.
This module holds only that reading and ``main``, which runs a command from
its own module through ``COMMANDS``: ``clibuild`` holds ``build`` and
``sweep``, ``cliverify`` holds ``verify``, and ``clicore`` what they share
(the option table, the compile edges, the bases and the writer). Only
``python -m cdslab.cli`` enters here, as ``__main__``, so no module imports
this one: each child compiles the CLI in units no larger than a request
needs, and never this module twice.

Exit codes: 0 pass, 1 verification failure, 2 usage error, 3 budget exceeded.
A command runs inside ``errors.budget(--budget)``; a stop names the space it
counted, its size and the limit: ``verify`` writes them as a report with
status "budget", ``build`` and ``sweep`` print them to stderr. A size or
count past 256 bits is written as the power of two it reaches ("at least
2^k"). Outputs are deterministic: same inputs and seed give identical bytes.

A request loads only the modules its stages run: ``families`` for ``--fn``
or a ``dre`` verify, ``gardenhose`` for ``gh`` (``ghsearch`` only to search),
``algebra`` and ``zp`` for ``span``, ``bases`` and ``protocols`` for a
``psm`` base, and to verify ``protocols`` for a classical stage (with
``bases`` for a ``gh``, ``dre`` or ``psm`` base's, ``spancds`` for a
``span`` base's), ``nlqc`` for a quantum one (``padroutes`` for a pad
route), ``frames`` for a CDQS or an f-routing, and ``verifiers`` (with
``fractions``) or ``qverifiers``; ``csv`` only for a CSV report. No
request loads the dense ``quantum`` and its eigen-solver, ``toolkit``,
numpy or argparse: quantum figures, even a left side's, are exact.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace

from . import __version__
from .clicore import OPTIONS, _layer, _report_budget
from .errors import BudgetError, DomainError, ValidationError, budget

COMMANDS = {  # command -> run(args), read from the module that holds it
    "build": lambda args: _layer("clibuild")._cmd_build(args),
    "verify": lambda args: _layer("cliverify")._cmd_verify(args),
    "sweep": lambda args: _layer("clibuild")._cmd_sweep(args),
}


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


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:   # help or the version was printed
            return 0
        with budget(args.budget):
            return COMMANDS[args.cmd](args)
    except (ValidationError, DomainError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        _report_budget(exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
