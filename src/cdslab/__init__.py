"""Desk-scale workbench for secret-disclosure protocols and their quantum analogues.

The package is organised around three layers:

* combinatorial and algebraic models (``boolfn``, ``families``, ``algebra``,
  ``zp``, ``gardenhose``, ``ghsearch``),
* classical protocols (``protocols``, with the edges only one base runs in
  ``bases`` and ``spancds``) and their exact verifiers (``verifiers``),
* quantum protocols on exact Pauli frames (``frames``, ``nlqc``, ``padroutes``,
  ``qverifiers``),

and the command line: ``cli`` reads argv and runs a command from ``clibuild``
(``build``, ``sweep``) or ``cliverify`` (``verify``), which share ``clicore``.

A command loads only the modules its stages run, imported where they are
called: a garden-hose route loads no classical protocol or algebra, a pad
route no algebra and no ``fractions``, a build no verifier (a ``dre`` or
``span`` build no protocol), and no command the dense statevector reference
``quantum`` or ``toolkit``, which hold what only demos and tests call.
No module a command can load exceeds 2,000 syntax-tree nodes: a child with
no bytecode cache compiles each module it imports, and the compiler's peak
memory grows with the largest one.
``errors`` holds what every layer shares: the exceptions, the budget ledger
and the records' common bases.

Everything is deterministic given explicit seeds, and every verifier sweeps its
full input/randomness space rather than sampling.
"""

from .errors import BudgetError, DomainError, ValidationError

__all__ = ["BudgetError", "DomainError", "ValidationError"]

__version__ = "0.1.0"
