"""Desk-scale workbench for secret-disclosure protocols and their quantum analogues.

The package is organised around three layers:

* combinatorial and algebraic models (``boolfn``, ``families``, ``algebra``,
  ``zp``, ``gardenhose``, ``ghsearch``),
* classical protocols (``protocols``) and their exact verifiers (``verifiers``),
* a dense statevector toolkit and quantum protocols (``quantum``, ``nlqc``,
  ``padroutes``, ``qverifiers``).

A command loads only the modules its stages run, imported where they are
called: a garden-hose route loads no classical protocol or algebra, a pad
route no algebra and no ``fractions``, a build no verifier (a ``dre`` or
``span`` build no protocol), and no command ``toolkit``, which holds what
only demos and tests call. ``errors`` holds what every layer shares: the
exceptions, the budget ledger and the records' common bases.

Everything is deterministic given explicit seeds, and every verifier sweeps its
full input/randomness space rather than sampling.
"""

from .errors import BudgetError, DomainError, ValidationError

__all__ = ["BudgetError", "DomainError", "ValidationError"]

__version__ = "0.1.0"
