"""Desk-scale workbench for secret-disclosure protocols and their quantum analogues.

The package is organised around three layers:

* combinatorial and algebraic models (``boolfn``, ``algebra``, ``gardenhose``),
* classical protocols with exact enumeration verifiers (``protocols``),
* a dense statevector toolkit and quantum protocol compilers (``quantum``, ``nlqc``).

``cli``, ``protocols`` and ``nlqc`` import a layer a chain may not need
where they call it, so a command loads only the modules its chain's stages
name: a garden-hose route (``gardenhose``, ``nlqc``, ``quantum``) loads no
classical protocol or algebra, and a pad route (``protocols``, ``nlqc``,
``quantum``) no algebra and no ``fractions``, which only the exact classical
verifiers import. ``errors`` holds what every layer shares: the exceptions,
the budget charge and the records' common bases.

Everything is deterministic given explicit seeds, and every verifier sweeps its
full input/randomness space rather than sampling.
"""

from .errors import BudgetError, DomainError, ValidationError

__all__ = ["BudgetError", "DomainError", "ValidationError"]

__version__ = "0.1.0"
