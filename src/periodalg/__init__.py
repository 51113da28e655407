"""Exact periodicity analysis on finitely generated subgroups of the reals.

The package answers questions like "is T a period of f", "what is the
group of all periods", and "how close does m*T1 + n*T2 come to a
target" with exact arithmetic over Q(sqrt(p1), ..., sqrt(pr)).  Floats
never enter a decision: every comparison reduces to an integer sign
test, and decimal output is a tagged convenience.

Submodules:

    exactreal  field arithmetic, signs, floors, enclosures
    lattice    integer coordinate lattices in HNF, intersections,
               discrete-or-dense classification
    funcalg    a small algebra of piecewise formulas, canonical forms,
               period modules, counterexample search
    pointsets  interval patterns on a circle, rotation, fundamental
               periods, symmetric differences
    approx     continued fractions, inhomogeneous approximation
               witnesses, orbit discrepancy bounds
    scenario   a declarative file format tying the above together
    cli        the `periodalg` command; the command and `python -m
               periodalg` load it, `import periodalg` does not
               (`from periodalg import cli` imports it on demand)
"""

from __future__ import annotations

from . import approx, errors, exactreal, funcalg, lattice, pointsets, scenario
from .approx import (
    ContinuedFraction,
    continued_fraction,
    dirichlet_find,
    kronecker_find,
    orbit_discrepancy,
)
from .errors import NotFound, PeriodalgError
from .exactreal import ExactReal, RadicalBasis, commensurable
from .funcalg import (
    CanonicalForm,
    CompositionResult,
    PeriodModule,
    composition_check,
    evaluate,
    find_counterexample,
    parse,
    parse_real,
    period_module,
    shift,
    shift_difference,
)
from .lattice import CoeffLattice, Dense, Discrete, classify_group, intersect, member
from .pointsets import (
    IntervalPattern,
    fundamental_period,
    is_invariant,
    rotate,
    symdiff_measure,
)
from .scenario import Report, RunOptions, Scenario, parse_scenario, run_scenario

__version__ = scenario._VERSION

__all__ = [
    "__version__",
    "approx",
    "cli",  # a star import loads it, as `from periodalg import cli` does
    "errors",
    "exactreal",
    "funcalg",
    "lattice",
    "pointsets",
    "scenario",
    "CanonicalForm",
    "CoeffLattice",
    "CompositionResult",
    "ContinuedFraction",
    "Dense",
    "Discrete",
    "ExactReal",
    "IntervalPattern",
    "NotFound",
    "PeriodModule",
    "PeriodalgError",
    "RadicalBasis",
    "Report",
    "RunOptions",
    "Scenario",
    "classify_group",
    "commensurable",
    "composition_check",
    "continued_fraction",
    "dirichlet_find",
    "evaluate",
    "find_counterexample",
    "fundamental_period",
    "intersect",
    "is_invariant",
    "kronecker_find",
    "member",
    "orbit_discrepancy",
    "parse",
    "parse_real",
    "parse_scenario",
    "period_module",
    "rotate",
    "run_scenario",
    "shift",
    "shift_difference",
    "symdiff_measure",
]
