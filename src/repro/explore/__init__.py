"""Automated design-space exploration (the paper's stated future extension).

Sweeps architecture parameters (tiles, cores, core size, wavelengths, bitwidths,
clock) with pluggable search strategies (grid / random / coordinate descent),
evaluates every design point through the shared memoized
:class:`~repro.core.engine.EvaluationEngine` -- optionally in parallel with
deterministic result ordering -- and extracts the Pareto frontier over the
energy / latency / area objectives.
"""

import importlib

from repro.explore.point import DesignPoint
from repro.explore.search import (
    CoordinateDescent,
    GridSearch,
    RandomSearch,
    SearchStrategy,
    STRATEGIES,
)

#: Served from :mod:`repro.explore.dse` on first access: the explorer imports
#: the execution backends and the Monte Carlo subsystem, which a scenario spec
#: validating its sweep axes must not pay for.
_DSE_NAMES = frozenset(
    ("DesignSpace", "DesignSpaceExplorer", "ExplorationResult", "pareto_front")
)


def __getattr__(name: str) -> object:
    if name in _DSE_NAMES:
        return getattr(importlib.import_module("repro.explore.dse"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CoordinateDescent",
    "DesignPoint",
    "DesignSpace",
    "DesignSpaceExplorer",
    "ExplorationResult",
    "GridSearch",
    "RandomSearch",
    "STRATEGIES",
    "SearchStrategy",
    "pareto_front",
]
