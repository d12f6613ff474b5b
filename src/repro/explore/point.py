"""Design-point records and sweep-axis validation, free of the explorer's imports.

Scenario specs validate their sweep axes and objectives against these at
registration time, so they live apart from :mod:`repro.explore.dse`, whose
explorer pulls in the execution backends and the Monte Carlo subsystem.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.arch.architecture import ArchitectureConfig


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated design: its configuration values and the measured objectives.

    ``accuracy`` / ``error_rate`` are populated only when the explorer carries
    an :class:`~repro.variation.montecarlo.AccuracyRequest`; they default to
    ``None`` (not NaN -- ``None`` keeps record equality exact and makes a
    missing evaluation fail loudly instead of corrupting a Pareto sweep).
    ``error_rate`` is the minimize-me complement of the mean Monte Carlo
    accuracy, so it composes with the other (minimized) objectives.
    """

    parameters: Mapping[str, object]
    energy_uj: float
    latency_ns: float
    area_mm2: float
    power_w: float
    laser_power_mw: float
    energy_per_mac_pj: float
    accuracy: Optional[float] = None
    error_rate: Optional[float] = None

    def objective(self, name: str) -> float:
        """Look up an objective by name (all objectives are minimized)."""
        try:
            value = getattr(self, name)
        except AttributeError:
            raise KeyError(f"unknown objective {name!r}") from None
        if value is None:
            raise ValueError(
                f"objective {name!r} was not evaluated for this design point; "
                "pass accuracy=AccuracyRequest(...) to the explorer to enable "
                "variation-aware accuracy objectives"
            )
        return float(value)

    def dominates(self, other: "DesignPoint", objectives: Sequence[str]) -> bool:
        """Pareto dominance: no worse in every objective, strictly better in one."""
        no_worse = all(self.objective(o) <= other.objective(o) for o in objectives)
        strictly_better = any(self.objective(o) < other.objective(o) for o in objectives)
        return no_worse and strictly_better


def validate_sweep_axes(parameters: Mapping[str, object]) -> Dict[str, tuple]:
    """Validate a mapping of swept ``ArchitectureConfig`` fields to value lists.

    Returns the normalized ``{field: tuple(values)}`` mapping.  Raises with an
    actionable message (including a did-you-mean suggestion for typos) on an
    unknown field name or a malformed axis -- a scalar instead of a sequence, a
    string, or an empty value list.
    """
    import difflib

    known_fields = {f.name for f in dataclasses.fields(ArchitectureConfig)}
    if not parameters:
        raise ValueError("design space must sweep at least one parameter")
    normalized: Dict[str, tuple] = {}
    for name, values in parameters.items():
        if name not in known_fields:
            close = difflib.get_close_matches(str(name), sorted(known_fields), n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            known = ", ".join(sorted(known_fields))
            raise KeyError(
                f"unknown ArchitectureConfig field {name!r}{hint}; known fields: {known}"
            )
        if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
            raise TypeError(
                f"sweep axis {name!r} must be a sequence of candidate values, "
                f"got {type(values).__name__}: {values!r}"
            )
        values = tuple(values)
        if not values:
            raise ValueError(f"sweep axis {name!r} has no candidate values")
        normalized[name] = values
    return normalized
