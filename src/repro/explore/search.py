"""Pluggable search strategies for design-space exploration.

A :class:`SearchStrategy` decides *which* design points to evaluate; the
:class:`~repro.explore.dse.DesignSpaceExplorer` decides *how* (shared evaluation
cache, serial or parallel executor, progress streaming, early-stop budget).  The
protocol is batch-oriented so parallel executors get full batches to spread over
workers while feedback-driven strategies still observe every completed evaluation:

1. the explorer calls :meth:`SearchStrategy.reset` once per exploration;
2. it then repeatedly calls :meth:`SearchStrategy.propose` with the design space
   and the history of evaluated :class:`~repro.explore.point.DesignPoint` records
   (in evaluation order, including repeats), evaluating each returned batch;
3. an empty batch ends the exploration.

Strategies are stateful across ``propose`` calls and single-use per exploration
(``reset`` re-arms them).  All objectives are minimized.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.explore.dse import DesignSpace
    from repro.explore.point import DesignPoint

Overrides = Dict[str, object]


class SearchStrategy:
    """Decides which design points to evaluate next, given the history so far."""

    name = "strategy"

    def reset(self) -> None:
        """Re-arm the strategy for a fresh exploration (called by the explorer)."""

    def propose(self, space: "DesignSpace", history: Sequence["DesignPoint"]) -> List[Overrides]:
        """Next batch of candidate overrides; an empty list ends the exploration."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class GridSearch(SearchStrategy):
    """Exhaustive sweep over the full design-space grid.

    ``batch_size`` splits the grid into smaller batches so progress streaming and
    early-stop budgets take effect between them (default: the whole grid at once,
    which maximizes parallel executor utilization).
    """

    name = "grid"

    def __init__(self, batch_size: Optional[int] = None) -> None:
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be positive when given")
        self.batch_size = batch_size
        self._grid: Optional[object] = None
        self._done = False

    def reset(self) -> None:
        self._grid = None
        self._done = False

    def propose(self, space: "DesignSpace", history: Sequence["DesignPoint"]) -> List[Overrides]:
        if self._done:
            return []
        if self._grid is None:
            self._grid = space.grid()
        if self.batch_size is None:
            self._done = True
            return list(self._grid)
        batch = list(itertools.islice(self._grid, self.batch_size))
        if not batch:
            self._done = True
        return batch


class RandomSearch(SearchStrategy):
    """Uniform random sampling of the grid (with replacement), seeded and deterministic.

    With the shared evaluation cache, duplicate samples cost one dictionary
    lookup, so sampling with replacement keeps the implementation unbiased
    without an explicit dedup pass.
    """

    name = "random"

    def __init__(
        self,
        num_samples: Optional[int] = None,
        seed: int = 0,
        batch_size: Optional[int] = None,
    ) -> None:
        if num_samples is not None and num_samples < 1:
            raise ValueError("num_samples must be positive")
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be positive when given")
        #: sample count; None (the construct-by-name default) draws as many
        #: samples as the design space has grid points.
        self.num_samples = num_samples
        self.seed = seed
        self.batch_size = batch_size
        self._remaining = num_samples
        self._rng = np.random.default_rng(seed)

    def reset(self) -> None:
        self._remaining = self.num_samples
        self._rng = np.random.default_rng(self.seed)

    def propose(self, space: "DesignSpace", history: Sequence["DesignPoint"]) -> List[Overrides]:
        if self._remaining is None:
            self._remaining = space.size()
        if self._remaining <= 0:
            return []
        count = self._remaining if self.batch_size is None else min(
            self.batch_size, self._remaining
        )
        self._remaining -= count
        names = sorted(space.parameters)
        batch: List[Overrides] = []
        for _ in range(count):
            batch.append(
                {
                    name: space.parameters[name][
                        int(self._rng.integers(len(space.parameters[name])))
                    ]
                    for name in names
                }
            )
        return batch


class CoordinateDescent(SearchStrategy):
    """Greedy line search along one parameter at a time.

    Starting from ``start`` (default: the first candidate value of every swept
    parameter), each step proposes every candidate value along one coordinate
    with the others held at the incumbent best, adopts the best point under
    ``objective``, and moves to the next coordinate.  The search stops after a
    full round over all coordinates without improvement, or after
    ``max_rounds``.  Line batches evaluate in parallel under a parallel
    executor, and revisited points are free through the shared cache.
    """

    name = "coordinate_descent"

    def __init__(
        self,
        objective: str = "energy_uj",
        start: Optional[Overrides] = None,
        max_rounds: int = 8,
    ) -> None:
        if max_rounds < 1:
            raise ValueError("max_rounds must be positive")
        self.objective = objective
        self.start = dict(start) if start else None
        self.max_rounds = max_rounds
        self.reset()

    def reset(self) -> None:
        self._best_params: Optional[Overrides] = None
        self._best_value = float("inf")
        self._round = 0
        self._coord_idx = 0
        self._improved_this_round = False
        self._history_seen = 0

    def _absorb(self, history: Sequence["DesignPoint"]) -> None:
        """Fold newly observed evaluations into the incumbent best."""
        had_best = self._best_params is not None
        for point in history[self._history_seen:]:
            value = point.objective(self.objective)
            if value < self._best_value:
                self._best_value = value
                self._best_params = dict(point.parameters)
                self._improved_this_round = True
        self._history_seen = len(history)
        if not had_best:
            # Adopting the start point is not a line-move improvement; counting
            # it would force a redundant second round over all coordinates.
            self._improved_this_round = False

    def propose(self, space: "DesignSpace", history: Sequence["DesignPoint"]) -> List[Overrides]:
        names = sorted(space.parameters)
        if self._best_params is None and self._history_seen == 0 and not history:
            start = self.start or {name: space.parameters[name][0] for name in names}
            missing = set(names) - set(start)
            if missing:
                raise KeyError(f"start point missing swept parameters: {sorted(missing)}")
            self._improved_this_round = False
            return [dict(start)]
        self._absorb(history)
        if self._best_params is None:
            return []
        while True:
            if self._coord_idx >= len(names):
                self._round += 1
                if not self._improved_this_round or self._round >= self.max_rounds:
                    return []
                self._coord_idx = 0
                self._improved_this_round = False
            coord = names[self._coord_idx]
            self._coord_idx += 1
            line = [
                {**self._best_params, coord: value}
                for value in space.parameters[coord]
                if value != self._best_params.get(coord)
            ]
            if line:
                return line


#: Strategies constructible by name via ``DesignSpaceExplorer.explore(strategy=...)``.
STRATEGIES = {
    GridSearch.name: GridSearch,
    RandomSearch.name: RandomSearch,
    CoordinateDescent.name: CoordinateDescent,
}


def resolve_strategy(strategy) -> SearchStrategy:
    """Accept a strategy instance, a registered name, or None (grid search)."""
    if strategy is None:
        return GridSearch()
    if isinstance(strategy, SearchStrategy):
        return strategy
    if isinstance(strategy, str):
        try:
            return STRATEGIES[strategy]()
        except KeyError:
            known = ", ".join(sorted(STRATEGIES))
            raise KeyError(f"unknown search strategy {strategy!r}; known: {known}") from None
    raise TypeError(f"strategy must be a SearchStrategy, name or None, got {type(strategy).__name__}")
