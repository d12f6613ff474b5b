"""The scenario registry: declarative specs bound to their build/verify code.

Usage (see :mod:`repro.scenarios.catalog` for the real entries)::

    @REGISTRY.register(
        ScenarioSpec(name="fig6_layout", title="...", templates=("tempo",)),
        verify=_check_fig6,
    )
    def _build_fig6(ctx: ScenarioContext) -> ScenarioResult:
        ...

``REGISTRY.run(name)`` resolves parameters, consults the persistent
:class:`~repro.scenarios.store.ResultStore` (when one is supplied), executes the
build function against a :class:`ScenarioContext` carrying the shared
:class:`~repro.core.cache.EvaluationCache`, sanitizes the metrics to their
JSON-canonical form, and persists the artifact.
"""

from __future__ import annotations

import difflib
import json
import time
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

import numpy as np

from repro.arch.architecture import Architecture, HeterogeneousArchitecture
from repro.core.cache import EvaluationCache
from repro.core.config import SimulationConfig
from repro.core.engine import EvaluationEngine, SimulationResult
from repro.core.knobs import repro_env_snapshot
from repro.scenarios.spec import ScenarioResult, ScenarioSpec
from repro.scenarios.store import ResultStore, scenario_fingerprint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.explore.dse import DesignSpace, DesignSpaceExplorer

BuildFn = Callable[["ScenarioContext"], ScenarioResult]
VerifyFn = Callable[[ScenarioResult], None]


@dataclass
class ScenarioContext:
    """Everything a scenario build function needs to execute.

    The context carries the resolved per-run parameters and the evaluation
    cache shared across a batch, plus engine-backed conveniences so scenario
    code does not hand-roll `Simulator` plumbing.
    """

    spec: ScenarioSpec
    params: Dict[str, Any] = field(default_factory=dict)
    cache: EvaluationCache = field(default_factory=EvaluationCache)

    def simulate(
        self,
        system: Union[Architecture, HeterogeneousArchitecture],
        workloads: object,
        config: Optional[SimulationConfig] = None,
        type_rules: Optional[Dict[str, str]] = None,
    ) -> SimulationResult:
        """Run the staged engine over ``system`` with the batch-shared cache."""
        engine = EvaluationEngine(
            system,
            config if config is not None else self.spec.sim_config(),
            type_rules=type_rules,
            cache=self.cache,
        )
        return engine.run(workloads)

    def explorer(
        self,
        builder: Callable[..., Architecture],
        workloads: Sequence[object],
        **kwargs: Any,
    ) -> DesignSpaceExplorer:
        """A design-space explorer wired to the batch-shared cache."""
        from repro.explore.dse import DesignSpaceExplorer

        kwargs.setdefault("cache", self.cache)
        return DesignSpaceExplorer(builder, workloads, **kwargs)

    def design_space(self) -> DesignSpace:
        """The spec's declarative sweep axes as a DesignSpace."""
        if not self.spec.sweep:
            raise ValueError(f"scenario {self.spec.name!r} declares no sweep axes")
        from repro.explore.dse import DesignSpace

        return DesignSpace.from_axes(self.spec.sweep)

    def evaluate_accuracy(self, arch: Architecture, request) -> object:
        """Monte Carlo accuracy of ``request`` on ``arch`` via the shared cache.

        ``request`` is a :class:`~repro.variation.montecarlo.AccuracyRequest`;
        the study runs through the engine's memoized ``receiver_precision`` /
        ``mc_accuracy`` passes, so repeated magnitudes or architectures within
        a batch are cache hits.
        """
        engine = EvaluationEngine(arch, self.spec.sim_config(), cache=self.cache)
        return engine.run_accuracy(request)


@dataclass
class Scenario:
    """A registered scenario: declarative spec + build + optional verification."""

    spec: ScenarioSpec
    build: BuildFn
    verify: Optional[VerifyFn] = None

    @property
    def name(self) -> str:
        return self.spec.name


def _jsonify(value: Any) -> Any:
    """Canonicalize metrics to what a JSON round-trip would return."""
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"scenario metrics must be JSON-serializable, got {type(value).__name__}: {value!r}"
    )


class ScenarioRegistry:
    """Name -> :class:`Scenario` mapping with decorator-based registration."""

    def __init__(self) -> None:
        self._scenarios: Dict[str, Scenario] = {}

    # -- registration ------------------------------------------------------------------
    def register(
        self, spec: ScenarioSpec, verify: Optional[VerifyFn] = None
    ) -> Callable[[BuildFn], BuildFn]:
        """Decorator registering ``spec`` with the decorated build function."""

        def decorator(build: BuildFn) -> BuildFn:
            if spec.name in self._scenarios:
                raise ValueError(f"scenario {spec.name!r} is already registered")
            self._scenarios[spec.name] = Scenario(spec=spec, build=build, verify=verify)
            return build

        return decorator

    # -- lookup ------------------------------------------------------------------------
    def get(self, name: str) -> Scenario:
        try:
            return self._scenarios[name]
        except KeyError:
            close = difflib.get_close_matches(name, sorted(self._scenarios), n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise KeyError(
                f"unknown scenario {name!r}{hint}; "
                f"registered: {', '.join(sorted(self._scenarios))}"
            ) from None

    def names(self, tag: Optional[str] = None) -> List[str]:
        if tag is None:
            return sorted(self._scenarios)
        return sorted(
            name for name, sc in self._scenarios.items() if tag in sc.spec.tags
        )

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios

    def __iter__(self) -> Iterator[Scenario]:
        for name in sorted(self._scenarios):
            yield self._scenarios[name]

    def __len__(self) -> int:
        return len(self._scenarios)

    # -- execution ---------------------------------------------------------------------
    def fingerprint(
        self, name: str, params: Optional[Mapping[str, Any]] = None
    ) -> str:
        scenario = self.get(name)
        resolved = scenario.spec.resolve_params(params, env=repro_env_snapshot())
        return scenario_fingerprint(scenario.spec, resolved, scenario.build)

    def run(
        self,
        name: str,
        params: Optional[Mapping[str, Any]] = None,
        cache: Optional[EvaluationCache] = None,
        store: Optional[ResultStore] = None,
        force: bool = False,
    ) -> ScenarioResult:
        """Execute (or fetch from the store) one scenario and return its result.

        - ``params`` override the spec's declared parameter defaults;
        - ``cache`` is the evaluation cache shared across a batch (a private
          one is created per run when omitted);
        - ``store``, when given, is consulted before running and updated after;
        - ``force`` bypasses the store lookup (the artifact is still rewritten).
        """
        scenario = self.get(name)
        resolved = scenario.spec.resolve_params(params, env=repro_env_snapshot())
        fingerprint = scenario_fingerprint(scenario.spec, resolved, scenario.build)
        if store is not None and not force:
            stored = store.load(name, fingerprint)
            if stored is not None:
                return stored
        ctx = ScenarioContext(
            spec=scenario.spec,
            params=resolved,
            cache=cache if cache is not None else EvaluationCache(),
        )
        start = time.perf_counter()
        result = scenario.build(ctx)
        result.name = name
        result.fingerprint = fingerprint
        result.params = dict(resolved)
        result.elapsed_s = time.perf_counter() - start
        result.metrics = _jsonify(result.metrics)
        # Self-check: the artifact body must survive a JSON round-trip as-is.
        result.metrics = json.loads(json.dumps(result.metrics))
        if store is not None:
            store.save(result)
        return result

    def verify(self, name: str, result: ScenarioResult) -> None:
        """Run the scenario's qualitative shape checks against ``result``."""
        scenario = self.get(name)
        if scenario.verify is not None:
            scenario.verify(result)


#: The process-wide registry every catalog entry registers into.
REGISTRY = ScenarioRegistry()


def run_scenario(name: str, **kwargs: Any) -> ScenarioResult:
    """Convenience wrapper over :meth:`ScenarioRegistry.run` on the global registry."""
    return REGISTRY.run(name, **kwargs)
