"""Declarative scenario subsystem: registry, batch runner, persistent store.

Every figure/table experiment of the paper's evaluation -- and every extension
study -- is a registered :class:`~repro.scenarios.spec.ScenarioSpec` executed
through the staged :class:`~repro.core.engine.EvaluationEngine`.  The public
surface:

- :data:`REGISTRY` / :func:`run_scenario` -- look up and execute scenarios;
- :class:`BatchRunner` -- run many scenarios with one shared evaluation cache
  and a persistent on-disk :class:`ResultStore`;
- ``python -m repro`` (:mod:`repro.cli`) -- the command-line frontend.

Importing this package registers the full catalog.
"""

import importlib

from repro.scenarios.registry import (
    REGISTRY,
    Scenario,
    ScenarioContext,
    ScenarioRegistry,
    run_scenario,
)
from repro.scenarios.spec import ScenarioResult, ScenarioSpec
from repro.scenarios.store import ResultStore, default_store_root, scenario_fingerprint
from repro.scenarios.workloads import ablation_workload, paper_gemm, scatter_conv_workload

# Registering the catalog is an import side effect by design: any importer of
# ``repro.scenarios`` sees the complete registry.
from repro.scenarios import catalog  # noqa: E402,F401  (registration side effect)

#: Names served from their module on first access.  The batch runner and the
#: timing harness import the execution backends (and the harness the Monte
#: Carlo sampler); running registered scenarios needs neither.
_LAZY_NAMES = {
    "BatchItem": "repro.scenarios.runner",
    "BatchReport": "repro.scenarios.runner",
    "BatchRunner": "repro.scenarios.runner",
    "DEFAULT_BENCH_PATH": "repro.scenarios.bench",
    "bench_scenarios": "repro.scenarios.bench",
    "check_speedups": "repro.scenarios.bench",
    "time_scenario": "repro.scenarios.bench",
    "write_bench_report": "repro.scenarios.bench",
}


def __getattr__(name: str) -> object:
    module = _LAZY_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


__all__ = [
    "REGISTRY",
    "Scenario",
    "ScenarioContext",
    "ScenarioRegistry",
    "ScenarioResult",
    "ScenarioSpec",
    "BatchItem",
    "BatchReport",
    "BatchRunner",
    "ResultStore",
    "default_store_root",
    "scenario_fingerprint",
    "run_scenario",
    "DEFAULT_BENCH_PATH",
    "bench_scenarios",
    "check_speedups",
    "time_scenario",
    "write_bench_report",
    "paper_gemm",
    "scatter_conv_workload",
    "ablation_workload",
]
