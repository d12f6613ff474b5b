"""DSE scaling benchmarks: memoized engine, parallel explorer, execution backends.

Thin shims over the ``dse_scaling``, ``dse_large_grid`` and
``dse_backend_scaling`` scenarios: the experiments themselves (setup, table
rendering, qualitative shape checks) live in :mod:`repro.scenarios.catalog` and
also run via ``python -m repro run <name>``.  This file only adapts them to the
pytest-benchmark harness and persists the tables to ``benchmarks/results/``.

``dse_scaling`` measures what the shared pass cache buys within one process;
``dse_backend_scaling`` measures what the process backend buys *across* GILs on
the 192-point ``dse_large_grid`` sweep (its ``jobs`` param sizes the worker
pools: ``python -m repro run dse_backend_scaling --param jobs=4``).  The timing tables are wall-clock and therefore not byte-reproducible
(both scenarios are registered with ``deterministic=False``); the large-grid
table itself is byte-identical under every backend.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.report import save_result_text
from repro.scenarios import REGISTRY

RESULTS_DIR = Path(__file__).parent / "results"


def _bench_scenario(benchmark, name: str, **kwargs):
    outcome = benchmark.pedantic(
        lambda: REGISTRY.run(name, **kwargs), rounds=1, iterations=1
    )
    save_result_text(RESULTS_DIR / f"{name}.txt", outcome.table)
    REGISTRY.verify(name, outcome)
    return outcome


def test_dse_scaling(benchmark):
    _bench_scenario(benchmark, "dse_scaling")


def test_dse_large_grid(benchmark):
    _bench_scenario(benchmark, "dse_large_grid")


def test_dse_backend_scaling(benchmark):
    outcome = _bench_scenario(benchmark, "dse_backend_scaling")
    timings = outcome.metrics["timings_ms"]
    print(
        f"\nbackend wall-clock on dse_large_grid ({outcome.metrics['jobs']} jobs): "
        + ", ".join(f"{b}={t:.1f} ms" for b, t in timings.items())
        + f"; processes are {timings['threads'] / timings['processes']:.2f}x vs threads"
    )
