"""Machine-readable performance benchmarking of registered scenarios.

``repro bench`` times scenarios from the registry -- warmup runs followed by
timed repeats, each against a fresh private :class:`EvaluationCache` and no
result store, so every repeat measures real engine work -- and writes a
versioned JSON report (``BENCH_PR6.json`` by default) seeding the repo's
performance trajectory: one file per PR, diffable across hosts and commits.

Schema ``repro-bench/2`` makes every timing block self-describing:

- ``knobs`` records the active perf knobs (``REPRO_FORWARD``, ``REPRO_RNG``,
  ``REPRO_DTYPE``, ``REPRO_MC_TRIALS``) so entries from different modes are
  never compared apples-to-oranges (the execution backend is a scenario
  parameter, recorded with the report's ``params``);
- ``stages_s`` / ``stage_fractions`` attribute the Monte Carlo wall-clock to
  the rng / forward / quantize / metrics stages (the non-pass events of
  :mod:`repro.core.observe`), recording where the *next* ceiling is.

A scenario can be timed along three axes: the legacy ``REPRO_FORWARD=loop``
path (``compare_loop`` -> ``speedup_median``, the regression gate CI's
perf-smoke job checks), and the ``rng`` / ``dtype`` throughput modes.  When a
non-reference rng or dtype is selected, the bit-exact reference mode
(``vectorized`` + ``seedseq`` + ``float64``) is timed alongside and
``speedup_vs_reference_median`` records the additional speedup the fast path
buys over it.
"""

from __future__ import annotations

import contextlib
import json
import platform
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.cache import EvaluationCache
from repro.core.knobs import forced_env as _forced_env
from repro.core.knobs import raw_value as _knob_raw
from repro.core.observe import observe, stage_totals
from repro.exec.backends import available_cpus, default_jobs
from repro.exec.pool import blas_threads_per_worker
from repro.onn.layers import (
    DTYPE_MODE_ENV,
    FORWARD_MODE_ENV,
    dtype_mode,
    forward_mode,
)
from repro.scenarios.registry import REGISTRY
from repro.variation.sampler import RNG_MODE_ENV, rng_mode

#: Schema tag embedded in every report, bumped on incompatible layout changes.
BENCH_SCHEMA = "repro-bench/2"

#: Default output path -- the repo-root perf-trajectory artifact of this PR.
DEFAULT_BENCH_PATH = "BENCH_PR10.json"

#: Environment knobs recorded verbatim in every timing block.
_RECORDED_ENV = ("REPRO_MC_TRIALS",)

#: The bit-exact reference mode: the only mode committed scenario tables
#: reproduce under, and the baseline ``speedup_vs_reference_median`` divides by.
REFERENCE_MODE = ("vectorized", "seedseq", "float64")


def _percentile(sorted_times: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sample (stable for tiny N)."""
    if not sorted_times:
        raise ValueError("no samples")
    rank = max(0, min(len(sorted_times) - 1, int(round(fraction * (len(sorted_times) - 1)))))
    return sorted_times[rank]


@dataclass
class BenchTiming:
    """Timed repeats of one scenario on one (forward, rng, dtype) mode."""

    mode: str
    repeats: int
    warmup: int
    times_s: List[float] = field(default_factory=list)
    median_s: float = 0.0
    p90_s: float = 0.0
    min_s: float = 0.0
    mean_s: float = 0.0
    engine_passes: int = 0
    cache_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Active perf knobs at measurement time (self-describing entries).
    knobs: Dict[str, Optional[str]] = field(default_factory=dict)
    #: Per-stage wall-clock totals over the timed repeats (absent stages ran 0s).
    stages_s: Dict[str, float] = field(default_factory=dict)
    #: Each stage's fraction of the total timed wall-clock.
    stage_fractions: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_times(
        cls,
        mode: str,
        warmup: int,
        times_s: Sequence[float],
        engine_passes: int,
        cache_stats: Mapping[str, Mapping[str, float]],
        knobs: Optional[Mapping[str, Optional[str]]] = None,
        stages_s: Optional[Mapping[str, float]] = None,
    ) -> "BenchTiming":
        ordered = sorted(times_s)
        total = float(sum(times_s))
        stages = {k: float(v) for k, v in (stages_s or {}).items()}
        return cls(
            mode=mode,
            repeats=len(ordered),
            warmup=warmup,
            times_s=[float(t) for t in times_s],
            median_s=_percentile(ordered, 0.5),
            p90_s=_percentile(ordered, 0.9),
            min_s=ordered[0],
            mean_s=float(sum(ordered) / len(ordered)),
            engine_passes=int(engine_passes),
            cache_stats={k: dict(v) for k, v in cache_stats.items()},
            knobs=dict(knobs or {}),
            stages_s=stages,
            stage_fractions={
                k: (v / total if total > 0 else 0.0) for k, v in stages.items()
            },
        )


@contextlib.contextmanager
def _forced_forward_mode(mode: Optional[str]) -> Iterator[None]:
    """Pin ``$REPRO_FORWARD`` for the duration of the block (None = leave as is)."""
    with _forced_env(FORWARD_MODE_ENV, mode):
        yield


def _active_knobs() -> Dict[str, Optional[str]]:
    """The resolved perf knobs plus the raw execution-shape environment."""
    knobs: Dict[str, Optional[str]] = {
        FORWARD_MODE_ENV: forward_mode(),
        RNG_MODE_ENV: rng_mode(),
        DTYPE_MODE_ENV: dtype_mode(),
    }
    for var in _RECORDED_ENV:
        knobs[var] = _knob_raw(var)
    return knobs


def time_scenario(
    name: str,
    repeats: int = 3,
    warmup: int = 1,
    params: Optional[Mapping[str, Any]] = None,
    mode: Optional[str] = None,
    rng: Optional[str] = None,
    dtype: Optional[str] = None,
) -> BenchTiming:
    """Time ``repeats`` fresh runs of one scenario (after ``warmup`` discards).

    Every run gets a private evaluation cache and bypasses the result store,
    so the wall-clock covers the scenario's real engine passes; the pass count,
    the final run's per-stage cache hit rates, the active perf knobs and the
    variation pipeline's per-stage wall-clock are recorded alongside the
    timings (scenarios with internal sweeps legitimately hit their own cache).

    ``mode`` / ``rng`` / ``dtype`` pin ``$REPRO_FORWARD`` / ``$REPRO_RNG`` /
    ``$REPRO_DTYPE`` for the measurement; ``None`` leaves the ambient value.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be positive, got {repeats}")
    if warmup < 0:
        raise ValueError(f"warmup must be non-negative, got {warmup}")
    times: List[float] = []
    passes = 0
    stats: Dict[str, Dict[str, float]] = {}
    stages_s: Dict[str, float] = {}
    with _forced_env(FORWARD_MODE_ENV, mode), _forced_env(
        RNG_MODE_ENV, rng
    ), _forced_env(DTYPE_MODE_ENV, dtype):
        knobs = _active_knobs()
        mode_label = "/".join(
            (knobs[FORWARD_MODE_ENV], knobs[RNG_MODE_ENV], knobs[DTYPE_MODE_ENV])
        )
        for round_index in range(warmup + repeats):
            cache = EvaluationCache()
            pass_count = 0

            def count(stage: str, seconds: float, engine: Any) -> None:
                nonlocal pass_count
                if engine is not None and engine.cache is cache:
                    pass_count += 1

            with observe(count), stage_totals() as round_stages:
                start = time.perf_counter()
                REGISTRY.run(name, params=params, cache=cache, store=None, force=True)
                elapsed = time.perf_counter() - start
            if round_index >= warmup:
                times.append(elapsed)
                passes = pass_count
                for stage, seconds in round_stages.items():
                    stages_s[stage] = stages_s.get(stage, 0.0) + seconds
                stats = {
                    stage: {
                        "hits": stat.hits,
                        "misses": stat.misses,
                        "hit_rate": stat.hit_rate,
                    }
                    for stage, stat in cache.stats.items()
                }
    return BenchTiming.from_times(
        mode_label, warmup, times, passes, stats, knobs=knobs,
        stages_s=stages_s,
    )


def bench_scenarios(
    names: Sequence[str],
    repeats: int = 3,
    warmup: int = 1,
    compare_loop: Sequence[str] = (),
    params: Optional[Mapping[str, Any]] = None,
    rng: Optional[str] = None,
    dtype: Optional[str] = None,
) -> Dict[str, Any]:
    """Benchmark ``names`` and return the JSON-ready report payload.

    The headline ``vectorized`` timing runs on the requested ``rng`` / ``dtype``
    modes (defaults: the ambient environment, normally the bit-exact reference).
    Scenarios listed in ``compare_loop`` are additionally timed on the legacy
    ``REPRO_FORWARD=loop`` path (same rng/dtype); their entries gain a ``loop``
    timing block and ``speedup_median`` (loop median / vectorized median --
    > 1 means the vectorized default is faster).  When the requested rng/dtype
    differ from the reference mode, each scenario is *also* timed on the
    reference mode (``reference`` block) and ``speedup_vs_reference_median``
    records reference median / vectorized median -- the additional speedup the
    selected throughput mode buys over the bit-exact contract.
    """
    unknown = [n for n in compare_loop if n not in names]
    if unknown:
        raise ValueError(
            f"compare-loop scenarios not in the benchmark selection: {unknown}"
        )
    scenarios: Dict[str, Any] = {}
    for name in names:
        vectorized = time_scenario(
            name, repeats=repeats, warmup=warmup, params=params,
            mode="vectorized", rng=rng, dtype=dtype,
        )
        entry: Dict[str, Any] = {"vectorized": asdict(vectorized)}
        # Scenarios that never enter the Monte Carlo pipeline (no rng/forward/
        # quantize/metrics stage time) are pure analytic table computations:
        # the rng/dtype throughput modes cannot change their wall-clock, so a
        # "reference comparison" would only record sub-millisecond timer
        # jitter as a fake speedup (BENCH_PR6 recorded 0.88-0.95x noise for
        # fig10a/fig6/fig7/table1).  Mark them instead of timing a
        # meaningless baseline.
        analytic_only = not vectorized.stages_s
        entry["analytic_only"] = analytic_only
        selected: Tuple[str, str, str] = (
            "vectorized",
            vectorized.knobs[RNG_MODE_ENV] or "seedseq",
            vectorized.knobs[DTYPE_MODE_ENV] or "float64",
        )
        if selected != REFERENCE_MODE and not analytic_only:
            reference = time_scenario(
                name, repeats=repeats, warmup=warmup, params=params,
                mode="vectorized", rng="seedseq", dtype="float64",
            )
            entry["reference"] = asdict(reference)
            entry["speedup_vs_reference_median"] = (
                reference.median_s / vectorized.median_s
                if vectorized.median_s > 0
                else 0.0
            )
        if name in compare_loop:
            loop = time_scenario(
                name, repeats=repeats, warmup=warmup, params=params,
                mode="loop", rng=rng, dtype=dtype,
            )
            entry["loop"] = asdict(loop)
            entry["speedup_median"] = (
                loop.median_s / vectorized.median_s if vectorized.median_s > 0 else 0.0
            )
        scenarios[name] = entry
    return {
        "schema": BENCH_SCHEMA,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": {
            "platform": platform.platform(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "cpus": available_cpus(),
            # What each worker of a default-sized process pool pins its BLAS to.
            "blas_threads_per_worker": blas_threads_per_worker(default_jobs()),
        },
        "settings": {
            "repeats": repeats,
            "warmup": warmup,
            "params": dict(params or {}),
            "forward_env": FORWARD_MODE_ENV,
            "rng_env": RNG_MODE_ENV,
            "dtype_env": DTYPE_MODE_ENV,
            "rng": rng,
            "dtype": dtype,
        },
        "scenarios": scenarios,
    }


def bench_cluster_scaling(
    name: str,
    worker_counts: Sequence[int] = (1, 2),
    repeats: int = 3,
    warmup: int = 1,
    params: Optional[Mapping[str, Any]] = None,
    rng: Optional[str] = None,
    dtype: Optional[str] = None,
    wait_s: float = 60.0,
) -> Dict[str, Any]:
    """Time one scenario serially and on localhost clusters of growing size.

    For every worker count a *fresh* coordinator is started on an ephemeral
    port and exactly that many ``repro worker`` subprocesses are spawned and
    torn down, so each measurement sees precisely the fleet it claims
    (persistent workers from a previous count can never inflate a later one).
    Returns the ``cluster_scaling`` payload block: the serial baseline plus a
    ``workers -> timing`` map with ``speedup_vs_serial_median`` ratios -- the
    workers x wall-clock record BENCH_PR7 tracks.

    The scenario must take ``backend`` / ``jobs`` params (the serial baseline
    runs ``backend=serial``, every cluster count ``backend=cluster``).
    Localhost workers share the host's cores, so the recorded scaling is a
    lower bound dominated by per-round shipping overhead; the same knobs point
    the backend at real remote hosts.
    """
    from repro.exec.cluster import (
        CLUSTER_HOST_ENV,
        CLUSTER_PORT_ENV,
        CLUSTER_WORKERS_ENV,
        coordinator_for,
        spawn_local_workers,
    )

    counts = sorted(set(int(c) for c in worker_counts))
    if not counts or counts[0] < 1:
        raise ValueError(f"worker counts must be positive, got {worker_counts!r}")
    serial = time_scenario(
        name, repeats=repeats, warmup=warmup,
        params={**(params or {}), "backend": "serial"},
        mode="vectorized", rng=rng, dtype=dtype,
    )
    block: Dict[str, Any] = {
        "scenario": name,
        "serial": asdict(serial),
        "cluster": {},
    }
    for count in counts:
        coordinator = coordinator_for("127.0.0.1", 0)
        processes = spawn_local_workers(count, coordinator.host, coordinator.port)
        try:
            coordinator.wait_for_workers(count, wait_s)
            with _forced_env(CLUSTER_HOST_ENV, coordinator.host), _forced_env(
                CLUSTER_PORT_ENV, str(coordinator.port)
            ), _forced_env(CLUSTER_WORKERS_ENV, str(count)):
                timing = time_scenario(
                    name, repeats=repeats, warmup=warmup,
                    params={**(params or {}), "backend": "cluster"},
                    mode="vectorized", rng=rng, dtype=dtype,
                )
        finally:
            coordinator.close("shutdown")
            for process in processes:
                try:
                    process.wait(timeout=10)
                except Exception:  # noqa: BLE001 - last resort below
                    process.terminate()
                    process.wait(timeout=10)
        entry = asdict(timing)
        entry["workers"] = count
        entry["speedup_vs_serial_median"] = (
            serial.median_s / timing.median_s if timing.median_s > 0 else 0.0
        )
        block["cluster"][str(count)] = entry
    return block


def bench_dispatch_comparison(
    name: str = "variation_robustness",
    repeats: int = 3,
    warmup: int = 1,
    jobs: Optional[int] = None,
    params: Optional[Mapping[str, Any]] = None,
    rng: Optional[str] = None,
    dtype: Optional[str] = None,
) -> Dict[str, Any]:
    """Time one scenario serially and on the warm process pool.

    The scenario must take ``backend`` / ``jobs`` params: the baseline runs
    ``backend=serial``, the ``warm`` entry ``backend=processes`` (plus
    ``jobs`` when given), reusing one persistent pool across the timed repeats
    (the warmup round absorbs the one-time spin-up).  The entry records
    ``speedup_vs_serial_median`` against the same-knobs serial baseline and
    ``dispatch_overhead_s``, its median minus the serial median: what the
    process backend costs end to end.  Warm pools are stopped before and after
    so the entry measures exactly the fleet it claims.
    """
    from repro.exec.pool import stop_pools

    base = dict(params or {})
    serial = time_scenario(
        name, repeats=repeats, warmup=warmup, params={**base, "backend": "serial"},
        mode="vectorized", rng=rng, dtype=dtype,
    )
    processes = {**base, "backend": "processes"}
    if jobs is not None:
        processes["jobs"] = jobs
    stop_pools()
    try:
        timing = time_scenario(
            name, repeats=repeats, warmup=warmup, params=processes,
            mode="vectorized", rng=rng, dtype=dtype,
        )
    finally:
        stop_pools()
    entry = asdict(timing)
    entry["pool"] = "warm"
    entry["speedup_vs_serial_median"] = (
        serial.median_s / timing.median_s if timing.median_s > 0 else 0.0
    )
    entry["dispatch_overhead_s"] = timing.median_s - serial.median_s
    return {
        "scenario": name,
        "serial": asdict(serial),
        "dispatch": {"warm": entry},
    }


def write_bench_report(
    payload: Mapping[str, Any], path: Union[str, Path] = DEFAULT_BENCH_PATH
) -> Path:
    """Write the report as stable, diff-friendly JSON and return its path."""
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return target


def check_speedups(
    payload: Mapping[str, Any],
    thresholds: Mapping[str, float],
    key: str = "speedup_median",
) -> List[str]:
    """Validate recorded speedups against per-scenario minimum factors.

    ``key`` selects which recorded ratio is gated: ``speedup_median`` (the
    loop-path comparison, default) or ``speedup_vs_reference_median`` (the
    throughput-mode-vs-reference comparison).  Returns human-readable
    violation messages (empty = all thresholds met).  Scenarios without the
    recorded comparison fail loudly -- a gate against a missing comparison
    selection silently passing CI.
    """
    labels = {
        "speedup_median": "no loop-path comparison recorded",
        "speedup_vs_reference_median": "no reference-mode comparison recorded",
    }
    failures = []
    for name, minimum in thresholds.items():
        entry = payload.get("scenarios", {}).get(name)
        if entry is None:
            failures.append(f"{name}: not benchmarked")
            continue
        speedup = entry.get(key)
        if speedup is None:
            if key == "speedup_vs_reference_median" and entry.get("analytic_only"):
                # Deterministic config error, not a jitter-dependent flake: an
                # analytic scenario has no Monte Carlo stage work for the
                # throughput modes to speed up, so no ratio is recorded.
                failures.append(
                    f"{name}: analytic-only scenario (no Monte Carlo stage "
                    "work), no reference ratio is recorded -- drop this "
                    "--fail-below-ref gate"
                )
            else:
                failures.append(f"{name}: {labels.get(key, f'no {key} recorded')}")
        elif speedup < minimum:
            failures.append(
                f"{name}: speedup {speedup:.2f}x below the "
                f"required {minimum:.2f}x ({key})"
            )
    return failures
