"""Pluggable process-parallel execution layer.

``repro.exec`` is the one place that knows how to fan work out: the batch
scenario runner and the design-space explorer both consume
:class:`ExecutionBackend` instead of hand-rolled executor code, so ``--backend
{serial,threads,processes,cluster} --jobs N`` means the same thing everywhere.
Alongside the backends:

- :mod:`~repro.exec.pool` keeps the process backend's warm pools alive
  across dispatches (its one pool lifecycle);
- :mod:`~repro.exec.shm` ships large payloads as content-addressed
  shared-memory handles, inline below 64 KiB or where shared memory is
  unavailable;
- :mod:`~repro.exec.cluster` runs the same task encodings on TCP-connected
  worker processes, possibly on other hosts;
- :mod:`~repro.exec.telemetry` keeps the accounting (engine passes, per-pass
  wall-clock, cache hit/miss counters) mergeable across process and host
  boundaries, so reports look identical no matter which backend ran the work.

Timed Monte Carlo stages that run in a worker are summed there and re-emitted
in the dispatching parent through :mod:`repro.core.observe`, so one observer
sees the same stage names on every backend.
"""

from repro.exec.backends import (
    BACKENDS,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
    applied_env_snapshot,
    available_cpus,
    default_jobs,
    partition_indices,
    repro_env_snapshot,
    resolve_backend,
    steal_partition,
)
from repro.exec.pool import pool_status, stop_pools
from repro.exec.shm import (
    ShmHandle,
    active_segments,
    as_array,
    as_object,
    publish_array,
    publish_object,
    resolve_array,
    resolve_object,
    set_fetch_hook,
    unlink_all,
)
from repro.exec.cluster import (
    ClusterBackend,
    ClusterCoordinator,
    ClusterTaskError,
    coordinator_for,
    parse_address,
    run_worker,
    shutdown_coordinators,
    spawn_local_workers,
)
from repro.exec.telemetry import (
    scoped_pass_observer,
    WorkerTelemetry,
    cache_stats_delta,
    cache_stats_snapshot,
    merge_cache_stats,
    merge_pass_timings,
    render_pass_timings,
)

__all__ = [
    "BACKENDS",
    "ClusterBackend",
    "ClusterCoordinator",
    "ClusterTaskError",
    "ExecutionBackend",
    "ProcessBackend",
    "SerialBackend",
    "ShmHandle",
    "ThreadBackend",
    "WorkerTelemetry",
    "active_segments",
    "applied_env_snapshot",
    "as_array",
    "as_object",
    "available_cpus",
    "partition_indices",
    "cache_stats_delta",
    "cache_stats_snapshot",
    "coordinator_for",
    "default_jobs",
    "merge_cache_stats",
    "merge_pass_timings",
    "parse_address",
    "pool_status",
    "publish_array",
    "publish_object",
    "render_pass_timings",
    "repro_env_snapshot",
    "resolve_array",
    "resolve_backend",
    "resolve_object",
    "run_worker",
    "set_fetch_hook",
    "shutdown_coordinators",
    "spawn_local_workers",
    "steal_partition",
    "stop_pools",
    "unlink_all",
]
