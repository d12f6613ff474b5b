"""Persistent warm process pools: the process backend's one lifecycle.

A fresh :class:`~concurrent.futures.ProcessPoolExecutor` pays fork +
interpreter start + module import on every dispatch, and its workers die with
their memoized state (objects resolved from shared-memory handles,
architecture builds).  The process backend therefore leases its executor from
this module: one pool per worker count stays alive across dispatches, so the
second dispatch starts with imported modules and warm caches.

Correctness guards:

- **env-snapshot revalidation** -- a pool remembers the ``REPRO_*`` snapshot it
  was forked under; a checkout under a different snapshot restarts the pool
  (forked workers inherit the environment of their fork, and not every task
  encoding pins every knob), so a warm pool can never serve stale modes.  If
  the mismatch shows up while another lease is active, the checkout gets a
  private single-use executor instead of restarting a pool mid-dispatch.  A
  pool whose executor broke (a worker died) is replaced the same way.
- **nested dispatch** -- a checkout made inside a pool worker also gets a
  private executor: the fork-inherited registry names executors whose
  management threads only exist in the parent, and a persistent pool owned by
  a worker would hang that worker's exit.
- **idle reaping** -- a released pool schedules its own shutdown after
  ``REPRO_POOL_IDLE_S`` seconds without a lease, bounding resident workers.
- **explicit stop** -- ``repro pool stop`` (and ``atexit``) tears everything
  down; a fork-inherited registry is pid-guarded so worker children never
  shut down the parent's pools.
- **BLAS threads** -- every worker pins numpy's OpenBLAS to
  :func:`blas_threads_per_worker` threads at spawn, so ``jobs`` workers split
  the CPUs instead of each running a CPU-wide BLAS thread pool.

Workers outlive the dispatch that forked them, so per-worker memos must not
leak between independent callers: consumers key them by a token minted per
call, next to a content digest of the inputs (see
:func:`repro.explore.dse._worker_explorer`).
"""

from __future__ import annotations

import atexit
import ctypes
import glob
import multiprocessing
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core import knobs
from repro.core.knobs import repro_env_snapshot

POOL_IDLE_ENV = "REPRO_POOL_IDLE_S"

Lease = Tuple[ProcessPoolExecutor, Callable[[], None]]


def _idle_seconds() -> float:
    return float(knobs.value(POOL_IDLE_ENV))


def available_cpus() -> int:
    """CPUs this process may actually run on.

    Prefers the scheduler affinity mask over ``os.cpu_count()`` so
    cpuset-restricted containers (docker ``--cpuset-cpus``, K8s, taskset) size
    their pools -- and gate their wall-clock expectations -- on effective
    cores, not the host's.
    """
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def blas_threads_per_worker(jobs: int) -> int:
    """BLAS threads each worker of a ``jobs``-worker pool runs: an even CPU split."""
    return max(1, available_cpus() // jobs)


#: numpy's bundled OpenBLAS names its thread controls with a
#: ``scipy_openblas`` prefix and ``64_`` suffix; plain OpenBLAS builds do not.
_OPENBLAS_SYMBOLS = ("scipy_openblas_{}64_", "openblas_{}")


def openblas_function(name: str) -> Optional[Callable[..., int]]:
    """numpy's OpenBLAS ``{name}`` control (e.g. ``set_num_threads``), or None.

    Opens the library numpy's wheel bundles in ``numpy.libs`` -- ``dlopen`` of
    an already-loaded path returns the same handle -- so the control acts on
    the BLAS numpy itself calls.
    """
    libs = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for pattern in _OPENBLAS_SYMBOLS:
            function = getattr(library, pattern.format(name), None)
            if function is not None:
                return function
    return None


def _pin_blas_threads(threads: int) -> None:
    """Pool-worker initializer: size numpy's BLAS to ``threads`` (no-op without it)."""
    set_threads = openblas_function("set_num_threads")
    if set_threads is not None:
        set_threads(threads)


def _executor(jobs: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_pin_blas_threads,
        initargs=(blas_threads_per_worker(jobs),),
    )


class _WarmPool:
    """One persistent executor plus the bookkeeping that keeps it honest."""

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self.env = repro_env_snapshot()
        self.executor = _executor(jobs)
        self.leases = 0
        self.created_at = time.monotonic()
        self.last_released = time.monotonic()
        self.dispatches = 0
        self.restarts = 0
        self.reaper: Optional[threading.Timer] = None

    def cancel_reaper(self) -> None:
        if self.reaper is not None:
            self.reaper.cancel()
            self.reaper = None

    def stale(self, snapshot: Dict[str, str]) -> bool:
        """True when this pool must not serve a checkout under ``snapshot``."""
        return self.env != snapshot or bool(getattr(self.executor, "_broken", False))


_POOLS: Dict[int, _WarmPool] = {}
_LOCK = threading.Lock()
_OWNER_PID = os.getpid()


def _private(jobs: int) -> Lease:
    """A single-use executor, torn down by its release."""
    executor = _executor(jobs)
    return executor, lambda: executor.shutdown(wait=True)


def checkout(jobs: int) -> Lease:
    """Lease the warm pool for ``jobs`` workers: ``(executor, release)``.

    The caller must invoke ``release()`` exactly once when its dispatch scope
    ends; the executor itself must *not* be shut down by the caller.  Leases
    are re-entrant across threads (the executor is thread-safe), and the pool
    is created -- or restarted, when the ``REPRO_*`` snapshot moved -- on
    demand.
    """
    if multiprocessing.parent_process() is not None:
        return _private(jobs)
    snapshot = repro_env_snapshot()
    with _LOCK:
        pool = _POOLS.get(jobs)
        restarted = False
        if pool is not None and pool.stale(snapshot):
            if pool.leases:
                # Another lease is mid-flight on this pool; serve this caller
                # a private executor rather than restarting an active pool.
                return _private(jobs)
            pool.cancel_reaper()
            _shutdown_pool(pool, wait=False)
            pool = None
            restarted = True
        if pool is None:
            pool = _WarmPool(jobs)
            if restarted:
                pool.restarts += 1
            _POOLS[jobs] = pool
        pool.cancel_reaper()
        pool.leases += 1
        pool.dispatches += 1
        executor = pool.executor

    released = threading.Event()

    def release() -> None:
        if released.is_set():
            return
        released.set()
        with _LOCK:
            if _POOLS.get(jobs) is not pool:
                return
            pool.leases -= 1
            pool.last_released = time.monotonic()
            if pool.leases == 0:
                _schedule_reap_locked(pool)

    return executor, release


def _schedule_reap_locked(pool: _WarmPool) -> None:
    idle_s = _idle_seconds()
    if idle_s <= 0:
        return
    pool.cancel_reaper()
    timer = threading.Timer(idle_s, _reap, args=(pool,))
    timer.daemon = True
    pool.reaper = timer
    timer.start()


def _reap(pool: _WarmPool) -> None:
    with _LOCK:
        if _POOLS.get(pool.jobs) is not pool or pool.leases > 0:
            return
        _POOLS.pop(pool.jobs, None)
    _shutdown_pool(pool, wait=False)


def _shutdown_pool(pool: _WarmPool, wait: bool) -> None:
    try:
        pool.executor.shutdown(wait=wait)
    except Exception:  # pragma: no cover - interpreter-teardown races
        pass


def stop_pools(wait: bool = True) -> int:
    """Shut down every warm pool this process owns; returns how many stopped."""
    if os.getpid() != _OWNER_PID:
        return 0  # fork-inherited registry: the parent owns these executors
    with _LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.cancel_reaper()
        _shutdown_pool(pool, wait=wait)
    return len(pools)


def pool_status() -> List[Dict[str, object]]:
    """One record per live warm pool (the ``repro pool status`` payload)."""
    now = time.monotonic()
    with _LOCK:
        return [
            {
                "jobs": pool.jobs,
                "leases": pool.leases,
                "dispatches": pool.dispatches,
                "restarts": pool.restarts,
                "age_s": round(now - pool.created_at, 3),
                "idle_s": round(now - pool.last_released, 3) if pool.leases == 0 else 0.0,
            }
            for _jobs, pool in sorted(_POOLS.items())
        ]


atexit.register(stop_pools, wait=False)
