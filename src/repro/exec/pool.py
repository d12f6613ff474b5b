"""Persistent warm process pools shared across dispatches.

A cold :class:`~concurrent.futures.ProcessPoolExecutor` pays fork + interpreter
start + module import for every ``BatchRunner`` / ``DesignSpaceExplorer``
invocation, and its workers die with their memoized state (per-worker caches,
objects resolved from shared-memory handles, architecture builds).  With
``REPRO_POOL=warm`` the process backend leases its executor from this module
instead: one pool per worker count stays alive across dispatches, so the
second dispatch starts with imported modules and warm caches.

Correctness guards:

- **env-snapshot revalidation** -- a pool remembers the ``REPRO_*`` snapshot it
  was forked under; a checkout under a different snapshot restarts the pool
  (forked workers inherit the environment of their fork, and not every task
  encoding pins every knob), so a warm pool can never serve stale modes.  If
  the mismatch shows up while another lease is active, the checkout gets a
  private single-use executor instead -- cold semantics, never a stale pool.
- **idle reaping** -- a released pool schedules its own shutdown after
  ``REPRO_POOL_IDLE_S`` seconds without a lease, bounding resident workers.
- **explicit stop** -- ``repro pool stop`` (and ``atexit``) tears everything
  down; a fork-inherited registry is pid-guarded so worker children never
  shut down the parent's pools.

``REPRO_POOL=cold`` (the default) bypasses this module entirely: the process
backend keeps its historical build-per-dispatch behaviour, which is also the
right mode for tests that assert cold-start pass counts.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Tuple

from repro.core import knobs
from repro.core.knobs import repro_env_snapshot

POOL_ENV = "REPRO_POOL"
POOL_IDLE_ENV = "REPRO_POOL_IDLE_S"


def pool_mode() -> str:
    """The effective ``REPRO_POOL`` value (``warm`` or ``cold``)."""
    return knobs.value(POOL_ENV)


def _idle_seconds() -> float:
    return float(knobs.value(POOL_IDLE_ENV))


class _WarmPool:
    """One persistent executor plus the bookkeeping that keeps it honest."""

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self.env = repro_env_snapshot()
        self.executor = ProcessPoolExecutor(max_workers=jobs)
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


_POOLS: Dict[int, _WarmPool] = {}
_LOCK = threading.Lock()
_OWNER_PID = os.getpid()


def checkout(jobs: int) -> Tuple[ProcessPoolExecutor, Callable[[], None]]:
    """Lease the warm pool for ``jobs`` workers: ``(executor, release)``.

    The caller must invoke ``release()`` exactly once when its dispatch scope
    ends; the executor itself must *not* be shut down by the caller.  Leases
    are re-entrant across threads (the executor is thread-safe), and the pool
    is created -- or restarted, when the ``REPRO_*`` snapshot moved -- on
    demand.
    """
    snapshot = repro_env_snapshot()
    with _LOCK:
        pool = _POOLS.get(jobs)
        if pool is not None and pool.env != snapshot:
            if pool.leases == 0:
                pool.cancel_reaper()
                _shutdown_pool(pool, wait=False)
                _POOLS.pop(jobs, None)
                pool = None
                restarted = True
            else:
                # Another lease is mid-flight under the old snapshot; serve
                # this caller a private cold executor rather than restarting
                # a pool that is actively executing.
                private = ProcessPoolExecutor(max_workers=jobs)
                return private, lambda: private.shutdown(wait=True)
        else:
            restarted = False
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
