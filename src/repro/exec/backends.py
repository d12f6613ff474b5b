"""Pluggable execution backends: serial, thread-pool and process-pool.

One interface serves both orchestration layers -- design-point evaluation
batches in :class:`~repro.explore.dse.DesignSpaceExplorer` and batch scenario
runs in :class:`~repro.scenarios.runner.BatchRunner` -- instead of each
hand-rolling its own ``ThreadPoolExecutor`` plumbing:

- :class:`SerialBackend` runs tasks inline (the reference ordering);
- :class:`ThreadBackend` spreads tasks over a thread pool -- cheap to start and
  able to share live objects (caches, engines), but every pure-Python engine
  pass still contends for one GIL;
- :class:`ProcessBackend` sidesteps the GIL on the persistent warm process
  pool of :mod:`repro.exec.pool` (its only lifecycle).  Tasks and the shared
  context must be picklable (live engines stay home; consumers encode
  specs/overrides/workload data instead), scheduling is chunked so per-task IPC
  amortizes, and results always come back in task order, so a process run is
  byte-identical to a serial one.

All backends implement ``map_tasks(fn, tasks, shared=None)`` calling
``fn(shared, task)`` for every task and returning the results in task order.
``fn`` runs once per task; under :class:`ProcessBackend` it must be a
module-level (picklable) function and ``shared`` is pickled once per chunk,
which is where consumers put the bulky, task-invariant payload.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
from concurrent.futures import Executor, ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, Union

from repro.core import observe
from repro.core.knobs import REPRO_ENV_PREFIX, repro_env_snapshot
from repro.exec.pool import available_cpus, checkout

TaskFn = Callable[[Any, Any], Any]


def default_jobs() -> int:
    """Worker count when none is given: every core this process may use."""
    return available_cpus()


def _validate_jobs(jobs: Optional[int]) -> Optional[int]:
    if jobs is not None and (not isinstance(jobs, int) or jobs < 1):
        raise ValueError(f"jobs must be a positive integer, got {jobs!r}")
    return jobs


def partition_indices(count: int, parts: int) -> List[List[int]]:
    """Split ``range(count)`` into at most ``parts`` contiguous, near-equal chunks.

    A pure function of ``(count, parts)`` -- no backend or scheduling state --
    so every execution backend shards identically-seeded work the same way
    (the trial-batched Monte Carlo path relies on this for deterministic
    worker assignment).  Leading chunks take the remainder: sizes differ by at
    most one and concatenating the chunks restores ``range(count)``.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if parts < 1:
        raise ValueError(f"parts must be positive, got {parts}")
    if count == 0:
        return []
    parts = min(parts, count)
    base, extra = divmod(count, parts)
    chunks: List[List[int]] = []
    start = 0
    for index in range(parts):
        size = base + (1 if index < extra else 0)
        chunks.append(list(range(start, start + size)))
        start += size
    return chunks


# REPRO_ENV_PREFIX and repro_env_snapshot are owned by the knob registry
# (repro.core.knobs) and re-exported above: the snapshot derives from the
# declared knobs, so a newly registered numerics knob can never be forgotten
# from what task-shipping backends pin into encodings.


@contextlib.contextmanager
def applied_env_snapshot(snapshot: Optional[Dict[str, str]]):
    """Run with the ``REPRO_*`` environment replaced by ``snapshot``.

    ``None`` applies nothing (a pre-snapshot task encoding).  The worker's own
    ``REPRO_*`` variables are removed for the duration -- the snapshot is the
    *whole* mode state, so a knob unset in the parent must read as unset on
    the worker even if the worker's shell exported it.
    """
    if snapshot is None:
        yield
        return
    saved = {
        key: value
        for key, value in os.environ.items()
        if key.startswith(REPRO_ENV_PREFIX)
    }
    for key in saved:
        if key not in snapshot:
            del os.environ[key]
    os.environ.update(snapshot)
    try:
        yield
    finally:
        for key in list(os.environ):
            if key.startswith(REPRO_ENV_PREFIX) and key not in saved:
                del os.environ[key]
        os.environ.update(saved)


class ExecutionBackend:
    """Maps a task function over a task list with deterministic result order."""

    name = "backend"

    #: True for backends whose workers live in other processes (or hosts) and
    #: therefore receive *encoded* tasks: consumers route such backends through
    #: their picklable task path (module-level function + encoded context)
    #: instead of sharing live objects.  The cluster backend sets this too --
    #: one flag replaces scattered ``isinstance(backend, ProcessBackend)``
    #: checks.
    ships_tasks = False

    def __init__(self) -> None:
        self._pool: Optional[Executor] = None
        self._release: Optional[Callable[[], None]] = None
        self._session_depth = 0
        self._session_lock = threading.Lock()

    @property
    def jobs(self) -> int:
        return 1

    def _lease(self) -> "Optional[Tuple[Executor, Callable[[], None]]]":
        """Hook: the ``(executor, release)`` a session binds; None runs inline."""
        return None

    @contextlib.contextmanager
    def session(self):
        """Scope within which pools -- and per-worker state -- persist.

        Callers issuing several ``map_tasks`` rounds (e.g. feedback-driven
        search strategies) wrap them in one session so the executor is bound
        once: worker processes then keep their memoized state (per-worker
        caches, architecture builds) across rounds instead of paying startup
        and re-pickling per batch.  Sessions nest; the outermost one owns the
        lease.  Without a session the thread backend builds a pool per
        ``map_tasks`` call and the process backend leases the shared warm pool
        per call.
        """
        with self._session_lock:
            self._session_depth += 1
            if self._session_depth == 1:
                lease = self._lease()
                if lease is not None:
                    self._pool, self._release = lease
        try:
            yield self
        finally:
            with self._session_lock:
                self._session_depth -= 1
                if self._session_depth == 0 and self._release is not None:
                    release, self._pool, self._release = self._release, None, None
                    release()

    def map_tasks(
        self, fn: TaskFn, tasks: Sequence[Any], shared: Any = None
    ) -> List[Any]:
        """Run ``fn(shared, task)`` for every task; results keep task order.

        A task that raises propagates its exception to the caller (consumers
        that want per-task error capture catch inside ``fn``).
        """
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(jobs={self.jobs})"


class SerialBackend(ExecutionBackend):
    """Inline execution -- the reference behaviour every other backend must match."""

    name = "serial"

    def map_tasks(
        self, fn: TaskFn, tasks: Sequence[Any], shared: Any = None
    ) -> List[Any]:
        return [fn(shared, task) for task in tasks]


class ThreadBackend(ExecutionBackend):
    """Thread-pool execution: shared memory, shared caches, shared GIL."""

    name = "threads"

    def __init__(self, jobs: Optional[int] = None) -> None:
        super().__init__()
        self._jobs = _validate_jobs(jobs) or default_jobs()

    @property
    def jobs(self) -> int:
        return self._jobs

    def _lease(self) -> "Tuple[Executor, Callable[[], None]]":
        pool = ThreadPoolExecutor(max_workers=self._jobs)
        return pool, lambda: pool.shutdown(wait=True)

    def map_tasks(
        self, fn: TaskFn, tasks: Sequence[Any], shared: Any = None
    ) -> List[Any]:
        tasks = list(tasks)
        if not tasks:
            return []
        if self._pool is not None:
            # Executor.map preserves task order regardless of completion order.
            return list(self._pool.map(lambda task: fn(shared, task), tasks))
        workers = min(self._jobs, len(tasks))
        if workers == 1:
            return [fn(shared, task) for task in tasks]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(lambda task: fn(shared, task), tasks))


def _run_chunk(
    fn: TaskFn, shared: Any, chunk: List[Any], collect_stages: bool = False
) -> "Tuple[List[Any], Optional[Dict[str, float]]]":
    """Worker-side loop: one unpickle of (fn, shared) serves the whole chunk.

    Returns ``(results, stage_totals)``.  When the dispatching parent has an
    observer registered it asks for ``collect_stages``: the worker sums its own
    timed stage blocks (:func:`repro.core.observe.stage_totals`) and ships the
    totals home, where the parent re-emits them, so stage attribution survives
    the process boundary.
    """
    if not collect_stages:
        return [fn(shared, task) for task in chunk], None
    with observe.stage_totals() as totals:
        results = [fn(shared, task) for task in chunk]
    return results, (totals or None)


class ProcessBackend(ExecutionBackend):
    """Process-pool execution with chunked scheduling and ordered results.

    Every dispatch leases the persistent warm pool for ``jobs`` workers from
    :mod:`repro.exec.pool`.  Tasks ship in near-equal contiguous chunks, four
    per worker (:func:`partition_indices`), so the per-chunk pickling of the
    shared context amortizes over many tasks while workers that finish early
    pull the next pending chunk.  Results are reassembled in submission order,
    so the output is positionally identical to :class:`SerialBackend`.
    """

    name = "processes"
    ships_tasks = True

    def __init__(self, jobs: Optional[int] = None) -> None:
        super().__init__()
        self._jobs = _validate_jobs(jobs) or default_jobs()

    @property
    def jobs(self) -> int:
        return self._jobs

    def _lease(self) -> "Tuple[Executor, Callable[[], None]]":
        return checkout(self._jobs)

    def _chunks(self, tasks: List[Any]) -> List[List[Any]]:
        # Four chunks per worker: ProcessPoolExecutor scheduling is
        # completion-driven, so a straggler strands at most a quarter of its
        # share while per-chunk shipping stays amortized.
        return [
            tasks[bounds[0] : bounds[-1] + 1]
            for bounds in partition_indices(len(tasks), 4 * self._jobs)
        ]

    @staticmethod
    def check_picklable(fn: TaskFn, shared: Any, tasks: Sequence[Any]) -> None:
        """Fail fast with an actionable error instead of a mid-pool crash.

        Probes ``fn``, ``shared`` and the *first* task only -- task lists are
        homogeneous encodings (names, override dicts), so one probe catches
        the realistic failures without re-serializing a potentially large
        shared payload's worth of tasks twice per dispatch.
        """
        try:
            pickle.dumps((fn, shared, tasks[0] if tasks else None))
        except Exception as exc:
            raise ValueError(
                "the process backend needs picklable tasks: encode specs, "
                "overrides and workload data instead of live engine objects, "
                "and use module-level functions (not lambdas or closures) "
                f"[{type(exc).__name__}: {exc}]"
            ) from exc

    def map_tasks(
        self, fn: TaskFn, tasks: Sequence[Any], shared: Any = None
    ) -> List[Any]:
        tasks = list(tasks)
        if not tasks:
            return []
        self.check_picklable(fn, shared, tasks)
        chunks = self._chunks(tasks)
        # Outside a session this leases the warm pool for just this call.
        with self.session():
            return self._collect(self._pool, fn, shared, chunks)

    @staticmethod
    def _collect(
        pool: Executor, fn: TaskFn, shared: Any, chunks: List[List[Any]]
    ) -> List[Any]:
        collect = observe.active()
        futures = [
            pool.submit(_run_chunk, fn, shared, chunk, collect) for chunk in chunks
        ]
        results: List[Any] = []
        totals: Dict[str, float] = {}
        for future in futures:  # submission order == task order
            chunk_results, chunk_stages = future.result()
            results.extend(chunk_results)
            if chunk_stages:
                for name, seconds in chunk_stages.items():
                    totals[name] = totals.get(name, 0.0) + seconds
        for name, seconds in totals.items():
            observe.emit(name, seconds)
        return results


#: Backends constructible by name (the CLI's ``--backend`` values).
BACKENDS: Dict[str, Type[ExecutionBackend]] = {
    SerialBackend.name: SerialBackend,
    ThreadBackend.name: ThreadBackend,
    ProcessBackend.name: ProcessBackend,
}

BackendLike = Union[str, ExecutionBackend, None]


def resolve_backend(
    backend: BackendLike = None, jobs: Optional[int] = None
) -> ExecutionBackend:
    """Accept a backend instance, a registered name, or None.

    ``None`` keeps the historical default: serial unless ``jobs`` asks for
    parallelism, in which case a thread pool (the pre-backend behaviour of both
    the batch runner and the explorer).
    """
    _validate_jobs(jobs)
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        if jobs is not None and jobs > 1:
            return ThreadBackend(jobs)
        return SerialBackend()
    if isinstance(backend, str):
        if backend not in BACKENDS:
            import difflib

            close = difflib.get_close_matches(backend, sorted(BACKENDS), n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise KeyError(
                f"unknown execution backend {backend!r}{hint}; "
                f"known: {', '.join(sorted(BACKENDS))}"
            )
        cls = BACKENDS[backend]
        if cls is SerialBackend:
            return SerialBackend()
        return cls(jobs)
    raise TypeError(
        "backend must be an ExecutionBackend, a name "
        f"({', '.join(sorted(BACKENDS))}) or None, got {type(backend).__name__}"
    )
