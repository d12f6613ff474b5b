"""One timing observer for engine passes and Monte Carlo stages.

Every timed block reports ``callback(name, seconds, engine)`` to the callbacks
registered with :func:`observe`: an :class:`~repro.core.engine.EvaluationEngine`
pass passes its engine, every other block (the Monte Carlo ``rng`` /
``forward`` / ``quantize`` / ``metrics`` stages) passes ``None``.  With no
observer registered, :func:`timed` yields without reading the clock, so
unobserved runs pay nothing.

Registration is scoped, stacked and thread-safe.  The registry is a tuple
swapped atomically under a lock, so timed blocks read a consistent snapshot
without locking, and the same callback may be registered more than once (each
``with`` block removes exactly one registration).  Callbacks run on whichever
thread executed the block, so they must be thread-safe.  Nested orchestration
layers each see every event and filter for their own work: by engine-cache
identity for passes, by ``engine is None`` for stages.

Blocks that ran in another process or host come back through :func:`emit`: a
process-pool chunk or cluster worker sums its own stage blocks with
:func:`stage_totals` and ships the totals home, where the dispatching parent
emits them to its observers.
"""

from __future__ import annotations

import contextlib
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple

#: ``callback(name, seconds, engine)``; ``engine`` is ``None`` outside passes.
Observer = Callable[[str, float, Optional[object]], None]

_LOCK = threading.Lock()
_OBSERVERS: Tuple[Observer, ...] = ()


def active() -> bool:
    """Whether any observer is registered (the fast-path guard)."""
    return bool(_OBSERVERS)


@contextlib.contextmanager
def observe(callback: Observer) -> Iterator[Observer]:
    """Register ``callback`` for every timed block run inside the ``with`` block."""
    global _OBSERVERS
    with _LOCK:
        _OBSERVERS = _OBSERVERS + (callback,)
    try:
        yield callback
    finally:
        with _LOCK:
            observers = list(_OBSERVERS)
            del observers[next(i for i, cb in enumerate(observers) if cb is callback)]
            _OBSERVERS = tuple(observers)


def emit(name: str, seconds: float, engine: Optional[object] = None) -> None:
    """Report a measured block to every registered observer."""
    for callback in _OBSERVERS:
        callback(name, seconds, engine)


@contextlib.contextmanager
def timed(name: str) -> Iterator[None]:
    """Time the enclosed block and report it as a non-pass event."""
    if not _OBSERVERS:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        emit(name, time.perf_counter() - start)


@contextlib.contextmanager
def stage_totals() -> Iterator[Dict[str, float]]:
    """Sum the seconds of every non-pass block in scope, by name."""
    totals: Dict[str, float] = {}
    lock = threading.Lock()

    def record(name: str, seconds: float, engine: Optional[object]) -> None:
        if engine is None:
            with lock:
                totals[name] = totals.get(name, 0.0) + seconds

    with observe(record):
        yield totals


@dataclass
class Timing:
    """Count and total wall-clock of one named block across an execution."""

    count: int = 0
    total_s: float = 0.0

    def add(self, seconds: float) -> None:
        self.count += 1
        self.total_s += seconds

    def merge(self, other: "Timing") -> None:
        self.count += other.count
        self.total_s += other.total_s

    @property
    def mean_ms(self) -> float:
        return self.total_s * 1e3 / self.count if self.count else 0.0
