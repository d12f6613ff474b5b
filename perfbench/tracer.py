"""In-memory span recorder for the benchmark's traced runs.

A span is ``(name, start, end, parent, op, pid)`` on the ``time.perf_counter``
clock, which on Linux is ``CLOCK_MONOTONIC`` and therefore shared by every
process on the host: spans recorded in a child interpreter merge onto the
parent's timeline as plain intervals.  Spans stay in memory and are written
once, at the end of the run, as Chrome trace-event JSON plus a text summary of
each span name's self time and the share no span explains (``unattributed``).

The benchmark records spans only around its own calls into the simulator's
public functions; nothing inside the program is instrumented.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple


class Tracer:
    """Collects nested spans; a disabled tracer records nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self.op: Optional[int] = None

    @contextlib.contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Optional[int]]:
        """Time the block as a span; yields its index (None when disabled)."""
        if not self.enabled:
            yield None
            return
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "pid": os.getpid(),
        }
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def add(self, name: str, start: float, end: float, **attrs: object) -> int:
        """Record an already-measured interval under the current span."""
        record = {
            "name": name,
            "start": start,
            "end": end,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
            "pid": os.getpid(),
        }
        if attrs:
            record["attrs"] = attrs
        self.spans.append(record)
        return len(self.spans) - 1

    def merge(self, foreign: Sequence[dict], parent: int) -> None:
        """Adopt spans recorded by another process under span ``parent``."""
        offset = len(self.spans)
        for record in foreign:
            record = dict(record)
            local = record.get("parent")
            record["parent"] = parent if local is None else local + offset
            record["op"] = self.spans[parent]["op"]
            self.spans.append(record)


def _covered(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[dict]) -> List[float]:
    """Each span's duration minus the part of it its child spans cover (s)."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for record in spans:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(
                (record["start"], record["end"])
            )
    return [
        (record["end"] - record["start"])
        - _covered(children.get(i, []), record["start"], record["end"])
        for i, record in enumerate(spans)
    ]


def summary_text(spans: Sequence[dict], root: str = "op") -> str:
    """Per-name span count, total and self time, and the unattributed share."""
    selfs = self_times(spans)
    rows: Dict[str, List[float]] = {}
    for record, own in zip(spans, selfs):
        attrs = "".join(f"[{k}={v}]" for k, v in sorted(record.get("attrs", {}).items()))
        row = rows.setdefault(record["name"] + attrs, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += record["end"] - record["start"]
        row[2] += own
    op_total = rows.get(root, [0, 0.0, 0.0])[1]
    lines = [
        f"{'span':<44} {'count':>6} {'total ms':>11} {'self ms':>11} {'self %op':>9}"
    ]
    for name, (count, total, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        label = "unattributed (op self time)" if name == root else name
        share = 100.0 * own / op_total if op_total else 0.0
        lines.append(
            f"{label:<44} {count:>6} {1e3 * total:>11.2f} {1e3 * own:>11.2f} {share:>8.1f}%"
        )
    return "\n".join(lines)


def write(spans: Sequence[dict], stem: Path, root: str = "op") -> Tuple[Path, Path]:
    """Write Chrome trace-event JSON and the text summary next to each other."""
    stem.parent.mkdir(parents=True, exist_ok=True)
    origin = min((record["start"] for record in spans), default=0.0)
    events = [
        {
            "name": record["name"],
            "ph": "X",
            "ts": 1e6 * (record["start"] - origin),
            "dur": 1e6 * (record["end"] - record["start"]),
            "pid": record["pid"],
            "tid": record["pid"],
            "args": {
                "id": index,
                "parent": record["parent"],
                "op": record["op"],
                **record.get("attrs", {}),
            },
        }
        for index, record in enumerate(spans)
    ]
    trace_path = stem.with_suffix(".trace.json")
    trace_path.write_text(json.dumps({"traceEvents": events}) + "\n")
    summary_path = stem.with_suffix(".summary.txt")
    summary_path.write_text(summary_text(spans, root) + "\n")
    return trace_path, summary_path
