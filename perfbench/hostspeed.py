"""Host-speed calibration: a fixed kernel that touches no ``repro`` code.

The benchmark host is shared, and how fast its CPUs and memory run drifts by
tens of percent over minutes (neighbours' load, frequency scaling), slowing
every op of a run alike: process CPU time tracks wall-clock time exactly, so the
op is not descheduled, it runs slower.  The kernel times a small fixed mix of
the work the simulator does -- dict/tuple churn in Python, a one-thread BLAS
matmul, a sort, and SHA-1 over a fresh 64 MB copy for the memory-bound part --
between ops.  The run's host times are then scaled by
``REFERENCE_S / median(samples)``: they read as on the reference host at its
quiet speed, the drift largely cancels, and any change in the program's own
cost shows in full.  Raw host times and the factor stay in the run's record.

The kernel runs in its own helper process (``python3 hostspeed.py`` reads one
line per sample from stdin and answers with the seconds taken), so its 128 MB
of buffers never count toward the benchmark process's peak RSS.
"""

from __future__ import annotations

import subprocess
import sys

#: Median kernel time on the reference host (2 CPUs, Python 3.11, numpy 2.4
#: on OpenBLAS pinned to one thread), measured at a quiet time.
REFERENCE_S = 0.125


class HostSpeed:
    """Handle on the calibration helper process."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen(
            [sys.executable, __file__],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def sample(self) -> float:
        """Seconds the calibration kernel takes right now."""
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("host-speed helper exited")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait(timeout=30)


def _serve() -> None:
    import hashlib
    import time

    import numpy as np

    rng = np.random.default_rng(20251017)
    matrix = rng.normal(size=(192, 192))
    block = rng.bytes(4 << 20)
    values = rng.normal(size=100_000)
    stream = rng.normal(size=8 << 20)

    def kernel() -> float:
        start = time.perf_counter()
        table = {}
        for i in range(60_000):
            table[(i, i & 7)] = i * i
        total = sum(table.values())
        product = matrix @ matrix
        digest = hashlib.sha1(block).digest()
        ordered = np.sort(values)
        copy = stream.copy()
        copy *= 1.0001
        streamed = copy.sum()
        digest += hashlib.sha1(copy.data).digest()
        elapsed = time.perf_counter() - start
        if total <= 0 or not product.any() or len(digest) != 40 or ordered[0] > ordered[-1]:
            raise AssertionError("calibration kernel produced an impossible result")
        if streamed != streamed:
            raise AssertionError("calibration kernel produced NaN")
        return elapsed

    for _ in sys.stdin:
        print(repr(kernel()), flush=True)


if __name__ == "__main__":
    _serve()
