"""Zero-copy transport, warm worker pools, and the work-stealing partition.

The contracts under test mirror the dispatch-path design:

- shm handles are content-addressed, inline below the segment threshold, and
  leak nothing -- not even when a cluster worker is SIGKILLed mid-round;
- warm pools reuse worker processes across dispatches, revalidate their
  ``REPRO_*`` snapshot on checkout, reap themselves when idle, and preserve
  the result-store warm start (a second batch runs zero engine passes);
- ``steal_partition`` is a pure function of its arguments whose chunks
  concatenate to ``range(count)``, so completion-driven scheduling stays
  byte-identical to serial no matter which worker drags its feet.
"""

from __future__ import annotations

import glob
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

from repro.core.knobs import forced_env
from repro.exec import (
    ClusterBackend,
    ProcessBackend,
    ShmHandle,
    active_segments,
    as_array,
    as_object,
    coordinator_for,
    pool_status,
    publish_array,
    publish_object,
    resolve_array,
    resolve_object,
    run_worker,
    spawn_local_workers,
    steal_partition,
    stop_pools,
    unlink_all,
)
from repro.exec import pool as pool_mod
from repro.exec.shm import INLINE_MAX_BYTES
from repro.variation import AccuracyRequest, run_monte_carlo, standard_noise
from repro.onn.models import build_mlp

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(TESTS_DIR), "src")

#: A process-backend task that itself dispatches on the process backend.
_NESTED_DISPATCH = textwrap.dedent(
    """
    from repro.exec import ProcessBackend

    def square(shared, task):
        return task * task

    def sum_of_squares(shared, task):
        return sum(ProcessBackend(jobs=2).map_tasks(square, range(1, task + 1)))

    if __name__ == "__main__":
        print(ProcessBackend(jobs=2).map_tasks(sum_of_squares, [2, 3]))
    """
)

#: A warm pool whose workers attach a segment published after they forked.
_ATTACH_AFTER_FORK = textwrap.dedent(
    """
    import numpy as np
    from repro.exec import ProcessBackend, as_array, publish_array

    def total(shared, task):
        return float(as_array(shared).sum()) + task

    if __name__ == "__main__":
        backend = ProcessBackend(jobs=2)
        backend.map_tasks(total, [0, 1], shared=publish_array(np.ones(20000)))
        late = publish_array(np.full(20000, 2.0))
        print(backend.map_tasks(total, [0, 1], shared=late))
    """
)


def _run_script(source):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC_DIR, env.get("PYTHONPATH")))
    )
    # Own session, so a hang takes its pool workers down with it.
    proc = subprocess.Popen(
        [sys.executable, "-c", source], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("script hung")
    return proc.returncode, out, err


# -- task functions (module-level so subprocess workers can unpickle them) -------------


def _worker_pid(shared, task):
    return os.getpid()


def _slow_square(shared, task):
    # Task 0 is the deliberate straggler: everyone else finishes first, so
    # completion-driven chunk assignment runs in a scrambled order.
    if task == 0:
        time.sleep(0.25)
    return task * task


def _exit_worker(shared, task):
    os._exit(1)


def _sum_resolved(shared, task):
    array = as_array(shared)
    return float(array.sum()) + task


def _sum_resolved_or_die(shared, task):
    sentinel, value = task
    if sentinel is not None and not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os.kill(os.getpid(), signal.SIGKILL)
    return float(as_array(shared).sum()) + value


# -- helpers ---------------------------------------------------------------------------


def _repro_shm_files():
    return sorted(glob.glob("/dev/shm/repro-*"))


@pytest.fixture(autouse=True)
def _clean_slate():
    stop_pools()
    unlink_all()
    yield
    stop_pools()
    unlink_all()


def _thread_workers(coord, count):
    threads = [
        threading.Thread(
            target=run_worker,
            args=(coord.host, coord.port),
            kwargs=dict(once=True, quiet=True),
            daemon=True,
        )
        for _ in range(count)
    ]
    for thread in threads:
        thread.start()
    return threads


# -- shm transport ---------------------------------------------------------------------


class TestShmTransport:
    def test_small_payloads_ship_inline(self):
        array = np.arange(64, dtype=np.float64)
        handle = publish_array(array)
        assert isinstance(handle, ShmHandle)
        assert handle.inline is not None
        assert active_segments() == []
        np.testing.assert_array_equal(resolve_array(handle), array)

    def test_large_arrays_publish_segments(self):
        array = np.random.default_rng(0).normal(
            size=(INLINE_MAX_BYTES // 8 + 512,)
        )
        handle = publish_array(array)
        assert handle.inline is None
        assert len(active_segments()) == 1
        resolved = resolve_array(handle)
        np.testing.assert_array_equal(resolved, array)
        assert not resolved.flags.writeable
        del resolved
        unlink_all()
        assert active_segments() == []
        assert _repro_shm_files() == []

    def test_publish_is_content_addressed(self):
        array = np.random.default_rng(1).normal(size=(INLINE_MAX_BYTES // 8 + 16,))
        first = publish_array(array)
        second = publish_array(array.copy())
        assert first.digest == second.digest
        assert len(active_segments()) == 1

    def test_object_round_trip(self):
        payload = {"spec": (1, 2, 3), "label": "alpha"}
        handle = publish_object(payload)
        assert resolve_object(handle) == payload
        assert as_object(handle) == payload
        # Non-handles pass through untouched.
        assert as_object(payload) is payload


class TestShmLeaks:
    def test_cluster_worker_sigkill_leaks_no_segments(self, tmp_path):
        """SIGKILLing a worker that attached a segment must leak nothing.

        The parent owns the segment (workers attach untracked), so after the
        round completes on the surviving worker and the parent unlinks, the
        /dev/shm namespace must be spotless -- the exact scenario a crashed
        fleet leaves behind.
        """
        array = np.random.default_rng(2).normal(size=(INLINE_MAX_BYTES // 8 + 256,))
        coord = coordinator_for("127.0.0.1", 0)
        processes = spawn_local_workers(
            2, coord.host, coord.port, env={"PYTHONPATH": TESTS_DIR}
        )
        try:
            coord.wait_for_workers(2, 60)
            handle = publish_array(array)
            backend = ClusterBackend(jobs=2, host=coord.host, port=coord.port)
            sentinel = str(tmp_path / "die-once")
            tasks = [(sentinel if i == 1 else None, i) for i in range(6)]
            results = backend.map_tasks(_sum_resolved_or_die, tasks, shared=handle)
            expected = [float(array.sum()) + i for i in range(6)]
            assert results == pytest.approx(expected)
        finally:
            coord.close("shutdown")
            for process in processes:
                try:
                    process.wait(timeout=15)
                except Exception:  # noqa: BLE001 - last resort
                    process.terminate()
                    process.wait(timeout=15)
        unlink_all()
        assert _repro_shm_files() == []

    def test_late_attach_keeps_publisher_tracker_registration(self):
        """A warm worker shares its parent's resource tracker; its attach must
        not unregister the parent's segment (the parent's unlink at exit then
        trips a tracker ``KeyError`` and a crash would leak the segment)."""
        returncode, out, err = _run_script(_ATTACH_AFTER_FORK)
        assert returncode == 0, err
        assert out.strip() == "[40000.0, 40001.0]"
        assert "KeyError" not in err, err


# -- warm pools ------------------------------------------------------------------------


class TestWarmPool:
    def test_warm_pool_reuses_worker_processes(self):
        backend = ProcessBackend(jobs=2)
        first = set(backend.map_tasks(_worker_pid, list(range(4))))
        second = set(backend.map_tasks(_worker_pid, list(range(4))))
        # Which of the pool's workers pulls a given chunk is timing
        # dependent, but both dispatches must draw from the same two
        # persistent processes -- a fresh pool would fork fresh pids.
        assert len(first | second) <= 2, (
            "warm dispatches must reuse the pool's workers"
        )
        status = pool_status()
        assert len(status) == 1
        assert status[0]["dispatches"] >= 2

    def test_env_revalidation_restarts_idle_pool(self):
        backend = ProcessBackend(jobs=2)
        with forced_env("REPRO_DTYPE", "float64"):
            first = set(backend.map_tasks(_worker_pid, list(range(4))))
        with forced_env("REPRO_DTYPE", "float32"):
            second = set(backend.map_tasks(_worker_pid, list(range(4))))
        status = pool_status()
        assert first.isdisjoint(second), (
            "a REPRO_* snapshot change must restart the pool's workers"
        )
        assert status[0]["restarts"] == 1

    def test_checkout_under_active_lease_gets_private_executor(self):
        with forced_env("REPRO_DTYPE", "float64"):
            executor, release = pool_mod.checkout(2)
        with forced_env("REPRO_DTYPE", "float32"):
            private, private_release = pool_mod.checkout(2)
        try:
            assert private is not executor, (
                "an env mismatch with an active lease must not restart "
                "the leased pool"
            )
        finally:
            private_release()
            release()

    def test_idle_pool_reaps_itself(self):
        with forced_env("REPRO_POOL_IDLE_S", "0.2"):
            backend = ProcessBackend(jobs=2)
            backend.map_tasks(_worker_pid, list(range(2)))
            assert len(pool_status()) == 1
            deadline = time.monotonic() + 5.0
            while pool_status() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool_status() == []

    def test_stop_pools_tears_everything_down(self):
        ProcessBackend(jobs=2).map_tasks(_worker_pid, [0])
        assert stop_pools() == 1
        assert pool_status() == []

    def test_broken_pool_is_replaced_on_next_checkout(self):
        from concurrent.futures.process import BrokenProcessPool

        backend = ProcessBackend(jobs=2)
        with pytest.raises(BrokenProcessPool):
            backend.map_tasks(_exit_worker, [0])
        # A dead worker breaks the executor for good; the next dispatch must
        # get a fresh pool instead of failing for the rest of the process.
        assert backend.map_tasks(_slow_square, [1, 2, 3]) == [1, 4, 9]
        assert pool_status()[0]["restarts"] == 1

    def test_nested_process_dispatch_finishes(self):
        """A worker that dispatches again gets a private executor instead of
        leasing the fork-inherited registry's pool (which hangs)."""
        returncode, out, err = _run_script(_NESTED_DISPATCH)
        assert returncode == 0, err
        assert out.strip() == "[5, 14]"

    def test_dse_pass_counts_do_not_depend_on_pool_history(self):
        """Reused workers start every exploration from an empty cache, so each
        exploration on the warm pool runs exactly the serial pass count."""
        from repro.arch.templates import build_tempo
        from repro.explore import DesignSpace, DesignSpaceExplorer
        from repro.scenarios.workloads import large_grid_workloads

        space = DesignSpace({
            "num_tiles": [2, 4],
            "cores_per_tile": [2, 4],
            "core_height": [2, 4],
            "core_width": [2, 4],
            "num_wavelengths": [1, 2],
        })
        workloads = large_grid_workloads(seed=3)

        def passes(backend):
            result = DesignSpaceExplorer(build_tempo, workloads).explore(
                space, backend=backend, max_workers=2
            )
            return sum(t.count for t in result.pass_timings.values())

        serial = passes("serial")
        assert [passes("processes") for _ in range(3)] == [serial] * 3

    def test_colliding_explore_tokens_keep_explorations_apart(self, monkeypatch):
        """A worker that outlives its coordinator can see a later parent mint
        the same pid and counter; the setup digest in the key must still keep
        that exploration off the earlier one's explorer."""
        import itertools

        from repro.arch.templates import build_tempo
        from repro.explore import DesignSpace, DesignSpaceExplorer
        from repro.explore import dse
        from repro.scenarios.workloads import large_grid_workloads

        space = DesignSpace({"num_tiles": [2, 4], "core_width": [2, 4]})
        workloads = large_grid_workloads(seed=3)
        workload_sets = (workloads, workloads[:1])

        def points(workloads, backend):
            result = DesignSpaceExplorer(build_tempo, workloads).explore(
                space, backend=backend, max_workers=2
            )
            return [(p.parameters, p.energy_uj, p.latency_ns) for p in result.points]

        serial = [points(w, "serial") for w in workload_sets]
        assert serial[0] != serial[1]
        monkeypatch.setattr(dse, "_EXPLORE_TOKENS", itertools.repeat(0))
        assert [points(w, "processes") for w in workload_sets] == serial

    def test_second_warm_batch_runs_zero_engine_passes(self, tmp_path):
        from repro.scenarios import BatchRunner, ResultStore

        names = ("table1_taxonomy", "fig6_layout")
        store = ResultStore(tmp_path / "store")
        first = BatchRunner(store=store, max_workers=2).run(names)
        second = BatchRunner(store=store, max_workers=2).run(names)
        assert first.ok and second.ok
        assert second.all_from_store
        assert second.engine_passes == 0, (
            "warm pools must preserve the store warm start"
        )


# -- work-stealing partition -----------------------------------------------------------


class TestStealPartition:
    @pytest.mark.parametrize("count", [0, 1, 7, 24, 100])
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_chunks_concatenate_to_range(self, count, workers):
        chunks = steal_partition(count, workers)
        flat = [index for chunk in chunks for index in chunk]
        assert flat == list(range(count))

    def test_deterministic_pure_function(self):
        assert steal_partition(100, 3) == steal_partition(100, 3)

    def test_guided_chunks_shrink_toward_the_tail(self):
        sizes = [len(chunk) for chunk in steal_partition(100, 4)]
        assert sizes[0] == max(sizes)
        assert sizes[-1] == min(sizes)
        assert sizes == sorted(sizes, reverse=True)

    def test_cap_bounds_every_chunk(self):
        chunks = steal_partition(100, 2, cap=8)
        assert all(len(chunk) <= 8 for chunk in chunks)
        assert [i for c in chunks for i in c] == list(range(100))

    def test_single_worker_minimizes_round_trips(self):
        assert steal_partition(24, 1) == [list(range(24))]
        assert [len(c) for c in steal_partition(24, 1, cap=10)] == [10, 10, 4]

    def test_invalid_arguments_fail_loudly(self):
        with pytest.raises(ValueError):
            steal_partition(-1, 2)
        with pytest.raises(ValueError):
            steal_partition(4, 0)
        with pytest.raises(ValueError):
            steal_partition(4, 2, cap=0)


# -- straggler determinism -------------------------------------------------------------


class TestStragglerDeterminism:
    def test_straggler_results_identical_across_backends(self):
        expected = [i * i for i in range(10)]
        serial = [_slow_square(None, task) for task in range(10)]
        warm = ProcessBackend(jobs=2).map_tasks(_slow_square, list(range(10)))
        coord = coordinator_for("127.0.0.1", 0)
        try:
            _thread_workers(coord, 2)
            backend = ClusterBackend(jobs=2, host=coord.host, port=coord.port)
            cluster = backend.map_tasks(_slow_square, list(range(10)))
        finally:
            coord.close("shutdown")
        assert serial == warm == cluster == expected

    def test_monte_carlo_warm_shm_matches_serial(self):
        model = build_mlp((16, 24, 12, 6), rng=np.random.default_rng(3))
        inputs = np.random.default_rng(9).normal(size=(32, 16))

        def report(backend):
            return run_monte_carlo(
                AccuracyRequest(
                    model, inputs, noise=standard_noise(), trials=8, seed=7,
                    backend=backend, jobs=2,
                )
            )

        serial = report("serial")
        warm_shm = report("processes")
        assert warm_shm == serial
