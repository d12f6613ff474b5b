"""The four benchmark workloads, each driving the simulator from outside.

Every workload has the same shape, called by ``run.py``:

- ``setup()`` imports ``repro.cli`` (which registers the scenario catalog) and
  returns that import time;
- ``check_committed()`` reproduces the committed table its scenario writes, at
  the catalog's default inputs, and returns mismatch messages (untimed);
- ``prepare(i)`` generates op ``i``'s seeded operands (untimed; the program
  receives only these inputs);
- ``op(inputs, tracer)`` is the timed unit of work;
- ``check(i, inputs, outputs, tracer)`` verifies the op's outputs (untimed)
  and returns an :class:`OpResult`.

Each op gets a fresh ``EvaluationCache``, freshly built operand objects and,
for ``figures_cold``, an empty ``ResultStore`` in a fresh interpreter, so no
warm cache or per-object memo left by an earlier op can make it cheaper than
the same work in a new ``repro run`` / ``repro batch``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

#: Op index whose operands feed the untimed warm-up op; timed ops use 1, 2, ...
WARMUP = 0
#: Noise scales of the ``variation_robustness`` scenario.
NOISE_SCALES = (0.0, 0.25, 0.5, 1.0, 2.0)
#: Monte Carlo trials per noise scale in one ``mc_*`` op.
MC_TRIALS = 256
#: Evaluation-batch size of the Monte Carlo classifier (the scenario default).
MC_SAMPLES = 48
#: Worker processes of ``mc_sweep_procs``.
PROCS_JOBS = 2


@dataclasses.dataclass
class OpResult:
    """What the benchmark keeps of one op besides its host time."""

    errors: List[str]
    items: int
    digest: str
    cache: Dict[str, List[int]]
    extra: Dict[str, object] = dataclasses.field(default_factory=dict)


def op_seeds(seed: int, index: int, count: int) -> List[int]:
    """``count`` independent 32-bit seeds for op ``index`` of workload ``seed``."""
    return [int(s) for s in np.random.SeedSequence([seed, index]).generate_state(count)]


def cache_counts(cache) -> Dict[str, List[int]]:
    """``{stage: [hits, misses]}`` from ``EvaluationCache.stats``."""
    return {stage: [s.hits, s.misses] for stage, s in sorted(cache.stats.items())}


def committed_mismatch(root: Path, name: str, table: str) -> List[str]:
    """A message when ``table`` is not byte-identical to the committed file."""
    committed = (root / "benchmarks" / "results" / f"{name}.txt").read_bytes()
    if (table + "\n").encode() == committed:
        return []
    return [f"{name}: table differs from benchmarks/results/{name}.txt"]


def _sha(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


class _InProcess:
    """Shared set-up for the workloads that run in the benchmark's own process."""

    jobs = 1

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed

    def setup(self) -> float:
        start = time.perf_counter()
        sys.path.insert(0, str(self.root / "src"))
        import repro.cli  # noqa: F401  (registers the full scenario catalog)

        return time.perf_counter() - start

    def _committed(self, name: str) -> List[str]:
        from repro.core.cache import EvaluationCache
        from repro.scenarios import REGISTRY

        result = REGISTRY.run(name, cache=EvaluationCache())
        errors = committed_mismatch(self.root, name, result.table)
        try:
            REGISTRY.verify(name, result)
        except AssertionError as exc:
            errors.append(f"{name}: scenario verification failed: {exc!r}")
        return errors

    def close(self) -> None:
        pass


class DseGrid(_InProcess):
    """The 192-point ``dse_large_grid`` TeMPO sweep plus its Pareto front."""

    name = "dse_grid"
    item = "design points"

    def setup(self) -> float:
        seconds = super().setup()
        from repro.scenarios import REGISTRY

        self.spec = REGISTRY.get("dse_large_grid").spec
        return seconds

    def check_committed(self) -> List[str]:
        return self._committed("dse_large_grid")

    def prepare(self, index: int):
        from repro.scenarios.workloads import large_grid_workloads

        (workload_seed,) = op_seeds(self.seed, index, 1)
        return large_grid_workloads(seed=workload_seed)

    def op(self, workloads, tracer):
        from repro.arch.templates import build_tempo
        from repro.core.cache import EvaluationCache
        from repro.explore import DesignSpace, DesignSpaceExplorer

        cache = EvaluationCache()
        explorer = DesignSpaceExplorer(
            build_tempo, workloads, base_config=self.spec.arch_config(), cache=cache
        )
        if tracer.enabled:
            # The serial backend calls ``self.evaluate`` once per design point;
            # shadowing it on this instance times each point from outside.
            evaluate = explorer.evaluate

            def traced_evaluate(overrides):
                with tracer.span("explore.evaluate"):
                    return evaluate(overrides)

            explorer.evaluate = traced_evaluate
        with tracer.span("explore.explore"):
            result = explorer.explore(
                DesignSpace.from_axes(self.spec.sweep),
                strategy=self.spec.strategy,
                backend="serial",
            )
        with tracer.span("explore.pareto_front"):
            front = result.pareto_front(self.spec.objectives)
        return result, front, cache

    def check(self, index, workloads, outputs, tracer) -> OpResult:
        result, front, cache = outputs
        points = result.points
        errors = []
        size = math.prod(len(axis) for axis in self.spec.sweep.values())
        if len(points) != size:
            errors.append(f"{len(points)} design points, expected {size}")
        if not 1 <= len(front) < len(points):
            errors.append(f"front of {len(front)} out of {len(points)} points")
        front_params = [p.parameters for p in front]
        for objective in self.spec.objectives:
            best = min(points, key=lambda p: p.objective(objective))
            if best.parameters not in front_params:
                errors.append(f"{objective} optimum is not on the Pareto front")
        values = [
            (sorted(p.parameters.items()), p.energy_uj, p.latency_ns, p.area_mm2)
            for p in points
        ]
        if not all(
            math.isfinite(v) and v > 0 for _, *objs in values for v in objs
        ):
            errors.append("non-finite or non-positive objective value")
        return OpResult(errors, len(points), _sha((values, front_params)), cache_counts(cache))


class McSweep(_InProcess):
    """The ``variation_robustness`` sweep: five noise scales x 256 trials."""

    name = "mc_sweep"
    item = "Monte Carlo trials"
    backend = "serial"

    def setup(self) -> float:
        seconds = super().setup()
        from repro.scenarios import REGISTRY

        self.spec = REGISTRY.get("variation_robustness").spec
        return seconds

    def check_committed(self) -> List[str]:
        return self._committed("variation_robustness")

    def _inputs(self, index: int, backend: str, jobs: Optional[int]):
        from repro.arch.templates import build_tempo
        from repro.scenarios.workloads import mc_classifier_inputs, mc_classifier_model
        from repro.variation import AccuracyRequest, standard_noise

        model_seed, input_seed, trial_seed = op_seeds(self.seed, index, 3)
        model = mc_classifier_model(seed=model_seed)
        inputs = mc_classifier_inputs(samples=MC_SAMPLES, seed=input_seed)
        requests = [
            AccuracyRequest(
                model=model,
                inputs=inputs,
                noise=standard_noise().scaled(scale),
                trials=MC_TRIALS,
                seed=trial_seed,
                backend=backend,
                jobs=jobs,
            )
            for scale in NOISE_SCALES
        ]
        return build_tempo(), requests

    def prepare(self, index: int):
        return self._inputs(index, self.backend, self.jobs)

    def _sweep(self, inputs, tracer, backend: str):
        from repro.core.cache import EvaluationCache
        from repro.core.engine import EvaluationEngine

        arch, requests = inputs
        cache = EvaluationCache()
        reports = []
        for request in requests:
            engine = EvaluationEngine(arch, self.spec.sim_config(), cache=cache)
            with tracer.span("core.engine.run_accuracy", backend=backend):
                reports.append(engine.run_accuracy(request))
        return reports, cache

    def op(self, inputs, tracer):
        return self._sweep(inputs, tracer, self.backend)

    def check(self, index, inputs, outputs, tracer) -> OpResult:
        reports, cache = outputs
        errors = []
        if len(reports) != len(NOISE_SCALES):
            errors.append(f"{len(reports)} reports, expected {len(NOISE_SCALES)}")
        elif reports[0].accuracy_mean != 1.0 or reports[0].rmse_mean != 0.0:
            errors.append(
                "noise 0 must give accuracy 1.0 and RMSE 0, got "
                f"{reports[0].accuracy_mean!r} / {reports[0].rmse_mean!r}"
            )
        values = [
            (
                r.accuracy_mean,
                r.accuracy_std,
                r.accuracy_min,
                r.rmse_mean,
                r.effective_bits_nominal,
                r.effective_bits_mean,
            )
            for r in reports
        ]
        trials = sum(r.trials for r in reports)
        return OpResult(errors, trials, _sha(values), cache_counts(cache))


class McSweepProcs(McSweep):
    """The ``mc_sweep`` inputs on ``backend="processes", jobs=2`` (warm pool)."""

    name = "mc_sweep_procs"
    backend = "processes"
    jobs = PROCS_JOBS

    def check(self, index, inputs, outputs, tracer) -> OpResult:
        result = super().check(index, inputs, outputs, tracer)
        reports, _ = outputs
        # The same op on the serial backend, from freshly built operands so no
        # per-object memo of the timed op makes this reference cheaper.
        with tracer.span("bench.serial_reference"):
            serial, _ = self._sweep(self._inputs(index, "serial", None), tracer, "serial")
        if serial != reports:
            result.errors.append("process-backend reports differ from serial")
        from repro.exec import active_segments, pool_status

        result.extra["pool_workers"] = sum(p["jobs"] for p in pool_status())
        result.extra["shm_segments"] = len(active_segments())
        return result

    def close(self) -> None:
        from repro.exec import stop_pools, unlink_all

        stop_pools(wait=True)
        unlink_all()


class FiguresCold:
    """The nine paper scenarios, each op in a fresh interpreter (figures_child.py)."""

    name = "figures_cold"
    item = "paper scenarios"
    jobs = 1

    def __init__(self, root: Path, seed: int) -> None:
        # The paper figures have fixed inputs, so the seed changes nothing here.
        self.root = root
        self.seed = seed
        self.out = root / ".perfbench_out" / "figures_store"

    def setup(self) -> float:
        return 0.0

    def check_committed(self) -> List[str]:
        return []  # every op byte-compares all nine tables itself

    def prepare(self, index: int) -> Path:
        store = self.out / f"op{index}"
        shutil.rmtree(store, ignore_errors=True)
        return store

    def op(self, store: Path, tracer):
        command = [
            sys.executable,
            str(self.root / "perfbench" / "figures_child.py"),
            "--root",
            str(self.root),
            "--store",
            str(store),
        ]
        if tracer.enabled:
            command.append("--trace")
        return subprocess.run(command, capture_output=True, text=True, timeout=150)

    def check(self, index, store, proc, tracer) -> OpResult:
        shutil.rmtree(store, ignore_errors=True)
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return OpResult([f"child exited {proc.returncode}: {tail[0]}"], 0, "", {})
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        errors = [f"{name}: table differs from committed" for name in record["mismatched"]]
        extra = {k: v for k, v in record.items() if k not in ("mismatched", "digest", "cache")}
        return OpResult(errors, 9, record["digest"], record["cache"], extra)

    def close(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)


WORKLOADS = {cls.name: cls for cls in (FiguresCold, DseGrid, McSweep, McSweepProcs)}
