"""Randomized differential check: the memoized engine equals the cache-off seed path.

Every template builder, with and without memory modelling, under random
architecture overrides and simulation settings, runs through one
:class:`EvaluationEngine` sharing a single enabled cache -- and against a
cache-off :class:`Simulator` on freshly built architectures and workloads.  The
workload set holds records that share shape and bit widths but differ in
values, name or pruning (the map/memory passes key on shape only; the
data-aware energy memos live on each workload), and every set runs in both
orders.  Every layer's energy breakdown, latency and mapping, and the area
breakdown, must be bit-identical.

The same file holds the Monte Carlo chunk-invariance property: any contiguous
partition of the trial range gives the trial results of one whole-range chunk,
which is what lets every backend shard trials however it likes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import SimulationConfig, Simulator
from repro.arch import ArchitectureConfig
from repro.arch.templates import TEMPLATE_BUILDERS
from repro.core.cache import EvaluationCache
from repro.core.engine import EvaluationEngine, resolve_architecture
from repro.dataflow.gemm import GEMMWorkload
from repro.onn.models import build_mlp
from repro.variation import AccuracyRequest, run_monte_carlo, standard_noise
from repro.variation.accuracy import _weighted_layer_sizes, reference_forward
from repro.variation.montecarlo import (
    LinkOperatingPoint,
    _run_philox_chunk,
    _run_trial_chunk,
    _SlabRows,
    _TrialContext,
)
from repro.variation.sampler import philox_fused_normals

SEED = 20250617
CONFIGS_PER_CASE = 3

_OVERRIDES = {
    "num_tiles": [1, 2],
    "cores_per_tile": [1, 2],
    "core_height": [2, 4, 8],
    "core_width": [2, 4, 8],
    "num_wavelengths": [1, 2, 4],
    "input_bits": [4, 8],
    "weight_bits": [4, 8],
    "temporal_accumulation": [1, 4],
    "frequency_ghz": [1.0, 5.0],
}


def make_workloads():
    """A fresh workload set; several records share one shape and bit widths."""
    rng = np.random.default_rng(SEED)
    weights = rng.normal(0, 0.3, size=(16, 12))
    inputs = rng.normal(0, 0.5, size=(24, 16))
    other = rng.uniform(-1, 1, size=(16, 12))
    mask = rng.random((16, 12)) > 0.4
    wide = rng.normal(0, 0.2, size=(32, 12))
    return [
        GEMMWorkload("a", m=24, k=16, n=12, weight_values=weights, input_values=inputs),
        GEMMWorkload("b", m=24, k=16, n=12, weight_values=other, input_values=inputs),
        GEMMWorkload("a_renamed", m=24, k=16, n=12, weight_values=weights,
                     input_values=inputs),
        GEMMWorkload("a_pruned", m=24, k=16, n=12, weight_values=weights,
                     input_values=inputs, pruning_mask=mask),
        GEMMWorkload("no_values", m=24, k=16, n=12),
        GEMMWorkload("wide", m=24, k=32, n=12, weight_values=wide,
                     layer_type="attention", weight_static=True),
    ]


def random_cases():
    rng = np.random.default_rng(SEED)
    cases = []
    for name in sorted(TEMPLATE_BUILDERS):
        for include_memory in (True, False):
            for _ in range(CONFIGS_PER_CASE):
                overrides = {
                    field: values[int(rng.integers(len(values)))]
                    for field, values in _OVERRIDES.items()
                    if rng.random() < 0.5
                }
                sim = SimulationConfig(
                    include_memory=include_memory,
                    data_aware=bool(rng.random() < 0.8),
                    value_sample_limit=int(rng.choice([65536, 50])),
                )
                cases.append((name, overrides, sim))
    return cases


def layer_signature(layer):
    mapping = dataclasses.asdict(dataclasses.replace(layer.mapping, workload=None))
    return (
        layer.workload.name,
        layer.arch_name,
        tuple(sorted(layer.energy.breakdown_pj.items())),
        layer.energy.total_time_ns,
        dataclasses.astuple(layer.latency),
        repr(mapping),
    )


def result_signature(result):
    return (
        [layer_signature(layer) for layer in result.layers],
        tuple(sorted(result.area_breakdown_mm2.items())),
    )


def test_memoized_engine_matches_cache_off_simulator():
    shared = EvaluationCache()
    workloads = make_workloads()
    layers = 0
    for name, overrides, sim in random_cases():
        builder = TEMPLATE_BUILDERS[name]
        config = ArchitectureConfig(**overrides)
        arch = resolve_architecture(builder, config, cache=shared)
        engine = EvaluationEngine(arch, sim, cache=shared)
        for order in (workloads, workloads[::-1]):
            ours = engine.run(order)
            # Each layer wraps the caller's own workload, never a same-shape twin.
            assert all(l.workload is w for l, w in zip(ours.layers, order))

            fresh = {w.name: w for w in make_workloads()}
            reference = Simulator(builder(config=config, name=config.name), sim).run(
                [fresh[w.name] for w in order]
            )
            assert result_signature(ours) == result_signature(reference), (
                name, overrides, sim,
            )
            layers += len(ours.layers)
    # The shared cache really was exercised across configs and workloads.
    assert shared.stats["map"].hits > 0
    assert shared.stats["memory"].hits > 0
    assert layers == 2 * len(random_cases()) * len(workloads)



# -- Monte Carlo chunk invariance ------------------------------------------------------

MC_TRIALS = 24
PARTITIONS_PER_MODE = 4
_LINK = LinkOperatingPoint(optical_power_mw=1.2, insertion_loss_db=6.0, bandwidth_ghz=5.0)


def mc_model_and_inputs():
    model = build_mlp((16, 24, 12, 6), rng=np.random.default_rng(3))
    return model, np.random.default_rng(9).normal(size=(32, 16))


def random_partition(rng, count):
    """A random split of ``range(count)`` into contiguous, non-empty chunks."""
    cuts = rng.choice(np.arange(1, count), size=int(rng.integers(count)), replace=False)
    bounds = [0, *sorted(int(cut) for cut in cuts), count]
    return [list(range(start, stop)) for start, stop in zip(bounds, bounds[1:])]


def trial_context(rng_mode):
    model, inputs = mc_model_and_inputs()
    reference = reference_forward(
        model, inputs, input_bits=8, weight_bits=8, output_bits=8,
        effective_bits=_LINK.effective_bits(),
    )
    return _TrialContext(
        model=model, inputs=inputs, reference=reference, spec=standard_noise(),
        input_bits=8, weight_bits=8, output_bits=8, seed=7, link=_LINK,
        rng_mode=rng_mode,
    )


def test_seedseq_trial_chunks_are_partition_invariant():
    rng = np.random.default_rng(SEED)
    context = trial_context("seedseq")
    whole = _run_trial_chunk(context, list(range(MC_TRIALS)))
    assert [result.trial for result in whole] == list(range(MC_TRIALS))
    for _ in range(PARTITIONS_PER_MODE):
        chunks = random_partition(rng, MC_TRIALS)
        split = [r for chunk in chunks for r in _run_trial_chunk(context, chunk)]
        assert split == whole, [len(chunk) for chunk in chunks]


def test_philox_trial_chunks_are_partition_invariant():
    rng = np.random.default_rng(SEED + 1)
    context = trial_context("philox")
    spec, model = context.spec, context.model
    draws = spec.loss_draw_count() + sum(
        spec.weight_draw_count(size) for size in _weighted_layer_sizes(model)
    )
    slab = philox_fused_normals(context.seed, MC_TRIALS, draws)
    whole = _run_philox_chunk(context, (list(range(MC_TRIALS)), slab))
    assert [result.trial for result in whole] == list(range(MC_TRIALS))
    for _ in range(PARTITIONS_PER_MODE):
        chunks = random_partition(rng, MC_TRIALS)
        sliced = [
            r for chunk in chunks
            for r in _run_philox_chunk(context, (chunk, slab[chunk[0] : chunk[-1] + 1]))
        ]
        rows = [
            r for chunk in chunks
            for r in _run_philox_chunk(
                context,
                (chunk, _SlabRows(context.seed, MC_TRIALS, draws, "<f8",
                                  chunk[0], chunk[-1] + 1)),
            )
        ]
        assert sliced == whole, [len(chunk) for chunk in chunks]
        assert rows == whole, [len(chunk) for chunk in chunks]


@pytest.mark.parametrize("rng_mode", ["seedseq", "philox"])
def test_monte_carlo_on_processes_equals_serial(rng_mode, monkeypatch):
    monkeypatch.setenv("REPRO_RNG", rng_mode)
    model, inputs = mc_model_and_inputs()
    rng = np.random.default_rng(SEED + 2)
    # Above 128 trials the 64-trial cap splits beyond one chunk per worker.
    for trials in (1, int(rng.integers(2, 64)), int(rng.integers(129, 200))):
        reports = {
            backend: run_monte_carlo(
                AccuracyRequest(
                    model, inputs, noise=standard_noise(), trials=trials, seed=11,
                    backend=backend, jobs=2,
                ),
                link=_LINK,
            )
            for backend in ("serial", "processes")
        }
        assert reports["processes"] == reports["serial"], trials
