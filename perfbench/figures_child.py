"""One ``figures_cold`` op: a fresh interpreter reproducing the paper figures.

Run as ``python3 perfbench/figures_child.py --root ROOT --store DIR [--trace]``.
It imports ``repro.cli`` (which registers the scenario catalog), runs the nine
deterministic paper scenarios against one empty ``EvaluationCache`` and an
empty ``ResultStore`` -- what ``repro batch`` does on a clean checkout -- and
byte-compares every table with ``benchmarks/results/<name>.txt``.  The last
line of its standard output is one JSON object for the parent benchmark.

With ``--trace`` it records spans around each call into the simulator, and
replaces the Fig. 8 scenario by the same public calls its build function makes
(model build, ONN conversion, workload extraction, engine run), so those four
layers are timed separately; the rendered table must still match byte for byte.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer

SCENARIOS = (
    "table1_taxonomy",
    "fig6_layout",
    "fig7_tempo_validation",
    "fig8_lt_validation",
    "fig9a_wavelength_sweep",
    "fig9b_bitwidth_sweep",
    "fig10a_layout_aware",
    "fig10b_data_aware",
    "fig11_heterogeneous",
)
FIG8 = "fig8_lt_validation"


def fig8_decomposed(tracer, cache, store):
    """The Fig. 8 scenario rebuilt from public calls, one span per layer."""
    import numpy as np

    from repro.arch.templates import build_lightening_transformer
    from repro.core.engine import EvaluationEngine
    from repro.core.knobs import repro_env_snapshot
    from repro.core.report import render_breakdown, scale_breakdown
    from repro.onn import ONNConversionConfig, convert_to_onn, extract_workloads
    from repro.onn.models import build_bert_base_image
    from repro.scenarios import REGISTRY, ScenarioResult
    from repro.scenarios.catalog import (
        FIG8_FULL_LAYERS,
        FIG8_PAPER_AREA_MM2,
        FIG8_PAPER_POWER_W,
    )

    spec = REGISTRY.get(FIG8).spec
    params = spec.resolve_params(None, env=repro_env_snapshot())
    num_layers = max(1, min(int(params["num_layers"]), FIG8_FULL_LAYERS))
    with tracer.span("onn.build_model"):
        model = build_bert_base_image(image_size=224, num_layers=num_layers)
    with tracer.span("onn.convert"):
        convert_to_onn(model, ONNConversionConfig(default_ptc="lightening_transformer"))
    image = np.random.default_rng(0).normal(size=(3, 224, 224))
    with tracer.span("onn.extract_workloads"):
        workloads = extract_workloads(model, image)
    arch = build_lightening_transformer()
    with tracer.span("core.engine.run"):
        result = EvaluationEngine(arch, spec.sim_config(), cache=cache).run(workloads)

    scale = FIG8_FULL_LAYERS / num_layers
    energy = scale_breakdown(result.energy_breakdown_pj, scale)
    time_ns = result.total_time_ns * scale
    power_w = {key: value / time_ns / 1e3 for key, value in energy.items()}
    area = result.area_breakdown_mm2
    table = "\n".join(
        [
            f"encoder blocks simulated: {num_layers} (extrapolated to {FIG8_FULL_LAYERS})",
            "",
            "-- area breakdown (mm2) --",
            render_breakdown(area, unit="mm2"),
            f"paper reference: SimPhony {FIG8_PAPER_AREA_MM2['simphony']} mm2, "
            f"LT {FIG8_PAPER_AREA_MM2['reference']} mm2",
            "",
            "-- power breakdown (W) --",
            render_breakdown(power_w, unit="W"),
            f"paper reference: SimPhony {FIG8_PAPER_POWER_W['simphony']} W, "
            f"LT {FIG8_PAPER_POWER_W['reference']} W",
        ]
    )
    metrics = json.loads(
        json.dumps(
            {
                "num_layers": num_layers,
                "area_mm2": {k: float(v) for k, v in area.items()},
                "power_w": {k: float(v) for k, v in power_w.items()},
            }
        )
    )
    out = ScenarioResult(
        table=table,
        metrics=metrics,
        name=FIG8,
        fingerprint=REGISTRY.fingerprint(FIG8),
        params=dict(params),
    )
    store.save(out)
    return out


def paper_rows(results):
    """(label, ours, paper) for every paper reference value the catalog records.

    Fig. 10(b) absolute energies stay out: they carry a known ~20x unit gap.
    """
    from repro.scenarios import catalog as c

    fig6 = results["fig6_layout"].metrics
    fig7 = results["fig7_tempo_validation"].metrics
    fig8 = results[FIG8].metrics
    fig10a = results["fig10a_layout_aware"].metrics
    return [
        ("fig6.naive_um2", fig6["naive_um2"], c.FIG6_PAPER_NAIVE_UM2),
        ("fig6.estimate_um2", fig6["planned_um2"], c.FIG6_PAPER_ESTIMATE_UM2),
        ("fig7.area_mm2", fig7["photonic_core_area_mm2"], c.FIG7_PAPER_AREA_MM2),
        ("fig8.area_mm2", sum(fig8["area_mm2"].values()), c.FIG8_PAPER_AREA_MM2["simphony"]),
        ("fig8.power_w", sum(fig8["power_w"].values()), c.FIG8_PAPER_POWER_W["simphony"]),
        ("fig10a.aware_mm2", fig10a["aware_mm2"], c.FIG10A_PAPER_AWARE_MM2),
        ("fig10a.unaware_mm2", fig10a["unaware_mm2"], c.FIG10A_PAPER_UNAWARE_MM2),
    ]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    root = Path(args.root)
    tracer = Tracer(args.trace)

    start = time.perf_counter()
    sys.path.insert(0, str(root / "src"))
    import repro.cli  # noqa: F401  (registers the full scenario catalog)
    from repro.core.cache import EvaluationCache
    from repro.core.knobs import repro_env_snapshot
    from repro.scenarios import REGISTRY, ResultStore

    import_end = time.perf_counter()
    tracer.add("cli.import", start, import_end)

    gc_before = gc.get_stats()[2]["collections"]
    cache = EvaluationCache()
    store = ResultStore(args.store)
    if tracer.enabled:
        save = store.save

        def traced_save(result):
            with tracer.span("scenarios.store.save"):
                return save(result)

        store.save = traced_save

    results = {}
    for name in SCENARIOS:
        with tracer.span(f"scenarios.run.{name}"):
            if tracer.enabled and name == FIG8:
                results[name] = fig8_decomposed(tracer, cache, store)
            else:
                results[name] = REGISTRY.run(name, cache=cache, store=store)

    with tracer.span("bench.check"):
        mismatched = [
            name
            for name in SCENARIOS
            if (results[name].table + "\n").encode()
            != (root / "benchmarks" / "results" / f"{name}.txt").read_bytes()
        ]
        rows = paper_rows(results)
        digest = hashlib.sha256(
            "\n".join(results[name].table for name in SCENARIOS).encode()
        ).hexdigest()
        store_bytes = sum(p.stat().st_size for p in Path(args.store).glob("*.json"))

    print(
        json.dumps(
            {
                "import_s": import_end - start,
                "mismatched": mismatched,
                "paper_rows": rows,
                "digest": digest,
                "cache": {
                    stage: [s.hits, s.misses] for stage, s in sorted(cache.stats.items())
                },
                "store_bytes": store_bytes,
                "gc_gen2": gc.get_stats()[2]["collections"] - gc_before,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "repro_env": repro_env_snapshot(),
                "spans": tracer.spans,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
