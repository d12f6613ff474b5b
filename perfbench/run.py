"""Benchmark entry point: one workload, one closed loop, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload dse_grid --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1``
makes a separate run that alternates untraced and traced ops and reports the
per-layer metrics, the tracing overhead and the share of op time no span covers.
The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are a human-readable summary, including the
host block and a digest of the simulated outputs.  Full per-op records (and, when
traced, the spans plus a text summary) go to ``.perfbench_out/``.

See ``perfbench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
#: Every BLAS library is pinned to one thread, so that worker processes x BLAS
#: threads stays within the 2 CPUs of the reference host on every workload.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh-interpreter set-up repeats per run besides the run's own set-up.
SETUP_PROBES = 4
#: Ops a run makes even when they outlast ``--seconds``.
MIN_OPS = 3
WORKLOAD_NAMES = ("figures_cold", "dse_grid", "mc_sweep", "mc_sweep_procs")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=WORKLOAD_NAMES + ("all",),
        help="one workload, or `all` to run each in turn and print one table",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def pin_environment(workload: str) -> None:
    """Default every ``REPRO_*`` knob and pin BLAS threads, before numpy loads."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)
    if workload == "mc_sweep_procs":
        # The process backend on a warm pool: the pool is spun up once, in
        # set-up, like a user's long-lived session; per-op caches stay fresh.
        os.environ["REPRO_POOL"] = "warm"


def host_block(workload_cls) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "workers": workload_cls.jobs,
        "oversubscribed": workload_cls.jobs * BLAS_THREADS > nproc,
        "pool_mode": os.environ.get("REPRO_POOL", "cold"),
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
    }


def peak_rss_mb(include_children: bool) -> float:
    """Peak RSS of this process, plus that of each live worker process."""
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if include_children:
        for child in multiprocessing.active_children():
            status = Path(f"/proc/{child.pid}/status").read_text()
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1]) / 1024.0
    return total


def setup_probe(args) -> dict:
    """Re-run this workload's set-up in a fresh interpreter; returns its record."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--setup-probe",
    ]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def quantile(values, q: float) -> float:
    """The ``q``-quantile (0 < q < 1) by ``statistics.quantiles``; 0 if empty."""
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(100 * q) - 1]


def per_layer_metrics(workload, records, spans, import_samples) -> dict:
    """Every per-layer metric, from traced ops' spans and all ops' counters."""
    from tracer import self_times

    traced = [r["index"] for r in records if r["traced"]]
    untraced = [r["index"] for r in records if not r["traced"]]
    seconds = {r["index"]: r["seconds"] for r in records}

    def op_total_ms(name):
        return 1e3 * median(
            sum(s["end"] - s["start"] for s in spans if s["op"] == op and s["name"] == name)
            for op in traced
        )

    def per_span_ms(name, q=0.5, **attrs):
        durations = [
            s["end"] - s["start"]
            for s in spans
            if s["name"] == name
            and all(s.get("attrs", {}).get(k) == v for k, v in attrs.items())
        ]
        return 1e3 * quantile(durations, q)

    selfs = self_times(spans)
    extras = [r.get("extra", {}) for r in records]
    hits = [sum(h for h, _ in r["cache"].values()) for r in records]
    lookups = [sum(h + m for h, m in r["cache"].values()) for r in records]
    metrics = {
        "cli.import_ms": 1e3 * median(import_samples),
        "scenarios.store.save_ms": op_total_ms("scenarios.store.save"),
        "scenarios.store.bytes": median(e.get("store_bytes", 0) for e in extras),
        "explore.evaluate_ms": per_span_ms("explore.evaluate"),
        "explore.evaluate_p90_ms": per_span_ms("explore.evaluate", q=0.9),
        "python.gc_gen2": statistics.fmean(r["gc_gen2"] for r in records),
        "core.cache.hit_rate": median(h / n for h, n in zip(hits, lookups) if n),
        "core.cache.hits_op_spread": max(hits) - min(hits),
        "core.engine.run_accuracy_ms": (
            per_span_ms("core.engine.run_accuracy", backend=workload.backend)
            if workload.name.startswith("mc_")
            else 0.0
        ),
        "exec.dispatch_overhead_ms": (
            per_span_ms("core.engine.run_accuracy", backend="processes")
            - per_span_ms("core.engine.run_accuracy", backend="serial")
            if workload.name == "mc_sweep_procs"
            else 0.0
        ),
        "exec.pool.workers": max(e.get("pool_workers", 0) for e in extras),
        "exec.shm.segments": max(e.get("shm_segments", 0) for e in extras),
        "unattributed_ms": 1e3 * median(
            own for s, own in zip(spans, selfs) if s["name"] == "op"
        ),
        "trace.overhead_ms": 1e3 * (
            median(seconds[i] for i in traced) - median(seconds[i] for i in untraced)
        ),
        "fidelity.paper_err_pct": paper_err_pct(records),
    }
    for name in (
        "onn.build_model",
        "onn.convert",
        "onn.extract_workloads",
        "core.engine.run",
        "explore.pareto_front",
    ):
        metrics[f"{name}_ms"] = op_total_ms(name)
    for name in {s["name"] for s in spans if s["name"].startswith("scenarios.run.")}:
        metrics[f"{name}_ms"] = op_total_ms(name)
    for stage in {stage for r in records for stage in r["cache"]}:
        for column, kind in enumerate(("hits", "misses")):
            metrics[f"core.cache.{stage}.{kind}"] = median(
                r["cache"].get(stage, (0, 0))[column] for r in records
            )
    return metrics


def paper_err_pct(records) -> float:
    """Mean |ours/paper - 1| (%) over the catalog's paper reference values."""
    for record in records:
        rows = record.get("extra", {}).get("paper_rows")
        if rows:
            return 100.0 * statistics.fmean(abs(ours / paper - 1.0) for _, ours, paper in rows)
    return 0.0


def complete(metrics: dict, declared: list) -> dict:
    """``metrics`` restricted to the declared names, each with its unit.

    A declared per-layer metric a workload never exercises (a span it has no
    reason to record, a cache stage it never consults) reads 0.  Undeclared
    ones (say, a cache stage added later) stay in the run's record file.
    """
    unknown = set(metrics) - {m["name"] for m in declared}
    if unknown:
        print(f"perfbench: not in BENCHMARK.json, record only: {sorted(unknown)}",
              file=sys.stderr)
    return {
        m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in declared
    }


def closed_loop(args, workload, tracer, speed_probe):
    """Ops back to back for ``args.seconds`` (at least ``MIN_OPS``).

    Returns the per-op records and the host-speed samples taken right before
    each op (two before each long figures_cold op).
    """
    from workloads import WARMUP

    per_op = 2 if args.workload == "figures_cold" else 1
    speed = []
    records = []
    deadline = time.perf_counter() + args.seconds
    index = WARMUP
    while len(records) < MIN_OPS or time.perf_counter() < deadline:
        index += 1
        traced = bool(args.trace) and len(records) % 2 == 1
        tracer.enabled, tracer.op = traced, index
        record = {"index": index, "traced": traced}
        speed += [speed_probe.sample() for _ in range(per_op)]
        try:
            inputs = workload.prepare(index)
            gc_before = gc.get_stats()[2]["collections"]
            with tracer.span("op") as op_span:
                start = time.perf_counter()
                outputs = workload.op(inputs, tracer)
                record["seconds"] = time.perf_counter() - start
            record["gc_gen2"] = gc.get_stats()[2]["collections"] - gc_before
            result = workload.check(index, inputs, outputs, tracer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            record.setdefault("seconds", float("nan"))
            record.update(errors=["op raised: see stderr"], items=0, digest="", cache={},
                          gc_gen2=0, cache_hits=0)
            records.append(record)
            continue
        finally:
            tracer.enabled = False
        extra = dict(result.extra)
        if "spans" in extra:
            child_spans = extra.pop("spans")
            if op_span is not None:
                tracer.merge(child_spans, op_span)
        if "gc_gen2" in extra:
            record["gc_gen2"] = extra.pop("gc_gen2")
        record.update(
            errors=result.errors,
            items=result.items,
            digest=result.digest,
            cache=result.cache,
            cache_hits=sum(h for h, _ in result.cache.values()),
            extra=extra,
        )
        records.append(record)
    return records, speed


def run_all(args) -> int:
    """Every workload in turn, then one table of every metric with its unit."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=300)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        print(proc.stdout.rstrip())
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(f"\n{'workload':<16} {'metric':<40} {'value':>14} unit")
    for name, result in results.items():
        print(f"{name:<16} {'error_rate':<40} "
              f"{result['failed'] / result['attempted']:>14.4f} fraction")
        for metric, entry in result["metrics"].items():
            print(f"{name:<16} {metric:<40} {entry['value']:>14.4f} {entry['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": entry for name, r in results.items()
                    for metric, entry in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (
        ROOT / "benchmarks" / "results"
    ).is_dir():
        print(
            f"perfbench: {ROOT} is not a repro checkout (src/repro and "
            "benchmarks/results are required)",
            file=sys.stderr,
        )
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads(spec_path.read_text())
    pin_environment(args.workload)

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import hostspeed
    from tracer import Tracer, summary_text, write
    from workloads import WARMUP, WORKLOADS

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    tracer = Tracer(False)
    setup_errors = []

    # -- set-up: import, seeded inputs, one untimed warm-up op -----------------------
    import_s = workload.setup()
    warm_inputs = workload.prepare(WARMUP)
    warm = workload.check(WARMUP, warm_inputs, workload.op(warm_inputs, tracer), tracer)
    setup_s = time.perf_counter() - T_START
    setup_errors += [f"warm-up op: {e}" for e in warm.errors]
    if args.setup_probe:
        workload.close()
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return 0
    if args.workload == "figures_cold":
        setup_samples, import_samples = [], [warm.extra["import_s"]]
    else:
        probes = [setup_probe(args) for _ in range(SETUP_PROBES)]
        setup_samples = [setup_s] + [p["setup_s"] for p in probes]
        import_samples = [import_s] + [p["import_s"] for p in probes]
    try:
        setup_errors += workload.check_committed()
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        setup_errors.append(f"committed-table check raised {exc!r}")
    speed_probe = hostspeed.HostSpeed()
    try:
        records, speed = closed_loop(args, workload, tracer, speed_probe)
    finally:
        speed_probe.close()

    if args.workload == "figures_cold":
        children = [r["extra"] for r in records if "import_s" in r.get("extra", {})]
        import_samples += [child["import_s"] for child in children]
        setup_samples = import_samples
        rss = median(child["peak_rss_mb"] for child in children)
    else:
        rss = peak_rss_mb(include_children=args.workload == "mc_sweep_procs")
    host = host_block(type(workload))
    if args.workload == "figures_cold":
        host["repro_env"] = warm.extra.get("repro_env")
    workload.close()

    # -- metrics ----------------------------------------------------------------------
    failed = sum(1 for r in records if r["errors"])
    timed = [r for r in records if not r["traced"] and r["seconds"] == r["seconds"]]
    op_seconds = [r["seconds"] for r in timed]
    items_per_s = sum(r["items"] for r in timed) / sum(op_seconds) if op_seconds else 0.0
    raw = {
        "setup_s": median(setup_samples),
        "op_p50_ms": 1e3 * median(op_seconds),
        "items_per_s": items_per_s,
    }
    # Host times as on the reference host: see hostspeed.py.
    factor = hostspeed.REFERENCE_S / median(speed)
    end_to_end = {
        "setup_s": raw["setup_s"] * factor,
        "op_p50_ms": raw["op_p50_ms"] * factor,
        "items_per_s": raw["items_per_s"] / factor,
        "peak_rss_mb": rss,
    }
    digest = records[0]["digest"] if records else ""
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host,
        "setup_samples_s": setup_samples,
        "import_samples_s": import_samples,
        "setup_errors": setup_errors,
        "attempted": len(records),
        "failed": failed,
        "error_rate": failed / len(records),
        "op_seconds": op_seconds,
        "digest_first_op": digest,
        "paper_err_pct": paper_err_pct(records),
        "host_speed_samples_s": speed,
        "host_speed_factor": factor,
        "raw_host_time": raw,
        "end_to_end": end_to_end,
        "records": records,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    suffix = "-traced" if args.trace else ""
    if args.trace:
        metrics = complete(
            per_layer_metrics(workload, records, tracer.spans, import_samples),
            spec["per_layer"],
        )
        trace_path, summary_path = write(tracer.spans, OUT / args.workload)
        summary["per_layer"] = {k: v["value"] for k, v in metrics.items()}
    else:
        metrics = complete(end_to_end, spec["end_to_end"])
    (OUT / f"{args.workload}{suffix}.record.json").write_text(
        json.dumps(summary, indent=1, default=str) + "\n"
    )

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("host: " + json.dumps(host, sort_keys=True))
    print(
        f"ops: {len(records)} attempted, {failed} failed (error_rate "
        f"{summary['error_rate']:.4f}); {len(op_seconds)} untraced op times, "
        f"raw p50 {raw['op_p50_ms']:.2f} ms; {workload.item}/s {items_per_s:.3f}"
    )
    print(f"host-speed factor {factor:.4f} (reference-host times below and in the result)")
    print("end-to-end: " + ", ".join(f"{k} {v:.4f}" for k, v in end_to_end.items()))
    print(f"setup_s samples: {[round(s, 4) for s in setup_samples]}")
    if args.workload == "figures_cold":
        print(f"paper_err_pct: {summary['paper_err_pct']:.4f}")
    for error in setup_errors + [e for r in records for e in r["errors"]]:
        print(f"FAILED CHECK: {error}")
    print(f"digest (simulated outputs of op {records[0]['index']}): {digest}")
    if args.trace:
        print(summary_text(tracer.spans))
        print(f"spans: {trace_path.relative_to(ROOT)}, summary: {summary_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not setup_errors and failed == 0,
                "attempted": len(records),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
