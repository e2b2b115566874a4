"""The vtalarm benchmark: one workload, one fresh process, one result line.

    python3 perfbench/run.py --workload corpus-fcnn --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nothing is installed. BLAS threads are
pinned before numpy loads. An untraced run sets the workload up three
times (``setup_s`` is the import time plus the median set-up), then
times it:

- ``--trace 0`` prints every end-to-end metric, measured untraced.
- ``--trace 1`` prints every per-layer metric: it sets up once under
  spans around each vtalarm module's public functions, runs a fixed
  amount of the workload's work untraced, again with the spans, then
  the default-shape cnn probe.
  ``trace.overhead_frac`` compares the two throughputs.

Every line but the last is for people. The last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. The result
file under ``.perfbench-runs/results/`` keeps the details: machine,
seed, sizes, call counts, the tail percentile and its sample count, the
error rate, every failure, and the output digests. Output digests are
also compared with earlier runs of the same code, workload, sizes and
seed in the same checkout (``.perfbench-runs/digests.json``).
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUNS = ROOT / ".perfbench-runs"
WORKLOADS = ("corpus-fcnn", "cnn-train")
SETUPS = 3
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s",
    "events_per_s": "events/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "test_auc": "auc",
    "true_alarm_recall": "fraction",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float, help="the timed loop runs two passes, then as many more as bring it nearest to this many seconds")
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "smoke"), help="smoke: tiny inputs for the tests")
    return parser.parse_args(argv)


def load_package():
    """Pin BLAS threads, then import numpy and vtalarm from this checkout's src/."""
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import vtalarm

    if Path(vtalarm.__file__).resolve().parent != ROOT / "src" / "vtalarm":
        raise SystemExit(f"vtalarm imported from {vtalarm.__file__}, not from {ROOT / 'src'}")


def compare_with_earlier_runs(key: str, digests: dict, ops) -> None:
    """One operation: each digest equals the one an earlier run with the same key
    left for the same output, if any did (a traced run sees fewer splits)."""
    path = RUNS / "digests.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    earlier = store.setdefault(key, {})
    ops.record("cross-run digests", [f"{k} differs from an earlier run" for k, d in digests.items() if earlier.setdefault(k, d) != d])
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    os.replace(tmp, path)


def end_to_end(timing, setup_s: float, quality: dict) -> tuple[dict, dict]:
    from perfbench.measure import tail_percentile

    tail, percentile, n = tail_percentile(timing.latencies_s)
    values = {
        "setup_s": setup_s,
        "events_per_s": timing.events / timing.wall_s,
        "latency_p50_ms": statistics.median(timing.latencies_s) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **quality,
    }
    return {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}, {"tail_percentile": percentile, "latency_samples": n}


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    from perfbench import layers, measure, trace, workloads

    import_s = time.perf_counter() - PROCESS_START
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    workdir = RUNS / "work" / run_id
    results = RUNS / "results"
    results.mkdir(parents=True, exist_ok=True)
    ops = measure.Operations()
    workload = workloads.make(args.workload, args.size, args.seed, workdir)
    tracer = trace.Tracer(run_id) if args.trace else None
    traced = tracer.installed(layers.PROBES) if tracer else contextlib.nullcontext()
    details: dict = {}
    try:
        setup_times = []
        with traced:
            for _ in range(1 if args.trace else SETUPS):  # setup_s comes from untraced runs only
                start = time.perf_counter()
                workload.setup(ops)
                setup_times.append(time.perf_counter() - start)
        if not args.trace:
            timing = workload.timed(ops, args.seconds, fixed=False)
            setup_s = import_s + statistics.median(setup_times)
            metrics, details = end_to_end(timing, setup_s, workload.quality(ops))
            details["quality_splits"] = workload.split_quality
        else:
            base = workload.timed(ops, args.seconds, fixed=True)
            with tracer.installed(layers.PROBES):
                timing = workload.timed(ops, args.seconds, fixed=True)
            layers.cnn_default_probe(tracer)
            metrics, details["calls"] = layers.layer_metrics(trace.summarize(tracer.spans))
            base_rate, traced_rate = base.events / base.wall_s, timing.events / timing.wall_s
            metrics["trace.overhead_frac"] = ((traced_rate - base_rate) / base_rate, "fraction")
            tracer.write(results / f"{args.workload}-seed{args.seed}-spans.jsonl")
        sizes = json.dumps(workloads.SIZES[args.size][args.workload], sort_keys=True)
        key = f"{args.workload}|{sizes}|seed={args.seed}|code={measure.tree_digest(ROOT / 'src', '*.py')}"
        compare_with_earlier_runs(key, workload.digests(), ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metric_values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": workloads.SIZES[args.size][args.workload],
        "size": args.size,
        "setups": len(setup_times),
        "import_s": import_s,
        "setup_times_s": setup_times,
        "machine": measure.machine_info(BLAS_THREADS),
        "metrics": metric_values,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "error_rate": ops.error_rate,
        "failures": ops.failures,
        "digests": workload.digests(),
        **details,
    }
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:52s} {value:14.6g} {unit}")
    if "tail_percentile" in details:
        print(f"latency_tail_ms is p{details['tail_percentile']:.1f} of {details['latency_samples']} samples")
    print(f"{'error_rate':52s} {ops.error_rate:14.6g} fraction ({ops.failed} of {ops.attempted} operations failed)")
    for failure in ops.failures:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": metric_values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
