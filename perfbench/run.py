"""Benchmark command: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload fit-local --seed 201 --seconds 16 --trace 0

Run it from the root of a checkout: it imports ``repro`` from ``src/``
there and exits with an error when that tree is missing. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` also runs one fit with every
engine primitive in a span and reports the per-layer metrics instead. The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it give each metric's sample count.
"""
from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = ("fit-local", "fit-spark")
DEFAULT_SEED = 201  # Data1's registry seed

#: (name, unit) of every end-to-end metric, printed by every workload
END_TO_END = (
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("holdout_auc", "auc"),
    ("driver_peak_rss_mb", "MB"),
)

#: (name, unit) of every per-layer metric; a layer a workload does not use
#: reads 0 there
PER_LAYER = (
    *((f"{p}.{k}", "s" if k == "s" else "count")
      for p, keys in (
          ("engine.fit_gbdt_mining", ("s", "cols_in", "spark_jobs", "spark_tasks")),
          ("engine.fit_gbdt_ranking", ("s", "cols_in", "spark_jobs", "spark_tasks")),
          ("engine.iv", ("s", "cols_in", "spark_jobs", "spark_tasks")),
          ("engine.corr", ("s", "cols_in", "spark_jobs")),
          ("engine.gain_ratios", ("s", "combos_in", "spark_jobs")),
          ("engine.add_generated", ("s", "specs_in", "spark_jobs")),
      ) for k in keys),
    ("gbdt.spark_jobs_per_tree", "ratio"),
    ("pipeline.driver_self_s", "s"),
    ("pipeline.n_paths", "count"),
    ("pipeline.n_combos", "count"),
    ("pipeline.n_generated", "count"),
    ("pipeline.n_informative", "count"),
    ("pipeline.n_nonredundant", "count"),
    ("pipeline.n_selected", "count"),
    ("pipeline.iv_pass_ratio", "ratio"),
    ("pipeline.corr_pass_ratio", "ratio"),
    ("pipeline.generated_kept_ratio", "ratio"),
    ("spark.jobs", "count"),
    ("spark.tasks", "count"),
    ("spark.tasks_failed", "count"),
    ("spark.jvm_peak_rss_mb", "MB"),
    ("plan.apply_pandas.s", "s"),
    ("plan.apply_pandas.rows_per_s", "rows/s"),
    ("plan.record_latency_ms_p90", "ms"),
    ("plan.record_latency_ms_p99", "ms"),
    ("plan.apply_spark.s", "s"),
    ("plan.apply_spark.rows_per_s", "rows/s"),
    ("plan.specs", "count"),
    ("plan.outputs", "count"),
    ("quality.engine_overlap", "ratio"),
    ("datasets.make_dataset.s", "s"),
    ("models.eval_s", "s"),
    ("trace.fit_s", "s"),
    ("trace.overhead_s", "s"),
    ("ops.failed_ratio", "ratio"),
)


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def result_line(run, names_units) -> dict:
    measured = run.per_layer if run.trace else run.end_to_end
    metrics = {}
    for name, unit in names_units:
        value = measured[name][0] if name in measured else (0.0 if run.trace else None)
        metrics[name] = {"value": value, "unit": unit}
    return {
        "correct": run.ops.correct and all(m["value"] is not None for m in metrics.values()),
        "attempted": run.ops.attempted,
        "failed": run.ops.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    build = os.path.join(ROOT, ".bench_build")
    os.makedirs(build, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="perfbench-", dir=build)
    os.environ["TMPDIR"] = tempfile.tempdir = tmp

    from perfbench import sparkenv, workloads
    from perfbench.measure import vm_hwm_mb
    from perfbench.spans import Tracer

    run = workloads.Run(args.seed, args.seconds, bool(args.trace), started=STARTED)
    if args.trace:
        run.tracer = Tracer()

    def start_spark():
        spark = sparkenv.start_session(ROOT, tmp)
        run.info.update(master=spark.sparkContext.master, pyspark=spark.version,
                        driver_memory=sparkenv.DRIVER_MEMORY)
        return spark

    try:
        cfg = workloads.FIT_SPARK if args.workload == "fit-spark" else workloads.FIT_LOCAL
        workloads.fit_workload(run, cfg, start_spark)
        run.e2e("driver_peak_rss_mb", vm_hwm_mb(), "MB")
        if run.spark is not None:
            run.layer("spark.jvm_peak_rss_mb", vm_hwm_mb(sparkenv.jvm_pid(run.spark)), "MB")
    finally:
        if run.spark is not None:
            sparkenv.stop_session(run.spark)
        shutil.rmtree(tmp, ignore_errors=True)

    run.layer("ops.failed_ratio", run.ops.failed_ratio, "ratio")
    import numpy

    run.info.update(nproc=os.cpu_count(), cores=sparkenv.cores(), numpy=numpy.__version__,
                    workload=args.workload, seed=args.seed)
    if run.tracer is not None:
        spans_dir = os.path.join(build, "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        run.tracer.dump(os.path.join(spans_dir, f"{args.workload}-{args.seed}.json"))
    for err in run.ops.errors:
        print(f"FAILED {err}", file=sys.stderr)
    print(f"# env {json.dumps(run.info, sort_keys=True)}")
    for name, (value, unit, n) in {**run.end_to_end, **run.per_layer}.items():
        print(f"# {name} = {value:.6g} {unit} (n={n})")
    print(json.dumps(result_line(run, PER_LAYER if args.trace else END_TO_END)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
