"""The two workloads: ``fit-local`` and ``fit-spark``.

Each workload sets up (data, session, caching, a fixed warm-up), fits Ψ
for about half of the run's seconds and serves a Ψ: pandas batches, single
records and, on ``fit-spark``, a cached Spark frame. It checks its outputs
throughout. Every workload reports every end-to-end metric; a traced run
adds the per-layer ones. The data always comes from
the Data1 business generator with the run's seed put into its spec, so the
program only sees generated frames.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field, replace

import numpy as np
import pandas as pd

from repro.core.engine import LocalEngine, SparkEngine
from repro.core.pipeline import SafePipeline
from repro.core.plan import FeaturePlan
from repro.experiments.datasets import BUSINESS_DATASETS, LABEL_COL, make_dataset
from repro.models import LogisticRegressionNP, auc_score

from .measure import Ops, median, percentile, repeat_timed
from .spans import Tracer, maybe_span

DATA1 = BUSINESS_DATASETS[0]
#: closed-loop single-record calls: enough for 10 samples beyond p99
MIN_RECORDS = 1000
#: untimed single-record calls before the timed loop
RECORD_WARMUP = 500
#: rows per apply_pandas batch: large enough to amortise per-call cost,
#: small enough that its arrays are reused rather than freshly page-faulted
APPLY_ROWS = 50_000
#: rows of the serving frame on which pandas and Spark Ψ must agree
AGREE_ROWS = 2000
#: rows of the test frame used for the holdout AUC
HOLDOUT_ROWS = 20_000
#: repetitions of the repeatable part of set-up (data generation)
SETUP_REPEATS = 3
#: share of the run's seconds given to each measured block
FIT_SHARE, APPLY_SHARE, RECORD_SHARE = 0.5, 0.15, 0.15
#: turns the serving paths take (see _serve)
SERVE_ROUNDS = 6


@dataclass(frozen=True)
class FitConfig:
    n_train: int
    n_valid: int
    n_test: int
    engine: str
    min_fits: int
    gamma: int
    top_k: int
    #: rows of the warm-up fit in set-up; None: the whole training frame
    warmup_rows: int | None
    gbdt: dict | None = None  # None: SafePipeline's default (20 trees, depth 3)

    def pipeline(self) -> SafePipeline:
        trees = {} if self.gbdt is None else {"mining_gbdt": dict(self.gbdt), "ranking_gbdt": dict(self.gbdt)}
        return SafePipeline(gamma=self.gamma, top_k=self.top_k, **trees)


# γ (combinations kept) and the output cap sit at or below the fewest
# combinations and non-redundant features that seeds 1-30 and 201 yield, so
# seeds generate, score and serve the same number of columns and a run's
# cost hardly depends on its seed.
#
# The warm-up fit is fixed per workload. numpy needs no more than a small
# fit; the JVM compiles Spark's hot paths during the first full fit, which
# makes that fit about 1.4 times as long as the ones after it.
FIT_LOCAL = FitConfig(80_000, 20_000, 20_000, "local", min_fits=2, gamma=14, top_k=30,
                      warmup_rows=1000)
# The Spark fit's cost is per job, not per row: a 3-tree forest keeps a run
# within its time budget while every primitive still pays its per-job
# overhead. Its small Ψ varies from seed to seed, so this workload serves a
# Ψ fitted in set-up with SERVE_PSI's settings (local engine, the same rows)
# on its test rows, cached in Spark.
FIT_SPARK = FitConfig(
    16_000, 4_000, 50_000, "spark", min_fits=1, gamma=3, top_k=10, warmup_rows=None,
    gbdt={"n_estimators": 3, "max_depth": 3},
)
SERVE_PSI = replace(FIT_SPARK, engine="local", gbdt=None, gamma=24, top_k=40)


@dataclass
class Run:
    """One benchmark invocation: its settings and everything it measured."""

    seed: int
    seconds: float
    trace: bool
    ops: Ops = field(default_factory=Ops)
    end_to_end: dict = field(default_factory=dict)  # name -> (value, unit, samples)
    per_layer: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)
    tracer: Tracer | None = None
    spark: object = None
    started: float = field(default_factory=time.perf_counter)

    def e2e_setup(self, repeat_s: list[float], measured_s: float) -> None:
        """``setup_s``: wall time since the run started, less ``measured_s``
        spent measuring, counting the repeated part of set-up (data
        generation) once, at its median."""
        elapsed = time.perf_counter() - self.started - measured_s
        self.e2e("setup_s", elapsed - sum(repeat_s) + median(repeat_s), "s", len(repeat_s))

    def e2e(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.end_to_end[name] = (float(value), unit, n)

    def layer(self, name: str, value: float, unit: str, n: int = 1) -> None:
        self.per_layer[name] = (float(value), unit, n)


# ----------------------------------------------------------------- set-up
def _make_data(run: Run, cfg: FitConfig):
    spec = replace(DATA1, n_train=cfg.n_train, n_valid=cfg.n_valid, n_test=cfg.n_test, seed=run.seed)
    with maybe_span(run.tracer, "datasets.make_dataset"):
        t0 = time.perf_counter()
        train, valid, test = make_dataset(spec)
        run.layer("datasets.make_dataset.s", time.perf_counter() - t0, "s")
    return train, valid, test


def _setup(run: Run, cfg: FitConfig):
    """Generate the data ``SETUP_REPEATS`` times; return the last copy and
    each repetition's seconds."""
    durations = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        frames = _make_data(run, cfg)
        durations.append(time.perf_counter() - t0)
    return frames, durations


def _cache(spark, pdf: pd.DataFrame):
    df = spark.createDataFrame(pdf).cache()
    df.count()
    return df


# ----------------------------------------------------------------- checks
def _check_plan(run: Run, plan: FeaturePlan, n_base: int, test: pd.DataFrame) -> None:
    ops = run.ops
    ops.check("plan_has_generated", len(plan.generated_outputs()) >= 1)
    ops.check("plan_outputs_le_2M", len(plan.output_columns) <= 2 * n_base,
              f"{len(plan.output_columns)} > {2 * n_base}")
    ops.check("plan_json_roundtrip", FeaturePlan.from_json(plan.to_json()) == plan)
    out = plan.apply_pandas(test)[plan.output_columns].to_numpy()
    ops.check("plan_test_finite", bool(np.isfinite(out).all()))


def _holdout_auc(run: Run, plan: FeaturePlan, trainval: pd.DataFrame, test: pd.DataFrame) -> None:
    """LR fitted on Ψ(train ∪ valid), AUC on Ψ(test); never part of fit_s."""
    t0 = time.perf_counter()
    with run.ops.op("holdout_auc"):
        cols = plan.output_columns
        lr = LogisticRegressionNP().fit(
            plan.apply_pandas(trainval)[cols].to_numpy(), trainval[LABEL_COL].to_numpy()
        )
        p = lr.predict_proba(plan.apply_pandas(test)[cols].to_numpy())[:, 1]
        run.e2e("holdout_auc", auc_score(test[LABEL_COL].to_numpy(), p), "auc")
    run.layer("models.eval_s", time.perf_counter() - t0, "s")


# ------------------------------------------------------------------- fits
def _timed_fits(run: Run, cfg: FitConfig, train, valid) -> tuple[FeaturePlan, list[float]]:
    """Repeated untraced fits; every plan must equal the first (same seed)."""
    plans: list[FeaturePlan] = []

    def one():
        with run.ops.op("fit"):
            plans.append(cfg.pipeline().fit(train, LABEL_COL, valid, engine=cfg.engine))

    durations = repeat_timed(one, min_count=cfg.min_fits, budget_s=FIT_SHARE * run.seconds)
    for p in plans[1:]:
        run.ops.check("fit_deterministic", p == plans[0])
    run.e2e("fit_s", median(durations), "s", len(durations))
    if not plans:
        raise RuntimeError("every fit failed")
    return plans[0], durations


def _traced_fit(run: Run, cfg: FitConfig, train, valid, n_base: int, untraced: list[float]) -> None:
    """One fit with every engine primitive in a span. Per-layer metrics
    come from its spans and from ``SafePipeline.report_``."""
    tracer = run.tracer
    pipe = cfg.pipeline()
    with tracer.instrument_engines(LocalEngine, SparkEngine):
        with tracer.span("pipeline.fit") as fit_span:
            plan = pipe.fit(train, LABEL_COL, valid, engine=cfg.engine)
    tracer.collect_spark_counts()

    kids = tracer.children(fit_span)
    driver_self = tracer.self_time(fit_span)
    engine_s = sum(k.duration for k in kids)
    run.ops.check("trace_self_time_sum",
                  abs(engine_s + driver_self - fit_span.duration) <= 1e-9 * fit_span.duration)
    run.layer("pipeline.driver_self_s", driver_self, "s")
    run.layer("trace.fit_s", fit_span.duration, "s")
    run.layer("trace.overhead_s", fit_span.duration - median(untraced), "s")

    for name, keys in LAYER_COUNTS.items():
        spans = [k for k in kids if k.name == name]
        run.layer(f"{name}.s", sum(k.duration for k in spans), "s", len(spans))
        for key in keys:
            run.layer(f"{name}.{key}", sum(k.counts.get(key, 0) for k in spans), "count")
    gbdt = [k for k in kids if k.name.startswith("engine.fit_gbdt")]
    trees = sum(k.counts["trees"] for k in gbdt)
    run.layer("gbdt.spark_jobs_per_tree",
              sum(k.counts.get("spark_jobs", 0) for k in gbdt) / max(trees, 1), "ratio")
    fit_tree = [s for s in tracer.spans if s.trace_id == fit_span.trace_id]
    for key in ("spark_jobs", "spark_tasks", "spark_tasks_failed"):
        run.layer(f"spark.{key.removeprefix('spark_')}",
                  sum(s.counts.get(key, 0) for s in fit_tree), "count")

    it = pipe.report_.iterations[0]
    for key in ("n_paths", "n_combos", "n_generated", "n_informative", "n_nonredundant", "n_selected"):
        run.layer(f"pipeline.{key}", it[key], "count")
    run.layer("pipeline.iv_pass_ratio", it["n_informative"] / (n_base + it["n_generated"]), "ratio")
    run.layer("pipeline.corr_pass_ratio", it["n_nonredundant"] / max(it["n_informative"], 1), "ratio")
    run.layer("pipeline.generated_kept_ratio",
              len(plan.generated_outputs()) / max(it["n_generated"], 1), "ratio")


#: per-primitive counters reported by the traced fit
LAYER_COUNTS = {
    "engine.fit_gbdt_mining": ("cols_in", "spark_jobs", "spark_tasks"),
    "engine.fit_gbdt_ranking": ("cols_in", "spark_jobs", "spark_tasks"),
    "engine.iv": ("cols_in", "spark_jobs", "spark_tasks"),
    "engine.corr": ("cols_in", "spark_jobs"),
    "engine.gain_ratios": ("combos_in", "spark_jobs"),
    "engine.add_generated": ("specs_in", "spark_jobs"),
}


# ---------------------------------------------------------------- serving
def _noop(plan: FeaturePlan, df) -> None:
    plan.apply_spark(df).write.format("noop").mode("overwrite").save()


def _serve_pandas(run: Run, plan: FeaturePlan, batch: pd.DataFrame, records: pd.DataFrame) -> None:
    """Serve Ψ through ``apply_pandas``: ``APPLY_ROWS``-row batches and one
    record per call (closed loop, one caller).

    The two paths take turns in ``SERVE_ROUNDS`` rounds, so that each
    samples the whole serving phase rather than one stretch of it.
    Throughput is total rows over total time; latency is per call.
    Single-record calls run at one of two speeds, as the host's cores are
    fast or contended, so their median jumps between the two from run to
    run; p90 and p99 mostly stay on the slow side.
    """
    run.layer("plan.specs", len(plan.specs), "count")
    run.layer("plan.outputs", len(plan.output_columns), "count")
    rows = [records.iloc[[i]] for i in range(min(len(records), 2 * MIN_RECORDS))]
    with run.ops.op("warmup_serve"):  # each path before timing
        plan.apply_pandas(batch)
        for rec in rows[:RECORD_WARMUP]:
            plan.apply_pandas(rec)
    nxt = itertools.cycle(rows).__next__
    batch_s, record_s = [], []
    for _ in range(SERVE_ROUNDS):
        batch_s += _timed(run, "apply_pandas", lambda: plan.apply_pandas(batch), 10, APPLY_SHARE)
        record_s += _timed(run, "record", lambda: plan.apply_pandas(nxt()), MIN_RECORDS, RECORD_SHARE)
    run.layer("plan.apply_pandas.rows_per_s", len(batch) * len(batch_s) / sum(batch_s), "rows/s", len(batch_s))
    run.layer("plan.apply_pandas.s", median(batch_s), "s", len(batch_s))
    lat_ms = [x * 1e3 for x in record_s]
    run.layer("plan.record_latency_ms_p90", percentile(lat_ms, 90), "ms", len(lat_ms))
    run.layer("plan.record_latency_ms_p99", percentile(lat_ms, 99), "ms", len(lat_ms))


def _serve_spark(run: Run, plan: FeaturePlan, sdf, n_rows: int) -> None:
    """Serve Ψ over the cached ``sdf`` (``n_rows`` rows) into a ``noop`` sink."""
    with run.ops.op("warmup_serve_spark"):
        _noop(plan, sdf)
    d = []
    for _ in range(SERVE_ROUNDS):
        d += _timed(run, "apply_spark", lambda: _noop(plan, sdf), SERVE_ROUNDS, APPLY_SHARE)
    run.layer("plan.apply_spark.rows_per_s", n_rows * len(d) / sum(d), "rows/s", len(d))
    run.layer("plan.apply_spark.s", median(d), "s", len(d))


def _timed(run: Run, name: str, fn, min_count: int, share: float) -> list[float]:
    """One serving round of ``fn``: ``1/SERVE_ROUNDS`` of its count and share."""
    def one():
        with run.ops.op(name):
            fn()

    with maybe_span(run.tracer, f"plan.{name}"):
        return repeat_timed(one, min_count=-(-min_count // SERVE_ROUNDS),
                            budget_s=share * run.seconds / SERVE_ROUNDS)


def _agree(run: Run, plan: FeaturePlan, df) -> None:
    """Pandas and Spark Ψ must agree on a slice of the serving frame."""
    with run.ops.op("agree_pandas_spark"):
        sample = df.limit(AGREE_ROWS).cache()
        try:
            inp = sample.toPandas()
            want = plan.apply_pandas(inp)[plan.output_columns].to_numpy()
            got = plan.apply_spark(sample).toPandas()[plan.output_columns].to_numpy()
        finally:
            sample.unpersist()
        run.ops.check("apply_pandas_spark_agree",
                      want.shape == got.shape and np.allclose(want, got, rtol=1e-9, atol=1e-12))


def _batch(frames: list[pd.DataFrame]) -> pd.DataFrame:
    """``APPLY_ROWS`` rows cut from ``frames``, repeated as needed."""
    rows = pd.concat(frames, ignore_index=True)
    reps = -(-APPLY_ROWS // len(rows))
    return pd.concat([rows] * reps, ignore_index=True).iloc[:APPLY_ROWS]


# -------------------------------------------------------------- workload
def fit_workload(run: Run, cfg: FitConfig, start_spark) -> None:
    """Timed ``SafePipeline.fit`` calls and the serving of a Ψ.

    ``fit-spark`` serves its pandas paths before ``start_spark()`` launches
    the JVM, whose compiler and collector threads would otherwise share the
    cores with them; that stretch is not counted in ``setup_s``.
    """
    (train, valid, test), repeat_s = _setup(run, cfg)
    trainval = pd.concat([train, valid], ignore_index=True)
    n_base = len(train.columns) - 1
    holdout = test.iloc[:HOLDOUT_ROWS]
    batch = _batch([trainval, test])
    fit_args, serving_s = (train, valid), 0.0
    if cfg.engine == "spark":
        serve_plan = SERVE_PSI.pipeline().fit(train, LABEL_COL, valid, engine="local")
        t0 = time.perf_counter()
        _check_plan(run, serve_plan, n_base, holdout)
        _serve_pandas(run, serve_plan, batch, test)
        serving_s = time.perf_counter() - t0
        run.spark = start_spark()
        if run.tracer is not None:
            run.tracer.sc = run.spark.sparkContext
        fit_args = (_cache(run.spark, trainval), None)
        serving = _cache(run.spark, test)
    with run.ops.op("warmup_fit"):
        if cfg.warmup_rows is None:
            cfg.pipeline().fit(fit_args[0], LABEL_COL, fit_args[1], engine=cfg.engine)
        else:
            cfg.pipeline().fit(trainval.iloc[: cfg.warmup_rows], LABEL_COL, engine=cfg.engine)
    run.e2e_setup(repeat_s, serving_s)

    plan, durations = _timed_fits(run, cfg, *fit_args)
    _check_plan(run, plan, n_base, holdout)
    _holdout_auc(run, plan, trainval, holdout)
    if run.spark is None:
        _serve_pandas(run, plan, batch, test)
    else:
        _serve_spark(run, serve_plan, serving, len(test))
        _agree(run, plan, serving)
        _agree(run, serve_plan, serving)
        with run.ops.op("local_fit_for_overlap"):
            local = cfg.pipeline().fit(train, LABEL_COL, valid, engine="local")
            spark_out = set(plan.output_columns)
            run.layer("quality.engine_overlap",
                      len(spark_out & set(local.output_columns)) / len(spark_out), "ratio")
    if run.trace:
        _traced_fit(run, cfg, *fit_args, n_base=n_base, untraced=durations)
