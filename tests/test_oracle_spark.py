"""Oracle-backed checks of SAFE's own Spark aggregations.

Each test runs one of the pipeline's distributed statistics over a scaled
Data1 business frame and compares it with DuckDB computing the same thing
in SQL: the IV bin counts, the gain-ratio contingencies, Ψ on Spark, and
an end-to-end SAFE fit on a label derived in SQL.
"""
from dataclasses import replace
from functools import partial

import duckdb
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.combos import mine_combos
from repro.core.engine import SparkEngine
from repro.core.gain_ratio import cell_counts
from repro.core.pipeline import SafePipeline
from repro.core.plan import FeaturePlan, FeatureSpec
from repro.experiments.datasets import BUSINESS_DATASETS, LABEL_COL, make_dataset
from repro.gbdt import GBDTClassifier
from repro.oracle import assert_equivalent

COLS = [f"f{i}" for i in range(8)]


def _lit(v: float) -> str:
    """Exact DuckDB double literal."""
    return f"CAST('{float(v)!r}' AS DOUBLE)"


def _spec_sql(spec: FeatureSpec) -> str:
    """A generated feature over base columns in SQL (operators.py semantics)."""
    a, b = spec.inputs
    return {
        "add": f"({a} + {b})",
        "sub": f"({a} - {b})",
        "mul": f"({a} * {b})",
        "div": f"(CASE WHEN ABS({b}) > 1e-12 THEN {a} / {b} ELSE 0.0 END)",
    }[spec.op]


def _positives_by_label(plan: FeaturePlan, sdf):
    """Spark and SQL sides of: per label, the count of positive values and
    the rounded sum of every output column of ``plan``."""
    aggs, sql = [], []
    for i, c in enumerate(plan.output_columns):
        spec = next((s for s in plan.specs if s.name == c), None)
        expr = c if spec is None else _spec_sql(spec)
        aggs += [
            F.sum((F.col(c) > 0).cast("int")).alias(f"pos_{i}"),
            F.round(F.sum(c), 2).alias(f"sum_{i}"),
        ]
        sql += [f"SUM(CAST({expr} > 0 AS INTEGER)) AS pos_{i}", f"ROUND(SUM({expr}), 2) AS sum_{i}"]
    got = plan.apply_spark(sdf).groupBy(LABEL_COL).agg(*aggs)
    return got, f"SELECT {LABEL_COL}, {', '.join(sql)} FROM data GROUP BY {LABEL_COL}"


@pytest.fixture(scope="module")
def data1(spark):
    spec = replace(BUSINESS_DATASETS[0], n_train=4000, n_valid=0, n_test=100)
    train, _valid, _test = make_dataset(spec)
    pdf = train[COLS + [LABEL_COL]].reset_index(drop=True)
    # one decimal: many rows tie with the Spark bin edges, which are data
    # values, so the side each tie goes to is checked too
    pdf[COLS] = pdf[COLS].round(1)
    return pdf, spark.createDataFrame(pdf)


def test_groupby_aggregation_matches_duckdb(data1):
    """The (combo, cell) → pos/neg contingencies behind
    ``SparkEngine.gain_ratios``: per-partition kernel counts summed on the
    driver, against SQL cell ids built from the split values of
    combinations mined, as on the Spark engine, from ``fit_spark``."""
    pdf, sdf = data1
    model = GBDTClassifier(n_estimators=3, max_depth=3).fit_spark(sdf, COLS, LABEL_COL)
    combos = mine_combos(model.paths(), sizes=(2,), max_cells=4096)[:6]
    assert combos
    selects = []
    for ci, combo in enumerate(combos):
        cell = "0"
        for f, vs in zip(combo.features, combo.split_values):
            # searchsorted side='left': the number of split values below x
            code = " + ".join(f"CAST({_lit(v)} < {COLS[f]} AS INTEGER)" for v in vs)
            cell = f"({cell}) * {len(vs) + 1} + ({code or '0'})"
        selects.append(f"SELECT {ci} AS combo, {cell} AS cell, {LABEL_COL} FROM data")
    counts = SparkEngine(sdf, LABEL_COL)._summed(COLS, partial(cell_counts, combos=combos))
    got = pd.DataFrame(
        [(ci, cell, c[0, cell], c[1, cell])
         for ci, c in enumerate(counts) for cell in np.flatnonzero(c.sum(axis=0))],
        columns=["combo", "cell", "pos", "neg"],
    )
    assert_equivalent(
        got,
        f"SELECT combo, cell, SUM({LABEL_COL}) AS pos, SUM(1 - {LABEL_COL}) AS neg "
        f"FROM ({' UNION ALL '.join(selects)}) GROUP BY combo, cell",
        data=pdf,
    )


def test_join_aggregation_matches_duckdb(data1):
    """The per-(feature, bin) pos/neg counts behind ``SparkEngine.iv``:
    per-partition kernel counts summed on the driver; SQL joins each value
    with the bin-edge table and counts the edges below it."""
    pdf, sdf = data1
    edges, pos, neg = SparkEngine(sdf, LABEL_COL)._bin_counts(COLS, beta=10)
    edges = dict(zip(COLS, edges))
    got = pd.DataFrame(
        [(COLS[j], b, pos[j, b], neg[j, b]) for j, b in zip(*np.nonzero(pos + neg))],
        columns=["_feat", "_bin", "pos", "neg"],
    )
    edge_rows = pd.DataFrame(
        [(c, e) for c in COLS for e in edges[c]], columns=["feat", "edge"]
    )
    long = " UNION ALL ".join(
        f"SELECT rid, '{c}' AS feat, {c} AS x, {LABEL_COL} AS y FROM data" for c in COLS
    )
    assert_equivalent(
        got,
        f"""
        WITH long AS ({long}),
        binned AS (
            SELECT l.rid, l.feat, ANY_VALUE(l.y) AS y, COUNT(e.edge) AS bin
            FROM long l LEFT JOIN edges e ON e.feat = l.feat AND e.edge < l.x
            GROUP BY l.rid, l.feat
        )
        SELECT feat AS _feat, bin AS _bin, SUM(y) AS pos, SUM(1 - y) AS neg
        FROM binned GROUP BY feat, bin
        """,
        data=pdf.rename_axis("rid").reset_index(),
        edges=edge_rows,
    )


def test_generated_feature_aggregate_matches_duckdb(data1):
    """Ψ applied on Spark, aggregated, vs DuckDB computing the same
    generated features in SQL — end-to-end check of the serving path."""
    pdf, sdf = data1
    specs = [
        FeatureSpec("mul", ("f0", "f1")),
        FeatureSpec("div", ("f2", "f3")),
        FeatureSpec("sub", ("f4", "f6")),
        FeatureSpec("add", ("f5", "f7")),
    ]
    plan = FeaturePlan(specs, ["f0"] + [s.name for s in specs], LABEL_COL)
    got, sql = _positives_by_label(plan, sdf)
    assert_equivalent(got, sql, data=pdf)


def test_pipeline_on_sql_derived_label(spark, data1):
    """SAFE runs end-to-end on a frame whose label DuckDB derives from an
    f0 × f1 interaction, and the fitted Ψ agrees with SQL on Spark."""
    pdf, _sdf = data1
    con = duckdb.connect()
    try:
        con.register("data", pdf.drop(columns=LABEL_COL))
        feats = con.execute(
            f"SELECT *, CAST(f0 * f1 > (SELECT MEDIAN(f0 * f1) FROM data) AS INTEGER) "
            f"AS {LABEL_COL} FROM data"
        ).fetchdf()
    finally:
        con.close()
    assert 0.4 < feats[LABEL_COL].mean() < 0.6
    plan = SafePipeline(gamma=4, top_k=8).fit(feats, LABEL_COL)
    gen = " ".join(plan.generated_outputs())
    assert "f0" in gen and "f1" in gen
    got, sql = _positives_by_label(plan, spark.createDataFrame(feats))
    assert_equivalent(got, sql, data=feats)
    assert np.isfinite(plan.apply_pandas(feats)[plan.output_columns].to_numpy()).all()
