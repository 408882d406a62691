"""Unit tests for the LocalEngine / SparkEngine parity layer."""
from functools import partial

import numpy as np
import pandas as pd
import pytest

from repro.core.combos import FeatureCombo
from repro.core.engine import LocalEngine, SparkEngine
from repro.core.iv import bin_counts, quantile_edges
from repro.core.plan import FeatureSpec


@pytest.fixture(scope="module")
def pdf():
    rng = np.random.default_rng(0)
    n = 2000
    y = rng.integers(0, 2, n)
    return pd.DataFrame(
        {
            "a": y + rng.normal(0, 0.8, n),
            "b": rng.normal(size=n),
            "c": y + rng.normal(0, 2.0, n),
            "label": y,
        }
    )


def test_local_feature_columns(pdf):
    eng = LocalEngine(pdf, "label")
    assert eng.feature_columns == ["a", "b", "c"]


def test_local_add_generated_and_chain(pdf):
    eng = LocalEngine(pdf, "label")
    s1 = FeatureSpec("mul", ("a", "b"))
    s2 = FeatureSpec("add", (s1.name, "c"))  # depends on s1 within same batch
    eng.add_generated([s1, s2])
    np.testing.assert_allclose(eng.pdf[s1.name], pdf["a"] * pdf["b"])
    np.testing.assert_allclose(eng.pdf[s2.name], pdf["a"] * pdf["b"] + pdf["c"])


def test_local_add_generated_idempotent(pdf):
    eng = LocalEngine(pdf, "label")
    s1 = FeatureSpec("mul", ("a", "b"))
    eng.add_generated([s1])
    eng.add_generated([s1])  # second call is a no-op
    assert list(eng.pdf.columns).count(s1.name) == 1


def test_local_gbdt_trains_on_subset(pdf):
    eng = LocalEngine(pdf, "label")
    model = eng.fit_gbdt(["a", "b"], n_estimators=5, max_depth=2)
    assert model.n_features_ == 2
    assert 0 in model.split_features()  # "a" is the informative one


def test_local_iv_and_corr_consistency(pdf):
    eng = LocalEngine(pdf, "label")
    iv = eng.iv(["a", "b", "c"])
    assert iv["a"] > iv["c"] > iv["b"]
    corr = eng.corr(["a", "c"])
    assert corr.shape == (2, 2)
    assert corr[0, 1] == pytest.approx(np.corrcoef(pdf["a"], pdf["c"])[0, 1])


def test_local_gain_ratios_positional_indexing(pdf):
    eng = LocalEngine(pdf, "label")
    combo = FeatureCombo((0,), ((0.5,),))  # index 0 of the cols list below
    (r_a,) = eng.gain_ratios(["a", "b"], [combo])
    (r_b,) = eng.gain_ratios(["b", "a"], [combo])
    assert r_a > r_b  # same combo, different positional meaning


def test_spark_engine_parity(spark, pdf):
    sdf = spark.createDataFrame(pdf)
    local = LocalEngine(pdf, "label")
    dist = SparkEngine(sdf, "label")
    try:
        assert dist.feature_columns == local.feature_columns
        iv_l = local.iv(["a", "b", "c"])
        iv_d = dist.iv(["a", "b", "c"])
        for c in ("a", "b", "c"):
            assert iv_d[c] == pytest.approx(iv_l[c], abs=0.05)
        np.testing.assert_allclose(
            dist.corr(["a", "b", "c"]), local.corr(["a", "b", "c"]), atol=1e-12
        )
        combo = FeatureCombo((0, 2), ((0.5,), (0.5,)))
        np.testing.assert_array_equal(
            dist.gain_ratios(["a", "b", "c"], [combo]),
            local.gain_ratios(["a", "b", "c"], [combo]),
        )
    finally:
        dist.df.unpersist()


@pytest.fixture(scope="module")
def awkward():
    """NaN and ±inf in ``a``, a constant ``k``, small integers in ``g``."""
    rng = np.random.default_rng(3)
    n = 600
    y = rng.integers(0, 2, n)
    a = y + rng.normal(0, 1.0, n)
    a[rng.random(n) < 0.1] = np.nan
    a[:5], a[5:10] = np.inf, -np.inf
    return pd.DataFrame(
        {"a": a, "k": np.full(n, 0.3), "g": rng.integers(0, 4, n).astype(float), "label": y}
    )


def test_spark_counts_equal_local_kernel_over_partitions(spark, awkward):
    """Summed per-partition IV counts equal one kernel pass exactly, and
    the partitioned Pearson matrix matches the local one."""
    cols = ["a", "k", "g"]
    # g's bin (0.5, 0.7] holds no value: an empty bin below non-empty ones
    edges = [quantile_edges(awkward["a"], 10), np.array([0.3]), np.array([0.5, 0.7, 1.5, 2.5])]
    want = bin_counts(awkward[cols].to_numpy(), awkward["label"].to_numpy(), edges)
    assert want[0][2, 1] == want[1][2, 1] == 0
    eng = SparkEngine(spark.createDataFrame(awkward).repartition(4), "label")
    try:
        assert eng.df.rdd.getNumPartitions() >= 3
        got = eng._summed(cols, partial(bin_counts, edges=edges))
        corr = eng.corr(cols)
    finally:
        eng.df.unpersist()
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    np.testing.assert_allclose(corr, LocalEngine(awkward, "label").corr(cols), atol=1e-12)
    assert corr[0, 1] == corr[0, 2] == corr[1, 2] == 0.0  # non-finite a, constant k


def test_spark_statistics_skip_empty_partitions(spark, pdf):
    small = pdf.iloc[:3]
    eng = SparkEngine(spark.createDataFrame(small).repartition(6), "label")
    try:
        sizes = eng._partials(["a"], lambda mat, _y: len(mat))
        corr = eng.corr(["a", "b", "c"])
    finally:
        eng.df.unpersist()
    assert sum(sizes) == 3 and 0 not in sizes
    np.testing.assert_allclose(corr, LocalEngine(small, "label").corr(["a", "b", "c"]), atol=1e-12)


def test_spark_add_generated(spark, pdf):
    sdf = spark.createDataFrame(pdf)
    eng = SparkEngine(sdf, "label")
    try:
        s1 = FeatureSpec("mul", ("a", "b"))
        s2 = FeatureSpec("add", (s1.name, "c"))
        eng.add_generated([s1, s2])
        out = eng.df.select(s1.name, s2.name, "a", "b", "c").toPandas()
        np.testing.assert_allclose(out[s1.name], out["a"] * out["b"], rtol=1e-12)
        np.testing.assert_allclose(
            out[s2.name], out["a"] * out["b"] + out["c"], rtol=1e-12
        )
    finally:
        eng.df.unpersist()
