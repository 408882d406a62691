"""Unit tests for Information Value (Algorithm 3, Table I)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.engine import LocalEngine, SparkEngine
from repro.core.iv import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    IV_BANDS,
    equal_freq_bin,
    iv_band,
    iv_from_counts,
    iv_scores,
    ivs_from_bin_counts,
)


def test_table1_bands():
    """Table I of the paper, verbatim."""
    assert iv_band(0.01) == "useless"
    assert iv_band(0.05) == "weak"
    assert iv_band(0.2) == "medium"
    assert iv_band(0.4) == "strong"
    assert iv_band(0.9) == "extremely strong"
    assert DEFAULT_ALPHA == 0.1  # paper keeps medium-or-better
    assert DEFAULT_BETA == 10
    assert len(IV_BANDS) == 5


def test_iv_from_counts_hand_example():
    # two bins: (30 pos, 10 neg), (10 pos, 30 neg); smoothing 0.5
    p = np.array([30.5, 10.5]) / 41.0
    q = np.array([10.5, 30.5]) / 41.0
    want = ((p - q) * np.log(p / q)).sum()
    assert iv_from_counts([30, 10], [10, 30]) == pytest.approx(want)


def test_iv_symmetric_in_class_swap():
    assert iv_from_counts([30, 10], [10, 30]) == pytest.approx(
        iv_from_counts([10, 30], [30, 10])
    )


def test_iv_zero_when_identical_distributions():
    assert iv_from_counts([20, 20], [20, 20]) == pytest.approx(0.0)


def test_iv_nonnegative_random():
    rng = np.random.default_rng(0)
    for _ in range(50):
        pos = rng.integers(0, 100, 10)
        neg = rng.integers(0, 100, 10)
        assert iv_from_counts(pos, neg) >= 0


def test_ivs_from_bin_counts_stop_at_highest_nonempty_bin():
    """Bins above the highest non-empty one are dropped; empty bins below
    it are smoothed like any other (the local ``bincount`` rule)."""
    pos = np.array([[3, 1, 0, 0], [3, 0, 1, 0], [0, 0, 0, 0]])
    neg = np.array([[1, 3, 0, 0], [1, 0, 3, 0], [0, 0, 0, 0]])
    assert ivs_from_bin_counts(pos, neg) == [
        iv_from_counts([3, 1], [1, 3]),
        iv_from_counts([3, 0, 1], [1, 0, 3]),
        0.0,
    ]


def test_equal_freq_bin_balanced():
    x = np.random.default_rng(1).normal(size=5000)
    codes = equal_freq_bin(x, 10)
    counts = np.bincount(codes)
    assert len(counts) == 10
    assert counts.min() > 300


def test_equal_freq_bin_constant_column():
    codes = equal_freq_bin(np.ones(100), 10)
    assert set(codes) == {0}


def test_informative_feature_scores_higher():
    rng = np.random.default_rng(2)
    n = 4000
    y = rng.integers(0, 2, n)
    strong = y + rng.normal(0, 0.5, n)
    weak = y + rng.normal(0, 5.0, n)
    noise = rng.normal(size=n)
    ivs = iv_scores(np.column_stack([strong, weak, noise]), y)
    assert ivs["f0"] > ivs["f1"] > ivs["f2"]
    assert ivs["f0"] > 0.5
    assert ivs["f2"] < 0.05


def test_iv_scores_accepts_dataframe_columns():
    rng = np.random.default_rng(3)
    pdf = pd.DataFrame({"a": rng.normal(size=500), "b": rng.normal(size=500)})
    y = (pdf["a"] > 0).astype(int).to_numpy()
    ivs = iv_scores(pdf, y, columns=["b", "a"])
    assert set(ivs) == {"a", "b"}
    assert ivs["a"] > 1.0  # perfectly separating feature


def test_spark_iv_matches_local(spark):
    rng = np.random.default_rng(4)
    n = 3000
    y = rng.integers(0, 2, n)
    pdf = pd.DataFrame(
        {
            "s": y + rng.normal(0, 0.8, n),
            "w": y + rng.normal(0, 4.0, n),
            "z": rng.normal(size=n),
            "label": y,
        }
    )
    local = iv_scores(pdf, y, columns=["s", "w", "z"])
    eng = SparkEngine(spark.createDataFrame(pdf), "label")
    try:
        dist = eng.iv(["s", "w", "z"])
    finally:
        eng.df.unpersist()
    for c in ("s", "w", "z"):
        assert dist[c] == pytest.approx(local[c], abs=0.05), c
    # ordering of predictive power is preserved exactly
    assert dist["s"] > dist["w"] > dist["z"]


def test_nan_column_keeps_its_iv_on_both_engines(spark):
    """A column with 10 % NaN keeps its predictive power: edges come from
    the non-NaN values and NaN lands in the highest bin on both engines."""
    rng = np.random.default_rng(6)
    n = 3000
    y = rng.integers(0, 2, n)
    x = y + rng.normal(0, 0.8, n)
    x[rng.random(n) < 0.1] = np.nan
    pdf = pd.DataFrame({"x": x, "label": y})
    local = LocalEngine(pdf, "label").iv(["x"])["x"]
    eng = SparkEngine(spark.createDataFrame(pdf), "label")
    try:
        dist = eng.iv(["x"])["x"]
    finally:
        eng.df.unpersist()
    assert local > DEFAULT_ALPHA and dist > DEFAULT_ALPHA
    assert dist == pytest.approx(local, abs=0.05)
    assert equal_freq_bin(x, 10)[np.isnan(x)].min() == 9
