"""Unit tests for information-gain-ratio sorting (Algorithm 2)."""
import numpy as np
import pandas as pd
import pytest

from repro.core.combos import FeatureCombo
from repro.core.gain_ratio import (
    gain_ratio_from_counts,
    gain_ratios,
    top_combos,
)
from repro.core.engine import SparkEngine


def test_perfect_partition_max_ratio():
    """Cells purely positive / purely negative, balanced split → ratio 1."""
    r = gain_ratio_from_counts([50, 0], [0, 50])
    assert r == pytest.approx(1.0)


def test_uninformative_partition_zero_gain():
    r = gain_ratio_from_counts([25, 25], [25, 25])
    assert r == pytest.approx(0.0)


def test_single_cell_zero_split_info():
    assert gain_ratio_from_counts([50], [50]) == 0.0


def test_empty_counts():
    assert gain_ratio_from_counts([], []) == 0.0


def test_gain_ratio_penalises_many_cells():
    """Same information gain split over more cells → lower ratio."""
    two = gain_ratio_from_counts([40, 0], [0, 40])
    four = gain_ratio_from_counts([20, 20, 0, 0], [0, 0, 20, 20])
    assert four < two


def test_gain_ratios_identifies_informative_pair():
    rng = np.random.default_rng(0)
    n = 4000
    X = rng.normal(size=(n, 3))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)  # XOR at thresholds 0
    good = FeatureCombo((0, 1), ((0.0,), (0.0,)))
    bad = FeatureCombo((1, 2), ((0.0,), (0.0,)))
    r_good, r_bad = gain_ratios(X, y, [good, bad])
    # pure XOR partition: IG = ln 2, split info ≈ ln 4 → ratio ≈ 0.5
    assert r_good == pytest.approx(0.5, abs=0.05)
    assert r_bad < 0.05
    assert r_good > 5 * r_bad


def test_gain_ratios_accepts_dataframe():
    rng = np.random.default_rng(1)
    pdf = pd.DataFrame({"a": rng.normal(size=500), "b": rng.normal(size=500)})
    y = (pdf["a"] > 0).astype(int).to_numpy()
    combo = FeatureCombo((0,), ((0.0,),))
    (r,) = gain_ratios(pdf, y, [combo])
    assert r > 0.9


def test_multi_value_cells():
    """Two split values on one feature → 3 cells, counts partition rows."""
    x = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0])[:, None]
    y = np.array([1, 1, 0, 0, 1, 1])
    combo = FeatureCombo((0,), ((1.5, 3.5),))
    (r,) = gain_ratios(x, y, [combo])
    # pure cells: IG = H(1/3) = ln3 - (2/3)ln2 ... compute directly:
    # class counts (4 pos, 2 neg) → H = -(2/3)ln(2/3) - (1/3)ln(1/3)
    h_root = -(2 / 3) * np.log(2 / 3) - (1 / 3) * np.log(1 / 3)
    split_info = np.log(3.0)  # three equal cells
    assert r == pytest.approx(h_root / split_info)


def test_top_combos_ordering_and_cap():
    combos = [
        FeatureCombo((0, 1), ((0.0,), (0.0,))),
        FeatureCombo((0, 2), ((0.0,), (0.0,))),
        FeatureCombo((1, 2), ((0.0,), (0.0,))),
    ]
    ratios = [0.2, 0.9, 0.5]
    top = top_combos(combos, ratios, 2)
    assert [c.features for c in top] == [(0, 2), (1, 2)]


def test_top_combos_tie_breaks_on_features():
    combos = [FeatureCombo((1, 2), ((0.0,), (0.0,))), FeatureCombo((0, 1), ((0.0,), (0.0,)))]
    top = top_combos(combos, [0.5, 0.5], 1)
    assert top[0].features == (0, 1)


def test_spark_matches_local(spark):
    rng = np.random.default_rng(2)
    n = 3000
    pdf = pd.DataFrame(
        {
            "a": rng.normal(size=n),
            "b": rng.normal(size=n),
            "c": rng.normal(size=n),
        }
    )
    pdf["label"] = ((pdf["a"] > 0.3) ^ (pdf["b"] > -0.2)).astype(int)
    combos = [
        FeatureCombo((0, 1), ((0.3,), (-0.2,))),
        FeatureCombo((0, 2), ((0.3,), (0.0,))),
        FeatureCombo((1, 2), ((-0.2, 0.5), (0.0,))),
    ]
    local = gain_ratios(pdf[["a", "b", "c"]], pdf["label"].to_numpy(), combos)
    eng = SparkEngine(spark.createDataFrame(pdf), "label")
    try:
        dist = eng.gain_ratios(["a", "b", "c"], combos)
    finally:
        eng.df.unpersist()
    np.testing.assert_array_equal(dist, local)
