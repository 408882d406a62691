"""Integration tests: distributed GBDT backend vs the numpy engine."""
import numpy as np
import pandas as pd
import pytest

from repro.gbdt import GBDTClassifier
from repro.models.evaluation import auc_score


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    n = 6000
    X = rng.normal(size=(n, 5))
    logit = 2.0 * X[:, 0] * X[:, 1] + X[:, 2]
    y = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(int)
    cols = [f"f{i}" for i in range(5)]
    pdf = pd.DataFrame(X, columns=cols)
    pdf["label"] = y
    return pdf, cols


@pytest.fixture(scope="module")
def spark_model(spark, data):
    pdf, cols = data
    train = spark.createDataFrame(pdf.iloc[:4000])
    m = GBDTClassifier(n_estimators=8, max_depth=3)
    m.fit_spark(train, cols, "label")
    return m


def test_spark_backend_auc_close_to_local(spark_model, data):
    pdf, cols = data
    test = pdf.iloc[4000:]
    local = GBDTClassifier(n_estimators=8, max_depth=3).fit(
        pdf.iloc[:4000][cols].to_numpy(), pdf.iloc[:4000]["label"].to_numpy()
    )
    auc_spark = auc_score(
        test["label"].to_numpy(), spark_model.predict_proba(test[cols].to_numpy())[:, 1]
    )
    auc_local = auc_score(
        test["label"].to_numpy(), local.predict_proba(test[cols].to_numpy())[:, 1]
    )
    assert auc_spark > 0.70
    assert abs(auc_spark - auc_local) < 0.03


def test_spark_backend_trees_and_paths(spark_model):
    assert len(spark_model.trees_) == 8
    paths = spark_model.paths()
    assert paths
    for p in paths:
        assert 1 <= len(p) <= 3
        for f, v in p:
            assert 0 <= f < 5


def test_spark_backend_importances(spark_model):
    imp = spark_model.feature_importances()
    assert imp.shape == (5,)
    # informative features dominate the noise ones
    assert imp[[0, 1, 2]].sum() > imp[[3, 4]].sum()


def test_spark_backend_split_features(spark_model):
    feats = spark_model.split_features()
    assert {0, 1, 2} & feats


def test_fit_spark_rejects_row_sampling(spark, data):
    pdf, cols = data
    train = spark.createDataFrame(pdf.iloc[:500])
    with pytest.raises(ValueError):
        GBDTClassifier(random_state=0, subsample=0.5).fit_spark(train, cols, "label")
