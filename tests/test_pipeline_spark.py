"""Integration tests: SAFE pipeline on the distributed Spark engine."""
import numpy as np
import pandas as pd
import pytest

from repro.core.pipeline import SafePipeline
from repro.models import make_classifier
from repro.models.evaluation import auc_score


@pytest.fixture(scope="module")
def planted():
    rng = np.random.default_rng(21)
    n = 5000
    X = rng.normal(size=(n, 6))
    logit = 2.5 * X[:, 0] * X[:, 1] + 0.8 * X[:, 2] + 0.3 * (X[:, 0] + X[:, 1])
    y = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(int)
    pdf = pd.DataFrame(X, columns=[f"f{i}" for i in range(6)])
    pdf["label"] = y
    return pdf


@pytest.fixture(scope="module")
def spark_plan(spark, planted):
    sdf = spark.createDataFrame(planted.iloc[:3500])
    pipe = SafePipeline(
        mining_gbdt={"n_estimators": 6, "max_depth": 3},
        ranking_gbdt={"n_estimators": 6, "max_depth": 3},
    )
    return pipe.fit(sdf, "label", engine="spark")


def test_spark_engine_produces_plan(spark_plan, planted):
    assert 0 < len(spark_plan.output_columns) <= 12
    assert spark_plan.generated_outputs()


def test_spark_engine_finds_planted_pair(spark_plan):
    gen = " ".join(spark_plan.generated_outputs())
    assert "f0" in gen and "f1" in gen


def test_spark_plan_improves_lr(spark_plan, planted):
    train, test = planted.iloc[:3500], planted.iloc[3500:]

    def lr_auc(tr, te):
        m = make_classifier("LR").fit(
            tr.drop(columns="label").to_numpy(), tr["label"].to_numpy()
        )
        return auc_score(
            te["label"].to_numpy(),
            m.predict_proba(te.drop(columns="label").to_numpy())[:, 1],
        )

    ftr, fte = spark_plan.apply_pandas(train), spark_plan.apply_pandas(test)
    assert lr_auc(ftr, fte) > lr_auc(train, test) + 0.03


def test_spark_engine_agrees_with_local_on_outputs(spark, planted):
    """Same data, same hyperparameters → heavily overlapping selections.

    Bit-identical plans are not guaranteed (approxQuantile vs exact
    quantile binning), but the two engines must agree on the bulk of the
    selected features.
    """
    train = planted.iloc[:3500]
    params = dict(
        mining_gbdt={"n_estimators": 6, "max_depth": 3},
        ranking_gbdt={"n_estimators": 6, "max_depth": 3},
    )
    local = SafePipeline(**params).fit(train, "label", engine="local")
    dist = SafePipeline(**params).fit(
        spark.createDataFrame(train), "label", engine="spark"
    )
    a, b = set(local.output_columns), set(dist.output_columns)
    overlap = len(a & b) / max(len(a | b), 1)
    assert overlap > 0.5, (sorted(a), sorted(b))


def test_rand_imp_on_spark_engine(spark, planted):
    sdf = spark.createDataFrame(planted.iloc[:3500])
    for mode in ("rand", "imp"):
        plan = SafePipeline(
            pairs=mode,
            gamma=6,
            mining_gbdt={"n_estimators": 4, "max_depth": 3},
            ranking_gbdt={"n_estimators": 4, "max_depth": 3},
        ).fit(sdf, "label", engine="spark")
        assert plan.output_columns, mode
