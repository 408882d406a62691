"""Integration tests for the Table III/VIII sweep harness."""
import functools
import json
from pathlib import Path

import numpy as np
import pandas as pd
import pytest

from repro.core.plan import FeaturePlan
from repro.experiments.datasets import BENCHMARK_DATASETS, LABEL_COL, make_dataset
from repro.experiments.runner import METHODS, evaluate_plan, fit_method, run_dataset

SPEC = BENCHMARK_DATASETS[1]  # banknote: tiny and easy
#: RAND/IMP plans (``to_json``) written by the standalone RAND/IMP
#: pipeline that ``SafePipeline(pairs=...)`` replaced
GOLDEN = json.loads(Path(__file__).with_name("golden_plans_rand_imp.json").read_text())


@functools.cache
def _dataset(name):
    return make_dataset(next(s for s in BENCHMARK_DATASETS if s.name == name))


@pytest.fixture(scope="module")
def banknote():
    return make_dataset(SPEC)


@pytest.mark.parametrize("method", METHODS)
def test_fit_method_returns_plan(method, banknote):
    tr, va, _te = banknote
    res = fit_method(method, tr, LABEL_COL, va, seed=0)
    assert res.plan.output_columns
    assert res.fit_seconds >= 0


def test_orig_is_identity(banknote):
    tr, _va, _te = banknote
    res = fit_method("ORIG", tr, LABEL_COL)
    assert res.plan.specs == []
    assert res.plan.output_columns == [c for c in tr.columns if c != LABEL_COL]


def test_unknown_method_raises(banknote):
    tr, _va, _te = banknote
    with pytest.raises(KeyError):
        fit_method("LFE", tr, LABEL_COL)


def test_evaluate_plan_returns_aucs(banknote):
    tr, _va, te = banknote
    res = fit_method("SAFE", tr, LABEL_COL)
    aucs = evaluate_plan(res.plan, tr, te, ("LR", "XGB"))
    assert set(aucs) == {"LR", "XGB"}
    for v in aucs.values():
        assert 0.5 < v <= 1.0


def test_run_dataset_long_format(banknote):
    df = run_dataset(SPEC, methods=("ORIG", "SAFE"), classifiers=("LR",), n_repeats=2)
    assert set(df.columns) == {
        "dataset", "method", "clf", "repeat", "auc", "fit_seconds", "n_features",
    }
    assert len(df) == 2 * 2 * 1  # methods × repeats × classifiers
    assert set(df["method"]) == {"ORIG", "SAFE"}
    assert (df["dataset"] == "banknote").all()


def test_repeats_vary_seeded_methods():
    # banknote (dim 4) is degenerate for RAND — γ=8 covers all 6 pairs —
    # so use magic (dim 10: 45 pairs, γ=20) where the draw actually varies
    magic = [s for s in BENCHMARK_DATASETS if s.name == "magic"][0]
    df = run_dataset(magic, methods=("RAND",), classifiers=("LR",), n_repeats=2)
    aucs = df["auc"].to_numpy()
    assert len(aucs) == 2
    # different seeds draw different random pairs → results differ
    assert not np.allclose(aucs[0], aucs[1])


def test_method_feature_budget(banknote):
    tr, va, _te = banknote
    for method in METHODS:
        res = fit_method(method, tr, LABEL_COL, va)
        assert len(res.plan.output_columns) <= 2 * SPEC.dim, method


@pytest.mark.parametrize("key", list(GOLDEN))
def test_rand_imp_plans_match_golden(key):
    method, name, seed = key.split("-")
    tr, va, _te = _dataset(name)
    res = fit_method(method, tr, LABEL_COL, va, seed=int(seed.removeprefix("seed")))
    assert res.plan == FeaturePlan.from_json(json.dumps(GOLDEN[key]))


@pytest.mark.parametrize("method", ["SAFE", "RAND", "IMP"])
def test_fit_method_on_spark_engine(spark, method, banknote):
    tr, _va, _te = banknote
    sdf = spark.createDataFrame(tr.iloc[:600])
    # the GBDT parameters the local engine takes, random_state included
    gbdt = {"n_estimators": 3, "max_depth": 2, "random_state": 0}
    res = fit_method(
        method, sdf, LABEL_COL, seed=1, engine="spark", mining_gbdt=gbdt, ranking_gbdt=gbdt
    )
    assert 0 < len(res.plan.output_columns) <= 2 * SPEC.dim
