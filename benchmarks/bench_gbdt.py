"""Standalone timer for the histogram GBDT kernel: ``GBDTClassifier.fit``
on the Data1 business generator at 100k rows × 40 features with SAFE's
default model (20 trees, depth 3). Two fits must give equal forests.

Run it with ``python -m pytest benchmarks/bench_gbdt.py -q``."""
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.datasets import BUSINESS_DATASETS, LABEL_COL, make_dataset
from repro.gbdt import GBDTClassifier

DATA1_100K = replace(BUSINESS_DATASETS[0], n_train=100_000, n_valid=0, n_test=1)


@pytest.fixture(scope="module")
def data1_100k():
    train, _valid, _test = make_dataset(DATA1_100K)
    X = train.drop(columns=[LABEL_COL]).to_numpy(dtype=np.float64)
    return X, train[LABEL_COL].to_numpy()


def _forest(model: GBDTClassifier):
    return [
        [(n.feature, n.bin_threshold, n.value) for n in t.nodes] for t in model.trees_
    ]


def test_bench_gbdt_fit(benchmark, data1_100k):
    X, y = data1_100k
    assert X.shape == (100_000, 40)

    def fit():
        return GBDTClassifier(n_estimators=20, max_depth=3).fit(X, y)

    model = benchmark.pedantic(fit, rounds=1, iterations=1, warmup_rounds=0)
    assert _forest(model) == _forest(fit())
