"""Unit tests for the GBDT classifier (XGBoost substrate)."""
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import SafePipeline
from repro.core.plan import FeaturePlan
from repro.experiments.datasets import BUSINESS_DATASETS, LABEL_COL, make_dataset
from repro.gbdt import GBDTClassifier, sigmoid, logistic_grad_hess
from repro.gbdt.tree import RowPositions
from repro.models.evaluation import auc_score


@pytest.fixture(scope="module")
def xor_data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2000, 4))
    logit = 3.0 * X[:, 0] * X[:, 1]
    y = (rng.random(2000) < sigmoid(logit)).astype(int)
    return X[:1400], y[:1400], X[1400:], y[1400:]


def test_sigmoid_bounds_and_symmetry():
    z = np.array([-800.0, -5.0, 0.0, 5.0, 800.0])
    p = sigmoid(z)
    assert np.all((p >= 0) & (p <= 1))
    assert p[2] == pytest.approx(0.5)
    assert p[1] == pytest.approx(1 - p[3])
    assert np.isfinite(p).all()


def test_grad_hess_signs():
    y = np.array([1.0, 0.0])
    g, h = logistic_grad_hess(np.zeros(2), y)
    np.testing.assert_allclose(g, [-0.5, 0.5])
    np.testing.assert_allclose(h, [0.25, 0.25])
    assert np.all(h > 0)


def test_learns_interaction(xor_data):
    Xtr, ytr, Xte, yte = xor_data
    m = GBDTClassifier(n_estimators=30, max_depth=3).fit(Xtr, ytr)
    auc = auc_score(yte, m.predict_proba(Xte)[:, 1])
    assert auc > 0.75


def test_more_trees_do_not_hurt_training_fit(xor_data):
    Xtr, ytr, _X, _y = xor_data
    a5 = auc_score(
        ytr,
        GBDTClassifier(n_estimators=5).fit(Xtr, ytr).predict_proba(Xtr)[:, 1],
    )
    a40 = auc_score(
        ytr,
        GBDTClassifier(n_estimators=40).fit(Xtr, ytr).predict_proba(Xtr)[:, 1],
    )
    assert a40 >= a5 - 1e-9


def test_predict_proba_shape_and_rows_sum_to_one(xor_data):
    Xtr, ytr, Xte, _ = xor_data
    m = GBDTClassifier(n_estimators=5).fit(Xtr, ytr)
    p = m.predict_proba(Xte)
    assert p.shape == (len(Xte), 2)
    np.testing.assert_allclose(p.sum(axis=1), 1.0)


def test_predict_is_thresholded_decision(xor_data):
    Xtr, ytr, Xte, _ = xor_data
    m = GBDTClassifier(n_estimators=5).fit(Xtr, ytr)
    np.testing.assert_array_equal(m.predict(Xte), (m.decision_function(Xte) >= 0).astype(int))


def test_deterministic_given_seed(xor_data):
    Xtr, ytr, Xte, _ = xor_data
    p1 = GBDTClassifier(n_estimators=8, random_state=3).fit(Xtr, ytr).predict_proba(Xte)
    p2 = GBDTClassifier(n_estimators=8, random_state=3).fit(Xtr, ytr).predict_proba(Xte)
    np.testing.assert_allclose(p1, p2)


def test_split_features_only_informative():
    """Noise-only features should rarely be split on at shallow depth."""
    rng = np.random.default_rng(1)
    X = rng.normal(size=(3000, 6))
    y = (X[:, 2] > 0).astype(int)
    m = GBDTClassifier(n_estimators=10, max_depth=2).fit(X, y)
    assert 2 in m.split_features()
    imp = m.feature_importances()
    assert imp[2] == imp.max()


def test_paths_feature_indices_valid(xor_data):
    Xtr, ytr, _X, _y = xor_data
    m = GBDTClassifier(n_estimators=10, max_depth=3).fit(Xtr, ytr)
    for path in m.paths():
        assert 1 <= len(path) <= 3
        for f, v in path:
            assert 0 <= f < 4
            assert np.isfinite(v)


def test_importances_nonnegative_and_sized(xor_data):
    Xtr, ytr, _X, _y = xor_data
    m = GBDTClassifier(n_estimators=10).fit(Xtr, ytr)
    imp = m.feature_importances()
    assert imp.shape == (4,)
    assert np.all(imp >= 0)


def test_subsample_still_learns(xor_data):
    Xtr, ytr, Xte, yte = xor_data
    m = GBDTClassifier(n_estimators=30, subsample=0.7, random_state=1).fit(Xtr, ytr)
    assert auc_score(yte, m.predict_proba(Xte)[:, 1]) > 0.7


def test_base_score_shifts_probabilities():
    X = np.random.default_rng(2).normal(size=(200, 2))
    y = np.zeros(200, dtype=int)
    y[:20] = 1
    m = GBDTClassifier(n_estimators=0, base_score=0.1)
    m.fit(X, y)
    assert m.predict_proba(X)[:, 1] == pytest.approx(0.1)


def test_single_class_label_degenerates_gracefully():
    X = np.random.default_rng(3).normal(size=(100, 2))
    y = np.ones(100, dtype=int)
    m = GBDTClassifier(n_estimators=3).fit(X, y)
    p = m.predict_proba(X)[:, 1]
    assert np.all(p > 0.5)


def test_constant_features_no_crash():
    X = np.ones((100, 3))
    y = np.random.default_rng(4).integers(0, 2, 100)
    m = GBDTClassifier(n_estimators=3).fit(X, y)
    assert len(m.paths()) == 0
    assert m.split_features() == set()


# ---- carried row positions, uint16 codes, golden SAFE plan ---------------
def test_carried_margins_equal_predict_binned(monkeypatch, xor_data):
    """Each tree's margin update from row positions is bitwise predict_binned."""
    checked = []
    leaf_values = RowPositions.leaf_values

    def leaf_values_checked(self, tree):
        out = leaf_values(self, tree)
        np.testing.assert_array_equal(out, tree.predict_binned(self.codes))
        checked.append(tree)
        return out

    monkeypatch.setattr(RowPositions, "leaf_values", leaf_values_checked)
    Xtr, ytr, _X, _y = xor_data
    m = GBDTClassifier(n_estimators=10, max_depth=4, subsample=0.8).fit(Xtr, ytr)
    assert checked == m.trees_


def test_uint16_codes_fit_with_300_bins():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(3000, 3))
    y = (rng.random(3000) < sigmoid(2.0 * X[:, 0] * X[:, 1])).astype(int)
    m = GBDTClassifier(n_estimators=5, n_bins=300).fit(X, y)
    assert m.mapper_.code_dtype == np.uint16
    assert auc_score(y, m.predict_proba(X)[:, 1]) > 0.7
    m2 = GBDTClassifier(n_estimators=5, n_bins=300).fit(X, y)
    np.testing.assert_array_equal(m.decision_function(X), m2.decision_function(X))


def _local_safe_plan(n_train, n_valid, seed):
    spec = replace(
        BUSINESS_DATASETS[0], n_train=n_train, n_valid=n_valid, n_test=10, seed=seed
    )
    train, valid, _test = make_dataset(spec)
    return SafePipeline(gamma=8, top_k=16).fit(train, LABEL_COL, valid, engine="local")


def _golden_plan(name):
    return FeaturePlan.from_json(Path(__file__).with_name(name).read_text())


def test_safe_local_fit_matches_golden_plan():
    """A fixed-seed local SAFE fit reproduces a frozen plan.

    The full-histogram grower (no subtraction) produced the same plan.
    """
    plan = _local_safe_plan(10_000, 2_500, seed=201)
    assert plan == _golden_plan("golden_plan_data1.json")


@pytest.mark.xfail(
    strict=True,
    reason="split ties decided by histogram summation order; ROADMAP item 5",
)
@pytest.mark.parametrize("seed", [201, 7])
def test_safe_local_fit_at_6k_rows_differs_from_full_histogram_plan(seed):
    """Known divergence from the full-histogram grower at 6k + 2k rows.

    The golden files hold the plans the full-histogram grower produced.
    Here one ranking-tree node has two splits that separate the same rows
    with gains equal up to rounding; subtracted histograms round
    differently, so the other split wins and the plan changes. A
    deterministic tie rule would make this test pass (strict xfail then
    fails) and needs fresh golden plans.
    """
    plan = _local_safe_plan(6_000, 2_000, seed=seed)
    assert plan == _golden_plan(f"golden_plan_data1_6k_seed{seed}.json")
