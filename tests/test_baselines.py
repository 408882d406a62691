"""Unit tests for the comparison methods: TFC, FCTree, RAND, IMP."""
import numpy as np
import pandas as pd
import pytest

from repro.baselines import (
    FCTreePipeline,
    TFCPipeline,
    info_gain,
)
from repro.core.pipeline import SafePipeline
from repro.models import make_classifier
from repro.models.evaluation import auc_score


@pytest.fixture(scope="module")
def planted():
    rng = np.random.default_rng(31)
    n = 2500
    X = rng.normal(size=(n, 6))
    logit = 3.0 * X[:, 0] * X[:, 1] + 0.5 * X[:, 2] + 0.2 * (X[:, 0] + X[:, 1])
    y = (rng.random(n) < 1 / (1 + np.exp(-logit))).astype(int)
    pdf = pd.DataFrame(X, columns=[f"f{i}" for i in range(6)])
    pdf["label"] = y
    return pdf


# ---- info gain ----------------------------------------------------------
def test_info_gain_informative_vs_noise():
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, 3000).astype(bool)
    good = y + rng.normal(0, 0.5, 3000)
    noise = rng.normal(size=3000)
    assert info_gain(good, y) > 10 * max(info_gain(noise, y), 1e-6)


def test_info_gain_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(size=500)
        y = rng.integers(0, 2, 500).astype(bool)
        assert info_gain(x, y) >= 0


# ---- TFC ----------------------------------------------------------------
def test_tfc_output_capped_at_2m(planted):
    plan = TFCPipeline().fit(planted, "label")
    assert len(plan.output_columns) == 12  # 2·M, M=6


def test_tfc_finds_planted_product(planted):
    plan = TFCPipeline().fit(planted, "label")
    assert "f0_f1__mul" in plan.output_columns or "f0_f1__div" in plan.output_columns


def test_tfc_is_deterministic(planted):
    p1 = TFCPipeline().fit(planted, "label")
    p2 = TFCPipeline().fit(planted, "label")
    assert p1.output_columns == p2.output_columns


def test_tfc_custom_top_k(planted):
    plan = TFCPipeline(top_k=5).fit(planted, "label")
    assert len(plan.output_columns) == 5


def test_tfc_plan_appliable(planted):
    plan = TFCPipeline().fit(planted, "label")
    out = plan.apply_pandas(planted)
    assert np.isfinite(out.drop(columns="label").to_numpy()).all()


# ---- FCTree -------------------------------------------------------------
def test_fctree_output_capped(planted):
    plan = FCTreePipeline().fit(planted, "label")
    assert 0 < len(plan.output_columns) <= 12


def test_fctree_harvests_constructed_features(planted):
    plan = FCTreePipeline(n_e=30, random_state=1).fit(planted, "label")
    # with a strong planted product, construction should be harvested
    assert plan.specs, "FCTree harvested no constructed features"


def test_fctree_deterministic_given_seed(planted):
    p1 = FCTreePipeline(random_state=3).fit(planted, "label")
    p2 = FCTreePipeline(random_state=3).fit(planted, "label")
    assert p1.output_columns == p2.output_columns


def test_fctree_different_seeds_differ(planted):
    p1 = FCTreePipeline(random_state=1).fit(planted, "label")
    p2 = FCTreePipeline(random_state=2).fit(planted, "label")
    # candidate construction is random → output usually differs
    assert p1.output_columns != p2.output_columns


# ---- RAND / IMP ---------------------------------------------------------
@pytest.mark.parametrize("mode", ["rand", "imp"])
def test_randgen_output_capped(planted, mode):
    plan = SafePipeline(pairs=mode).fit(planted, "label")
    assert 0 < len(plan.output_columns) <= 12


@pytest.mark.parametrize("mode", ["rand", "imp"])
def test_randgen_deterministic(planted, mode):
    p1 = SafePipeline(pairs=mode, random_state=7).fit(planted, "label")
    p2 = SafePipeline(pairs=mode, random_state=7).fit(planted, "label")
    assert p1.output_columns == p2.output_columns


def test_rand_and_imp_draw_different_pairs(planted):
    pr = SafePipeline(pairs="rand", random_state=7).fit(planted, "label")
    pi = SafePipeline(pairs="imp", random_state=7).fit(planted, "label")
    assert pr.output_columns != pi.output_columns


def test_imp_restricted_to_split_features():
    """Features the booster never splits on must not appear in IMP pairs."""
    rng = np.random.default_rng(5)
    n = 3000
    X = rng.normal(size=(n, 8))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)  # only f0, f1 informative
    pdf = pd.DataFrame(X, columns=[f"f{i}" for i in range(8)])
    pdf["label"] = y
    plan = SafePipeline(pairs="imp", gamma=50, random_state=0).fit(pdf, "label")
    used = {i for s in plan.specs for i in s.inputs}
    # the booster concentrates on f0/f1; noise-only features may appear
    # occasionally but the signal features must dominate the pairs
    assert "f0" in used and "f1" in used


def test_invalid_mode_raises(planted):
    with pytest.raises(ValueError):
        SafePipeline(pairs="bogus").fit(planted, "label")


def test_baselines_help_a_linear_model(planted):
    """TFC (exhaustive) must lift LR on planted interactions."""
    train, test = planted.iloc[:1800], planted.iloc[1800:]
    plan = TFCPipeline().fit(train, "label")

    def lr_auc(tr, te):
        m = make_classifier("LR").fit(
            tr.drop(columns="label").to_numpy(), tr["label"].to_numpy()
        )
        return auc_score(
            te["label"].to_numpy(),
            m.predict_proba(te.drop(columns="label").to_numpy())[:, 1],
        )

    assert lr_auc(plan.apply_pandas(train), plan.apply_pandas(test)) > lr_auc(train, test)
