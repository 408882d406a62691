"""XGBoost-substrate gradient-boosted trees (binary logistic objective).

``GBDTClassifier`` is the tree model SAFE trains in both the combination-
mining stage and the importance-ranking stage (paper §IV-A), and also the
"XGB" evaluation classifier of Tables III and VIII. It is a from-scratch
histogram GBDT: quantile binning, second-order gradients, level-wise
growth, λ-regularised leaf weights, and per-feature average-gain
importance — the exact algorithmic surface SAFE relies on.

One model serves both engines. ``fit`` trains on a numpy matrix: it bins
once into compact column-major codes, carries each row's node through a
tree (:class:`repro.gbdt.tree.RowPositions`) and adds the leaf values at
those positions to the margin after each tree, so no row is routed from
the root again. ``fit_spark`` trains on a Spark DataFrame with the
distributed histograms of :mod:`repro.gbdt.spark_backend`. Both feed the
same :func:`repro.gbdt.tree.grow_tree`, and the fitted forest is plain
driver-side :class:`repro.gbdt.tree.Tree` objects either way.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from pyspark.sql import DataFrame

from .binning import BinMapper, fit_bin_mapper
from .tree import RowPositions, Tree, build_histograms, grow_tree

__all__ = ["GBDTClassifier", "sigmoid", "logistic_grad_hess"]


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_grad_hess(margin: np.ndarray, y: np.ndarray):
    """First/second-order gradients of log-loss w.r.t. the margin."""
    p = sigmoid(margin)
    return p - y, np.maximum(p * (1.0 - p), 1e-12)


@dataclass
class GBDTClassifier:
    """Histogram gradient-boosted trees for binary classification.

    Defaults mirror a small XGBoost configuration suitable both for SAFE's
    mining stage (shallow trees → short paths → small combination space,
    per Eq. 13 the generated-feature budget is controlled by K·D) and as an
    evaluation classifier.
    """

    n_estimators: int = 20
    max_depth: int = 3
    learning_rate: float = 0.3
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1e-3
    n_bins: int = 64
    base_score: float = 0.5
    subsample: float = 1.0
    random_state: int = 0

    trees_: list[Tree] = field(default_factory=list, repr=False)
    mapper_: BinMapper | None = field(default=None, repr=False)
    n_features_: int = 0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GBDTClassifier":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self.n_features_ = X.shape[1]
        self.mapper_ = fit_bin_mapper(X, self.n_bins)
        codes = np.asfortranarray(
            self.mapper_.transform(X), dtype=self.mapper_.code_dtype
        )
        max_bins = self.mapper_.max_bins
        margin = np.full(len(y), self._base_margin(), dtype=np.float64)
        rng = np.random.default_rng(self.random_state)
        self.trees_ = []
        for _k in range(self.n_estimators):
            grad, hess = logistic_grad_hess(margin, y)
            if self.subsample < 1.0:
                mask = rng.random(len(y)) < self.subsample
                grad = np.where(mask, grad, 0.0)
                hess = np.where(mask, hess, 0.0)

            rows = RowPositions(codes)

            def hist_fn(tree, frontier):
                slots = rows.slots(tree, frontier)
                return build_histograms(
                    codes, grad, hess, slots, max(frontier) + 1, max_bins
                )

            tree = self._grow(hist_fn)
            self.trees_.append(tree)
            margin += rows.leaf_values(tree)
        return self

    def fit_spark(
        self, df: DataFrame, feature_cols: list[str], label_col: str
    ) -> "GBDTClassifier":
        """Train on a Spark DataFrame, keeping the row data distributed.

        Bin edges come from one ``approxQuantile`` call; the frame is
        cached once as bin codes; each tree level is one ``mapInPandas``
        scan whose partial histograms are summed on the driver. Rows are
        never sampled, so ``subsample`` must be 1.
        """
        # deferred: spark_backend imports this module
        from .spark_backend import cache_binned, fit_mapper_spark, histogram_fn

        if self.subsample < 1.0:
            raise ValueError("fit_spark does not sample rows; set subsample=1.0")
        self.n_features_ = len(feature_cols)
        self.mapper_ = fit_mapper_spark(df, feature_cols, self.n_bins)
        binned = cache_binned(df, feature_cols, label_col, self.mapper_)
        self.trees_ = []
        try:
            for _k in range(self.n_estimators):
                hist_fn = histogram_fn(
                    binned, self.trees_, self._base_margin(), self.mapper_
                )
                self.trees_.append(self._grow(hist_fn))
        finally:
            binned.unpersist()
        return self

    def _grow(self, hist_fn) -> Tree:
        return grow_tree(
            hist_fn,
            self.mapper_,
            max_depth=self.max_depth,
            reg_lambda=self.reg_lambda,
            gamma=self.gamma,
            min_child_weight=self.min_child_weight,
            learning_rate=self.learning_rate,
        )

    def _base_margin(self) -> float:
        p = float(np.clip(self.base_score, 1e-6, 1 - 1e-6))
        return float(np.log(p / (1 - p)))

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        margin = np.full(len(X), self._base_margin(), dtype=np.float64)
        for t in self.trees_:
            margin += t.predict(X)
        return margin

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p = sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p, p])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision_function(X) >= 0).astype(np.int64)

    # ---- the introspection surface SAFE consumes -------------------------
    def paths(self) -> list[list[tuple[int, float]]]:
        """Root→leaf-parent paths (feature, split value) over all trees."""
        out: list[list[tuple[int, float]]] = []
        for t in self.trees_:
            out.extend(t.paths())
        return out

    def split_features(self) -> set[int]:
        s: set[int] = set()
        for t in self.trees_:
            s |= t.split_features()
        return s

    def feature_importances(self) -> np.ndarray:
        """Average split gain per feature ("gain" importance in XGBoost)."""
        sums = np.zeros(self.n_features_)
        counts = np.zeros(self.n_features_)
        for t in self.trees_:
            for f, gains in t.gain_by_feature().items():
                sums[f] += sum(gains)
                counts[f] += len(gains)
        with np.errstate(invalid="ignore", divide="ignore"):
            imp = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
        return imp
