"""Distributed GBDT training over a Spark DataFrame.

Architecture (same as distributed XGBoost's histogram algorithm):

1. bin edges via one ``approxQuantile`` call → broadcast ``BinMapper``;
2. the frame is materialised once as int bin codes + label and cached;
3. each tree level is one ``mapInPandas`` scan: every partition recomputes
   its rows' margins from the broadcast forest-so-far, derives gradients,
   routes rows to frontier slots with the broadcast partial tree, and emits
   its (slot, feature, bin) → (Σg, Σh) partial histogram; the tiny
   partials are collected and summed on the driver (treeAggregate-style),
   which then runs the exact same :func:`repro.gbdt.tree.grow_tree`
   split logic as the numpy engine.

Below the root, :func:`repro.gbdt.tree.grow_tree` asks only for the
smaller child of each split and derives its sibling by subtraction. Rows
on a derived sibling reach a node with ``feature == -1`` in
:func:`repro.gbdt.tree.assign_slots`, so they are inactive in the scan:
the job count per level is unchanged and the partials shrink by about
half.

Margins are recomputed statelessly per scan (no mutable column chain, no
lineage growth); with K ≤ ~20 small trees the re-prediction cost is noise
next to the scan itself.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame


from .binning import BinMapper
from .boosting import GBDTClassifier, logistic_grad_hess, sigmoid
from .tree import Tree, assign_slots, build_histograms, grow_tree

__all__ = ["SparkGBDTClassifier"]


def _fit_mapper_spark(
    df: DataFrame, feature_cols: list[str], n_bins: int, rel_error: float = 0.001
) -> BinMapper:
    """Quantile bin edges from ``approxQuantile`` (one distributed job)."""
    probs = list(np.linspace(0, 1, n_bins + 1)[1:-1])
    qs = df.stat.approxQuantile(feature_cols, probs, rel_error)
    edges = []
    for col_qs in qs:
        e = np.unique(np.asarray(col_qs, dtype=np.float64))
        edges.append(e)
    return BinMapper(edges=tuple(edges))


@dataclass
class SparkGBDTClassifier:
    """Same model/introspection surface as :class:`GBDTClassifier`,
    trained distributed. ``predict_proba``/``paths``/``split_features``/
    ``feature_importances`` behave identically (the fitted forest is plain
    driver-side :class:`Tree` objects)."""

    n_estimators: int = 10
    max_depth: int = 3
    learning_rate: float = 0.3
    reg_lambda: float = 1.0
    gamma: float = 0.0
    min_child_weight: float = 1e-3
    n_bins: int = 64
    base_score: float = 0.5

    trees_: list[Tree] = field(default_factory=list, repr=False)
    mapper_: BinMapper | None = field(default=None, repr=False)
    n_features_: int = 0

    def fit(
        self, df: DataFrame, feature_cols: list[str], label_col: str
    ) -> "SparkGBDTClassifier":
        self.n_features_ = len(feature_cols)
        self.mapper_ = _fit_mapper_spark(df, feature_cols, self.n_bins)
        spark = df.sparkSession
        mapper_bc = spark.sparkContext.broadcast(self.mapper_)
        max_bins = self.mapper_.max_bins
        m = len(feature_cols)
        base_margin = self._base_margin()

        def to_codes(iterator):
            for pdf in iterator:
                codes = mapper_bc.value.transform(
                    pdf[feature_cols].to_numpy(dtype=np.float64)
                )
                out = pd.DataFrame(
                    codes, columns=[f"c{i}" for i in range(m)]
                ).astype("int32")
                out["_y"] = pdf[label_col].to_numpy(dtype=np.float64)
                yield out

        code_cols = ", ".join(f"c{i} int" for i in range(m))
        binned = df.select(*feature_cols, label_col).mapInPandas(
            to_codes, schema=f"{code_cols}, _y double"
        )
        # right-size partitions: histogram passes are scan-bound, so a
        # handful of fat partitions beats default parallelism on small data
        n_rows = df.count()
        n_parts = int(max(2, min(32, np.ceil(n_rows / 25_000))))
        binned = binned.repartition(n_parts).cache()
        binned.count()  # materialise before iterating

        self.trees_ = []
        try:
            for _k in range(self.n_estimators):
                trees_bc = spark.sparkContext.broadcast(self.trees_)

                def hist_fn(tree, frontier, _trees_bc=trees_bc):
                    n_slots = max(frontier) + 1
                    tree_bc = spark.sparkContext.broadcast((tree, dict(frontier)))

                    def partial(iterator):
                        ptree, pfrontier = tree_bc.value
                        for pdf in iterator:
                            codes = (
                                pdf[[f"c{i}" for i in range(m)]]
                                .to_numpy()
                                .astype(np.int32)
                            )
                            y = pdf["_y"].to_numpy(dtype=np.float64)
                            margin = np.full(len(y), base_margin)
                            for t in _trees_bc.value:
                                margin += t.predict_binned(codes)
                            grad, hess = logistic_grad_hess(margin, y)
                            slots = assign_slots(ptree, pfrontier, codes)
                            gh, hh = build_histograms(
                                codes, grad, hess, slots, n_slots, max_bins
                            )
                            s_i, f_i, b_i = np.nonzero((gh != 0) | (hh != 0))
                            yield pd.DataFrame(
                                {
                                    "slot": s_i.astype(np.int32),
                                    "feat": f_i.astype(np.int32),
                                    "bin": b_i.astype(np.int32),
                                    "g": gh[s_i, f_i, b_i],
                                    "h": hh[s_i, f_i, b_i],
                                }
                            )

                    # per-partition partials are tiny (≤ slots·m·bins rows
                    # each); summing them on the driver is the classic
                    # treeAggregate endgame and avoids a shuffle per level
                    agg = binned.mapInPandas(
                        partial,
                        schema="slot int, feat int, bin int, g double, h double",
                    ).toPandas()
                    gh = np.zeros((n_slots, m, max_bins))
                    hh = np.zeros((n_slots, m, max_bins))
                    s = agg["slot"].to_numpy()
                    f = agg["feat"].to_numpy()
                    b = agg["bin"].to_numpy()
                    np.add.at(gh, (s, f, b), agg["g"].to_numpy())
                    np.add.at(hh, (s, f, b), agg["h"].to_numpy())
                    return gh, hh

                tree = grow_tree(
                    hist_fn,
                    self.mapper_,
                    max_depth=self.max_depth,
                    reg_lambda=self.reg_lambda,
                    gamma=self.gamma,
                    min_child_weight=self.min_child_weight,
                    learning_rate=self.learning_rate,
                )
                self.trees_.append(tree)
        finally:
            binned.unpersist()
        return self

    # -- prediction / introspection: identical surface to GBDTClassifier ----
    def _base_margin(self) -> float:
        p = float(np.clip(self.base_score, 1e-6, 1 - 1e-6))
        return float(np.log(p / (1 - p)))

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        margin = np.full(len(X), self._base_margin())
        for t in self.trees_:
            margin += t.predict(X)
        return margin

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p = sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p, p])

    def predict_proba_spark(
        self, df: DataFrame, feature_cols: list[str], output_col: str = "probability"
    ) -> DataFrame:
        """Distributed scoring: broadcast forest, one ``mapInPandas``."""
        trees_bc = df.sparkSession.sparkContext.broadcast(self.trees_)
        base = self._base_margin()
        passthrough = [c for c in df.columns]

        def score(iterator):
            for pdf in iterator:
                X = pdf[feature_cols].to_numpy(dtype=np.float64)
                margin = np.full(len(X), base)
                for t in trees_bc.value:
                    margin += t.predict(X)
                out = pdf.copy()
                out[output_col] = sigmoid(margin)
                yield out

        schema = df.schema.add(output_col, "double")
        return df.select(*passthrough).mapInPandas(score, schema=schema)

    paths = GBDTClassifier.paths
    split_features = GBDTClassifier.split_features
    feature_importances = GBDTClassifier.feature_importances
