"""Execution engines behind the SAFE pipeline.

All driver-side logic (path mining, combination sorting, greedy selection,
plan assembly) is engine-agnostic; an engine supplies the five
data-touching primitives over its held training frame:

* ``fit_gbdt(cols, **params)``   — XGBoost-substrate training
* ``gain_ratios(cols, combos)``  — Algorithm 2 partition statistics
* ``iv(cols)``                   — Algorithm 3 information values
* ``corr(cols)``                 — Algorithm 4 Pearson matrix
* ``add_generated(specs)``       — materialise generated feature columns

``LocalEngine`` holds a pandas frame and runs vectorised numpy — the
paper's own benchmark setting (4-core machine). ``SparkEngine`` holds a
cached Spark DataFrame and keeps every primitive distributed — the
"industrial scale" setting of §V-B.

Gain ratio, IV and Pearson each have one numpy kernel, which reduces a
block of rows to partial statistics, and one driver-side finisher. The
local engine runs a kernel once over its whole frame. The Spark engine
runs it on every partition in a single ``mapInPandas`` job and sums (or,
for Pearson, merges) the partials on the driver in partition order. Only
IV's bin edges differ: ``np.quantile`` locally, one ``approxQuantile``
call on Spark. Tests assert the two engines agree.
"""
from __future__ import annotations

import pickle
from functools import partial, reduce

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from ..gbdt import GBDTClassifier
from .combos import FeatureCombo
from .correlation import merge_moments, moments, pearson_from_moments, pearson_matrix
from .gain_ratio import cell_counts, gain_ratio_from_counts, gain_ratios
from .iv import bin_counts, iv_scores, ivs_from_bin_counts
from .plan import FeatureSpec

__all__ = ["LocalEngine", "SparkEngine"]


class LocalEngine:
    """Pandas/numpy engine (single-node vectorised)."""

    def __init__(self, pdf: pd.DataFrame, label_col: str):
        self.pdf = pdf.copy()
        self.label_col = label_col
        self.y = pdf[label_col].to_numpy().astype(np.int64)

    @property
    def feature_columns(self) -> list[str]:
        return [c for c in self.pdf.columns if c != self.label_col]

    def fit_gbdt(self, cols: list[str], **params) -> GBDTClassifier:
        model = GBDTClassifier(**params)
        return model.fit(self.pdf[cols].to_numpy(dtype=np.float64), self.y)

    def gain_ratios(self, cols: list[str], combos: list[FeatureCombo]) -> list[float]:
        return gain_ratios(self.pdf[cols], self.y, combos)

    def iv(self, cols: list[str], beta: int = 10) -> dict[str, float]:
        return iv_scores(self.pdf, self.y, beta=beta, columns=cols)

    def corr(self, cols: list[str]) -> np.ndarray:
        return pearson_matrix(self.pdf[cols])

    def add_generated(self, specs: list[FeatureSpec]) -> None:
        new_cols = {}
        for s in specs:
            if s.name in self.pdf.columns:
                continue
            args = []
            for i in s.inputs:
                src = new_cols[i] if i in new_cols else self.pdf[i].to_numpy(dtype=np.float64)
                args.append(src)
            new_cols[s.name] = s.operator.np_fn(*args)
        if new_cols:
            self.pdf = pd.concat(
                [self.pdf, pd.DataFrame(new_cols, index=self.pdf.index)], axis=1
            )


class SparkEngine:
    """Distributed engine over a cached Spark DataFrame."""

    def __init__(self, df: DataFrame, label_col: str):
        self.df = df.cache()
        self.label_col = label_col

    @property
    def feature_columns(self) -> list[str]:
        return [c for c in self.df.columns if c != self.label_col]

    def fit_gbdt(self, cols: list[str], **params) -> GBDTClassifier:
        return GBDTClassifier(**params).fit_spark(self.df, cols, self.label_col)

    def _partials(self, cols: list[str], kernel) -> list:
        """``kernel(mat, y)`` on the rows of every non-empty partition, as
        a float64 matrix of ``cols`` and a boolean label, in one Spark job.
        Returns the results in partition order."""
        label = self.label_col

        def run(batches):
            frames = list(batches)
            if frames:
                pdf = pd.concat(frames)
                mat = pdf[cols].to_numpy(dtype=np.float64)
                out = kernel(mat, pdf[label].to_numpy().astype(bool))
                yield pd.DataFrame({"partial": [pickle.dumps(out)]})

        rows = self.df.select(*cols, label).mapInPandas(run, "partial binary").collect()
        return [pickle.loads(r.partial) for r in rows]

    def _summed(self, cols: list[str], kernel) -> list:
        """Elementwise sum over partitions of a kernel's count arrays."""
        return [sum(parts) for parts in zip(*self._partials(cols, kernel))]

    def gain_ratios(self, cols: list[str], combos: list[FeatureCombo]) -> list[float]:
        counts = self._summed(cols, partial(cell_counts, combos=combos))
        return [gain_ratio_from_counts(*c) for c in counts]

    def _bin_counts(self, cols: list[str], beta: int) -> tuple[list, np.ndarray, np.ndarray]:
        """IV's bin edges (one ``approxQuantile`` call, which skips NaN) and
        the (feature, bin) counts summed over partitions."""
        probs = list(np.linspace(0, 1, beta + 1)[1:-1])
        edges = [np.unique(q) for q in self.df.stat.approxQuantile(cols, probs, 0.001)]
        return edges, *self._summed(cols, partial(bin_counts, edges=edges))

    def iv(self, cols: list[str], beta: int = 10) -> dict[str, float]:
        _edges, pos, neg = self._bin_counts(cols, beta)
        return dict(zip(cols, ivs_from_bin_counts(pos, neg)))

    def corr(self, cols: list[str]) -> np.ndarray:
        parts = self._partials(cols, lambda mat, _y: moments(mat))
        return pearson_from_moments(*reduce(merge_moments, parts))

    def add_generated(self, specs: list[FeatureSpec]) -> None:
        from pyspark.sql import functions as F

        exprs = []
        existing = set(self.df.columns)
        col_expr: dict = {}
        for s in specs:
            if s.name in existing:
                continue
            args = [col_expr.get(i, F.col(i)) for i in s.inputs]
            expr = s.operator.spark_fn(*args)
            col_expr[s.name] = expr
            exprs.append(expr.alias(s.name))
        if exprs:
            old = self.df
            self.df = self.df.select("*", *exprs).cache()
            self.df.count()
            old.unpersist()
