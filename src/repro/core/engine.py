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
"industrial scale" setting of §V-B. Tests assert the two agree.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from ..gbdt import GBDTClassifier
from .combos import FeatureCombo
from .correlation import pearson_matrix, pearson_matrix_spark
from .gain_ratio import gain_ratios, gain_ratios_spark
from .iv import iv_scores, iv_scores_spark
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

    def gain_ratios(self, cols: list[str], combos: list[FeatureCombo]) -> list[float]:
        return gain_ratios_spark(self.df, cols, self.label_col, combos)

    def iv(self, cols: list[str], beta: int = 10) -> dict[str, float]:
        return iv_scores_spark(self.df, cols, self.label_col, beta=beta)

    def corr(self, cols: list[str]) -> np.ndarray:
        return pearson_matrix_spark(self.df, cols)

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
