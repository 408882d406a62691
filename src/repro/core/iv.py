"""Information Value filtering (paper Algorithm 3, Table I).

IV of a feature over β equal-frequency bins::

    IV = Σ_i (n_p^i/n_p − n_n^i/n_n) · ln( (n_p^i/n_p) / (n_n^i/n_n) )

Note: the paper's Eq. (6) as printed omits the logarithm (it multiplies the
difference by the raw ratio). That form is not the industry-standard
Information Value that Table I's thumb-rule bands describe, is unbounded
and sign-asymmetric, so we implement the canonical WOE-weighted form above
(documented substitution, DESIGN.md §2). Empty-class bins are Laplace
smoothed with 0.5 so WOE stays finite.

Both a vectorised numpy path and a two-job Spark path (approxQuantile for
edges, one stacked groupBy for bin counts) are provided; they agree up to
binning-quantile approximation.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

__all__ = ["IV_BANDS", "iv_from_counts", "iv_scores", "iv_scores_spark", "equal_freq_bin"]

#: Table I of the paper: predictive-power rule of thumb.
IV_BANDS: tuple[tuple[float, float, str], ...] = (
    (0.0, 0.02, "useless"),
    (0.02, 0.1, "weak"),
    (0.1, 0.3, "medium"),
    (0.3, 0.5, "strong"),
    (0.5, float("inf"), "extremely strong"),
)

DEFAULT_ALPHA = 0.1  # paper §IV-C1: keep medium-or-better predictors
DEFAULT_BETA = 10  # bins


def iv_band(iv: float) -> str:
    """Predictive-power band of an IV value per Table I."""
    for lo, hi, name in IV_BANDS:
        if lo <= iv < hi:
            return name
    return IV_BANDS[-1][2]


def iv_from_counts(pos: np.ndarray, neg: np.ndarray) -> float:
    """IV from per-bin positive/negative counts (0.5 Laplace smoothing)."""
    pos = np.asarray(pos, dtype=np.float64) + 0.5
    neg = np.asarray(neg, dtype=np.float64) + 0.5
    p = pos / pos.sum()
    q = neg / neg.sum()
    return float(np.sum((p - q) * np.log(p / q)))


def equal_freq_bin(x: np.ndarray, beta: int = DEFAULT_BETA) -> np.ndarray:
    """Equal-frequency bin codes in [0, beta) via rank quantiles.

    Ties collapse bins (a constant column lands entirely in one bin, so its
    IV is 0 — correctly flagged useless).
    """
    x = np.asarray(x, dtype=np.float64)
    edges = np.quantile(x, np.linspace(0, 1, beta + 1)[1:-1])
    return np.searchsorted(np.unique(edges), x, side="left")


def iv_scores(
    X: pd.DataFrame | np.ndarray,
    y: np.ndarray,
    beta: int = DEFAULT_BETA,
    columns: list[str] | None = None,
) -> dict[str, float]:
    """IV per feature (numpy engine). Returns {column: IV}."""
    if isinstance(X, pd.DataFrame):
        columns = columns or list(X.columns)
        mat = X[columns].to_numpy(dtype=np.float64)
    else:
        mat = np.asarray(X, dtype=np.float64)
        columns = columns or [f"f{i}" for i in range(mat.shape[1])]
    y = np.asarray(y).astype(bool)
    out: dict[str, float] = {}
    for j, c in enumerate(columns):
        codes = equal_freq_bin(mat[:, j], beta)
        n_bins = int(codes.max()) + 1 if len(codes) else 1
        pos = np.bincount(codes[y], minlength=n_bins)
        neg = np.bincount(codes[~y], minlength=n_bins)
        out[c] = iv_from_counts(pos, neg)
    return out


def _bin_counts_spark(
    df: DataFrame,
    feature_cols: list[str],
    label_col: str,
    beta: int = DEFAULT_BETA,
    rel_error: float = 0.001,
) -> tuple[dict[str, list[float]], DataFrame]:
    """Sorted distinct bin edges per feature (one ``approxQuantile`` job)
    and the lazy (``_feat``, ``_bin``) → ``pos``/``neg`` count frame over
    a ``stack``-ed long format. A value goes to the first bin whose edge
    is >= it (numpy ``searchsorted`` side='left')."""
    probs = list(np.linspace(0, 1, beta + 1)[1:-1])
    qs = df.stat.approxQuantile(feature_cols, probs, rel_error)
    edges = {c: sorted(set(q)) for c, q in zip(feature_cols, qs)}

    def bin_expr(c: str):
        es = edges[c]
        expr = F.lit(len(es))
        for i in reversed(range(len(es))):
            expr = F.when(F.col(c) <= F.lit(float(es[i])), F.lit(i)).otherwise(expr)
        return expr

    stacked = df.select(
        F.col(label_col).cast("int").alias("_y"),
        *[bin_expr(c).alias(f"_b_{i}") for i, c in enumerate(feature_cols)],
    )
    stack_args: list = []
    for i, c in enumerate(feature_cols):
        stack_args += [F.lit(c), F.col(f"_b_{i}")]
    long = stacked.select(
        "_y", F.stack(F.lit(len(feature_cols)), *stack_args).alias("_feat", "_bin")
    )
    counts = long.groupBy("_feat", "_bin").agg(
        F.sum("_y").alias("pos"),
        F.sum(1 - F.col("_y")).alias("neg"),
    )
    return edges, counts


def iv_scores_spark(
    df: DataFrame,
    feature_cols: list[str],
    label_col: str,
    beta: int = DEFAULT_BETA,
    rel_error: float = 0.001,
) -> dict[str, float]:
    """IV per feature, computed distributed.

    Two Spark jobs regardless of the number of features: one
    ``approxQuantile`` call for all bin edges, then one aggregation for the
    per-bin positive/negative counts (:func:`_bin_counts_spark`). IV itself
    is assembled on the driver from the (n_features × beta)-row count table.
    """
    _edges, counts = _bin_counts_spark(df, feature_cols, label_col, beta, rel_error)
    counts = counts.toPandas()
    out: dict[str, float] = {}
    for c in feature_cols:
        sub = counts[counts["_feat"] == c]
        out[c] = iv_from_counts(sub["pos"].to_numpy(), sub["neg"].to_numpy())
    return out
