"""Information-gain-ratio sorting of feature combinations (Algorithm 2).

A combination's split features and split values partition all records into
∏(|V_i|+1) cells; its score is the information gain of that partition over
the label, normalised by the partition's intrinsic value (split info) —
C4.5's gain ratio, which is what "information gain ratio" denotes.

Local path: vectorised numpy digitise + bincount per combination.
Distributed path: one ``mapInPandas`` pass computes per-partition
(cell, label) contingency partials for *all* combinations at once; the
driver sums partials and finishes the entropy arithmetic, so the cost is a
single scan regardless of the number of combinations.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .combos import FeatureCombo

__all__ = ["gain_ratio_from_counts", "gain_ratios", "gain_ratios_spark", "top_combos"]


def _entropy(counts: np.ndarray) -> float:
    """Shannon entropy (nats) of a count vector."""
    counts = counts[counts > 0].astype(np.float64)
    if counts.size == 0:
        return 0.0
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def _info_gain(pos: np.ndarray, neg: np.ndarray) -> float:
    """Information gain of a partition from per-cell positive/negative
    counts: H(root) − Σ (p+q)/n · H(p, q)."""
    n = (pos + neg).sum()
    if n == 0:
        return 0.0
    h_root = _entropy(np.array([pos.sum(), neg.sum()]))
    h_cond = 0.0
    for p, q in zip(pos, neg):
        if p + q > 0:
            h_cond += (p + q) / n * _entropy(np.array([p, q]))
    return float(h_root - h_cond)


def gain_ratio_from_counts(cell_pos: np.ndarray, cell_neg: np.ndarray) -> float:
    """Gain ratio from per-cell positive/negative counts."""
    cell_pos = np.asarray(cell_pos, dtype=np.float64)
    cell_neg = np.asarray(cell_neg, dtype=np.float64)
    split_info = _entropy(cell_pos + cell_neg)
    gain = _info_gain(cell_pos, cell_neg)
    return float(gain / split_info) if split_info > 1e-12 else 0.0


def _cell_ids(mat: np.ndarray, combo: FeatureCombo) -> np.ndarray:
    """Mixed-radix cell index of each row for a combination's partition."""
    ids = np.zeros(len(mat), dtype=np.int64)
    for f, vs in zip(combo.features, combo.split_values):
        codes = np.searchsorted(np.asarray(vs), mat[:, f], side="left")
        ids = ids * (len(vs) + 1) + codes
    return ids


def _counts_for_combo(
    mat: np.ndarray, y: np.ndarray, combo: FeatureCombo
) -> tuple[np.ndarray, np.ndarray]:
    ids = _cell_ids(mat, combo)
    n_cells = combo.n_cells()
    pos = np.bincount(ids[y], minlength=n_cells)
    neg = np.bincount(ids[~y], minlength=n_cells)
    return pos, neg


def gain_ratios(
    X: pd.DataFrame | np.ndarray, y: np.ndarray, combos: list[FeatureCombo]
) -> list[float]:
    """Gain ratio per combination (numpy engine).

    ``combo.features`` index columns of ``X`` positionally.
    """
    mat = X.to_numpy(dtype=np.float64) if isinstance(X, pd.DataFrame) else np.asarray(X, dtype=np.float64)
    yb = np.asarray(y).astype(bool)
    return [gain_ratio_from_counts(*_counts_for_combo(mat, yb, c)) for c in combos]


def _cell_counts_spark(
    df: DataFrame,
    feature_cols: list[str],
    label_col: str,
    combos: list[FeatureCombo],
) -> DataFrame:
    """Lazy (``combo``, ``cell``) → ``pos``/``neg`` contingency of every
    combination, non-empty cells only, from one ``mapInPandas`` scan.

    Each partition emits its flattened partial contingency; the partials
    are summed by a ``groupBy``. Cells are tiny (bounded by ``max_cells``
    at mining time) so the partials are O(#partitions · Σ cells).
    """
    cols = list(feature_cols) + [label_col]

    def partial(iterator):
        for pdf in iterator:
            mat = pdf[feature_cols].to_numpy(dtype=np.float64)
            yb = pdf[label_col].to_numpy().astype(bool)
            rows = []
            for ci, combo in enumerate(combos):
                pos, neg = _counts_for_combo(mat, yb, combo)
                nz = np.nonzero(pos + neg)[0]
                for cell in nz:
                    rows.append((ci, int(cell), int(pos[cell]), int(neg[cell])))
            yield pd.DataFrame(rows, columns=["combo", "cell", "pos", "neg"])

    partials = df.select(*cols).mapInPandas(
        partial, schema="combo long, cell long, pos long, neg long"
    )
    return partials.groupBy("combo", "cell").agg(
        F.sum("pos").alias("pos"), F.sum("neg").alias("neg")
    )


def gain_ratios_spark(
    df: DataFrame,
    feature_cols: list[str],
    label_col: str,
    combos: list[FeatureCombo],
) -> list[float]:
    """Gain ratio per combination in one distributed scan
    (:func:`_cell_counts_spark`); the driver finishes the arithmetic."""
    agg = _cell_counts_spark(df, feature_cols, label_col, combos).toPandas()
    out = []
    for ci, combo in enumerate(combos):
        sub = agg[agg["combo"] == ci]
        pos = np.zeros(combo.n_cells(), dtype=np.int64)
        neg = np.zeros(combo.n_cells(), dtype=np.int64)
        pos[sub["cell"].to_numpy()] = sub["pos"].to_numpy()
        neg[sub["cell"].to_numpy()] = sub["neg"].to_numpy()
        out.append(gain_ratio_from_counts(pos, neg))
    return out


def top_combos(
    combos: list[FeatureCombo], ratios: list[float], gamma: int
) -> list[FeatureCombo]:
    """The γ highest-gain-ratio combinations (Algorithm 2, l.7).

    Deterministic: ties break on the combination's feature tuple.
    """
    order = sorted(
        range(len(combos)), key=lambda i: (-ratios[i], combos[i].features)
    )
    return [combos[i] for i in order[:gamma]]
