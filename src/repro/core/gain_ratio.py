"""Information-gain-ratio sorting of feature combinations (Algorithm 2).

A combination's split features and split values partition all records into
∏(|V_i|+1) cells; its score is the information gain of that partition over
the label, normalised by the partition's intrinsic value (split info) —
C4.5's gain ratio, which is what "information gain ratio" denotes.

One kernel and one finisher serve both engines: :func:`cell_counts`
gives every combination's (cell, label) contingency of a block of rows,
and :func:`gain_ratio_from_counts` finishes the entropy arithmetic. The
local engine runs the kernel once over the frame; the Spark engine runs
it on each partition in one scan, whatever the number of combinations,
and sums the partials on the driver.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .combos import FeatureCombo

__all__ = ["cell_counts", "gain_ratio_from_counts", "gain_ratios", "top_combos"]


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


def cell_counts(
    mat: np.ndarray, y: np.ndarray, combos: list[FeatureCombo]
) -> list[np.ndarray]:
    """Per-combination (2, n_cells) positive/negative cell counts of a row
    block; ``combo.features`` index columns of ``mat``. Counts of blocks
    add up."""
    yb = np.asarray(y).astype(bool)
    return [np.stack(_counts_for_combo(mat, yb, c)) for c in combos]


def gain_ratios(
    X: pd.DataFrame | np.ndarray, y: np.ndarray, combos: list[FeatureCombo]
) -> list[float]:
    """Gain ratio per combination (numpy engine).

    ``combo.features`` index columns of ``X`` positionally.
    """
    mat = X.to_numpy(dtype=np.float64) if isinstance(X, pd.DataFrame) else np.asarray(X, dtype=np.float64)
    return [gain_ratio_from_counts(*c) for c in cell_counts(mat, y, combos)]


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
