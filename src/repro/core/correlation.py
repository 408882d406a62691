"""Pearson redundancy removal (paper Algorithm 4, Table II).

As printed, Algorithm 4 keeps one member of every highly-correlated pair
and never touches uncorrelated features; the evident intent (and what we
implement) is: order candidates by IV descending and greedily keep a
feature iff |Pearson| ≤ θ against every feature already kept — i.e. the
lower-IV member of each correlated pair is dropped (DESIGN.md §2).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

__all__ = [
    "PEARSON_BANDS",
    "DEFAULT_THETA",
    "merge_moments",
    "moments",
    "pearson_from_moments",
    "pearson_matrix",
    "remove_redundant",
]

#: Table II of the paper: correlation-strength rule of thumb.
PEARSON_BANDS: tuple[tuple[float, float, str], ...] = (
    (0.0, 0.2, "very weak or none"),
    (0.2, 0.4, "weak"),
    (0.4, 0.6, "moderate"),
    (0.6, 0.8, "strong"),
    (0.8, 1.0 + 1e-12, "extremely strong"),
)

DEFAULT_THETA = 0.8  # paper §IV-C2


def correlation_band(r: float) -> str:
    """Strength band of |r| per Table II."""
    r = abs(r)
    for lo, hi, name in PEARSON_BANDS:
        if lo <= r < hi:
            return name
    return PEARSON_BANDS[-1][2]


def moments(mat: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Sufficient statistics of a non-empty row block for Pearson: the row
    count, the column means and the centred Gram matrix
    (X − mean)ᵀ(X − mean).

    Columns are first shifted by their first-row value, so a column that
    is constant in the block gets exactly that mean and a zero Gram row.
    A column holding ±inf or NaN gets NaN statistics (inf − inf).
    """
    mat = np.asarray(mat, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        d = mat - mat[0]
        mean = d.mean(axis=0)
        d -= mean
    return len(mat), mat[0] + mean, d.T @ d


def merge_moments(a: tuple, b: tuple) -> tuple[int, np.ndarray, np.ndarray]:
    """:func:`moments` of the union of two row blocks (the pairwise update
    of Chan, Golub & LeVeque)."""
    (na, ma, ga), (nb, mb, gb) = a, b
    n = na + nb
    delta = mb - ma
    return n, ma + delta * (nb / n), ga + gb + np.outer(delta, delta) * (na * nb / n)


def pearson_from_moments(n: int, mean: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """Pearson matrix from :func:`moments`, clipped to [−1, 1].
    Zero-variance and non-finite columns correlate 0 with every other
    column; the diagonal is 1."""
    var = np.diag(gram)
    ok = np.isfinite(var) & (var > 0)
    sd = np.sqrt(np.where(ok, var, 1.0))
    out = np.where(np.outer(ok, ok), np.clip(gram / sd[:, None] / sd[None, :], -1.0, 1.0), 0.0)
    np.fill_diagonal(out, 1.0)
    return np.nan_to_num(out, nan=0.0)


def pearson_matrix(X: pd.DataFrame | np.ndarray) -> np.ndarray:
    """Full Pearson matrix (numpy engine); zero-variance and non-finite
    columns correlate 0 with all."""
    mat = X.to_numpy(dtype=np.float64) if isinstance(X, pd.DataFrame) else np.asarray(X, dtype=np.float64)
    return pearson_from_moments(*moments(mat))


def remove_redundant(
    columns: list[str],
    iv: dict[str, float],
    corr: np.ndarray,
    theta: float = DEFAULT_THETA,
) -> list[str]:
    """Greedy IV-descending selection dropping |r| > θ against kept set.

    ``corr`` is the Pearson matrix in the order of ``columns``. Returns the
    kept subset in IV-descending order (ties broken by column name for
    determinism).
    """
    order = sorted(range(len(columns)), key=lambda i: (-iv.get(columns[i], 0.0), columns[i]))
    kept_idx: list[int] = []
    for i in order:
        if all(abs(corr[i, j]) <= theta for j in kept_idx):
            kept_idx.append(i)
    return [columns[i] for i in kept_idx]
