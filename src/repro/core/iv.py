"""Information Value filtering (paper Algorithm 3, Table I).

IV of a feature over β equal-frequency bins::

    IV = Σ_i (n_p^i/n_p − n_n^i/n_n) · ln( (n_p^i/n_p) / (n_n^i/n_n) )

Note: the paper's Eq. (6) as printed omits the logarithm (it multiplies the
difference by the raw ratio). That form is not the industry-standard
Information Value that Table I's thumb-rule bands describe, is unbounded
and sign-asymmetric, so we implement the canonical WOE-weighted form above
(documented substitution, DESIGN.md §2). Empty-class bins are Laplace
smoothed with 0.5 so WOE stays finite.

One kernel and one finisher serve both engines. :func:`bin_counts` gives
the (feature, bin) positive/negative counts of a block of rows for fixed
bin edges; :func:`ivs_from_bin_counts` turns (summed) counts into IVs. The
local engine runs the kernel once over the frame with edges from
:func:`quantile_edges`; the Spark engine takes its edges from one
``approxQuantile`` call, runs the kernel per partition and sums the counts
on the driver.

Missing values: edges are quantiles of the non-NaN values only (as
``approxQuantile`` computes them), and a value goes to the first bin whose
edge is >= it, so NaN and +inf land in the highest bin on both engines —
the same policy as the GBDT's ``BinMapper``.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

__all__ = [
    "IV_BANDS",
    "bin_counts",
    "equal_freq_bin",
    "iv_from_counts",
    "iv_scores",
    "ivs_from_bin_counts",
    "quantile_edges",
]

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


def quantile_edges(x: np.ndarray, beta: int = DEFAULT_BETA) -> np.ndarray:
    """Sorted distinct inner edges of β equal-frequency bins, taken from
    the non-NaN values of ``x`` (none when every value is NaN)."""
    x = np.asarray(x, dtype=np.float64)
    x = x[~np.isnan(x)]
    if not x.size:
        return x
    return np.unique(np.quantile(x, np.linspace(0, 1, beta + 1)[1:-1]))


def equal_freq_bin(x: np.ndarray, beta: int = DEFAULT_BETA) -> np.ndarray:
    """Equal-frequency bin codes in [0, beta) via rank quantiles.

    Ties collapse bins (a constant column lands entirely in one bin, so its
    IV is 0 — correctly flagged useless). NaN goes to the highest bin.
    """
    return np.searchsorted(quantile_edges(x, beta), x, side="left")


def bin_counts(
    mat: np.ndarray, y: np.ndarray, edges: list[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-(feature, bin) positive and negative counts of a row block.

    ``edges[j]`` are column j's sorted bin edges; a value goes to the first
    bin whose edge is >= it (``searchsorted`` side='left'). Returns two
    int64 arrays of shape (m, 1 + max edges per column); counts of blocks
    binned with the same edges add up.
    """
    yb = np.asarray(y).astype(bool)
    width = 1 + max((len(e) for e in edges), default=0)
    pos = np.zeros((len(edges), width), dtype=np.int64)
    neg = np.zeros((len(edges), width), dtype=np.int64)
    for j, e in enumerate(edges):
        codes = np.searchsorted(e, mat[:, j], side="left")
        pos[j] = np.bincount(codes[yb], minlength=width)
        neg[j] = np.bincount(codes[~yb], minlength=width)
    return pos, neg


def ivs_from_bin_counts(pos: np.ndarray, neg: np.ndarray) -> list[float]:
    """IV of each row of :func:`bin_counts`' output, over bins 0 through
    the highest non-empty one (empty bins below it are smoothed too)."""
    out = []
    for p, q in zip(pos, neg):
        n_bins = int(np.flatnonzero(p + q)[-1]) + 1 if (p + q).any() else 1
        out.append(iv_from_counts(p[:n_bins], q[:n_bins]))
    return out


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
    edges = [quantile_edges(mat[:, j], beta) for j in range(mat.shape[1])]
    return dict(zip(columns, ivs_from_bin_counts(*bin_counts(mat, y, edges))))
