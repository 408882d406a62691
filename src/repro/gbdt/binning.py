"""Per-feature quantile binning for histogram-based tree training.

XGBoost's approximate/hist algorithms pre-bucket every feature into at most
``n_bins`` quantile buckets and then find splits over bucket boundaries.
This module computes the bucket edges (the *candidate split values*) and
converts a float matrix into small integer bin codes, which is what both
the local (numpy) and distributed (Spark) GBDT backends consume.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["BinMapper", "fit_bin_mapper"]


@dataclass(frozen=True)
class BinMapper:
    """Immutable per-feature quantile bin edges.

    ``edges[f]`` is a strictly increasing 1-D array of candidate split
    thresholds for feature ``f``. A value ``v`` maps to bin
    ``searchsorted(edges[f], v, side='left')`` — i.e. bin ``b`` holds
    values in ``(edges[b-1], edges[b]]`` with open ends — so there are
    ``len(edges[f]) + 1`` bins and a split "``<= edges[f][b]``" separates
    bins ``0..b`` from ``b+1..``. NaN sorts after every edge, so it lands
    in the highest bin, ``len(edges[f])``, together with ``+inf``.
    """

    edges: tuple[np.ndarray, ...]

    @property
    def n_features(self) -> int:
        return len(self.edges)

    def n_bins(self, feature: int) -> int:
        return len(self.edges[feature]) + 1

    @property
    def max_bins(self) -> int:
        return max((len(e) for e in self.edges), default=0) + 1

    @property
    def code_dtype(self) -> np.dtype:
        """Smallest unsigned dtype that holds every bin code."""
        return np.dtype(np.uint8 if self.max_bins <= 256 else np.uint16)

    def transform(self, X: np.ndarray) -> np.ndarray:
        """Map float matrix (n, m) to int32 bin codes (n, m)."""
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape, dtype=np.int32)
        for f in range(self.n_features):
            out[:, f] = np.searchsorted(self.edges[f], X[:, f], side="left")
        return out


def _feature_edges(col: np.ndarray, n_bins: int) -> np.ndarray:
    """Quantile candidate thresholds for one feature column.

    Midpoints between consecutive distinct quantiles are used as thresholds
    so that a threshold never equals a data value exactly (robust to the
    left/right searchsorted convention). Non-finite values (NaN, ±inf) are
    ignored for edge estimation; :meth:`BinMapper.transform` later sends
    NaN and +inf to the highest bin and -inf to bin 0. The column is
    sorted once: the distinct values and the quantiles both come from that
    sorted copy.
    """
    col = np.sort(col[np.isfinite(col)])
    if col.size == 0:
        return np.empty(0, dtype=np.float64)
    uniq = col[np.concatenate(([True], col[1:] != col[:-1]))]
    if len(uniq) <= 1:
        return np.empty(0, dtype=np.float64)
    if len(uniq) <= n_bins:
        return ((uniq[:-1] + uniq[1:]) / 2.0).astype(np.float64)
    qs = np.quantile(col, np.linspace(0, 1, n_bins + 1)[1:-1])
    qs = np.unique(qs)
    # Nudge each quantile to the midpoint between it and the next distinct
    # data value so thresholds fall strictly between observations.
    idx = np.searchsorted(uniq, qs, side="right")
    idx = np.clip(idx, 1, len(uniq) - 1)
    edges = (uniq[idx - 1] + uniq[idx]) / 2.0
    return np.unique(edges).astype(np.float64)


def fit_bin_mapper(X: np.ndarray, n_bins: int = 64) -> BinMapper:
    """Fit quantile bin edges on a (n, m) float matrix."""
    X = np.asarray(X, dtype=np.float64)
    return BinMapper(
        edges=tuple(_feature_edges(X[:, f], n_bins) for f in range(X.shape[1]))
    )
