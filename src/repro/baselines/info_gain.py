"""Single-feature information gain — the selection criterion TFC and
FCTree use (paper §II). Computed over equal-frequency bins."""
from __future__ import annotations

import numpy as np

from ..core.gain_ratio import _info_gain
from ..core.iv import equal_freq_bin

__all__ = ["info_gain", "info_gain_from_codes"]


def info_gain_from_codes(codes: np.ndarray, y: np.ndarray) -> float:
    """IG of a pre-binned feature against a boolean label."""
    y = np.asarray(y).astype(bool)
    n_bins = int(codes.max()) + 1 if len(codes) else 1
    pos = np.bincount(codes[y], minlength=n_bins).astype(np.float64)
    neg = np.bincount(codes[~y], minlength=n_bins).astype(np.float64)
    return _info_gain(pos, neg)


def info_gain(x: np.ndarray, y: np.ndarray, bins: int = 10) -> float:
    """IG of a raw feature, equal-frequency binned."""
    return info_gain_from_codes(equal_freq_bin(x, bins), y)
