"""Unit tests for the quantile binning substrate."""
import numpy as np
import pytest

from repro.gbdt.binning import BinMapper, fit_bin_mapper


def test_edges_strictly_increasing():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(500, 4))
    mapper = fit_bin_mapper(X, n_bins=16)
    for e in mapper.edges:
        assert np.all(np.diff(e) > 0)


def test_n_features_and_max_bins():
    X = np.random.default_rng(1).normal(size=(200, 3))
    mapper = fit_bin_mapper(X, n_bins=8)
    assert mapper.n_features == 3
    assert 1 <= mapper.max_bins <= 9


def test_transform_shape_and_dtype():
    X = np.random.default_rng(2).normal(size=(100, 5))
    mapper = fit_bin_mapper(X, 32)
    codes = mapper.transform(X)
    assert codes.shape == X.shape
    assert codes.dtype == np.int32


def test_codes_within_range():
    X = np.random.default_rng(3).normal(size=(300, 2))
    mapper = fit_bin_mapper(X, 10)
    codes = mapper.transform(X)
    for f in range(2):
        assert codes[:, f].min() >= 0
        assert codes[:, f].max() <= len(mapper.edges[f])


def test_codes_monotone_in_value():
    """Larger values never get smaller bin codes."""
    x = np.sort(np.random.default_rng(4).normal(size=400))
    mapper = fit_bin_mapper(x[:, None], 16)
    codes = mapper.transform(x[:, None])[:, 0]
    assert np.all(np.diff(codes) >= 0)


def test_constant_column_single_bin():
    X = np.ones((50, 1))
    mapper = fit_bin_mapper(X, 8)
    assert len(mapper.edges[0]) == 0
    assert np.all(mapper.transform(X) == 0)


def test_few_distinct_values_get_midpoint_edges():
    x = np.array([0.0, 0.0, 1.0, 1.0, 2.0, 2.0])
    mapper = fit_bin_mapper(x[:, None], 16)
    assert np.allclose(mapper.edges[0], [0.5, 1.5])
    codes = mapper.transform(x[:, None])[:, 0]
    assert list(codes) == [0, 0, 1, 1, 2, 2]


def test_thresholds_separate_distinct_values():
    """Every pair of distinct values with an edge between maps to different bins."""
    rng = np.random.default_rng(5)
    x = rng.choice([1.0, 2.0, 5.0, 9.0], size=200)
    mapper = fit_bin_mapper(x[:, None], 16)
    codes = mapper.transform(x[:, None])[:, 0]
    by_val = {v: set(codes[x == v]) for v in [1.0, 2.0, 5.0, 9.0]}
    # each value maps to exactly one bin
    assert all(len(s) == 1 for s in by_val.values())
    # and all four values are in distinct bins (16 bins >= 4 values)
    assert len({s.pop() for s in by_val.values()}) == 4


def test_equal_frequency_balance():
    """Quantile bins are roughly balanced on continuous data."""
    x = np.random.default_rng(6).normal(size=10_000)
    mapper = fit_bin_mapper(x[:, None], 10)
    codes = mapper.transform(x[:, None])[:, 0]
    counts = np.bincount(codes)
    assert counts.min() > 0.5 * counts.mean()
    assert counts.max() < 1.5 * counts.mean()


def test_quantile_bin_count_bounded():
    x = np.random.default_rng(7).normal(size=5000)
    for n_bins in (2, 4, 64, 255):
        mapper = fit_bin_mapper(x[:, None], n_bins)
        assert len(mapper.edges[0]) <= n_bins
        assert mapper.n_bins(0) <= n_bins + 1


def test_mapper_is_frozen():
    mapper = fit_bin_mapper(np.zeros((10, 1)), 4)
    with pytest.raises(Exception):
        mapper.edges = ()


def test_nan_ignored_for_edges():
    x = np.array([np.nan, 1.0, 2.0, 3.0, 4.0, np.nan])
    mapper = fit_bin_mapper(x[:, None], 4)
    assert len(mapper.edges[0]) >= 1
    assert np.all(np.isfinite(mapper.edges[0]))


def _two_pass_edges(col, n_bins):
    """Edges as computed with np.unique followed by np.quantile."""
    col = col[np.isfinite(col)]
    if col.size == 0:
        return np.empty(0)
    uniq = np.unique(col)
    if len(uniq) <= 1:
        return np.empty(0)
    if len(uniq) <= n_bins:
        return (uniq[:-1] + uniq[1:]) / 2.0
    qs = np.unique(np.quantile(col, np.linspace(0, 1, n_bins + 1)[1:-1]))
    idx = np.clip(np.searchsorted(uniq, qs, side="right"), 1, len(uniq) - 1)
    return np.unique((uniq[idx - 1] + uniq[idx]) / 2.0)


@pytest.mark.parametrize("n_bins", [4, 64, 300])
def test_single_sort_edges_equal_two_pass_edges(n_bins):
    rng = np.random.default_rng(8)
    cols = [
        rng.normal(size=3000),
        np.round(rng.normal(size=3000) * 3),
        rng.exponential(size=3000) ** 3,
        np.where(rng.random(3000) < 0.1, np.nan, rng.normal(size=3000)),
        np.full(3000, 2.5),
        np.concatenate([[-np.inf, np.inf], rng.normal(size=500)]),
    ]
    X = np.column_stack([c[:500] for c in cols])
    mapper = fit_bin_mapper(X, n_bins)
    for f in range(X.shape[1]):
        np.testing.assert_array_equal(mapper.edges[f], _two_pass_edges(X[:, f], n_bins))


def test_nan_goes_to_highest_bin():
    """NaN sorts after every edge: same bin as +inf; -inf gets bin 0."""
    x = np.array([1.0, 2.0, 3.0, 4.0, np.nan, np.inf, -np.inf])
    mapper = fit_bin_mapper(x[:, None], 4)
    top = len(mapper.edges[0])
    codes = mapper.transform(x[:, None])[:, 0]
    assert codes[4] == top
    assert codes[5] == top
    assert codes[6] == 0


def test_code_dtype_is_uint8_up_to_256_bins():
    X = np.random.default_rng(9).normal(size=(400, 3))
    mapper = fit_bin_mapper(X, 64)
    assert mapper.code_dtype == np.uint8
    codes = mapper.transform(X)
    np.testing.assert_array_equal(codes.astype(mapper.code_dtype), codes)


def test_code_dtype_widens_to_uint16_past_256_bins():
    X = np.random.default_rng(10).normal(size=(4000, 2))
    mapper = fit_bin_mapper(X, 300)
    assert mapper.max_bins > 256
    assert mapper.code_dtype == np.uint16
    codes = mapper.transform(X)
    assert codes.max() > 255
    np.testing.assert_array_equal(codes.astype(mapper.code_dtype), codes)
