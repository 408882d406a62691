"""Unit tests for single-tree growth, traversal, and path extraction."""
import numpy as np
import pytest

from repro.gbdt import logistic_grad_hess
from repro.gbdt.binning import fit_bin_mapper
from repro.gbdt.tree import (
    RowPositions,
    Tree,
    TreeNode,
    _best_split,
    assign_slots,
    build_histograms,
    grow_tree,
)


def _compact_codes(mapper, X):
    """The column-major uint8/uint16 codes the numpy engine trains on."""
    return np.asfortranarray(mapper.transform(X), dtype=mapper.code_dtype)


def _local_hist_fn(codes, grad, hess, mapper):
    def fn(tree, frontier):
        slots = assign_slots(tree, frontier, codes)
        return build_histograms(
            codes, grad, hess, slots, max(frontier) + 1, mapper.max_bins
        )

    return fn


def _grow(X, grad, hess, **kw):
    mapper = fit_bin_mapper(X, kw.pop("n_bins", 32))
    codes = mapper.transform(X)
    return (
        grow_tree(_local_hist_fn(codes, grad, hess, mapper), mapper, **kw),
        mapper,
        codes,
    )


def test_single_split_on_informative_feature():
    """A step function in feature 1 must be split on feature 1."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(500, 3))
    grad = np.where(X[:, 1] > 0.0, -1.0, 1.0)
    hess = np.ones(500)
    tree, _m, _c = _grow(X, grad, hess, max_depth=1)
    assert tree.nodes[0].feature == 1
    assert abs(tree.nodes[0].threshold) < 0.3


def test_leaf_values_reduce_loss_direction():
    """Leaves must move the margin against the gradient sign."""
    rng = np.random.default_rng(1)
    X = rng.normal(size=(400, 2))
    grad = np.where(X[:, 0] > 0, -1.0, 1.0)
    hess = np.ones(400)
    tree, _m, _c = _grow(X, grad, hess, max_depth=1, learning_rate=1.0)
    pred = tree.predict(X)
    assert np.all(pred[X[:, 0] > 0.2] > 0)
    assert np.all(pred[X[:, 0] < -0.2] < 0)


def test_predict_binned_matches_predict():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(600, 4))
    grad = np.where(X[:, 0] * X[:, 1] > 0, -1.0, 1.0)
    hess = np.ones(600)
    tree, mapper, codes = _grow(X, grad, hess, max_depth=3)
    np.testing.assert_allclose(tree.predict(X), tree.predict_binned(codes))


def test_max_depth_respected():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(800, 5))
    grad = rng.normal(size=800)
    hess = np.ones(800)
    for depth in (1, 2, 3):
        tree, _m, _c = _grow(X, grad, hess, max_depth=depth)
        # a depth-d complete tree has at most 2^(d+1)-1 nodes
        assert len(tree.nodes) <= 2 ** (depth + 1) - 1
        for p in tree.paths():
            assert len(p) <= depth


def test_no_split_on_pure_gradient():
    """Zero gradient everywhere → no gain → single leaf."""
    X = np.random.default_rng(4).normal(size=(100, 2))
    tree, _m, _c = _grow(X, np.zeros(100), np.ones(100), max_depth=3)
    assert len(tree.nodes) == 1
    assert tree.nodes[0].feature == -1


def test_paths_on_known_tree():
    """Hand-built tree: root f0, left child f1 (both leaf-parents)."""
    t = Tree(
        nodes=[
            TreeNode(feature=0, threshold=0.5, left=1, right=2),
            TreeNode(feature=1, threshold=1.5, left=3, right=4),
            TreeNode(value=0.1),
            TreeNode(value=0.2),
            TreeNode(value=0.3),
        ]
    )
    paths = t.paths()
    assert [(0, 0.5)] in paths  # root is parent of leaf node 2
    assert [(0, 0.5), (1, 1.5)] in paths
    assert len(paths) == 2


def test_paths_empty_for_stump_leaf():
    t = Tree(nodes=[TreeNode(value=0.4)])
    assert t.paths() == []


def test_split_features_and_gains():
    t = Tree(
        nodes=[
            TreeNode(feature=2, threshold=0.0, gain=5.0, left=1, right=2),
            TreeNode(value=0.1),
            TreeNode(value=0.2),
        ]
    )
    assert t.split_features() == {2}
    assert t.gain_by_feature() == {2: [5.0]}


def test_assign_slots_routes_rows():
    X = np.array([[-1.0], [1.0], [-2.0], [3.0]])
    mapper = fit_bin_mapper(X, 8)
    codes = mapper.transform(X)
    tree = Tree(
        nodes=[TreeNode(feature=0, left=1, right=2), TreeNode(), TreeNode()]
    )
    # fix node 0 with a bin threshold at value 0
    tree.nodes[0].bin_threshold = int(np.searchsorted(mapper.edges[0], 0.0))
    frontier = {0: 1, 1: 2}
    slots = assign_slots(tree, frontier, codes)
    neg = X[:, 0] < 0
    assert np.all(slots[neg] == 0)
    assert np.all(slots[~neg] == 1)


def test_assign_slots_root_frontier():
    codes = np.zeros((5, 1), dtype=np.int32)
    tree = Tree([TreeNode()])
    slots = assign_slots(tree, {0: 0}, codes)
    assert np.all(slots == 0)


def test_histograms_sum_to_totals():
    rng = np.random.default_rng(5)
    codes = rng.integers(0, 8, size=(300, 3)).astype(np.int32)
    grad = rng.normal(size=300)
    hess = rng.random(300)
    slots = rng.integers(0, 2, 300)
    gh, hh = build_histograms(codes, grad, hess, slots, 2, 8)
    for s in (0, 1):
        mask = slots == s
        for f in range(3):
            assert gh[s, f].sum() == pytest.approx(grad[mask].sum())
            assert hh[s, f].sum() == pytest.approx(hess[mask].sum())


def test_histograms_ignore_inactive_rows():
    codes = np.zeros((10, 1), dtype=np.int32)
    grad = np.ones(10)
    hess = np.ones(10)
    slots = np.array([0] * 5 + [-1] * 5)
    gh, _hh = build_histograms(codes, grad, hess, slots, 1, 1)
    assert gh[0, 0, 0] == 5.0


def test_min_child_weight_blocks_tiny_splits():
    """One outlier row cannot be split off when min_child_weight is large."""
    X = np.concatenate([np.zeros(99), [10.0]])[:, None]
    grad = np.concatenate([np.ones(99), [-50.0]])
    hess = np.ones(100)
    mapper = fit_bin_mapper(X, 8)
    codes = mapper.transform(X)
    tree = grow_tree(
        _local_hist_fn(codes, grad, hess, mapper),
        mapper,
        max_depth=2,
        min_child_weight=5.0,
    )
    assert len(tree.nodes) == 1  # refused the 99/1 split


def test_gamma_penalty_blocks_weak_splits():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(200, 2))
    grad = rng.normal(scale=0.01, size=200)  # nearly pure noise
    hess = np.ones(200)
    tree, _m, _c = _grow(X, grad, hess, max_depth=3, gamma=10.0)
    assert len(tree.nodes) == 1


# ---- histogram subtraction and carried row positions ----------------------


def _reference_grow_tree(
    histogram_fn,
    mapper,
    *,
    max_depth=3,
    reg_lambda=1.0,
    gamma=0.0,
    min_child_weight=1e-3,
    learning_rate=0.3,
):
    """Full-histogram grower: every frontier node's histogram is built."""

    def leaf_value(G, H):
        return -G / (H + reg_lambda) * learning_rate if (H + reg_lambda) > 0 else 0.0

    tree = Tree([TreeNode()])
    frontier = {0: 0}
    for _depth in range(max_depth):
        gh, hh = histogram_fn(tree, frontier)
        new_frontier = {}
        for slot, nid in sorted(frontier.items()):
            gain, f, b, GL, HL, G, H = _best_split(
                gh[slot], hh[slot], mapper, reg_lambda, gamma, min_child_weight
            )
            node = tree.nodes[nid]
            if gain <= 0 or f < 0:
                node.value = leaf_value(G, H)
                continue
            node.feature, node.bin_threshold, node.gain = f, b, gain
            node.threshold = float(mapper.edges[f][b])
            node.left = len(tree.nodes)
            tree.nodes.append(TreeNode(value=leaf_value(GL, HL)))
            node.right = len(tree.nodes)
            tree.nodes.append(TreeNode(value=leaf_value(G - GL, H - HL)))
            new_frontier[2 * slot] = node.left
            new_frontier[2 * slot + 1] = node.right
        frontier = new_frontier
        if not frontier:
            break
    return tree


def _tied_data(seed, n=3000):
    """Rounded (tied) columns, a constant column and a planted interaction."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6))
    X[:, 1] = np.round(X[:, 1])
    X[:, 2] = np.round(X[:, 2] * 4) / 4
    X[:, 3] = 1.0
    logit = 2.0 * X[:, 0] * X[:, 1] + X[:, 2] - X[:, 4]
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logit))).astype(np.float64)
    return X, y


def _structure(tree):
    return [(n.feature, n.bin_threshold, n.left, n.right) for n in tree.nodes]


def test_sibling_histogram_by_subtraction_matches_direct():
    X, y = _tied_data(0)
    mapper = fit_bin_mapper(X, 32)
    codes = _compact_codes(mapper, X)
    grad, hess = logistic_grad_hess(np.zeros(len(y)), y)
    B = mapper.max_bins
    on_node = X[:, 0] > -1.0  # a parent node that holds part of the rows
    left = on_node & (X[:, 2] <= 0.0)
    right = on_node & ~left

    def hist(mask):
        return build_histograms(codes, grad, hess, np.where(mask, 0, -1), 1, B)

    (pg, ph), (lg, lh), (rg, rh) = hist(on_node), hist(left), hist(right)
    np.testing.assert_allclose(pg - lg, rg, rtol=0, atol=1e-9)
    np.testing.assert_allclose(ph - lh, rh, rtol=0, atol=1e-9)


def test_row_positions_match_root_routing_and_predict_binned():
    X, y = _tied_data(1)
    mapper = fit_bin_mapper(X, 32)
    codes = _compact_codes(mapper, X)
    grad, hess = logistic_grad_hess(np.zeros(len(y)), y)
    rows = RowPositions(codes)

    def fn(tree, frontier):
        slots = rows.slots(tree, frontier)
        np.testing.assert_array_equal(slots, assign_slots(tree, frontier, codes))
        return build_histograms(
            codes, grad, hess, slots, max(frontier) + 1, mapper.max_bins
        )

    tree = grow_tree(fn, mapper, max_depth=4)
    assert len(tree.nodes) > 7
    np.testing.assert_array_equal(rows.leaf_values(tree), tree.predict_binned(codes))


def test_each_pass_below_the_root_scans_only_smaller_children():
    X, y = _tied_data(2)
    mapper = fit_bin_mapper(X, 32)
    codes = mapper.transform(X)
    grad, hess = logistic_grad_hess(np.zeros(len(y)), y)
    scanned = []

    def fn(tree, frontier):
        assert sorted(frontier) == list(range(len(frontier)))
        slots = assign_slots(tree, frontier, codes)
        if frontier != {0: 0}:
            parent_of = {
                c: p
                for p, n in enumerate(tree.nodes)
                if n.feature >= 0
                for c in (n.left, n.right)
            }
            for nid in frontier.values():
                p = tree.nodes[parent_of[nid]]
                sib = p.right if nid == p.left else p.left
                h_sib = hess[assign_slots(tree, {0: sib}, codes) == 0].sum()
                h_own = hess[assign_slots(tree, {0: nid}, codes) == 0].sum()
                assert h_own <= h_sib
            scanned.append((slots >= 0).mean())
        return build_histograms(
            codes, grad, hess, slots, max(frontier) + 1, mapper.max_bins
        )

    grow_tree(fn, mapper, max_depth=4)
    assert scanned and max(scanned) <= 0.55


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_subtraction_grower_matches_full_histogram_grower(seed):
    """Same (feature, bin) trees over boosting rounds with subsampling."""
    X, y = _tied_data(seed)
    mapper = fit_bin_mapper(X, 32)
    codes = _compact_codes(mapper, X)
    rng = np.random.default_rng(seed)
    margin = np.zeros(len(y))
    for _round in range(8):
        grad, hess = logistic_grad_hess(margin, y)
        keep = rng.random(len(y)) < 0.7
        grad = np.where(keep, grad, 0.0)
        hess = np.where(keep, hess, 0.0)
        fn = _local_hist_fn(codes, grad, hess, mapper)
        new = grow_tree(fn, mapper, max_depth=4)
        ref = _reference_grow_tree(fn, mapper, max_depth=4)
        assert _structure(new) == _structure(ref)
        np.testing.assert_allclose(
            [n.value for n in new.nodes],
            [n.value for n in ref.nodes],
            rtol=0,
            atol=1e-12,
        )
        np.testing.assert_allclose(
            [n.gain for n in new.nodes], [n.gain for n in ref.nodes], rtol=1e-9
        )
        margin += ref.predict_binned(codes)


def test_histograms_accept_compact_and_int32_codes_alike():
    X, y = _tied_data(3, n=500)
    mapper = fit_bin_mapper(X, 16)
    grad, hess = logistic_grad_hess(np.zeros(len(y)), y)
    slots = np.random.default_rng(3).integers(-1, 3, len(y))
    wide = build_histograms(mapper.transform(X), grad, hess, slots, 3, mapper.max_bins)
    compact = build_histograms(
        _compact_codes(mapper, X), grad, hess, slots, 3, mapper.max_bins
    )
    np.testing.assert_array_equal(wide[0], compact[0])
    np.testing.assert_array_equal(wide[1], compact[1])
