"""Single regression tree of the XGBoost-style booster.

Trees are grown level-wise to ``max_depth`` from per-(node, feature, bin)
gradient/hessian histograms. The split gain is XGBoost's second-order
formula::

    gain = 1/2 * [ G_L^2/(H_L+lam) + G_R^2/(H_R+lam) - G^2/(H+lam) ] - gamma

Split finding runs on the *driver* over already-aggregated histograms; the
histograms themselves come from a backend callback, so the same growth code
serves the numpy backend (histograms from local arrays) and the Spark
backend (histograms reduced from per-partition ``mapInPandas`` partials).

Each level costs exactly one histogram pass. That pass covers only the
smaller child of each split; the sibling's histogram is the parent's minus
the child's (the subtraction trick of XGBoost-hist and LightGBM). The numpy
backend also carries each row's node from level to level
(:class:`RowPositions`) instead of routing every row from the root.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binning import BinMapper

__all__ = [
    "Tree",
    "TreeNode",
    "RowPositions",
    "grow_tree",
    "build_histograms",
    "assign_slots",
]


@dataclass
class TreeNode:
    """One node; leaves have ``feature == -1`` and carry ``value``."""

    feature: int = -1
    threshold: float = 0.0  # go left iff x[feature] <= threshold
    bin_threshold: int = -1  # go left iff bincode <= bin_threshold
    gain: float = 0.0
    value: float = 0.0
    left: int = -1  # child indices into Tree.nodes
    right: int = -1


@dataclass
class Tree:
    """A fitted regression tree (array-of-nodes representation)."""

    nodes: list[TreeNode] = field(default_factory=list)

    def _traverse(self, get_col, n: int) -> np.ndarray:
        """Shared float/binned traversal; ``get_col(node) -> (values, thr)``."""
        out = np.empty(n, dtype=np.float64)
        idx = np.zeros(n, dtype=np.int64)
        active = np.arange(n)
        while active.size:
            nxt = []
            for nid in np.unique(idx[active]):
                node = self.nodes[nid]
                rows = active[idx[active] == nid]
                if node.feature < 0:
                    out[rows] = node.value
                    continue
                vals, thr = get_col(node, rows)
                go_left = vals <= thr
                idx[rows[go_left]] = node.left
                idx[rows[~go_left]] = node.right
                nxt.append(rows)
            active = np.concatenate(nxt) if nxt else np.empty(0, dtype=np.int64)
        return out

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf values for a float matrix (n, m)."""
        X = np.asarray(X, dtype=np.float64)
        return self._traverse(
            lambda node, rows: (X[rows, node.feature], node.threshold), len(X)
        )

    def predict_binned(self, codes: np.ndarray) -> np.ndarray:
        """Leaf values for an int bin-code matrix (training-time fast path)."""
        return self._traverse(
            lambda node, rows: (codes[rows, node.feature], node.bin_threshold),
            len(codes),
        )

    def paths(self) -> list[list[tuple[int, float]]]:
        """All root→leaf-parent paths as [(feature, threshold), ...].

        Mirrors the paper's §IV-B1: for each parent-of-a-leaf node ``l_j``
        the path ``p_j`` is the sequence of split (feature, value) pairs
        from the root down to and including ``l_j``. A feature repeated on
        a path is kept each time (it may split at several values — the
        gain-ratio stage collects all of them into ``V_i``).
        """
        if not self.nodes or self.nodes[0].feature < 0:
            return []
        out: list[list[tuple[int, float]]] = []

        def rec(nid: int, acc: list[tuple[int, float]]) -> None:
            node = self.nodes[nid]
            acc = acc + [(node.feature, node.threshold)]
            child_is_leaf = [
                self.nodes[c].feature < 0 for c in (node.left, node.right)
            ]
            if any(child_is_leaf):
                out.append(acc)
            for c in (node.left, node.right):
                if self.nodes[c].feature >= 0:
                    rec(c, acc)

        rec(0, [])
        return out

    def split_features(self) -> set[int]:
        return {n.feature for n in self.nodes if n.feature >= 0}

    def gain_by_feature(self) -> dict[int, list[float]]:
        acc: dict[int, list[float]] = {}
        for n in self.nodes:
            if n.feature >= 0:
                acc.setdefault(n.feature, []).append(n.gain)
        return acc


def assign_slots(
    tree: Tree, frontier: dict[int, int], codes: np.ndarray
) -> np.ndarray:
    """Map each row to its frontier slot (or -1 if it sits in a finished leaf).

    Rows are routed down the partial tree on *bin codes* until they reach a
    node in ``frontier`` (slot recorded) or a finalised leaf (-1). Used by
    both histogram backends so workers need only the broadcast partial tree.
    """
    nid_to_slot = {nid: slot for slot, nid in frontier.items()}
    n = len(codes)
    out = np.full(n, -1, dtype=np.int64)
    idx = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    while active.size:
        nxt = []
        for nid in np.unique(idx[active]):
            rows = active[idx[active] == nid]
            slot = nid_to_slot.get(nid)
            if slot is not None:
                out[rows] = slot
                continue
            node = tree.nodes[nid]
            if node.feature < 0:
                continue  # finished leaf → inactive
            go_left = codes[rows, node.feature] <= node.bin_threshold
            idx[rows[go_left]] = node.left
            idx[rows[~go_left]] = node.right
            nxt.append(rows)
        active = np.concatenate(nxt) if nxt else np.empty(0, dtype=np.int64)
    return out


class RowPositions:
    """Each training row's current node, carried from one level to the next.

    ``pos[i]`` is the id of the node row ``i`` sits on. Each call moves the
    rows of nodes split since the previous call down to their children,
    touching no other row, so rows are never routed from the root again.
    Routing uses the same rule as :meth:`Tree.predict_binned`
    (``code <= bin_threshold`` goes left), so :meth:`leaf_values` equals it
    bit for bit.
    """

    def __init__(self, codes: np.ndarray):
        self.codes = codes
        self.pos = np.zeros(len(codes), dtype=np.intp)
        self._open = [0]  # nodes that hold rows; a split one is moved on

    def _advance(self, tree: Tree) -> None:
        todo, self._open = self._open, []
        while todo:
            nid = todo.pop()
            node = tree.nodes[nid]
            if node.feature < 0:
                self._open.append(nid)
                continue
            rows = np.flatnonzero(self.pos == nid)
            left = self.codes[:, node.feature].take(rows) <= node.bin_threshold
            self.pos[rows[left]] = node.left
            self.pos[rows[~left]] = node.right
            todo += [node.left, node.right]

    def slots(self, tree: Tree, frontier: dict[int, int]) -> np.ndarray:
        """Same result as ``assign_slots(tree, frontier, codes)``."""
        self._advance(tree)
        lut = np.full(len(tree.nodes), -1, dtype=np.intp)
        for slot, nid in frontier.items():
            lut[nid] = slot
        return lut[self.pos]

    def leaf_values(self, tree: Tree) -> np.ndarray:
        """Same result as ``tree.predict_binned(codes)`` for a grown tree."""
        self._advance(tree)
        return np.array([n.value for n in tree.nodes], dtype=np.float64)[self.pos]


def build_histograms(
    codes: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    slot_of_row: np.ndarray,
    n_slots: int,
    max_bins: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-(slot, feature, bin) gradient/hessian sums.

    Returns ``(gh, hh)`` each of shape (n_slots, n_features, max_bins).
    ``codes`` is any (n, m) integer matrix; the column-major
    ``uint8``/``uint16`` codes the numpy engine trains on are the fast
    case, because each feature's column is then one contiguous read. Rows
    with slot -1 are skipped. This is the only data-size-dependent step of
    tree growth; the Spark backend computes it per partition and sums the
    partials.
    """
    n, m = codes.shape
    gh = np.zeros((n_slots, m, max_bins), dtype=np.float64)
    hh = np.zeros((n_slots, m, max_bins), dtype=np.float64)
    rows = np.flatnonzero(slot_of_row >= 0)
    subset = rows.size < n
    if subset:
        grad, hess = grad[rows], hess[rows]
    base = slot_of_row[rows] * max_bins
    size = n_slots * max_bins
    for f in range(m):
        flat = codes[:, f].take(rows) if subset else codes[:, f]
        if n_slots > 1:
            flat = flat + base
        gh[:, f, :] = np.bincount(flat, weights=grad, minlength=size).reshape(
            n_slots, max_bins
        )
        hh[:, f, :] = np.bincount(flat, weights=hess, minlength=size).reshape(
            n_slots, max_bins
        )
    return gh, hh


def _best_split(
    gh_node: np.ndarray,
    hh_node: np.ndarray,
    mapper: BinMapper,
    reg_lambda: float,
    gamma: float,
    min_child_weight: float,
):
    """Best (gain, feature, bin, GL, HL) for one node's (m, bins) histograms."""
    G = gh_node[0, :].sum()
    H = hh_node[0, :].sum()
    parent = G * G / (H + reg_lambda) if (H + reg_lambda) > 0 else 0.0
    gl = np.cumsum(gh_node, axis=1)[:, :-1]
    hl = np.cumsum(hh_node, axis=1)[:, :-1]
    gr, hr = G - gl, H - hl
    with np.errstate(divide="ignore", invalid="ignore"):
        gain = (
            0.5
            * (gl * gl / (hl + reg_lambda) + gr * gr / (hr + reg_lambda) - parent)
            - gamma
        )
    # a split at bin b is only legal if feature f actually has edge b
    legal = np.zeros_like(gain, dtype=bool)
    for f in range(gain.shape[0]):
        legal[f, : len(mapper.edges[f])] = True
    gain = np.where(
        legal & (hl >= min_child_weight) & (hr >= min_child_weight), gain, -np.inf
    )
    if gain.size == 0 or not np.isfinite(gain).any() or np.all(gain == -np.inf):
        return (-np.inf, -1, -1, 0.0, 0.0, G, H)
    f, b = np.unravel_index(np.argmax(gain), gain.shape)
    return (
        float(gain[f, b]),
        int(f),
        int(b),
        float(gl[f, b]),
        float(hl[f, b]),
        G,
        H,
    )


def grow_tree(
    histogram_fn,
    mapper: BinMapper,
    *,
    max_depth: int = 3,
    reg_lambda: float = 1.0,
    gamma: float = 0.0,
    min_child_weight: float = 1e-3,
    learning_rate: float = 0.3,
) -> Tree:
    """Grow one tree level-wise with histogram subtraction.

    ``histogram_fn(tree, frontier) -> (gh, hh)`` returns per-slot histograms
    of shape (max(frontier)+1, m, max_bins); ``frontier`` maps slot → node
    index in ``tree.nodes``, with slots numbered 0, 1, 2, … . The frontier
    holds only the child of each split with the smaller hessian sum
    (``HL <= H − HL`` picks the left one). The sibling's histogram is the
    parent's minus that child's, so no row on a sibling is scanned: it sits
    on a node with ``feature == -1``, which :func:`assign_slots` treats as
    inactive. Child leaf values come from the split's own histogram sums
    (−G/(H+λ)·lr), so each level costs exactly one histogram pass, and
    the passes below the root read about half the rows.
    """

    def leaf_value(G: float, H: float) -> float:
        return -G / (H + reg_lambda) * learning_rate if (H + reg_lambda) > 0 else 0.0

    tree = Tree([TreeNode()])
    frontier = {0: 0}
    derived: list[tuple[int, int, int]] = []  # (node, parent, built sibling)
    parent_hists: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for _depth in range(max_depth):
        gh, hh = histogram_fn(tree, frontier)
        hists = {nid: (gh[slot], hh[slot]) for slot, nid in frontier.items()}
        for nid, parent, sibling in derived:
            pg, ph = parent_hists[parent]
            sg, sh = hists[sibling]
            hists[nid] = (pg - sg, ph - sh)
        frontier, derived = {}, []
        for nid in sorted(hists):
            gain, f, b, GL, HL, G, H = _best_split(
                *hists[nid], mapper, reg_lambda, gamma, min_child_weight
            )
            node = tree.nodes[nid]
            if gain <= 0 or f < 0:
                node.value = leaf_value(G, H)
                continue
            node.feature = f
            node.bin_threshold = b
            node.threshold = float(mapper.edges[f][b])
            node.gain = gain
            node.left = len(tree.nodes)
            tree.nodes.append(TreeNode(value=leaf_value(GL, HL)))
            node.right = len(tree.nodes)
            tree.nodes.append(TreeNode(value=leaf_value(G - GL, H - HL)))
            small, large = (
                (node.left, node.right) if HL <= H - HL else (node.right, node.left)
            )
            frontier[len(frontier)] = small
            derived.append((large, nid, small))
        parent_hists = hists
        if not frontier:
            break
    return tree
