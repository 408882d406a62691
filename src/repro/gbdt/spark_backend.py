"""Distributed histogram source for :meth:`GBDTClassifier.fit_spark`.

Architecture (same as distributed XGBoost's histogram algorithm):

1. bin edges via one ``approxQuantile`` call → broadcast ``BinMapper``
   (:func:`fit_mapper_spark`);
2. the frame is materialised once as int bin codes + label and cached
   (:func:`cache_binned`);
3. each tree level is one ``mapInPandas`` scan (:func:`histogram_fn`):
   every partition recomputes its rows' margins from the broadcast
   forest-so-far, derives gradients, routes rows to frontier slots with
   the broadcast partial tree, and emits its (slot, feature, bin) →
   (Σg, Σh) partial histogram; the tiny partials are collected and summed
   on the driver (treeAggregate-style), which then runs the exact same
   :func:`repro.gbdt.tree.grow_tree` split logic as the numpy engine.

Below the root, :func:`repro.gbdt.tree.grow_tree` asks only for the
smaller child of each split and derives its sibling by subtraction. Rows
on a derived sibling reach a node with ``feature == -1`` in
:func:`repro.gbdt.tree.assign_slots`, so they are inactive in the scan:
the job count per level is unchanged and the partials shrink by about
half.

Margins are recomputed statelessly per scan (no mutable column chain, no
lineage growth); with K ≤ ~20 small trees the re-prediction cost is noise
next to the scan itself. Partition functions capture only broadcasts and
scalars, so task payloads stay small.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from .binning import BinMapper
from .boosting import logistic_grad_hess
from .tree import Tree, assign_slots, build_histograms

__all__ = ["fit_mapper_spark", "cache_binned", "histogram_fn"]


def fit_mapper_spark(
    df: DataFrame, feature_cols: list[str], n_bins: int, rel_error: float = 0.001
) -> BinMapper:
    """Quantile bin edges from ``approxQuantile`` (one distributed job)."""
    probs = list(np.linspace(0, 1, n_bins + 1)[1:-1])
    qs = df.stat.approxQuantile(feature_cols, probs, rel_error)
    edges = []
    for col_qs in qs:
        e = np.unique(np.asarray(col_qs, dtype=np.float64))
        edges.append(e)
    return BinMapper(edges=tuple(edges))


def cache_binned(
    df: DataFrame, feature_cols: list[str], label_col: str, mapper: BinMapper
) -> DataFrame:
    """``df`` as int bin codes ``c0..c{m-1}`` plus the label ``_y``,
    repartitioned, cached and materialised."""
    mapper_bc = df.sparkSession.sparkContext.broadcast(mapper)
    m = len(feature_cols)

    def to_codes(iterator):
        for pdf in iterator:
            codes = mapper_bc.value.transform(
                pdf[feature_cols].to_numpy(dtype=np.float64)
            )
            out = pd.DataFrame(
                codes, columns=[f"c{i}" for i in range(m)]
            ).astype("int32")
            out["_y"] = pdf[label_col].to_numpy(dtype=np.float64)
            yield out

    code_cols = ", ".join(f"c{i} int" for i in range(m))
    binned = df.select(*feature_cols, label_col).mapInPandas(
        to_codes, schema=f"{code_cols}, _y double"
    )
    # right-size partitions: histogram passes are scan-bound, so a
    # handful of fat partitions beats default parallelism on small data
    n_rows = df.count()
    n_parts = int(max(2, min(32, np.ceil(n_rows / 25_000))))
    binned = binned.repartition(n_parts).cache()
    binned.count()  # materialise before iterating
    return binned


def histogram_fn(
    binned: DataFrame, trees: list[Tree], base_margin: float, mapper: BinMapper
):
    """``grow_tree``'s histogram callback for the next tree after ``trees``:
    one ``mapInPandas`` scan of ``binned`` per call."""
    sc = binned.sparkSession.sparkContext
    trees_bc = sc.broadcast(trees)
    m, max_bins = mapper.n_features, mapper.max_bins

    def hist_fn(tree, frontier):
        n_slots = max(frontier) + 1
        tree_bc = sc.broadcast((tree, dict(frontier)))

        def partial(iterator):
            ptree, pfrontier = tree_bc.value
            for pdf in iterator:
                codes = (
                    pdf[[f"c{i}" for i in range(m)]]
                    .to_numpy()
                    .astype(np.int32)
                )
                y = pdf["_y"].to_numpy(dtype=np.float64)
                margin = np.full(len(y), base_margin)
                for t in trees_bc.value:
                    margin += t.predict_binned(codes)
                grad, hess = logistic_grad_hess(margin, y)
                slots = assign_slots(ptree, pfrontier, codes)
                gh, hh = build_histograms(
                    codes, grad, hess, slots, n_slots, max_bins
                )
                s_i, f_i, b_i = np.nonzero((gh != 0) | (hh != 0))
                yield pd.DataFrame(
                    {
                        "slot": s_i.astype(np.int32),
                        "feat": f_i.astype(np.int32),
                        "bin": b_i.astype(np.int32),
                        "g": gh[s_i, f_i, b_i],
                        "h": hh[s_i, f_i, b_i],
                    }
                )

        # per-partition partials are tiny (≤ slots·m·bins rows each);
        # summing them on the driver is the classic treeAggregate endgame
        # and avoids a shuffle per level
        agg = binned.mapInPandas(
            partial,
            schema="slot int, feat int, bin int, g double, h double",
        ).toPandas()
        gh = np.zeros((n_slots, m, max_bins))
        hh = np.zeros((n_slots, m, max_bins))
        s = agg["slot"].to_numpy()
        f = agg["feat"].to_numpy()
        b = agg["bin"].to_numpy()
        np.add.at(gh, (s, f, b), agg["g"].to_numpy())
        np.add.at(hh, (s, f, b), agg["h"].to_numpy())
        return gh, hh

    return hist_fn
