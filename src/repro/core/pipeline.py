"""SAFE orchestration — paper Algorithm 1, and the RAND/IMP ablations.

``SafePipeline.fit`` runs the iterative generate→select loop and returns a
:class:`repro.core.plan.FeaturePlan` (the learned Ψ). Per iteration:

1. propose γ index pairs of the current base features (``pairs``):
   * ``"safe"``: train the XGBoost substrate on the base features (+ the
     validation frame when given, as the paper trains on
     D_train ∪ D_valid), mine feature combinations from same-path split
     features (§IV-B1), sort them by information gain ratio and keep the
     top γ (Alg. 2);
   * ``"rand"``: draw γ of all pairs (RAND, §V-A1);
   * ``"imp"``: draw γ pairs among the split features of the same
     XGBoost model (IMP, §V-A1);
2. apply the operator set to the proposed pairs → generated features;
3. select from base ∪ generated with IV → Pearson → importance (Alg. 3/4);
4. the selection becomes the next iteration's base features.

RAND and IMP "follow the same feature selection process as SAFE", so only
step 1 differs. The loop ends after ``n_iterations`` or ``time_budget_s``
(the paper's nIter/tIter), or early when an iteration leaves the feature
set unchanged (paper §V-A6: "the features will not be updated, and the
performance keeps unchanged").
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame

from .combos import mine_combos
from .correlation import DEFAULT_THETA
from .engine import LocalEngine, SparkEngine
from .gain_ratio import top_combos
from .iv import DEFAULT_ALPHA, DEFAULT_BETA
from .operators import DEFAULT_BINARY_OPS, pair_specs
from .plan import FeaturePlan, FeatureSpec
from .selection import select_features

__all__ = ["SafePipeline", "SafeFitReport"]

Pairs = list[tuple[int, int]]


@dataclass
class SafeFitReport:
    """Per-iteration diagnostics collected during ``fit``.

    ``n_paths`` counts the mining model's paths (0 for RAND, which trains
    none) and ``n_combos`` the candidate pairs the γ were taken from.
    """

    iterations: list[dict] = field(default_factory=list)
    fit_seconds: float = 0.0


def _draw(pool: Pairs, gamma: int, rng: np.random.Generator) -> Pairs:
    """γ distinct pairs of ``pool`` drawn uniformly (all when fewer)."""
    if not pool:
        return []
    take = min(gamma, len(pool))
    return [pool[i] for i in rng.choice(len(pool), size=take, replace=False)]


def _propose_safe(pipe, eng, base, gamma, rng) -> tuple[Pairs, int, int]:
    model = eng.fit_gbdt(base, **pipe.mining_gbdt)
    paths = model.paths()
    combos = mine_combos(paths, sizes=(2,), max_cells=pipe.max_cells)
    if not combos:
        return [], len(paths), 0
    kept = top_combos(combos, eng.gain_ratios(base, combos), gamma)
    return [c.features for c in kept], len(paths), len(combos)


def _propose_rand(pipe, eng, base, gamma, rng) -> tuple[Pairs, int, int]:
    pool = list(combinations(range(len(base)), 2))
    return _draw(pool, gamma, rng), 0, len(pool)


def _propose_imp(pipe, eng, base, gamma, rng) -> tuple[Pairs, int, int]:
    model = eng.fit_gbdt(base, **pipe.mining_gbdt)
    pool = list(combinations(sorted(model.split_features()), 2))
    return _draw(pool, gamma, rng), len(model.paths()), len(pool)


#: step 1 of the loop per ``pairs`` value: (pairs, n_paths, n_combos)
_PROPOSALS = {"safe": _propose_safe, "rand": _propose_rand, "imp": _propose_imp}


@dataclass
class SafePipeline:
    """Scalable Automatic Feature Engineering (the paper's method).

    Hyper-parameters follow the paper: ``alpha``/``beta`` (Alg. 3),
    ``theta`` (Alg. 4), γ top combinations, output cap ``top_k`` (the
    benchmark protocol's 2M), and the two XGBoost configurations (K₁/D₁
    mining model, K₂/D₂ ranking model — Eq. 13 ties the feature budget to
    K·D). ``operators`` defaults to the evaluation's {+, −, ×, ÷}.
    ``pairs`` picks SAFE's mined pairs or the RAND/IMP ablations;
    ``random_state`` seeds the RAND/IMP draws (the GBDT seeds stay in
    ``mining_gbdt``/``ranking_gbdt``).
    """

    n_iterations: int = 1
    time_budget_s: float | None = None
    operators: tuple[str, ...] = DEFAULT_BINARY_OPS
    gamma: int | None = None  # default 2·M pairs
    top_k: int | None = None  # default 2·M output features
    alpha: float = DEFAULT_ALPHA
    beta: int = DEFAULT_BETA
    theta: float = DEFAULT_THETA
    mining_gbdt: dict = field(
        default_factory=lambda: {"n_estimators": 20, "max_depth": 3}
    )
    ranking_gbdt: dict = field(
        default_factory=lambda: {"n_estimators": 20, "max_depth": 3}
    )
    max_cells: int = 4096
    pairs: str = "safe"  # "safe" | "rand" | "imp"
    random_state: int = 0

    report_: SafeFitReport | None = None

    # ------------------------------------------------------------------
    def fit(
        self,
        train,
        label_col: str,
        valid=None,
        engine: str = "auto",
    ) -> FeaturePlan:
        """Learn Ψ from a pandas or Spark training frame.

        ``engine='auto'`` picks ``local`` for pandas input and ``spark``
        for Spark input; pass explicitly to force (a Spark frame with
        ``engine='local'`` is collected to the driver via Arrow).
        """
        if self.pairs not in _PROPOSALS:
            raise ValueError(
                f"pairs must be one of {sorted(_PROPOSALS)}, got {self.pairs!r}"
            )
        propose = _PROPOSALS[self.pairs]
        eng = self._make_engine(train, label_col, valid, engine)
        t0 = time.time()
        self.report_ = SafeFitReport()
        # distinct stream per ablation so RAND and IMP draw different pairs
        # even when IMP's split-feature pool equals the full feature set
        rng = np.random.default_rng([self.random_state, 1 if self.pairs == "imp" else 0])

        base = eng.feature_columns
        m0 = len(base)
        gamma = self.gamma or 2 * m0
        top_k = self.top_k or 2 * m0
        all_specs: list[FeatureSpec] = []
        existing = set(base)

        for it in range(self.n_iterations):
            if (
                self.time_budget_s is not None
                and time.time() - t0 > self.time_budget_s
            ):
                break
            # 1. propose γ index pairs of the base features
            pairs, n_paths, n_combos = propose(self, eng, base, gamma, rng)
            if not pairs:
                break
            # 2. generate: apply the operator set to each proposed pair
            new_specs: list[FeatureSpec] = []
            for i, j in pairs:
                for op_name, inputs in pair_specs(base[i], base[j], self.operators):
                    spec = FeatureSpec(op_name, inputs)
                    if spec.name not in existing:
                        new_specs.append(spec)
                        existing.add(spec.name)
            eng.add_generated(new_specs)
            all_specs.extend(new_specs)
            # 3. select from base ∪ generated
            candidates = base + [s.name for s in new_specs]
            report = select_features(
                eng,
                candidates,
                alpha=self.alpha,
                beta=self.beta,
                theta=self.theta,
                top_k=top_k,
                gbdt_params=self.ranking_gbdt,
            )
            selected = report["selected"]
            self.report_.iterations.append(
                {
                    "iteration": it,
                    "n_paths": n_paths,
                    "n_combos": n_combos,
                    "n_generated": len(new_specs),
                    "n_informative": len(report["informative"]),
                    "n_nonredundant": len(report["nonredundant"]),
                    "n_selected": len(selected),
                }
            )
            if set(selected) == set(base):
                base = selected
                break  # fixed point: no new useful combinations (§V-A6)
            base = selected

        self.report_.fit_seconds = time.time() - t0
        return FeaturePlan(all_specs, base, label_col).pruned()

    # ------------------------------------------------------------------
    @staticmethod
    def _make_engine(train, label_col, valid, engine: str):
        if engine == "auto":
            engine = "spark" if isinstance(train, DataFrame) else "local"
        if engine == "local":
            if isinstance(train, DataFrame):
                train = train.toPandas()
            if valid is not None:
                vpdf = valid.toPandas() if isinstance(valid, DataFrame) else valid
                train = pd.concat([train, vpdf], ignore_index=True)
            return LocalEngine(train, label_col)
        if engine == "spark":
            if not isinstance(train, DataFrame):
                raise TypeError("engine='spark' needs a Spark DataFrame")
            df = train if valid is None else train.unionByName(valid)
            return SparkEngine(df, label_col)
        raise ValueError(f"unknown engine {engine!r}")
