"""Method × classifier sweep harness (Tables III and VIII).

``fit_method`` builds the feature plan for one method name; ``evaluate_plan``
trains each requested classifier on Ψ(train) and scores AUC on Ψ(test);
``run_dataset`` sweeps methods × classifiers with repeats and returns a
long-format pandas frame, which the table jobs pivot into the paper's
layout.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd

from ..baselines import FCTreePipeline, TFCPipeline
from ..core.pipeline import SafePipeline
from ..core.plan import FeaturePlan
from ..models import make_classifier
from ..models.evaluation import auc_score
from .datasets import LABEL_COL, DatasetSpec, make_dataset

__all__ = ["METHODS", "fit_method", "evaluate_plan", "run_dataset", "MethodResult"]

METHODS: tuple[str, ...] = ("ORIG", "FCT", "TFC", "RAND", "IMP", "SAFE")

#: classifiers whose RNG matters — reseeded per repeat
_SEEDED = {"AB", "DT", "ET", "MLP", "RF", "XGB"}


@dataclass
class MethodResult:
    plan: FeaturePlan
    fit_seconds: float


def fit_method(
    name: str,
    train,
    label_col: str = LABEL_COL,
    valid: pd.DataFrame | None = None,
    seed: int = 0,
    engine: str = "local",
    **overrides,
) -> MethodResult:
    """Fit one comparison method, returning its plan and wall-clock fit time.

    All methods follow the benchmark protocol (§V-A1): one iteration, the
    four arithmetic operators, output capped at 2·M features. ``train`` is
    a pandas frame; ORIG, RAND, IMP and SAFE also take a Spark frame
    (with ``engine='spark'`` the fit stays distributed).
    """
    t0 = time.time()
    if name == "ORIG":
        cols = [c for c in train.columns if c != label_col]
        plan = FeaturePlan.identity(cols, label_col)
    elif name == "FCT":
        plan = FCTreePipeline(random_state=seed, **overrides).fit(train, label_col, valid)
    elif name == "TFC":
        plan = TFCPipeline(**overrides).fit(train, label_col, valid)
    elif name in ("RAND", "IMP", "SAFE"):
        plan = SafePipeline(pairs=name.lower(), random_state=seed, **overrides).fit(
            train, label_col, valid, engine=engine
        )
    else:
        raise KeyError(f"unknown method {name!r}; known: {METHODS}")
    return MethodResult(plan, time.time() - t0)


def evaluate_plan(
    plan: FeaturePlan,
    train: pd.DataFrame,
    test: pd.DataFrame,
    classifiers: tuple[str, ...],
    label_col: str = LABEL_COL,
    seed: int = 0,
) -> dict[str, float]:
    """AUC of each classifier trained on Ψ(train), scored on Ψ(test)."""
    ftr = plan.apply_pandas(train)
    fte = plan.apply_pandas(test)
    Xtr = ftr.drop(columns=[label_col]).to_numpy(dtype=np.float64)
    ytr = ftr[label_col].to_numpy().astype(np.int64)
    Xte = fte.drop(columns=[label_col]).to_numpy(dtype=np.float64)
    yte = fte[label_col].to_numpy().astype(np.int64)
    out: dict[str, float] = {}
    for clf in classifiers:
        kw = {"random_state": seed} if clf in _SEEDED else {}
        model = make_classifier(clf, **kw)
        model.fit(Xtr, ytr)
        out[clf] = auc_score(yte, model.predict_proba(Xte)[:, 1])
    return out


def run_dataset(
    spec: DatasetSpec,
    methods: tuple[str, ...] = METHODS,
    classifiers: tuple[str, ...] = ("LR", "XGB"),
    n_repeats: int = 1,
    base_seed: int = 0,
) -> pd.DataFrame:
    """Long-format sweep result: dataset, method, clf, repeat, auc, fit_s."""
    train, valid, test = make_dataset(spec)
    rows = []
    for rep in range(n_repeats):
        seed = base_seed + rep
        for method in methods:
            res = fit_method(method, train, LABEL_COL, valid, seed=seed)
            aucs = evaluate_plan(res.plan, train, test, classifiers, seed=seed)
            for clf, auc in aucs.items():
                rows.append(
                    {
                        "dataset": spec.name,
                        "method": method,
                        "clf": clf,
                        "repeat": rep,
                        "auc": auc,
                        "fit_seconds": res.fit_seconds,
                        "n_features": len(res.plan.output_columns),
                    }
                )
    return pd.DataFrame(rows)
