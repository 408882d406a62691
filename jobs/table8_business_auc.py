"""Table VIII — classification AUC on the business-scale datasets.

The feature-engineering fit runs on the **distributed Spark engine**
(SparkEngine + ``GBDTClassifier.fit_spark``: approxQuantile binning,
mapInPandas histogram partials, distributed IV / Pearson / gain-ratio),
through the same ``runner.fit_method`` as Table III — the setting
that makes this the paper's scalability experiment. Downstream evaluation
classifiers (LR, RF, XGB — the paper's Table VIII set) train driver-side
on the Ψ-transformed frames, mirroring the paper where the classifier is a
consumer of the generated features, not part of the framework.

TFC/FCTree are excluded exactly as in the paper (execution time too long
at this scale).

    python jobs/table8_business_auc.py [--scale 1.0] [--datasets Data1]
"""
import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pandas as pd

sys.path.insert(0, str(Path(__file__).resolve().parent))
import _common  # noqa: E402
from _common import emit, get_spark  # noqa: E402

from repro.experiments.datasets import BUSINESS_DATASETS, LABEL_COL, make_dataset  # noqa: E402
from repro.experiments.runner import fit_method  # noqa: E402
from repro.models import make_classifier  # noqa: E402
from repro.models.evaluation import auc_score  # noqa: E402

METHODS = ("ORIG", "RAND", "IMP", "SAFE")
CLFS = ("LR", "RF", "XGB")

# modest distributed-GBDT budget: Eq. 13 — feature budget ∝ K·D
GBDT = {"n_estimators": 10, "max_depth": 3}
# business-scale evaluation classifiers, sized for ~100k-row driver fits
CLF_PARAMS = {
    "RF": {"n_estimators": 30, "max_depth": 10},
    "XGB": {"n_estimators": 30, "max_depth": 4},
    "LR": {},
}


def main(spark=None, scale=1.0, datasets=None):
    spark = spark or get_spark()
    rows = []
    for spec in BUSINESS_DATASETS:
        if datasets is not None and spec.name not in datasets:
            continue
        if scale != 1.0:
            spec = replace(
                spec,
                n_train=int(spec.n_train * scale),
                n_valid=int(spec.n_valid * scale),
                n_test=int(spec.n_test * scale),
            )
        train, valid, test = make_dataset(spec)
        sdf = spark.createDataFrame(pd.concat([train, valid], ignore_index=True))
        for method in METHODS:
            res = fit_method(
                method, sdf, LABEL_COL, engine="spark", mining_gbdt=GBDT, ranking_gbdt=GBDT
            )
            plan, fit_s = res.plan, res.fit_seconds
            ftr = plan.apply_pandas(train)
            fte = plan.apply_pandas(test)
            Xtr = ftr.drop(columns=LABEL_COL).to_numpy(dtype=np.float64)
            ytr = ftr[LABEL_COL].to_numpy().astype(np.int64)
            Xte = fte.drop(columns=LABEL_COL).to_numpy(dtype=np.float64)
            yte = fte[LABEL_COL].to_numpy().astype(np.int64)
            for clf in CLFS:
                model = make_classifier(clf, **CLF_PARAMS[clf])
                model.fit(Xtr, ytr)
                auc = auc_score(yte, model.predict_proba(Xte)[:, 1])
                rows.append(
                    {
                        "Dataset": spec.name,
                        "CLF": clf,
                        "method": method,
                        "auc": round(100 * auc, 2),
                        "fe_fit_seconds": round(fit_s, 1),
                    }
                )
            print(
                f"[table8] {spec.name} {method}: fe={fit_s:.1f}s "
                f"(features={len(plan.output_columns)})",
                file=sys.stderr,
            )
    long = pd.DataFrame(rows)
    table = (
        long.pivot_table(index=["Dataset", "CLF"], columns="method", values="auc")
        .reindex(columns=list(METHODS))
        .reset_index()
    )
    emit(
        "table8",
        "Table VIII — classification performance on business data sets (100·AUC)",
        table,
        f"scale={scale} of the registry sizes (paper: 2.5M–8M rows; "
        "DESIGN.md §5); FE fitted on the distributed Spark engine.",
    )
    long.to_csv(_common.RESULTS_DIR / "table8_long.csv", index=False)
    return table


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--datasets", type=str, default=None)
    args = ap.parse_args()
    main(
        scale=args.scale,
        datasets=set(args.datasets.split(",")) if args.datasets else None,
    )
