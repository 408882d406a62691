"""XGBoost substrate: from-scratch histogram GBDT (numpy + Spark backends)."""
from .binning import BinMapper, fit_bin_mapper
from .boosting import GBDTClassifier, logistic_grad_hess, sigmoid
from .tree import RowPositions, Tree, TreeNode, assign_slots, build_histograms, grow_tree

__all__ = [
    "BinMapper",
    "fit_bin_mapper",
    "GBDTClassifier",
    "sigmoid",
    "logistic_grad_hess",
    "Tree",
    "TreeNode",
    "RowPositions",
    "grow_tree",
    "assign_slots",
    "build_histograms",
]
