"""Comparison methods of the evaluation: TFC and FCTree.

RAND and IMP are :class:`repro.core.pipeline.SafePipeline` with
``pairs="rand"`` / ``pairs="imp"``.
"""
from .fctree import FCTreePipeline
from .info_gain import info_gain, info_gain_from_codes
from .tfc import TFCPipeline

__all__ = [
    "TFCPipeline",
    "FCTreePipeline",
    "info_gain",
    "info_gain_from_codes",
]
