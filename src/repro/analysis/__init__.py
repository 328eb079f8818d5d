"""Interpretation of suite results: knees, slopes, boundedness, prediction.

The paper's figures are read through a handful of recurring questions —
*where does the bottleneck flip* (ALU:Fetch knee), *how steep is the
latency line* (read/write slopes), *which resource binds* — and this
package answers them programmatically so the experiment report can state
paper-vs-measured comparisons with numbers rather than eyeballs.
"""

from repro.analysis.knees import KneeAnalysis, find_knee
from repro.analysis.fits import LinearFit, linear_fit, slope_ratio
from repro.analysis.model import PredictedTime, predict_launch_seconds
from repro.analysis.optimizer import (
    CANDIDATE_BLOCKS,
    Trial,
    TuningResult,
    balance_alu_fetch,
    tune_block_size,
    tune_register_pressure,
)

__all__ = [
    "CANDIDATE_BLOCKS",
    "KneeAnalysis",
    "LinearFit",
    "PredictedTime",
    "find_knee",
    "linear_fit",
    "Trial",
    "TuningResult",
    "balance_alu_fetch",
    "predict_launch_seconds",
    "slope_ratio",
    "tune_block_size",
    "tune_register_pressure",
]
