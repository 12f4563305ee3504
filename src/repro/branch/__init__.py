"""Branch direction prediction (bimodal, per the paper's Table 2)."""

from .predictors import (BimodalPredictor, BranchPredictor, PredictorStats,
                         make_predictor)

__all__ = ["BimodalPredictor", "BranchPredictor", "PredictorStats",
           "make_predictor"]
