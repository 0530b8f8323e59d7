"""Training-data valuation (§2.3.1)."""

from .data_shapley import tmc_shapley
from .distributional import (
    beta_shapley,
    beta_weights,
    distributional_shapley,
)
from .gradient_shapley import gradient_shapley
from .knn_shapley import knn_shapley
from .loo import leave_one_out_values
from .utility import UtilityFunction

__all__ = [
    "UtilityFunction",
    "leave_one_out_values",
    "tmc_shapley",
    "gradient_shapley",
    "knn_shapley",
    "distributional_shapley",
    "beta_shapley",
    "beta_weights",
]
