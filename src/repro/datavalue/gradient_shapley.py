"""G-Shapley: gradient-based Data Shapley approximation [Ghorbani & Zou 2019].

For models trained by gradient descent, retraining on every permutation
prefix is replaced by a single online-SGD epoch through the permutation:
each point's marginal contribution is the change in validation
performance caused by *its own gradient step*. One model pass per
permutation instead of n retrainings — the approximation that makes Data
Shapley feasible for larger models.

The SGD walk lives in :class:`repro.games.GradientGame` (a
path-dependent game handing whole permutations to
:func:`repro.games.estimators.permutation_estimator`).

Implemented for :class:`repro.models.logistic.LogisticRegression`-style
models exposing ``grad``/``params``/``set_params_vector``.
"""

from __future__ import annotations

import numpy as np

from ..core.explanation import DataAttribution
from ..games.adapters import GradientGame
from ..games.estimators import permutation_estimator
from ..models.metrics import accuracy

__all__ = ["gradient_shapley"]


def gradient_shapley(
    model_factory,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    n_permutations: int = 100,
    learning_rate: float = 0.05,
    metric=accuracy,
    seed: int = 0,
) -> DataAttribution:
    """G-Shapley values of every training point.

    ``model_factory`` must build a differentiable model; each permutation
    starts from freshly initialized (zero) parameters and performs one
    SGD step per point in permutation order.
    """
    game = GradientGame(
        model_factory, X_train, y_train, X_val, y_val,
        learning_rate=learning_rate, metric=metric,
    )
    est = permutation_estimator(
        game,
        n_permutations=n_permutations,
        antithetic=False,
        seed=seed,
        aggregate="sum_counts",
    )
    return DataAttribution(
        values=est.values,
        method="gradient_shapley",
        meta={
            "n_permutations": n_permutations,
            "learning_rate": learning_rate,
            "convergence": est.diagnostics,
        },
    )
