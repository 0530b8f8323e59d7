"""Data Shapley with truncated Monte-Carlo estimation [Ghorbani & Zou 2019].

The Data Shapley value of training point i is its Shapley value in the
game whose players are training points and whose value is the trained
model's validation performance. TMC-Shapley estimates it by sampling
permutations of the training set, scanning each permutation left to right
while retraining incrementally, and *truncating* the scan once the
running utility is within a tolerance of the full-data score — the
paper's key trick, since late marginal contributions are ~0.

The walk loop lives in the shared estimator suite
(:func:`repro.games.estimators.permutation_estimator` with
``truncation_tolerance`` set and ``aggregate="sum_counts"``), run over a
:class:`repro.games.DataValueGame`.
"""

from __future__ import annotations

from ..core.explanation import DataAttribution
from ..games.adapters import DataValueGame
from ..games.estimators import permutation_estimator
from .utility import UtilityFunction

__all__ = ["tmc_shapley"]


def tmc_shapley(
    utility: UtilityFunction,
    n_permutations: int = 200,
    truncation_tolerance: float = 0.01,
    seed: int = 0,
    backend: str | None = None,
    n_procs: int | None = None,
) -> DataAttribution:
    """TMC-Shapley values of every training point.

    Parameters
    ----------
    n_permutations:
        Monte-Carlo permutations sampled.
    truncation_tolerance:
        Stop scanning a permutation once |U(prefix) − U(D)| falls below
        this tolerance; remaining points in the permutation receive zero
        marginal contribution for that pass.
    backend:
        Execution backend (:mod:`repro.exec`). Permutation walks shard
        across workers (bitwise-identical values); each worker retrains
        on its own permutations, and their utility memo tables plus
        ``datavalue.cache.*`` counters are merged back into ``utility``
        on join.
    """
    game = DataValueGame(utility)
    full_score = utility.full_score()
    est = permutation_estimator(
        game,
        n_permutations=n_permutations,
        antithetic=False,
        seed=seed,
        truncation_tolerance=truncation_tolerance,
        truncation_target=full_score,
        empty_value=utility.empty_score,
        aggregate="sum_counts",
        backend=backend,
        n_procs=n_procs,
    )
    return DataAttribution(
        values=est.values,
        method="tmc_shapley",
        meta={
            "full_score": full_score,
            "n_permutations": n_permutations,
            "mean_truncation_position": est.diagnostics.get(
                "mean_truncation_position", float(utility.n_points)
            ),
            "n_utility_evaluations": utility.n_evaluations,
            "convergence": est.diagnostics,
        },
    )
