"""Cooperative games: one protocol, one evaluator, one estimator suite.

The unification layer the tutorial's structure implies: SHAP/QII, Data
Shapley, Shapley of tuples, asymmetric and causal Shapley are all
Shapley values over different cooperative games, so the library defines
the game once (:mod:`repro.games.base`), evaluates every game through
the same cached/chunked/guarded pipeline (:mod:`repro.games.engine`),
estimates with a shared suite (:mod:`repro.games.estimators`), and
adapts each workload in :mod:`repro.games.adapters`.

One walk scheduler: :func:`~repro.games.estimators.permutation_estimator`
and :func:`~repro.games.estimators.kernel_wls_estimator` are the only
code that draws walks or coalition designs, dedupes coalitions (through
the evaluator's cache) and reduces walks — for one instance and for a
batch alike, since a game over a matrix of instances returns one row of
values per coalition. ``explain_batch`` of the Shapley explainers is one
estimate over such a game, not a second scheduler.

A bespoke-loop lint (the ``bespoke-shapley`` rule of ``scripts/lint.py``,
enforced in tier-1) keeps new permutation-accumulation loops from growing
back anywhere but ``estimators.py``.
"""

from .adapters import (
    DataValueGame,
    FeatureMaskingGame,
    GradientGame,
    InterventionalGame,
    TopologicalGame,
    TupleProvenanceGame,
    sample_topological_order,
)
from .base import BaseGame, FunctionGame, Game, as_game, walk_masks
from .engine import coalition_value, game_value_function
from .estimators import (
    EstimatorState,
    PermutationEstimate,
    all_coalitions,
    exact_enumeration,
    kernel_wls_estimator,
    permutation_estimator,
    shapley_kernel_weight,
    solve_kernel_wls,
    stratified_estimator,
)

__all__ = [
    "Game",
    "BaseGame",
    "FunctionGame",
    "as_game",
    "walk_masks",
    "game_value_function",
    "coalition_value",
    "EstimatorState",
    "solve_kernel_wls",
    "PermutationEstimate",
    "all_coalitions",
    "exact_enumeration",
    "permutation_estimator",
    "kernel_wls_estimator",
    "stratified_estimator",
    "shapley_kernel_weight",
    "FeatureMaskingGame",
    "DataValueGame",
    "TupleProvenanceGame",
    "TopologicalGame",
    "InterventionalGame",
    "GradientGame",
    "sample_topological_order",
]
