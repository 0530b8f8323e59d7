"""Monte-Carlo Shapley estimation by permutation sampling.

The Shapley value is the expectation, over a uniformly random permutation
π of the players, of the marginal contribution of player i to the set of
players preceding it:

    φ_i = E_π[ v(pre_π(i) ∪ {i}) − v(pre_π(i)) ].

Sampling permutations (Castro et al. 2009) gives an unbiased estimator
whose error decays as O(1/√m); the antithetic variant pairs each
permutation with its reverse, which cancels much of the variance for
roughly symmetric games. E2 plots exactly this convergence.

The walk loop itself lives in the shared estimator suite
(:func:`repro.games.estimators.permutation_estimator`, ``mean_walks``
mode) — this module keeps the historical ``(phi, std_err)`` API and the
explainer on top.

Graceful degradation: when the guarded runtime's deadline or model-query
budget runs out mid-estimate (:class:`repro.robust.BudgetExceededError`),
the walks already completed still form an unbiased — just noisier —
estimator, so the sampler stops early and returns it instead of raising.
``return_diagnostics=True`` exposes the convergence record the explainers
surface in ``meta["convergence"]``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.base import AttributionExplainer
from ..core.explanation import FeatureAttribution
from ..core.coalition_engine import CoalitionEngine
from ..games.adapters import FeatureMaskingGame
from ..games.engine import coalition_value
from ..games.estimators import permutation_estimator
from ..robust.guard import budgets_in_force, check_instance

__all__ = [
    "permutation_shapley",
    "SamplingShapleyExplainer",
]


def permutation_shapley(
    value_fn: Callable[[np.ndarray], np.ndarray],
    n_players: int,
    n_permutations: int = 100,
    antithetic: bool = True,
    seed: int = 0,
    return_diagnostics: bool = False,
    backend: str | None = None,
    n_procs: int | None = None,
) -> tuple[np.ndarray, np.ndarray] | tuple[np.ndarray, np.ndarray, dict]:
    """Estimate Shapley values from random permutations.

    Returns ``(phi, std_err)`` — the estimates and their per-player
    standard errors over sampled permutations. With
    ``return_diagnostics=True`` a third element records convergence:
    ``{"converged", "n_walks_completed", "n_walks_requested",
    "budget_error"}``. A :class:`BudgetExceededError` raised by the
    value function stops sampling early; if at least one walk finished,
    the partial estimate is returned (``converged=False``), otherwise
    the error propagates. ``backend`` selects the execution backend
    (:mod:`repro.exec`) — sharding only applies when ``value_fn`` is a
    shard-eligible :class:`~repro.games.base.Game`, and the estimate is
    bitwise-identical whichever backend runs it.
    """
    est = permutation_estimator(
        value_fn,
        n_players=n_players,
        n_permutations=n_permutations,
        antithetic=antithetic,
        seed=seed,
        aggregate="mean_walks",
        backend=backend,
        n_procs=n_procs,
    )
    if not return_diagnostics:
        return est.values, est.std_err
    return est.values, est.std_err, est.diagnostics


class SamplingShapleyExplainer(AttributionExplainer):
    """Model-agnostic sampled SHAP with the interventional value function.

    Coalitions are evaluated as a :class:`repro.games.FeatureMaskingGame`
    through the shared games evaluator: permutation walks re-visit many
    coalitions (every walk hits ∅ and N; antithetic pairs and short
    prefixes collide constantly on small feature counts), and the
    packed-bit value cache turns those repeats into dictionary lookups
    instead of model queries.
    """

    method_name = "sampling_shap"

    def __init__(
        self,
        model,
        background: np.ndarray,
        n_permutations: int = 100,
        antithetic: bool = True,
        max_background: int = 100,
        output: str = "auto",
        seed: int = 0,
        max_batch_rows: int | None = None,
        guard=None,
        backend: str | None = None,
        n_procs: int | None = None,
    ) -> None:
        super().__init__(model, output, guard=guard)
        self.sampler = CoalitionEngine(
            background, max_background=max_background, max_batch_rows=max_batch_rows
        )
        self.n_permutations = n_permutations
        self.antithetic = antithetic
        self.seed = seed
        self.backend = backend
        self.n_procs = n_procs

    def explain(self, x: np.ndarray, feature_names: list[str] | None = None
                ) -> FeatureAttribution:
        x = check_instance(x, self.sampler.background.shape[1])
        return self._explain_rows(x[None, :], feature_names, self.backend,
                                  self.n_procs)[0]

    def _explain_rows(self, X, feature_names=None, backend=None,
                      n_procs=None) -> list[FeatureAttribution]:
        """Explain every row of ``X`` with one permutation estimate.

        One :class:`FeatureMaskingGame` over the rows (over the lone
        instance for a single row) gives each coalition a row of values,
        so the walks are drawn, deduplicated and reduced once for the
        whole batch, and each row's attribution is the bits of its
        one-row run.
        """
        n = X.shape[1]
        # The estimator gets the *game object*: only it carries the
        # deterministic/shardable capabilities the exec backend gates on,
        # and every evaluator over it shares the game's value store.
        game = FeatureMaskingGame(self.predict_fn, X[0] if len(X) == 1 else X,
                                  engine=self.sampler)
        empty = np.zeros(n, dtype=bool)
        # Predictions first, one call per row; under a budget the base
        # value too, so a partial estimate is still reportable. Without
        # one, the walks (which start at ∅) leave v(∅) in the store.
        predictions = [float(self.predict_fn(x[None, :])[0]) for x in X]
        base = coalition_value(game, empty) if budgets_in_force() else None
        phi, std_err, convergence = permutation_shapley(
            game, n,
            n_permutations=self.n_permutations,
            antithetic=self.antithetic,
            seed=self.seed,
            return_diagnostics=True,
            backend=backend,
            n_procs=n_procs,
        )
        if base is None:
            base = coalition_value(game, empty)
        names = feature_names or [f"x{i}" for i in range(n)]
        phi, std_err = _per_row(phi, len(X)), _per_row(std_err, len(X))
        base = np.reshape(base, -1)
        return [
            FeatureAttribution(
                values=phi[r],
                feature_names=names,
                base_value=float(base[r]),
                prediction=predictions[r],
                method=self.method_name,
                meta={"std_err": std_err[r],
                      "n_permutations": self.n_permutations,
                      "convergence": dict(convergence)},
            )
            for r in range(len(X))
        ]


def _per_row(values: np.ndarray, n_rows: int) -> np.ndarray:
    """``(n_rows, n_players)``: one contiguous row per instance, from an
    estimate whose trailing axis (absent for one instance) holds them."""
    return np.ascontiguousarray(values.reshape(values.shape[0], n_rows).T)
