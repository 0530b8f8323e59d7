"""Kernel SHAP: Shapley values via weighted linear regression [Lundberg & Lee].

Kernel SHAP recovers Shapley values as the solution of a weighted least
squares problem over coalitions z ∈ {0,1}^n:

    min_φ Σ_S π(S) (v(S) − φ_0 − Σ_{i∈S} φ_i)²,
    π(S) = (n − 1) / (C(n,|S|) · |S| · (n − |S|)),

with the efficiency constraint φ_0 = v(∅), Σφ_i = v(N) − v(∅) imposed
exactly by variable elimination. Coalition enumeration follows the
reference implementation: subset sizes are filled from both ends (size 1
and n−1 first, which carry the most kernel weight) and enumerated
completely while the budget allows; any leftover budget samples the
remaining sizes proportionally to their weight.

The solver lives in the shared estimator suite
(:func:`repro.games.estimators.kernel_wls_estimator`); this module
keeps the historical names and the explainer on top.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.base import AttributionExplainer
from ..core.explanation import FeatureAttribution
from ..core.coalition_engine import CoalitionEngine
from ..games.adapters import FeatureMaskingGame
from ..games.estimators import kernel_wls_estimator, shapley_kernel_weight
from ..robust.guard import check_instance
from .sampling import _per_row

__all__ = ["kernel_shap", "shapley_kernel_weight", "KernelShapExplainer"]


def kernel_shap(
    value_fn: Callable[[np.ndarray], np.ndarray],
    n_players: int,
    n_samples: int = 2048,
    seed: int = 0,
    backend: str | None = None,
    n_procs: int | None = None,
) -> tuple[np.ndarray, float]:
    """Kernel SHAP estimate; returns ``(phi, base_value)``.

    ``n_samples`` bounds the number of coalition evaluations (in addition
    to the empty and grand coalitions, which are always evaluated).
    ``backend`` (:mod:`repro.exec`) shards the coalition evaluations
    when ``value_fn`` is a shard-eligible game — bitwise-identical
    output either way.
    """
    return kernel_wls_estimator(
        value_fn, n_players=n_players, n_samples=n_samples, seed=seed,
        backend=backend, n_procs=n_procs,
    )


class KernelShapExplainer(AttributionExplainer):
    """Model-agnostic Kernel SHAP with the interventional value function.

    Parameters
    ----------
    background:
        Background sample; absent features are imputed from it.
    n_samples:
        Coalition evaluation budget per explanation.
    max_batch_rows:
        Memory bound on rows per model call (see the coalition engine).
    """

    method_name = "kernel_shap"

    def __init__(
        self,
        model,
        background: np.ndarray,
        n_samples: int = 2048,
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
        self.n_samples = n_samples
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
        """Explain every row of ``X`` with one coalition design.

        The coalitions are drawn once and evaluated over a
        :class:`FeatureMaskingGame` holding all rows; each row is then
        solved on its own, which is the bits of its one-row run.
        """
        n = X.shape[1]
        # Hand the game object to the estimator so the exec backend can
        # read its shardability.
        game = FeatureMaskingGame(self.predict_fn, X[0] if len(X) == 1 else X,
                                  engine=self.sampler)
        predictions = [float(self.predict_fn(x[None, :])[0]) for x in X]
        phi, base = kernel_shap(
            game, n,
            n_samples=self.n_samples, seed=self.seed,
            backend=backend, n_procs=n_procs,
        )
        names = feature_names or [f"x{i}" for i in range(n)]
        phi, base = _per_row(phi, len(X)), np.reshape(base, -1)
        return [
            FeatureAttribution(
                values=phi[r],
                feature_names=names,
                base_value=float(base[r]),
                prediction=predictions[r],
                method=self.method_name,
                meta={"n_samples": self.n_samples},
            )
            for r in range(len(X))
        ]
