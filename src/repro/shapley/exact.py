"""Exact Shapley values by exhaustive subset enumeration.

The Shapley value of feature ``i`` for value function ``v`` is

    φ_i = Σ_{S ⊆ N\\{i}} |S|!(n−|S|−1)!/n! · (v(S ∪ {i}) − v(S)),

computed here literally over all 2^n coalitions. Exponential by design —
this is the ground-truth oracle the approximation experiments (E2, E3,
E16) compare against, and it doubles as the reference implementation for
the Shapley axioms in the property-based tests.

The default value function is the interventional ("off-manifold") one used
by Kernel SHAP: v(S) = E_b[f(x_S, b_{N\\S})] over a background sample.

The enumeration itself lives in the shared estimator suite
(:func:`repro.games.estimators.exact_enumeration`); this module keeps
the historical names and the explainer on top.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.base import AttributionExplainer, as_predict_fn
from ..core.explanation import FeatureAttribution
from ..core.coalition_engine import CoalitionEngine
from ..games.estimators import all_coalitions, exact_enumeration

__all__ = ["exact_shapley", "all_coalitions", "ExactShapleyExplainer"]


def exact_shapley(
    value_fn: Callable[[np.ndarray], np.ndarray],
    n_players: int,
    backend: str | None = None,
    n_procs: int | None = None,
) -> np.ndarray:
    """Exact Shapley values of a coalitional game.

    Parameters
    ----------
    value_fn:
        Maps a binary coalition matrix ``(n_coalitions, n_players)`` to a
        vector of coalition values (the batched convention used throughout
        the library). A :class:`~repro.games.base.Game` is also accepted —
        required for ``backend`` to shard (bare callables promise no
        determinism and always run serially).
    n_players:
        Number of players n; the call evaluates all 2^n coalitions.
    backend:
        Execution backend (:mod:`repro.exec`); the enumeration is
        bitwise-identical whichever backend evaluates it.

    Returns
    -------
    Array of n Shapley values.
    """
    return exact_enumeration(
        value_fn, n_players=n_players, backend=backend, n_procs=n_procs
    )


class ExactShapleyExplainer(AttributionExplainer):
    """Model-agnostic exact SHAP with the interventional value function.

    Parameters
    ----------
    model:
        Callable or fitted model (normalized via :func:`as_predict_fn`).
    background:
        Background sample defining the marginal distribution features are
        integrated out against.
    max_background:
        Cap on background rows (subsampled beyond it).
    """

    method_name = "exact_shap"

    def __init__(self, model, background: np.ndarray,
                 max_background: int = 100, output: str = "auto") -> None:
        super().__init__(model, output)
        self.sampler = CoalitionEngine(background, max_background=max_background)
        self.feature_names: list[str] | None = None

    def explain(self, x: np.ndarray, feature_names: list[str] | None = None
                ) -> FeatureAttribution:
        x = np.asarray(x, dtype=float).ravel()
        n = x.shape[0]
        v = self.sampler.value_function(self.predict_fn, x)
        phi = exact_shapley(v, n)
        base = float(v(np.zeros((1, n), dtype=bool))[0])
        prediction = float(self.predict_fn(x[None, :])[0])
        names = feature_names or self.feature_names or [f"x{i}" for i in range(n)]
        return FeatureAttribution(
            values=phi,
            feature_names=names,
            base_value=base,
            prediction=prediction,
            method=self.method_name,
            meta={"n_evaluations": 2 ** n},
        )
