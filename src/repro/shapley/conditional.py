"""Conditional (on-manifold) SHAP via empirical neighbor conditioning.

The tutorial's §2.1.2 criticisms of Shapley methods (Kumar et al. 2020)
center on the choice of value function: the *interventional/marginal*
v(S) = E[f(x_S, X̄_{N∖S})] breaks feature dependence and evaluates the
model off-manifold, while the *conditional* v(S) = E[f(X) | X_S = x_S]
respects the data distribution but lets attribution leak onto correlated
— even model-unused — features. Both behaviours are real and the
disagreement is the point; E26 measures it.

Conditioning on arbitrary subsets of an empirical sample has no clean
closed form, so the standard practical estimator is used: conditional
expectations are Monte-Carlo averages over the k nearest training rows
*in the conditioned coordinates* (distances standardized per column),
with the conditioned coordinates pinned to x.
"""

from __future__ import annotations

import numpy as np

from ..core.base import AttributionExplainer
from ..core.coalition_engine import (
    CoalitionValueCache,
    batched_predict,
    block_predict,
)
from ..core.explanation import FeatureAttribution
from ..games.base import BaseGame
from ..games.engine import coalition_value, game_value_function
from ..robust.guard import budgets_in_force, check_instance
from .sampling import _per_row, permutation_shapley

__all__ = [
    "EmpiricalConditionalGame",
    "empirical_conditional_value_function",
    "ConditionalShapExplainer",
]


class EmpiricalConditionalGame(BaseGame):
    """Features vs. v(S) = Ê[f(X) | X_S = x_S] by k-NN conditioning.

    For the empty coalition this is the plain mean prediction over
    ``data``; for the full coalition it is exactly f(x). Every other
    coalition averages f over its k nearest rows *in the conditioned
    coordinates*, with those coordinates pinned to x; ``value`` stacks
    the neighbor blocks of all its coalitions into one model call.

    Deterministic in the mask (stable-sorted neighbor selection, no
    sampling), so the shared evaluator may cache it, in the game's own
    ``cache`` store. ``x`` may be a matrix of instances: ``value`` then
    returns one row of values per coalition, instance r's entry being
    what the game over ``x[r]`` alone returns (f(x_r) stays a one-row
    predict call, and neighbor blocks split only on block edges).
    """

    deterministic = True
    guarded = True

    def __init__(self, predict_fn, data: np.ndarray, x: np.ndarray,
                 k: int = 30, max_batch_rows: int | None = None) -> None:
        self.predict_fn = predict_fn
        self.data = np.atleast_2d(np.asarray(data, dtype=float))
        x = np.asarray(x, dtype=float)
        self.x = x if x.ndim == 2 else x.ravel()
        self.n_players = self.x.shape[-1]
        self.scale = np.maximum(self.data.std(axis=0), 1e-12)
        self.k = min(k, self.data.shape[0])
        self.rows_per_coalition = self.k * (
            self.x.shape[0] if self.x.ndim == 2 else 1
        )
        self.max_batch_rows = max_batch_rows
        self.cache = CoalitionValueCache()

    def _neighbor_rows(self, mask: np.ndarray) -> np.ndarray:
        """Each instance's k neighbor rows, ``(n_instances * k, d)``."""
        instances = np.atleast_2d(self.x)
        deltas = (
            self.data[None, :, mask] - instances[:, None, mask]
        ) / self.scale[mask]
        distances = np.sqrt((deltas ** 2).sum(axis=2))
        neighbors = np.argsort(distances, axis=1, kind="stable")[:, : self.k]
        rows = self.data[neighbors]
        rows[:, :, mask] = instances[:, None, mask]
        return rows.reshape(-1, self.n_players)

    def value(self, masks: np.ndarray) -> np.ndarray:
        masks = np.atleast_2d(np.asarray(masks, dtype=bool))
        instances = np.atleast_2d(self.x)
        out = np.empty((masks.shape[0], instances.shape[0]))
        blocks: list[np.ndarray] = []
        targets: list[int] = []
        for row, mask in enumerate(masks):
            if not mask.any():
                out[row] = float(np.mean(batched_predict(
                    self.predict_fn, self.data, self.max_batch_rows
                )))
            elif mask.all():
                out[row] = [float(self.predict_fn(inst[None, :])[0])
                            for inst in instances]
            else:
                blocks.append(self._neighbor_rows(mask))
                targets.append(row)
        if blocks:
            preds = block_predict(self.predict_fn, np.concatenate(blocks),
                                  self.k, self.max_batch_rows)
            out[targets] = preds.reshape(
                len(blocks), instances.shape[0], self.k
            ).mean(axis=2)
        return out if self.x.ndim == 2 else out[:, 0]


def empirical_conditional_value_function(
    predict_fn,
    data: np.ndarray,
    x: np.ndarray,
    k: int = 30,
    cache: bool = True,
    max_batch_rows: int | None = None,
):
    """Batched v(S) of the :class:`EmpiricalConditionalGame`.

    Permutation walks re-visit the same prefixes constantly, so repeated
    masks are served from a packed-bit coalition-value cache by default
    (``v.cache``; ``None`` under ``cache=False``). Fresh masks are
    evaluated in memory-bounded chunks of ``max_batch_rows`` rows.
    """
    game = EmpiricalConditionalGame(
        predict_fn, data, x, k=k, max_batch_rows=max_batch_rows
    )
    return game_value_function(game, cache=cache)


class ConditionalShapExplainer(AttributionExplainer):
    """Shapley values of the empirical conditional-expectation game.

    Parameters
    ----------
    data:
        Reference sample defining the manifold/conditionals.
    k:
        Neighbors per conditional expectation.
    n_permutations:
        Permutation-sampling budget for the Shapley average.
    """

    method_name = "conditional_shap"

    def __init__(
        self,
        model,
        data: np.ndarray,
        k: int = 30,
        n_permutations: int = 100,
        output: str = "auto",
        seed: int = 0,
        max_batch_rows: int | None = None,
        guard=None,
    ) -> None:
        super().__init__(model, output, guard=guard)
        self.data = np.atleast_2d(np.asarray(data, dtype=float))
        self.k = k
        self.n_permutations = n_permutations
        self.seed = seed
        self.max_batch_rows = max_batch_rows

    def explain(self, x: np.ndarray, feature_names: list[str] | None = None
                ) -> FeatureAttribution:
        x = check_instance(x, self.data.shape[1])
        return self._explain_rows(x[None, :], feature_names)[0]

    def _explain_rows(self, X, feature_names=None, backend=None,
                      n_procs=None) -> list[FeatureAttribution]:
        """Explain every row of ``X`` with one permutation estimate over
        one :class:`EmpiricalConditionalGame` holding all rows; each
        row's attribution is the bits of its one-row run."""
        n = X.shape[1]
        game = EmpiricalConditionalGame(
            self.predict_fn, self.data, X[0] if len(X) == 1 else X,
            k=self.k, max_batch_rows=self.max_batch_rows,
        )
        empty = np.zeros(n, dtype=bool)
        # Predictions first; under a budget the base value too, so a
        # budget exhausted during sampling still yields a reportable
        # partial estimate. Without one, the walks leave v(∅) stored.
        predictions = [float(self.predict_fn(x[None, :])[0]) for x in X]
        base = coalition_value(game, empty) if budgets_in_force() else None
        # The game, not a bare value function: its walks then share
        # value calls (and shards, under a backend).
        phi, std_err, convergence = permutation_shapley(
            game, n, n_permutations=self.n_permutations, seed=self.seed,
            return_diagnostics=True, backend=backend, n_procs=n_procs,
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
                meta={"std_err": std_err[r], "k": self.k,
                      "convergence": dict(convergence)},
            )
            for r in range(len(X))
        ]
