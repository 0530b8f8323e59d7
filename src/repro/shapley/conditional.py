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
from ..core.coalition_engine import batched_predict
from ..core.explanation import FeatureAttribution
from ..games.base import BaseGame
from ..games.engine import amortized_plan_values, game_value_function
from ..games.plan import mean_walks_reduce, permutation_plan, shared_plan
from ..robust.guard import check_instance
from .sampling import permutation_shapley

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
    sampling), so the shared evaluator may cache it.
    """

    deterministic = True
    guarded = True

    def __init__(self, predict_fn, data: np.ndarray, x: np.ndarray,
                 k: int = 30, max_batch_rows: int | None = None) -> None:
        self.predict_fn = predict_fn
        self.data = np.atleast_2d(np.asarray(data, dtype=float))
        self.x = np.asarray(x, dtype=float).ravel()
        self.n_players = self.x.shape[0]
        self.scale = np.maximum(self.data.std(axis=0), 1e-12)
        self.k = min(k, self.data.shape[0])
        self.rows_per_coalition = self.k
        self.max_batch_rows = max_batch_rows

    def _neighbor_rows(self, mask: np.ndarray) -> np.ndarray:
        deltas = (self.data[:, mask] - self.x[mask]) / self.scale[mask]
        distances = np.sqrt((deltas ** 2).sum(axis=1))
        neighbors = np.argsort(distances, kind="stable")[: self.k]
        rows = self.data[neighbors].copy()
        rows[:, mask] = self.x[mask]
        return rows

    def value(self, masks: np.ndarray) -> np.ndarray:
        masks = np.atleast_2d(np.asarray(masks, dtype=bool))
        out = np.empty(masks.shape[0])
        blocks: list[np.ndarray] = []
        targets: list[int] = []
        for row, mask in enumerate(masks):
            if not mask.any():
                out[row] = float(np.mean(batched_predict(
                    self.predict_fn, self.data, self.max_batch_rows
                )))
            elif mask.all():
                out[row] = float(self.predict_fn(self.x[None, :])[0])
            else:
                blocks.append(self._neighbor_rows(mask))
                targets.append(row)
        if blocks:
            preds = np.asarray(
                self.predict_fn(np.concatenate(blocks)), dtype=float
            ).ravel()
            out[targets] = preds.reshape(len(blocks), self.k).mean(axis=1)
        return out


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
    (``v.cache``; ``None`` under ``cache=False`` or
    ``REPRO_COALITION_CACHE=0``). Fresh masks are evaluated in
    memory-bounded chunks of ``max_batch_rows`` rows.
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
        n = x.shape[0]
        v = empirical_conditional_value_function(
            self.predict_fn, self.data, x, k=self.k,
            max_batch_rows=self.max_batch_rows,
        )
        # Prediction and base value first, so a budget exhausted during
        # sampling still yields a reportable partial estimate.
        prediction = float(self.predict_fn(x[None, :])[0])
        base = float(v(np.zeros((1, n), dtype=bool))[0])
        phi, std_err, convergence = permutation_shapley(
            v, n, n_permutations=self.n_permutations, seed=self.seed,
            return_diagnostics=True,
        )
        names = feature_names or [f"x{i}" for i in range(n)]
        return FeatureAttribution(
            values=phi,
            feature_names=names,
            base_value=base,
            prediction=prediction,
            method=self.method_name,
            meta={"std_err": std_err, "k": self.k, "convergence": convergence},
        )

    # -- amortized batch path (shared coalition plan) ----------------------

    def _amortized_context(self, X: np.ndarray, feature_names=None):
        """Shared walk plan plus the row-independent ∅ value.

        v(∅) is the mean prediction over the reference sample — the
        same number for every row — so it is computed once here and
        seeded into each row's value cache (when caching is on) instead
        of re-averaging the whole dataset per row.
        """
        n = X.shape[1]
        key = ("permutation", n, self.n_permutations, True, self.seed)
        plan = shared_plan(
            self,
            key,
            lambda: permutation_plan(
                n, n_permutations=self.n_permutations, seed=self.seed
            ),
            X.shape[0],
        )
        empty_value = float(np.mean(
            batched_predict(self.predict_fn, self.data, self.max_batch_rows)
        ))
        return plan, empty_value

    def _amortized_rows(self, X, lo, hi, ctx, feature_names=None):
        """Rows ``[lo, hi)``: every unique coalition in one fused call.

        The conditional value function is deterministic in the mask, so
        evaluating the plan's deduplicated masks once per row and
        gathering through ``value_index`` reproduces exactly the cached
        per-walk values the serial estimator saw.
        """
        plan, empty_value = ctx
        rows = X[lo:hi]
        n = X.shape[1]
        names = feature_names or [f"x{i}" for i in range(n)]
        empty_key = np.packbits(np.zeros(n, dtype=bool)).tobytes()
        pair = self.n_permutations > 1
        n_batches = self.n_permutations // 2 if pair else self.n_permutations
        convergence = {
            "converged": True,
            "n_walks_completed": plan.n_walks,
            "n_walks_requested": n_batches * (2 if pair else 1),
            "budget_error": None,
        }
        out = []
        for r in range(rows.shape[0]):
            x = rows[r]
            v = empirical_conditional_value_function(
                self.predict_fn, self.data, x, k=self.k,
                max_batch_rows=self.max_batch_rows,
            )
            if v.cache is not None:
                v.cache.values[empty_key] = empty_value
            prediction = float(self.predict_fn(x[None, :])[0])
            vals = amortized_plan_values(v, plan)
            walk_values = vals[plan.value_index]
            phi, std_err = mean_walks_reduce(walk_values, plan.walk_perms)
            out.append(FeatureAttribution(
                values=phi,
                feature_names=names,
                base_value=float(vals[plan.empty_index]),
                prediction=prediction,
                method=self.method_name,
                meta={"std_err": std_err, "k": self.k,
                      "convergence": dict(convergence)},
            ))
        return out
