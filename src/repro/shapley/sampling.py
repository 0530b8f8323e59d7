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
explainer on top. The pre-games loop is retained as
:func:`legacy_permutation_shapley` for the seeded-parity tests.

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
from ..games.engine import game_value_function
from ..games.estimators import permutation_estimator
from ..games.plan import mean_walks_reduce, permutation_plan, shared_plan
from ..robust.errors import BudgetExceededError
from ..robust.guard import check_instance

__all__ = [
    "permutation_shapley",
    "legacy_permutation_shapley",
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


def legacy_permutation_shapley(
    value_fn: Callable[[np.ndarray], np.ndarray],
    n_players: int,
    n_permutations: int = 100,
    antithetic: bool = True,
    seed: int = 0,
    return_diagnostics: bool = False,
) -> tuple[np.ndarray, np.ndarray] | tuple[np.ndarray, np.ndarray, dict]:
    """The pre-games walk loop, kept for the seeded bitwise-parity tests."""
    rng = np.random.default_rng(seed)
    contributions: list[np.ndarray] = []
    n_batches = (
        n_permutations // 2 if antithetic and n_permutations > 1 else n_permutations
    )
    walks_per_batch = 2 if antithetic and n_permutations > 1 else 1
    budget_error: BudgetExceededError | None = None
    for __ in range(n_batches):
        perm = rng.permutation(n_players)  # games: allow
        perms = [perm, perm[::-1]] if antithetic else [perm]
        try:
            for p in perms:
                # One walk through the permutation = n+1 coalition evaluations.
                masks = np.zeros((n_players + 1, n_players), dtype=bool)
                for pos, player in enumerate(p):
                    masks[pos + 1] = masks[pos]
                    masks[pos + 1, player] = True
                values = np.asarray(value_fn(masks), dtype=float)
                contrib = np.zeros(n_players)
                contrib[p] = values[1:] - values[:-1]
                contributions.append(contrib)
        except BudgetExceededError as e:
            if not contributions:
                raise
            budget_error = e
            break
    stacked = np.stack(contributions)
    phi = stacked.mean(axis=0)
    std_err = stacked.std(axis=0, ddof=1) / np.sqrt(stacked.shape[0]) \
        if stacked.shape[0] > 1 else np.zeros(n_players)
    if not return_diagnostics:
        return phi, std_err
    diagnostics = {
        "converged": budget_error is None,
        "n_walks_completed": len(contributions),
        "n_walks_requested": n_batches * walks_per_batch,
        "budget_error": None if budget_error is None else str(budget_error),
    }
    return phi, std_err, diagnostics


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
        n = x.shape[0]
        # The estimator gets the *game object*: only it carries the
        # deterministic/shardable capabilities the exec backend gates on,
        # and every evaluator over it shares the game's value store.
        game = FeatureMaskingGame(self.predict_fn, x, engine=self.sampler)
        # Prediction and base value come first: if the query budget runs
        # out mid-sampling, the partial estimate is still reportable.
        prediction = float(self.predict_fn(x[None, :])[0])
        base = float(game_value_function(game)(np.zeros((1, n), dtype=bool))[0])
        phi, std_err, convergence = permutation_shapley(
            game, n,
            n_permutations=self.n_permutations,
            antithetic=self.antithetic,
            seed=self.seed,
            return_diagnostics=True,
            backend=self.backend,
            n_procs=self.n_procs,
        )
        names = feature_names or [f"x{i}" for i in range(n)]
        return FeatureAttribution(
            values=phi,
            feature_names=names,
            base_value=base,
            prediction=prediction,
            method=self.method_name,
            meta={"std_err": std_err, "n_permutations": self.n_permutations,
                  "convergence": convergence},
        )

    # -- amortized batch path (shared coalition plan) ----------------------

    def _amortized_context(self, X: np.ndarray, feature_names=None):
        """One shared permutation plan per (n, budget, seed) design."""
        n = X.shape[1]
        key = ("permutation", n, self.n_permutations, self.antithetic,
               self.seed)
        return shared_plan(
            self,
            key,
            lambda: permutation_plan(
                n,
                n_permutations=self.n_permutations,
                antithetic=self.antithetic,
                seed=self.seed,
            ),
            X.shape[0],
        )

    def _amortized_rows(self, X, lo, hi, plan, feature_names=None):
        """Rows ``[lo, hi)`` against the shared plan, fused per shard.

        Every distinct coalition the walk schedule visits is evaluated
        once per row through the engine's fused ``rows × coalitions``
        grid; gathering through ``plan.value_index`` then reproduces the
        per-walk value sequences the serial estimator saw — including
        its cache-dedup semantics — so the reduction is bitwise the
        serial ``explain``.
        """
        rows = X[lo:hi]
        n = X.shape[1]
        values = self.sampler.batch_value_matrix(
            self.predict_fn, rows, plan.unique_masks
        )
        names = feature_names or [f"x{i}" for i in range(n)]
        # Same requested-walk arithmetic as the estimator's diagnostics
        # (completed is the actual walk count, which exceeds requested
        # in the lone-antithetic-permutation edge case there too).
        pair = self.antithetic and self.n_permutations > 1
        n_batches = self.n_permutations // 2 if pair else self.n_permutations
        convergence = {
            "converged": True,
            "n_walks_completed": plan.n_walks,
            "n_walks_requested": n_batches * (2 if pair else 1),
            "budget_error": None,
        }
        out = []
        for r in range(rows.shape[0]):
            prediction = float(self.predict_fn(rows[r][None, :])[0])
            walk_values = values[r][plan.value_index]
            phi, std_err = mean_walks_reduce(walk_values, plan.walk_perms)
            out.append(FeatureAttribution(
                values=phi,
                feature_names=names,
                base_value=float(values[r][plan.empty_index]),
                prediction=prediction,
                method=self.method_name,
                meta={"std_err": std_err,
                      "n_permutations": self.n_permutations,
                      "convergence": dict(convergence)},
            ))
        return out
