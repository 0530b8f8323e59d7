"""Oracles for the feature-attribution paths: the pre-games permutation
walk loop and the pre-engine coalition expansion and value function."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.coalition_engine import CoalitionEngine
from repro.robust.errors import BudgetExceededError

__all__ = [
    "legacy_permutation_shapley",
    "legacy_expand",
    "legacy_value_function",
]


def legacy_permutation_shapley(
    value_fn: Callable[[np.ndarray], np.ndarray],
    n_players: int,
    n_permutations: int = 100,
    antithetic: bool = True,
    seed: int = 0,
    return_diagnostics: bool = False,
) -> tuple[np.ndarray, np.ndarray] | tuple[np.ndarray, np.ndarray, dict]:
    """The pre-games walk loop of :func:`repro.shapley.permutation_shapley`."""
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


def legacy_expand(
    x: np.ndarray, coalitions: np.ndarray, background: np.ndarray
) -> np.ndarray:
    """The pre-engine per-coalition expansion loop of
    :func:`repro.core.coalition_engine.broadcast_expand`.

    Kept verbatim in behaviour (the chained ``out[block][:, present]``
    view assignment is replaced by a single-step index).
    """
    x = np.asarray(x, dtype=float).ravel()
    coalitions = np.atleast_2d(np.asarray(coalitions, dtype=bool))
    background = np.atleast_2d(np.asarray(background, dtype=float))
    n_c = coalitions.shape[0]
    n_b = background.shape[0]
    out = np.tile(background, (n_c, 1))
    for c in range(n_c):
        present = coalitions[c]
        out[c * n_b : (c + 1) * n_b, present] = x[present]
    return out


def legacy_value_function(
    engine: CoalitionEngine,
    model_fn: Callable[[np.ndarray], np.ndarray],
    x: np.ndarray,
):
    """The pre-engine ``v(S)`` over ``engine``'s background: loop
    expansion, one unchunked model call, no cache."""
    x = np.asarray(x, dtype=float).ravel()
    n_b = engine.n_background

    def v(coalitions: np.ndarray) -> np.ndarray:
        rows = legacy_expand(x, coalitions, engine.background)
        preds = np.asarray(model_fn(rows), dtype=float)
        return preds.reshape(-1, n_b).mean(axis=1)

    return v
