"""Shapley interaction values — beyond additive attributions (§2.1.2).

A recurring criticism the tutorial records against additive feature
attributions [40] is their "inability to capture the indirect influences
of features": purely interactional signal (XOR) is invisible to any
additive score. The Shapley *interaction index* (Grabisch & Roubens;
used by TreeSHAP's interaction values) fixes this by attributing to
pairs:

    φ_{ij} = Σ_{S ⊆ N∖{i,j}} w(|S|) · Δ_{ij}v(S),
    Δ_{ij}v(S) = v(S∪{i,j}) − v(S∪{i}) − v(S∪{j}) + v(S),
    w(s) = s!(n−s−2)! / (2·(n−1)!),

with the diagonal defined so each row sums to the ordinary Shapley value:
φ_{ii} = φ_i − Σ_{j≠i} φ_{ij}. Exact enumeration here (2^n coalition
evaluations — fine at tabular widths); the matrix is symmetric and
satisfies the efficiency identity Σ_{ij} φ_{ij} = v(N) − v(∅).
"""

from __future__ import annotations

from itertools import combinations
from math import factorial

import numpy as np

from ..core.base import AttributionExplainer
from ..core.explanation import FeatureAttribution
from ..core.coalition_engine import CoalitionEngine
from .exact import all_coalitions, exact_shapley

__all__ = ["shapley_interaction_values", "InteractionExplainer"]


def shapley_interaction_values(value_fn, n_players: int) -> np.ndarray:
    """Exact Shapley interaction matrix of a coalitional game.

    Returns the symmetric ``(n, n)`` matrix with pairwise interaction
    indices off-diagonal and main effects on the diagonal; rows sum to
    the ordinary Shapley values and the total sums to v(N) − v(∅).
    """
    if n_players > 16:
        raise ValueError(
            f"exact interaction values over {n_players} players need "
            f"2^{n_players} evaluations"
        )
    subsets = all_coalitions(n_players)
    masks = np.zeros((len(subsets), n_players), dtype=bool)
    for row, subset in enumerate(subsets):
        masks[row, list(subset)] = True
    values = np.asarray(value_fn(masks), dtype=float)
    value_of = {subset: values[row] for row, subset in enumerate(subsets)}

    phi = exact_shapley(value_fn, n_players)
    matrix = np.zeros((n_players, n_players))
    if n_players >= 2:
        for i, j in combinations(range(n_players), 2):
            others = [p for p in range(n_players) if p not in (i, j)]
            total = 0.0
            for size in range(len(others) + 1):
                weight = (
                    factorial(size) * factorial(n_players - size - 2)
                    / (2.0 * factorial(n_players - 1))
                )
                for subset in combinations(others, size):
                    s = tuple(sorted(subset))
                    s_i = tuple(sorted(subset + (i,)))
                    s_j = tuple(sorted(subset + (j,)))
                    s_ij = tuple(sorted(subset + (i, j)))
                    delta = (
                        value_of[s_ij] - value_of[s_i]
                        - value_of[s_j] + value_of[s]
                    )
                    total += weight * delta
            matrix[i, j] = matrix[j, i] = total
    for i in range(n_players):
        matrix[i, i] = phi[i] - (matrix[i].sum() - matrix[i, i])
    return matrix


class InteractionExplainer(AttributionExplainer):
    """Model-agnostic exact Shapley interaction values.

    Uses the same interventional value function as
    :class:`repro.shapley.exact.ExactShapleyExplainer`; the returned
    attribution's ``values`` are the main effects (diagonal) and the full
    matrix sits in ``meta["interactions"]``.
    """

    method_name = "shapley_interactions"

    def __init__(self, model, background: np.ndarray,
                 max_background: int = 100, output: str = "auto") -> None:
        super().__init__(model, output)
        self.sampler = CoalitionEngine(background, max_background=max_background)

    def explain(self, x: np.ndarray, feature_names: list[str] | None = None
                ) -> FeatureAttribution:
        x = np.asarray(x, dtype=float).ravel()
        n = x.shape[0]
        v = self.sampler.value_function(self.predict_fn, x)
        matrix = shapley_interaction_values(v, n)
        base = float(v(np.zeros((1, n), dtype=bool))[0])
        names = feature_names or [f"x{i}" for i in range(n)]
        return FeatureAttribution(
            values=np.diag(matrix).copy(),
            feature_names=names,
            base_value=base,
            prediction=float(self.predict_fn(x[None, :])[0]),
            method=self.method_name,
            meta={"interactions": matrix},
        )

    def strongest_interactions(self, x: np.ndarray, k: int = 3,
                               feature_names: list[str] | None = None
                               ) -> list[tuple[str, str, float]]:
        """The k largest |pairwise interaction| terms at ``x``."""
        att = self.explain(x, feature_names)
        matrix = att.meta["interactions"]
        n = matrix.shape[0]
        pairs = [
            (att.feature_names[i], att.feature_names[j], float(matrix[i, j]))
            for i in range(n) for j in range(i + 1, n)
        ]
        return sorted(pairs, key=lambda p: -abs(p[2]))[:k]
