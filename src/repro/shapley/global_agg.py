"""Global model understanding from local explanations (§2.1.2, [46]).

TreeSHAP's headline data-management contribution is that *many local
explanations compose into global ones*: averaging |SHAP| over a dataset
yields a global importance ranking that, unlike single-number importances,
retains individualized detail. This module provides that aggregation for
any attribution explainer, plus classic permutation importance as the
baseline the E24 experiment compares orderings against.
"""

from __future__ import annotations

import numpy as np

from ..core.base import as_predict_fn
from ..core.explanation import FeatureAttribution
from ..models.metrics import accuracy

__all__ = ["GlobalAttribution", "aggregate_attributions", "permutation_importance"]


class GlobalAttribution:
    """Summary of per-instance attributions over a dataset.

    Attributes
    ----------
    mean_abs:
        Mean |attribution| per feature — the SHAP summary-plot ordering.
    mean_signed:
        Mean signed attribution (direction of average influence).
    matrix:
        The raw ``(n_instances, n_features)`` attribution matrix.
    """

    def __init__(self, matrix: np.ndarray, feature_names: list[str]) -> None:
        self.matrix = np.atleast_2d(np.asarray(matrix, dtype=float))
        self.feature_names = list(feature_names)
        self.mean_abs = np.abs(self.matrix).mean(axis=0)
        self.mean_signed = self.matrix.mean(axis=0)

    def ranking(self) -> list[int]:
        """Feature indices ordered by global importance (descending)."""
        return list(np.argsort(-self.mean_abs))

    def top(self, k: int = 5) -> list[tuple[str, float]]:
        return [
            (self.feature_names[i], float(self.mean_abs[i]))
            for i in self.ranking()[:k]
        ]


def aggregate_attributions(
    explainer, X: np.ndarray, feature_names: list[str] | None = None, **kwargs
) -> GlobalAttribution:
    """Explain every row and aggregate.

    Any explainer with the standard ``explain(x) -> FeatureAttribution``
    interface works, so global LIME and global SHAP come from the same
    call. Explainers offering ``explain_batch`` are aggregated through
    it, so batch paths (one estimate for every row, TreeSHAP
    precompute) kick in — the attributions are identical either way.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    rows = []
    names = feature_names
    batch_fn = getattr(explainer, "explain_batch", None)
    if batch_fn is not None:
        for attribution in batch_fn(X, **kwargs):
            rows.append(attribution.values)
            names = names or attribution.feature_names
        return GlobalAttribution(np.stack(rows), names or [])
    for x in X:  # batch: allow
        attribution: FeatureAttribution = explainer.explain(x, **kwargs)
        rows.append(attribution.values)
        names = names or attribution.feature_names
    return GlobalAttribution(np.stack(rows), names or [])


def permutation_importance(
    model,
    X: np.ndarray,
    y: np.ndarray,
    metric=accuracy,
    n_repeats: int = 5,
    seed: int = 0,
) -> np.ndarray:
    """Breiman-style permutation importance of each feature.

    Importance of feature j = baseline score − mean score after shuffling
    column j, averaged over ``n_repeats`` shuffles.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y)
    rng = np.random.default_rng(seed)
    baseline = metric(y, model.predict(X))
    importances = np.zeros(X.shape[1])
    for j in range(X.shape[1]):
        drops = []
        for __ in range(n_repeats):
            shuffled = X.copy()
            shuffled[:, j] = shuffled[rng.permutation(X.shape[0]), j]
            drops.append(baseline - metric(y, model.predict(shuffled)))
        importances[j] = float(np.mean(drops))
    return importances
