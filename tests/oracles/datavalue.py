"""Oracles for training-data valuation: the pre-games TMC, Beta,
distributional and gradient (G-) Shapley loops."""

from __future__ import annotations

import numpy as np

from repro.core.explanation import DataAttribution
from repro.datavalue import UtilityFunction, beta_weights
from repro.models.metrics import accuracy

__all__ = [
    "legacy_tmc_shapley",
    "legacy_beta_shapley",
    "legacy_distributional_shapley",
    "legacy_gradient_shapley",
]


def legacy_tmc_shapley(
    utility: UtilityFunction,
    n_permutations: int = 200,
    truncation_tolerance: float = 0.01,
    seed: int = 0,
) -> DataAttribution:
    """The pre-games TMC loop of :func:`repro.datavalue.tmc_shapley`."""
    n = utility.n_points
    rng = np.random.default_rng(seed)
    full_score = utility.full_score()
    marginal_sums = np.zeros(n)
    marginal_counts = np.zeros(n)
    truncated_at: list[int] = []
    for __ in range(n_permutations):
        perm = rng.permutation(n)  # games: allow
        previous = utility.empty_score
        prefix: list[int] = []
        scanned = n
        for position, point in enumerate(perm):
            prefix.append(int(point))
            current = utility(np.asarray(prefix))
            marginal_sums[point] += current - previous
            marginal_counts[point] += 1
            previous = current
            if abs(full_score - current) < truncation_tolerance:
                scanned = position + 1
                break
        # Truncation assigns zero marginal to the unscanned tail.
        marginal_counts[perm[scanned:]] += 1
        truncated_at.append(scanned)
    values = marginal_sums / np.maximum(marginal_counts, 1)
    return DataAttribution(
        values=values,
        method="tmc_shapley",
        meta={
            "full_score": full_score,
            "n_permutations": n_permutations,
            "mean_truncation_position": float(np.mean(truncated_at)),
            "n_utility_evaluations": utility.n_evaluations,
        },
    )


def legacy_distributional_shapley(
    point_index: int,
    utility: UtilityFunction,
    n_draws: int = 100,
    max_cardinality: int | None = None,
    seed: int = 0,
) -> tuple[float, float]:
    """The pre-games draw loop of
    :func:`repro.datavalue.distributional_shapley`."""
    n = utility.n_points
    if not 0 <= point_index < n:
        raise IndexError(point_index)
    rng = np.random.default_rng(seed)
    others = np.array([i for i in range(n) if i != point_index])
    max_cardinality = max_cardinality or others.size
    contributions = np.zeros(n_draws)
    for t in range(n_draws):
        m = int(rng.integers(0, max_cardinality + 1))
        subset = rng.choice(others, size=m, replace=False)
        with_point = np.append(subset, point_index)
        contributions[t] = utility(with_point) - utility(subset)
    value = float(contributions.mean())
    stderr = float(contributions.std(ddof=1) / np.sqrt(n_draws)) if n_draws > 1 else 0.0
    return value, stderr


def legacy_beta_shapley(
    utility: UtilityFunction,
    alpha: float = 16.0,
    beta: float = 1.0,
    n_permutations: int = 200,
    seed: int = 0,
) -> DataAttribution:
    """The pre-games weighted loop of :func:`repro.datavalue.beta_shapley`."""
    n = utility.n_points
    rng = np.random.default_rng(seed)
    weights = beta_weights(n, alpha, beta)
    weighted_sums = np.zeros(n)
    weight_totals = np.zeros(n)
    for __ in range(n_permutations):
        perm = rng.permutation(n)  # games: allow
        previous = utility.empty_score
        prefix: list[int] = []
        for position, point in enumerate(perm):
            prefix.append(int(point))
            current = utility(np.asarray(prefix))
            w = weights[position]
            weighted_sums[point] += w * (current - previous)
            weight_totals[point] += w
            previous = current
    values = weighted_sums / np.maximum(weight_totals, 1e-12)
    return DataAttribution(
        values=values,
        method=f"beta_shapley({alpha:g},{beta:g})",
        meta={"alpha": alpha, "beta": beta, "n_permutations": n_permutations},
    )


def legacy_gradient_shapley(
    model_factory,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_val: np.ndarray,
    y_val: np.ndarray,
    n_permutations: int = 100,
    learning_rate: float = 0.05,
    metric=accuracy,
    seed: int = 0,
) -> DataAttribution:
    """The pre-games SGD loop of :func:`repro.datavalue.gradient_shapley`."""
    X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
    y_train = np.asarray(y_train).ravel()
    n = X_train.shape[0]
    rng = np.random.default_rng(seed)
    classes = np.unique(y_train)
    if classes.size != 2:
        raise ValueError("gradient_shapley supports binary classification")

    # A throwaway fit fixes the parameter dimensionality and class order.
    template = model_factory()
    template.fit(X_train[:10] if n >= 10 else X_train,
                 y_train[:10] if n >= 10 else y_train)
    n_params = template.params.shape[0]

    marginal_sums = np.zeros(n)
    for __ in range(n_permutations):
        perm = rng.permutation(n)  # games: allow
        # Start each pass from zero parameters without an initial fit.
        model = model_factory()
        model.classes_ = classes
        model.set_params_vector(np.zeros(n_params))
        previous = float(metric(y_val, model.predict(X_val)))
        for point in perm:
            g = model.grad(X_train[point : point + 1],
                           y_train[point : point + 1])[0]
            model.set_params_vector(model.params - learning_rate * g)
            current = float(metric(y_val, model.predict(X_val)))
            marginal_sums[point] += current - previous
            previous = current
    return DataAttribution(
        values=marginal_sums / n_permutations,
        method="gradient_shapley",
        meta={"n_permutations": n_permutations, "learning_rate": learning_rate},
    )
