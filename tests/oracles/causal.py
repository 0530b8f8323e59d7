"""Oracles for the causal Shapley explainers: the pre-games walk loops of
:class:`repro.causal.AsymmetricShapleyExplainer` and
:class:`repro.causal.CausalShapleyExplainer`, run on an explainer's own
settings (model, SCM, feature order, budgets and seed)."""

from __future__ import annotations

import numpy as np

from repro.causal import (
    AsymmetricShapleyExplainer,
    CausalShapleyExplainer,
    interventional_value_function,
    sample_topological_permutation,
)
from repro.core.explanation import FeatureAttribution

__all__ = ["legacy_asymmetric_explain", "legacy_causal_explain"]


def legacy_asymmetric_explain(
    explainer: AsymmetricShapleyExplainer,
    x: np.ndarray,
    feature_names: list[str] | None = None,
    value_fn=None,
) -> FeatureAttribution:
    """Shapley values averaged over sampled linear extensions of the DAG,
    one uncached ``value_fn`` call per walk."""
    x = np.asarray(x, dtype=float).ravel()
    n = x.shape[0]
    rng = np.random.default_rng(explainer.seed)
    if value_fn is None:
        value_fn = interventional_value_function(
            explainer.scm, explainer.predict_fn, explainer.feature_order, x,
            n_samples=explainer.n_samples, seed=explainer.seed,
        )
    phi = np.zeros(n)
    for __ in range(explainer.n_permutations):
        perm = sample_topological_permutation(
            explainer.scm, explainer.feature_order, rng
        )
        masks = np.zeros((n + 1, n), dtype=bool)
        for pos, player in enumerate(perm):
            masks[pos + 1] = masks[pos]
            masks[pos + 1, player] = True
        values = np.asarray(value_fn(masks), dtype=float)
        phi[perm] += values[1:] - values[:-1]
    phi /= explainer.n_permutations
    base = float(value_fn(np.zeros((1, n), dtype=bool))[0])
    names = feature_names or explainer.feature_order
    return FeatureAttribution(
        values=phi,
        feature_names=names,
        base_value=base,
        prediction=float(explainer.predict_fn(x[None, :])[0]),
        method=explainer.method_name,
        meta={"n_permutations": explainer.n_permutations},
    )


def _expectation(
    explainer: CausalShapleyExplainer,
    interventions: dict[str, float],
    plug_in: dict[int, float],
    seed: int,
) -> float:
    """E[f(X̃)] where X ~ do(interventions) and X̃ overrides columns.

    ``plug_in`` replaces model-input columns *without* intervening in
    the SCM — the device that separates direct from indirect effects.
    """
    values = explainer.scm.sample(explainer.n_samples, seed=seed,
                                  interventions=interventions)
    X = np.column_stack([values[name] for name in explainer.feature_order])
    for j, value in plug_in.items():
        X[:, j] = value
    return float(np.mean(explainer.predict_fn(X)))


def legacy_causal_explain(
    explainer: CausalShapleyExplainer,
    x: np.ndarray,
    feature_names: list[str] | None = None,
) -> FeatureAttribution:
    """Causal Shapley values with the direct/indirect split, two SCM
    expectations per walk step under one global seed counter."""
    x = np.asarray(x, dtype=float).ravel()
    n = x.shape[0]
    seed = explainer.seed
    rng = np.random.default_rng(seed)
    phi_direct = np.zeros(n)
    phi_indirect = np.zeros(n)
    counter = 0
    for __ in range(explainer.n_permutations):
        perm = rng.permutation(n)  # games: allow
        coalition: dict[str, float] = {}
        plugged: dict[int, float] = {}
        v_prev = _expectation(explainer, coalition, plugged, seed + counter)
        counter += 1
        for player in perm:
            name = explainer.feature_order[player]
            # Direct: plug x_i into the model under the old intervention.
            v_direct = _expectation(
                explainer, coalition, {**plugged, player: float(x[player])},
                seed + counter,
            )
            counter += 1
            # Full: actually intervene, shifting descendants too.
            coalition[name] = float(x[player])
            plugged[player] = float(x[player])
            v_full = _expectation(explainer, coalition, plugged,
                                  seed + counter)
            counter += 1
            phi_direct[player] += v_direct - v_prev
            phi_indirect[player] += v_full - v_direct
            v_prev = v_full
    phi_direct /= explainer.n_permutations
    phi_indirect /= explainer.n_permutations
    phi = phi_direct + phi_indirect
    base = _expectation(explainer, {}, {}, seed + counter)
    names = feature_names or explainer.feature_order
    return FeatureAttribution(
        values=phi,
        feature_names=names,
        base_value=base,
        prediction=float(explainer.predict_fn(x[None, :])[0]),
        method=explainer.method_name,
        meta={"direct": phi_direct, "indirect": phi_indirect},
    )
