"""Tests for conditional (on-manifold) SHAP."""

import numpy as np
import pytest

from repro.datasets import make_correlated_gaussian
from repro.shapley import (
    ConditionalShapExplainer,
    ExactShapleyExplainer,
    empirical_conditional_value_function,
)


@pytest.fixture(scope="module")
def correlated_setup():
    """Two strongly correlated features; the model uses ONLY feature 0."""
    X = make_correlated_gaussian(600, n_features=2, rho=0.95, seed=3)

    def model(Z):
        return Z[:, 0]

    return X, model


class TestConditionalValueFunction:
    def test_endpoints(self, correlated_setup):
        X, model = correlated_setup
        x = X[0]
        v = empirical_conditional_value_function(model, X, x, k=20)
        empty = v(np.zeros((1, 2), dtype=bool))[0]
        full = v(np.ones((1, 2), dtype=bool))[0]
        assert empty == pytest.approx(float(np.mean(model(X))))
        assert full == pytest.approx(float(model(x[None, :])[0]))

    def test_conditioning_respects_correlation(self, correlated_setup):
        X, model = correlated_setup
        # Condition on a high value of feature 1 only: because of the
        # correlation, E[f | x1 high] = E[X0 | x1 high] must be high too.
        x = np.array([0.0, 2.0])
        v = empirical_conditional_value_function(model, X, x, k=20)
        conditional = v(np.array([[False, True]]))[0]
        assert conditional > 1.0  # ≈ rho * 2

    def test_marginal_ignores_correlation(self, correlated_setup):
        X, model = correlated_setup
        from repro.core.coalition_engine import CoalitionEngine

        x = np.array([0.0, 2.0])
        sampler = CoalitionEngine(X, max_background=100)
        v = sampler.value_function(model, x)
        marginal = v(np.array([[False, True]]))[0]
        assert abs(marginal) < 0.3  # feature 1 unused → no effect


class TestConditionalShapExplainer:
    def test_unused_correlated_feature_gets_credit(self, correlated_setup):
        """The Kumar et al. §2.1.2 phenomenon: conditional SHAP credits a
        model-unused feature through its correlation; marginal does not."""
        X, model = correlated_setup
        x = np.array([1.5, 1.5])
        conditional = ConditionalShapExplainer(
            model, X, k=20, n_permutations=30, seed=0
        ).explain(x)
        marginal = ExactShapleyExplainer(model, X[:100]).explain(x)
        assert abs(marginal.values[1]) < 0.05
        assert conditional.values[1] > 0.3

    def test_efficiency(self, correlated_setup):
        X, model = correlated_setup
        x = X[5]
        att = ConditionalShapExplainer(
            model, X, k=20, n_permutations=40, seed=0
        ).explain(x)
        assert att.additivity_gap() < 1e-9  # exact per-permutation telescoping

    def test_independent_features_match_marginal(self):
        rng = np.random.default_rng(0)
        X = rng.normal(0, 1, (500, 3))

        def model(Z):
            return 2.0 * Z[:, 0] - Z[:, 1]

        x = X[0]
        conditional = ConditionalShapExplainer(
            model, X, k=40, n_permutations=60, seed=0
        ).explain(x)
        marginal = ExactShapleyExplainer(model, X[:100]).explain(x)
        assert np.abs(conditional.values - marginal.values).max() < 0.35
