"""Tests for interventional (background-based) TreeSHAP."""

import numpy as np
import pytest

from repro.core.coalition_engine import CoalitionEngine
from repro.datasets import make_classification
from repro.models import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    RandomForestClassifier,
)
from repro.shapley import (
    InterventionalTreeShapExplainer,
    TreeShapExplainer,
    exact_shapley,
)


@pytest.fixture(scope="module")
def data():
    return make_classification(300, n_features=6, seed=33)


def reference_values(model_fn, x, background, n):
    sampler = CoalitionEngine(background, max_background=background.shape[0])
    return exact_shapley(sampler.value_function(model_fn, x), n)


class TestExactness:
    def test_classifier_tree(self, data):
        tree = DecisionTreeClassifier(max_depth=5, seed=0).fit(data.X, data.y)
        background = data.X[:15]
        explainer = InterventionalTreeShapExplainer(tree, background)
        for i in (0, 9, 33):
            att = explainer.explain(data.X[i])
            ref = reference_values(
                lambda X: tree.predict_proba(X)[:, 1],
                data.X[i], background, 6,
            )
            assert np.allclose(att.values, ref, atol=1e-10)

    def test_regressor_tree(self, data):
        y = data.X[:, 0] * 2 - data.X[:, 2]
        tree = DecisionTreeRegressor(max_depth=5).fit(data.X, y)
        background = data.X[:10]
        explainer = InterventionalTreeShapExplainer(tree, background)
        att = explainer.explain(data.X[3])
        ref = reference_values(tree.predict, data.X[3], background, 6)
        assert np.allclose(att.values, ref, atol=1e-10)

    def test_gbm_raw_scores(self, data):
        gbm = GradientBoostingClassifier(
            n_estimators=8, max_depth=3, seed=0
        ).fit(data.X, data.y)
        background = data.X[:10]
        explainer = InterventionalTreeShapExplainer(gbm, background)
        att = explainer.explain(data.X[5])
        ref = reference_values(
            gbm.decision_function, data.X[5], background, 6
        )
        assert np.allclose(att.values, ref, atol=1e-10)

    def test_forest(self, data):
        forest = RandomForestClassifier(
            n_estimators=4, max_depth=4, seed=0
        ).fit(data.X, data.y)
        background = data.X[:8]
        explainer = InterventionalTreeShapExplainer(forest, background)
        att = explainer.explain(data.X[0])
        ref = reference_values(
            lambda X: forest.predict_proba(X)[:, 1],
            data.X[0], background, 6,
        )
        assert np.allclose(att.values, ref, atol=1e-10)


class TestProperties:
    def test_additivity(self, data):
        tree = DecisionTreeClassifier(max_depth=5, seed=0).fit(data.X, data.y)
        explainer = InterventionalTreeShapExplainer(tree, data.X[:25])
        for i in range(5):
            assert explainer.explain(data.X[i]).additivity_gap() < 1e-10

    def test_background_subsampling(self, data):
        tree = DecisionTreeClassifier(max_depth=3, seed=0).fit(data.X, data.y)
        explainer = InterventionalTreeShapExplainer(
            tree, data.X, max_background=10, seed=0
        )
        assert explainer.background.shape[0] == 10

    def test_single_background_row_is_baseline_shap(self, data):
        """With one background row z, efficiency reads f(x) − f(z)."""
        tree = DecisionTreeClassifier(max_depth=4, seed=0).fit(data.X, data.y)
        z = data.X[10:11]
        explainer = InterventionalTreeShapExplainer(tree, z)
        att = explainer.explain(data.X[0])
        f_x = tree.predict_proba(data.X[:1])[0, 1]
        f_z = tree.predict_proba(z)[0, 1]
        assert att.values.sum() == pytest.approx(f_x - f_z, abs=1e-10)

    def test_differs_from_path_dependent_under_correlation(self):
        """The two TreeSHAP variants answer different games: on strongly
        correlated features the path-dependent values generally differ."""
        from repro.datasets import make_correlated_gaussian

        X = make_correlated_gaussian(500, n_features=3, rho=0.9, seed=5)
        y = (X[:, 0] > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=5, seed=0).fit(X, y)
        x = X[0]
        path_dep = TreeShapExplainer(tree).explain(x)
        interventional = InterventionalTreeShapExplainer(
            tree, X[:30]
        ).explain(x)
        # both satisfy their own efficiency...
        assert path_dep.additivity_gap() < 1e-9
        assert interventional.additivity_gap() < 1e-9
        # ...but are not the same attribution in general.
        assert not np.allclose(
            path_dep.values, interventional.values, atol=1e-3
        )
