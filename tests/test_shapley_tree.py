"""Tests for TreeSHAP against the brute-force EXPVALUE oracle."""

import numpy as np
import pytest

from repro.datasets import make_classification
from repro.models import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    RandomForestClassifier,
)
from repro.obs import metrics
from repro.robust import InputValidationError, PartialBatchError
from repro.shapley import TreeShapExplainer, exact_shapley, tree_expected_value


@pytest.fixture(scope="module")
def data():
    return make_classification(300, n_features=6, seed=13)


def assert_matches_oracle(explainer, X, rows=(0, 5, 17)):
    for i in rows:
        fast = explainer.explain(X[i]).values
        reference = exact_shapley(explainer.value_function(X[i]), X.shape[1])
        assert np.allclose(fast, reference, atol=1e-10), f"row {i}"


def test_classifier_tree_matches_exact(data):
    tree = DecisionTreeClassifier(max_depth=5, seed=0).fit(data.X, data.y)
    assert_matches_oracle(TreeShapExplainer(tree), data.X)


def test_regressor_tree_matches_exact(data):
    y = data.X[:, 0] * 2 + data.X[:, 1] ** 2
    tree = DecisionTreeRegressor(max_depth=5).fit(data.X, y)
    assert_matches_oracle(TreeShapExplainer(tree), data.X)


def test_gbm_matches_exact(data):
    gbm = GradientBoostingClassifier(n_estimators=10, max_depth=3, seed=0)
    gbm.fit(data.X, data.y)
    assert_matches_oracle(TreeShapExplainer(gbm), data.X, rows=(0, 3))


def test_gbm_regressor_matches_exact(data):
    y = data.X[:, 0] - 0.5 * data.X[:, 2]
    gbm = GradientBoostingRegressor(n_estimators=8, max_depth=2, seed=0)
    gbm.fit(data.X, y)
    assert_matches_oracle(TreeShapExplainer(gbm), data.X, rows=(0, 3))


def test_forest_matches_exact(data):
    forest = RandomForestClassifier(n_estimators=5, max_depth=4, seed=0)
    forest.fit(data.X, data.y)
    assert_matches_oracle(TreeShapExplainer(forest), data.X, rows=(0,))


def test_local_accuracy_additivity(data):
    gbm = GradientBoostingClassifier(n_estimators=15, max_depth=3, seed=0)
    gbm.fit(data.X, data.y)
    explainer = TreeShapExplainer(gbm)
    for i in range(8):
        att = explainer.explain(data.X[i])
        assert att.additivity_gap() < 1e-9


def test_expected_value_matches_empty_coalition(data):
    tree = DecisionTreeClassifier(max_depth=4, seed=0).fit(data.X, data.y)
    explainer = TreeShapExplainer(tree)
    v = explainer.value_function(data.X[0])
    empty = v(np.zeros((1, data.n_features), dtype=bool))[0]
    assert explainer.expected_value == pytest.approx(empty)


def test_full_coalition_is_model_output(data):
    tree = DecisionTreeClassifier(max_depth=4, seed=0).fit(data.X, data.y)
    explainer = TreeShapExplainer(tree)
    x = data.X[7]
    v = explainer.value_function(x)
    full = v(np.ones((1, data.n_features), dtype=bool))[0]
    assert full == pytest.approx(tree.predict_proba(x[None, :])[0, 1])


def test_expvalue_respects_mask(data):
    tree = DecisionTreeClassifier(max_depth=4, seed=0).fit(data.X, data.y)
    x = data.X[0]
    all_present = np.ones(data.n_features, dtype=bool)
    assert tree_expected_value(tree.tree_, x, all_present, 1) == pytest.approx(
        tree.predict_proba(x[None, :])[0, 1]
    )


def test_irrelevant_feature_gets_zero(data):
    # Train on a single informative feature; other columns never split.
    y = (data.X[:, 0] > 0).astype(int)
    tree = DecisionTreeClassifier(max_depth=3, seed=0).fit(data.X, y)
    att = TreeShapExplainer(tree).explain(data.X[0])
    used = tree.tree_.used_features()
    for j in range(data.n_features):
        if j not in used:
            assert att.values[j] == 0.0


def test_unsupported_model_rejected():
    with pytest.raises(TypeError):
        TreeShapExplainer(object())


# -- the input contract every explainer keeps ---------------------------------


@pytest.fixture(scope="module")
def small_gbm(data):
    return GradientBoostingClassifier(n_estimators=5, max_depth=2, seed=0).fit(
        data.X, data.y
    )


def test_explain_refuses_bad_instances(data, small_gbm):
    explainer = TreeShapExplainer(small_gbm)
    x = data.X[0]
    bad = [x[:-1], np.append(x, 0.0), np.array([])]
    for value in (np.nan, np.inf, -np.inf):
        row = x.copy()
        row[1] = value
        bad.append(row)
    for row in bad:
        with pytest.raises(InputValidationError):
            explainer.explain(row)


@pytest.mark.parametrize("backend", ("serial", "thread"))
def test_explain_batch_isolates_bad_rows(backend, data, small_gbm):
    X = data.X[:7].copy()
    X[2, 1] = np.nan
    X[5, 0] = -np.inf
    good = [0, 1, 3, 4, 6]
    explainer = TreeShapExplainer(small_gbm)
    clean = explainer.explain_batch(X[good], backend=backend, n_procs=2)
    failed = metrics.counter("robust.rows_failed")
    before = failed.value
    with pytest.raises(PartialBatchError) as excinfo:
        explainer.explain_batch(X, backend=backend, n_procs=2)
    assert failed.value == before + 2
    assert [e.index for e in excinfo.value.errors] == [2, 5]
    assert all(isinstance(e.error, InputValidationError)
               for e in excinfo.value.errors)
    results, errors = explainer.explain_batch(
        X, backend=backend, n_procs=2, return_errors=True
    )
    assert failed.value == before + 4
    assert [e.index for e in errors] == [2, 5]
    assert results[2] is None and results[5] is None
    for i, att in zip(good, clean):
        # Good rows stay on the fused kernel: bitwise what the batch
        # without the bad rows gives.
        assert np.array_equal(results[i].values, att.values)
        assert results[i].prediction == att.prediction
        assert np.array_equal(excinfo.value.partial[i].values, att.values)


def test_explain_batch_refuses_a_wrong_width(data, small_gbm):
    results, errors = TreeShapExplainer(small_gbm).explain_batch(
        data.X[:3, :-1], return_errors=True
    )
    assert results == [None, None, None]
    assert all(isinstance(e.error, InputValidationError) for e in errors)
    with pytest.raises(InputValidationError):
        TreeShapExplainer(small_gbm).explain_batch(np.empty((0, 6)))


def test_explain_batch_after_a_refit_uses_the_new_trees():
    # The per-model precompute must follow the model's trees: a model
    # fitted again gets a new precompute, not the old trees' values.
    data = make_classification(200, n_features=5, seed=3)
    gbm = GradientBoostingClassifier(n_estimators=5, max_depth=2, seed=0)
    gbm.fit(data.X, data.y)
    TreeShapExplainer(gbm).explain_batch(data.X[:6])
    gbm.fit(data.X, 1 - data.y)
    explainer = TreeShapExplainer(gbm)
    batch = explainer.explain_batch(data.X[:6])
    for i, att in enumerate(batch):
        single = explainer.explain(data.X[i])
        assert np.allclose(att.values, single.values, atol=1e-12)
        assert att.additivity_gap() < 1e-9
