"""Tests for random forest and gradient boosting."""

import numpy as np
import pytest

from repro.datasets import make_classification, make_xor
from repro.models import (
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    RandomForestClassifier,
)


class TestRandomForest:
    def test_beats_or_matches_single_stump_on_xor(self):
        data = make_xor(400, noise=0.05, seed=1)
        stump = DecisionTreeClassifier(max_depth=1).fit(data.X, data.y)
        forest = RandomForestClassifier(
            n_estimators=30, max_depth=5, seed=0
        ).fit(data.X, data.y)
        assert forest.score(data.X, data.y) > stump.score(data.X, data.y)

    def test_probabilities_are_tree_averages(self):
        data = make_classification(200, seed=2)
        forest = RandomForestClassifier(n_estimators=10, max_depth=3, seed=0)
        forest.fit(data.X, data.y)
        proba = forest.predict_proba(data.X[:5])
        assert np.allclose(proba.sum(axis=1), 1.0)
        manual = np.mean(
            [t.predict_proba(data.X[:5]) for t in forest.estimators_], axis=0
        )
        assert np.allclose(proba, manual)

    def test_deterministic_given_seed(self):
        data = make_classification(150, seed=3)
        a = RandomForestClassifier(n_estimators=5, seed=42).fit(data.X, data.y)
        b = RandomForestClassifier(n_estimators=5, seed=42).fit(data.X, data.y)
        assert np.allclose(a.predict_proba(data.X), b.predict_proba(data.X))

    def test_invalid_n_estimators(self):
        with pytest.raises(ValueError):
            RandomForestClassifier(n_estimators=0)


class TestGradientBoosting:
    def test_classifier_improves_with_stages(self):
        data = make_classification(400, seed=4, class_sep=1.0)
        weak = GradientBoostingClassifier(n_estimators=2, max_depth=2, seed=0)
        strong = GradientBoostingClassifier(n_estimators=60, max_depth=2, seed=0)
        assert (
            strong.fit(data.X, data.y).score(data.X, data.y)
            >= weak.fit(data.X, data.y).score(data.X, data.y)
        )

    def test_decision_function_is_staged_sum(self):
        data = make_classification(150, seed=5)
        gbm = GradientBoostingClassifier(n_estimators=8, max_depth=2, seed=0)
        gbm.fit(data.X, data.y)
        raw = np.full(10, gbm.init_raw_)
        for tree in gbm.estimators_:
            raw += gbm.learning_rate * tree.predict(data.X[:10])
        # The stacked walk adds stages in this loop's order: equal bits.
        assert np.array_equal(raw, gbm.decision_function(data.X[:10]))

    def test_staged_predictions_converge_to_final(self):
        data = make_classification(150, seed=6)
        gbm = GradientBoostingClassifier(n_estimators=5, max_depth=2, seed=0)
        gbm.fit(data.X, data.y)
        stages = list(gbm.staged_raw_predict(data.X[:4]))
        assert len(stages) == 5
        assert np.allclose(stages[-1], gbm.decision_function(data.X[:4]))

    def test_rejects_multiclass(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier().fit(
                np.zeros((6, 1)), np.array([0, 1, 2, 0, 1, 2])
            )

    def test_subsample_validation(self):
        with pytest.raises(ValueError):
            GradientBoostingClassifier(subsample=0.0)

    def test_regressor_fits_smooth_function(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, (300, 1))
        y = np.sin(6 * X[:, 0])
        gbm = GradientBoostingRegressor(n_estimators=80, max_depth=3, seed=0)
        assert gbm.fit(X, y).score(X, y) > 0.95

    def test_newton_leaf_values_match_formula(self):
        # With a single depth-0 stage the leaf value must be Σg/(Σh+λ).
        data = make_classification(100, seed=8)
        gbm = GradientBoostingClassifier(
            n_estimators=1, max_depth=0, learning_rate=1.0, seed=0
        ).fit(data.X, data.y)
        from repro.models.logistic import sigmoid

        t = (data.y == gbm.classes_[1]).astype(float)
        p0 = sigmoid(np.full(len(t), gbm.init_raw_))
        expected = (t - p0).sum() / ((p0 * (1 - p0)).sum() + gbm.leaf_l2)
        assert gbm.estimators_[0].tree_.value[0][0] == pytest.approx(expected)


# -- frozen bits of the stacked array walk ------------------------------------


def _frozen_ensemble(family):
    """One fitted ensemble and its training matrix."""
    data = make_classification(300, n_features=6, seed=21)
    X = data.X
    if family == "forest_3class":
        y = (X[:, 0] > -0.4).astype(int) + (X[:, 1] > 0.3).astype(int)
        model = RandomForestClassifier(n_estimators=7, max_depth=5, seed=0)
        return model.fit(X, y), X
    if family == "gbm_regressor":
        y = 2.0 * X[:, 0] + np.sin(3.0 * X[:, 1]) - X[:, 2] * X[:, 3]
        model = GradientBoostingRegressor(n_estimators=9, max_depth=3,
                                          subsample=0.8, seed=0)
        return model.fit(X, y), X
    depth = 0 if family == "gbm_depth0" else 3
    n_estimators = 4 if family == "gbm_depth0" else 9
    model = GradientBoostingClassifier(n_estimators=n_estimators,
                                       max_depth=depth, seed=0)
    return model.fit(X, data.y), X


def _ensemble_outputs(model):
    outputs = {"predict": model.predict}
    if hasattr(model, "predict_proba"):
        outputs["predict_proba"] = model.predict_proba
    if hasattr(model, "decision_function"):
        outputs["decision_function"] = model.decision_function
    if hasattr(model, "staged_raw_predict"):
        outputs["staged"] = lambda X: np.stack(list(model.staged_raw_predict(X)))
    outputs["apply"] = lambda X: np.stack(
        [tree.tree_.apply(X) for tree in model.estimators_]
    )
    return outputs


# sha256 of each output's float64 bytes over the probe inputs (see
# tests/conftest.py), frozen from the per-tree predict loops and the
# per-row list walk the stacked array walk replaced.
FROZEN_ENSEMBLES = {
    "forest_3class": {
        "predict":
            "535f5a7e29ed814cd09f8199f5f54a2edcaebc42f966be15d16b8b90267ac662",
        "predict_proba":
            "754da45bb282f367cabdd8506f9114d316da1354814bf4a17d1eaeb59e3be562",
        "apply":
            "d4bc6ec295f2c768cee9201889b1ce0239fd41af7ae8dfc38f5fb2ebdf604c05",
    },
    "gbm_classifier": {
        "predict":
            "4410c9827d72d17e8b74b378c3d3c22e1d299fd86504a5b274bc7687be461925",
        "predict_proba":
            "61800a481a5018bf0020390efdf16b27def0deadf9ae18337b7273461ead71b2",
        "decision_function":
            "62433e2fac10ed5e0464b12690ea126c509ca8538a629de03691c29178a1baa8",
        "staged":
            "d35556d7e4c278998997d2a8cde60fd8de55e1b0d866a1c6a9f485e14cef46de",
        "apply":
            "6dab7e29de778a67c7d1639a242cebdfa238c77e74a06c46753cccef43be24dd",
    },
    "gbm_regressor": {
        "predict":
            "6338b830c0a9a67df81a290d13aa6466fa1f86551849a307f62331049ae7e399",
        "staged":
            "83962e115d155cebd94d61a153d7a8beec1879b6ffbf8661b30871827cdac197",
        "apply":
            "08f42f66686d3e5440b620f0f35c4382874361695997f54678f0983704c00971",
    },
    "gbm_depth0": {
        "predict":
            "bf0862387322212f7972a7f1f9426af2fcb9a49a87f56b28db206d84e657b8ee",
        "predict_proba":
            "081a4d6f5e6405c787bf1304f2b50069a05d3b99791c521dc8924c6c1433b11d",
        "decision_function":
            "6cb4976904919a8341eefab0481dad0110e94358afe7905bc44d38eadf75bc5a",
        "staged":
            "5804fcd3d6ff40c5d500590a155393678db0457b840800b96c2e5691e0153150",
        "apply":
            "fbda5298ae3e5f2b27b29f51df1c631c4677f391df0b802ba7b7446e449d5ef7",
    },
}


@pytest.mark.parametrize("family", sorted(FROZEN_ENSEMBLES))
def test_ensemble_outputs_match_frozen_bits(family, tree_digest):
    model, X = _frozen_ensemble(family)
    got = {name: tree_digest(fn, X)
           for name, fn in _ensemble_outputs(model).items()}
    assert got == FROZEN_ENSEMBLES[family]


@pytest.mark.parametrize("family", sorted(FROZEN_ENSEMBLES))
def test_probe_batch_spans_several_row_blocks(family, tree_probes):
    from repro.models.tree import block_rows

    model, X = _frozen_ensemble(family)
    n = tree_probes(X)[1].shape[0]
    block = block_rows(len(model.estimators_))
    assert n > block and n % block


@pytest.mark.parametrize("family", sorted(FROZEN_ENSEMBLES))
def test_ensemble_refuses_a_narrower_X(family):
    model, X = _frozen_ensemble(family)
    for name, fn in _ensemble_outputs(model).items():
        if name != "apply":
            with pytest.raises(ValueError, match="features"):
                fn(X[:5, :-1])
    # A wider X reads only the columns the trees were fitted on.
    wide = np.hstack([X[:5], np.full((5, 1), np.nan)])
    assert np.array_equal(model.predict(wide), model.predict(X[:5]))


def test_stacked_tables_are_derived_state():
    from repro.persist import dumps, to_envelope

    model, X = _frozen_ensemble("gbm_classifier")
    before = dumps(to_envelope(model))
    model.decision_function(X[:4])  # builds the stacked tables
    assert dumps(to_envelope(model)) == before
    flipped = 1 - model.predict(X)
    model.fit(X, flipped)  # a refit must not predict from stale tables
    fresh = GradientBoostingClassifier(n_estimators=9, max_depth=3, seed=0)
    fresh.fit(X, flipped)
    assert np.array_equal(model.decision_function(X),
                          fresh.decision_function(X))
