"""Tests for CART trees and the exported TreeStructure."""

import numpy as np
import pytest

from repro.datasets import make_classification, make_xor
from repro.models import DecisionTreeClassifier, DecisionTreeRegressor


def test_fits_axis_aligned_concept_perfectly():
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, (300, 2))
    y = (X[:, 0] > 0.2).astype(int)
    tree = DecisionTreeClassifier(max_depth=2).fit(X, y)
    assert tree.score(X, y) == 1.0
    # The root split should be on feature 0 near 0.2.
    assert tree.tree_.feature[0] == 0
    assert tree.tree_.threshold[0] == pytest.approx(0.2, abs=0.05)


def test_solves_xor_given_enough_depth():
    # Greedy CART needs extra depth on XOR: no single split has gain, so
    # the first cuts land wherever sampling noise points (the classic
    # interaction blind spot the tutorial's LIME critique relies on too).
    data = make_xor(400, noise=0.0, seed=1)
    tree = DecisionTreeClassifier(max_depth=6).fit(data.X, data.y)
    assert tree.score(data.X, data.y) > 0.97


def test_max_depth_respected():
    data = make_classification(300, seed=2)
    tree = DecisionTreeClassifier(max_depth=3).fit(data.X, data.y)
    assert tree.tree_.depth(0) <= 3


def test_min_samples_leaf_respected():
    data = make_classification(200, seed=3)
    tree = DecisionTreeClassifier(min_samples_leaf=20).fit(data.X, data.y)
    structure = tree.tree_
    leaves = [n for n in range(structure.n_nodes) if structure.is_leaf(n)]
    assert all(structure.n_node_samples[n] >= 20 for n in leaves)


def test_predict_proba_matches_leaf_composition():
    data = make_classification(300, seed=4)
    tree = DecisionTreeClassifier(max_depth=2).fit(data.X, data.y)
    proba = tree.predict_proba(data.X)
    assert np.allclose(proba.sum(axis=1), 1.0)
    leaves = tree.tree_.apply(data.X)
    for leaf in np.unique(leaves):
        members = leaves == leaf
        empirical = np.mean(data.y[members] == tree.classes_[1])
        assert proba[members][0][1] == pytest.approx(empirical)


def test_entropy_criterion_works():
    data = make_classification(200, seed=5)
    tree = DecisionTreeClassifier(max_depth=4, criterion="entropy")
    assert tree.fit(data.X, data.y).score(data.X, data.y) > 0.8
    with pytest.raises(ValueError):
        DecisionTreeClassifier(criterion="nope")


def test_decision_path_consistent_with_apply():
    data = make_classification(100, seed=6)
    tree = DecisionTreeClassifier(max_depth=4).fit(data.X, data.y)
    x = data.X[0]
    path = tree.tree_.decision_path(x)
    node = 0
    for recorded, feature, threshold, went_left in path:
        assert recorded == node
        assert went_left == (x[feature] <= threshold)
        node = (tree.tree_.children_left[node] if went_left
                else tree.tree_.children_right[node])
    assert node == tree.tree_.apply(x[None, :])[0]


def test_sample_weight_shifts_leaf_probabilities():
    X = np.array([[0.0], [0.0], [1.0]])
    y = np.array([0, 1, 1])
    w = np.array([10.0, 1.0, 1.0])
    tree = DecisionTreeClassifier(max_depth=0).fit(X, y, sample_weight=w)
    proba = tree.predict_proba(np.array([[0.0]]))[0]
    assert proba[0] == pytest.approx(10 / 12)


class TestRegressor:
    def test_recovers_piecewise_constant(self):
        X = np.linspace(0, 1, 200)[:, None]
        y = np.where(X[:, 0] > 0.5, 3.0, -1.0)
        tree = DecisionTreeRegressor(max_depth=1).fit(X, y)
        assert tree.score(X, y) == pytest.approx(1.0)
        assert tree.tree_.threshold[0] == pytest.approx(0.5, abs=0.01)

    def test_deeper_trees_reduce_training_error(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0, 1, (300, 2))
        y = np.sin(5 * X[:, 0]) + X[:, 1] ** 2
        shallow = DecisionTreeRegressor(max_depth=2).fit(X, y).score(X, y)
        deep = DecisionTreeRegressor(max_depth=6).fit(X, y).score(X, y)
        assert deep > shallow

    def test_constant_target_single_leaf(self):
        X = np.random.default_rng(8).normal(0, 1, (50, 3))
        tree = DecisionTreeRegressor().fit(X, np.full(50, 2.5))
        assert tree.tree_.n_nodes == 1
        assert tree.predict(X)[0] == pytest.approx(2.5)


# -- frozen bits of the array walk --------------------------------------------


def _frozen_cart_data():
    data = make_classification(300, n_features=6, seed=21)
    X = data.X
    y_reg = 2.0 * X[:, 0] + np.sin(3.0 * X[:, 1]) - X[:, 2] * X[:, 3]
    return X, data.y, y_reg


def _cart_outputs(family):
    X, y, y_reg = _frozen_cart_data()
    if family == "classifier":
        model = DecisionTreeClassifier(max_depth=6, seed=0).fit(X, y)
        outputs = {"predict_proba": model.predict_proba,
                   "predict": model.predict}
    else:
        model = DecisionTreeRegressor(max_depth=6, seed=0).fit(X, y_reg)
        outputs = {"predict": model.predict}
    outputs["apply"] = model.tree_.apply
    return model, X, outputs


# sha256 of each output's float64 bytes over the probe inputs (see
# tests/conftest.py), frozen from the per-row list walk the array walk
# replaced: predictions and leaf ids must stay bitwise equal.
FROZEN_CART = {
    "classifier": {
        "predict_proba":
            "871518e28c7793fde16f6c6c23e4d61d3a62b7ebfe977e23c71534727b984e21",
        "predict":
            "5c3d408e707be7a70bda483d7470ea13b89002b3b1809015f053afe3031c2059",
        "apply":
            "8576a2b2b9555d68998300c78d7ca72c4f4f0398ba51c29563534172c2733491",
    },
    "regressor": {
        "predict":
            "72dea3e08784ffa58934bf723d785a50c087ffe010dcf86e74edcecec65ff587",
        "apply":
            "eb467a6cb6868a0ec50e7be924bf43776d1c1dd9824fbee1d1d80da3e17c4d02",
    },
}


@pytest.mark.parametrize("family", sorted(FROZEN_CART))
def test_cart_outputs_match_frozen_bits(family, tree_digest):
    model, X, outputs = _cart_outputs(family)
    got = {name: tree_digest(fn, X) for name, fn in outputs.items()}
    assert got == FROZEN_CART[family]


def test_probe_batch_spans_several_row_blocks(tree_probes):
    from repro.models.tree import block_rows

    X, __, __ = _frozen_cart_data()
    n = tree_probes(X)[1].shape[0]
    assert n > block_rows(1) and n % block_rows(1)


@pytest.mark.parametrize("family", sorted(FROZEN_CART))
def test_cart_refuses_a_narrower_X(family):
    model, X, outputs = _cart_outputs(family)
    for name, fn in outputs.items():
        if name != "apply":
            with pytest.raises(ValueError, match="features"):
                fn(X[:5, :-1])
    # A wider X reads only the columns the tree was fitted on.
    wide = np.hstack([X[:5], np.full((5, 1), np.nan)])
    assert np.array_equal(model.predict(wide), model.predict(X[:5]))


def test_tree_arrays_and_python_scalars():
    X, y, __ = _frozen_cart_data()
    structure = DecisionTreeClassifier(max_depth=4, seed=0).fit(X, y).tree_
    n = structure.n_nodes
    assert structure.value.shape == (n, 2)
    for name in ("feature", "threshold", "children_left", "children_right",
                 "n_node_samples"):
        assert getattr(structure, name).shape == (n,)
    leaves = structure.feature == -1
    assert np.array_equal(structure.children_left == -1, leaves)
    assert np.array_equal(structure.children_right == -1, leaves)
    for node, feature, threshold, went_left in structure.decision_path(X[0]):
        assert type(node) is int and type(feature) is int
        assert type(threshold) is float and type(went_left) is bool
    assert all(type(f) is int for f in structure.used_features())
    assert type(structure.n_leaves) is int and structure.n_leaves == leaves.sum()
