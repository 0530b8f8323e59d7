"""Tests for repro.core.sampling perturbation primitives."""

import numpy as np

from repro.core import CoalitionEngine, FeatureSpec, GaussianPerturber, TabularDataset


def mixed_data():
    rng = np.random.default_rng(0)
    X = np.column_stack([
        rng.normal(10, 2, 200),
        rng.integers(0, 3, 200).astype(float),
    ])
    return TabularDataset(
        X, np.zeros(200),
        [FeatureSpec("num"), FeatureSpec("cat", "categorical",
                                         categories=("a", "b", "c"))],
    )


class TestGaussianPerturber:
    def test_first_row_is_original(self, rng):
        data = mixed_data()
        x = data.X[0]
        Z, B = GaussianPerturber(data).sample(x, 50, rng)
        assert np.allclose(Z[0], x)
        assert B[0].tolist() == [1.0, 1.0]

    def test_binary_representation_consistent(self, rng):
        data = mixed_data()
        x = data.X[0]
        Z, B = GaussianPerturber(data).sample(x, 200, rng)
        # kept numeric features equal the original exactly
        kept = B[:, 0] == 1.0
        assert np.allclose(Z[kept, 0], x[0])
        # perturbed numeric features differ (continuous noise)
        assert not np.any(np.isclose(Z[~kept, 0], x[0]))
        # categorical: B==1 iff value matches original
        assert np.all((Z[:, 1] == x[1]) == (B[:, 1] == 1.0))

    def test_categorical_draws_stay_in_domain(self, rng):
        data = mixed_data()
        Z, __ = GaussianPerturber(data).sample(data.X[0], 300, rng)
        assert set(np.unique(Z[:, 1])).issubset({0.0, 1.0, 2.0})


class TestMaskingSampler:
    """The interventional masking sampler is the coalition engine."""

    def test_background_subsampled(self):
        background = np.arange(400).reshape(200, 2).astype(float)
        sampler = CoalitionEngine(background, max_background=50)
        assert sampler.n_background == 50

    def test_expand_layout(self):
        background = np.array([[0.0, 0.0], [1.0, 1.0]])
        sampler = CoalitionEngine(background)
        x = np.array([9.0, 8.0])
        coalitions = np.array([[True, False], [False, False]])
        rows = sampler.expand(x, coalitions)
        assert rows.shape == (4, 2)
        # first coalition: feature 0 fixed to 9, feature 1 from background
        assert rows[0].tolist() == [9.0, 0.0]
        assert rows[1].tolist() == [9.0, 1.0]
        # second coalition: everything from background
        assert rows[2].tolist() == [0.0, 0.0]

    def test_value_function_endpoints(self):
        background = np.array([[0.0, 0.0], [2.0, 2.0]])
        sampler = CoalitionEngine(background)
        x = np.array([10.0, 10.0])
        v = sampler.value_function(lambda X: X.sum(axis=1), x)
        empty = v(np.array([[False, False]]))[0]
        full = v(np.array([[True, True]]))[0]
        assert empty == 2.0   # mean of background sums
        assert full == 20.0   # the instance itself
