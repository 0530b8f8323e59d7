"""Tests for data valuation: utility, LOO, TMC/Beta/KNN/distributional."""

import numpy as np
import pytest

from repro.datasets import flip_labels, make_classification
from repro.datavalue import (
    UtilityFunction,
    beta_shapley,
    beta_weights,
    distributional_shapley,
    gradient_shapley,
    knn_shapley,
    leave_one_out_values,
    tmc_shapley,
)
from repro.models import GaussianNB, KNeighborsClassifier, LogisticRegression
from repro.models.model_selection import train_test_split
from repro.obs.metrics import counter


@pytest.fixture(scope="module")
def valuation_setup():
    """Small train set with known flipped labels + clean validation set."""
    data = make_classification(140, n_features=4, n_informative=3,
                               class_sep=2.5, seed=41)
    X_train, X_val, y_train, y_val = train_test_split(
        data.X, data.y, test_size=0.4, seed=0
    )
    rng = np.random.default_rng(7)
    n_flip = 8
    flipped = rng.choice(X_train.shape[0], size=n_flip, replace=False)
    y_noisy = y_train.copy()
    y_noisy[flipped] = 1 - y_noisy[flipped]
    utility = UtilityFunction(
        lambda: LogisticRegression(alpha=1.0),
        X_train, y_noisy, X_val, y_val,
    )
    return utility, flipped, (X_train, y_noisy, X_val, y_val)


class TestUtility:
    def test_empty_set_uses_majority_baseline(self, valuation_setup):
        utility, __, (___, ____, _____, y_val) = valuation_setup
        majority = max(np.mean(y_val), 1 - np.mean(y_val))
        assert utility(np.array([], dtype=int)) == pytest.approx(majority)

    def test_single_class_subset_handled(self, valuation_setup):
        utility, __, (X_train, y_noisy, ___, ____) = valuation_setup
        ones = np.where(y_noisy == 1)[0][:5]
        score = utility(ones)
        assert 0.0 <= score <= 1.0

    def test_cache_avoids_refits(self, valuation_setup):
        utility, __, ___ = valuation_setup
        before = utility.n_evaluations
        subset = np.arange(20)
        utility(subset)
        mid = utility.n_evaluations
        utility(subset[::-1])  # same set, different order
        assert utility.n_evaluations == mid
        assert mid >= before

    def test_full_score_reasonable(self, valuation_setup):
        utility, __, ___ = valuation_setup
        assert utility.full_score() > 0.6


class TestValuationSeparatesNoise:
    @staticmethod
    def detection_rate(values, flipped, k):
        worst = set(np.argsort(values)[:k].tolist())
        return len(worst & set(flipped.tolist())) / len(flipped)

    def test_tmc_flags_flipped_points(self, valuation_setup):
        utility, flipped, __ = valuation_setup
        values = tmc_shapley(utility, n_permutations=60, seed=0)
        rate = self.detection_rate(values.values, flipped, 2 * len(flipped))
        assert rate >= 0.5
        # flipped points are worth less on average
        mask = np.zeros(utility.n_points, dtype=bool)
        mask[flipped] = True
        assert values.values[mask].mean() < values.values[~mask].mean()

    def test_tmc_beats_random_ranking(self, valuation_setup, rng):
        utility, flipped, __ = valuation_setup
        values = tmc_shapley(utility, n_permutations=60, seed=0)
        random_rate = np.mean([
            self.detection_rate(rng.permutation(utility.n_points).astype(float),
                                flipped, 2 * len(flipped))
            for __ in range(20)
        ])
        tmc_rate = self.detection_rate(values.values, flipped, 2 * len(flipped))
        assert tmc_rate > random_rate

    def test_knn_shapley_flags_flipped_points(self, valuation_setup):
        __, flipped, (X_train, y_noisy, X_val, y_val) = valuation_setup
        values = knn_shapley(X_train, y_noisy, X_val, y_val, k=5)
        rate = self.detection_rate(values.values, flipped, 2 * len(flipped))
        assert rate >= 0.5

    def test_beta_shapley_small_coalition_emphasis(self, valuation_setup):
        utility, flipped, __ = valuation_setup
        values = beta_shapley(utility, alpha=16, beta=1,
                              n_permutations=40, seed=0)
        rate = self.detection_rate(values.values, flipped, 2 * len(flipped))
        assert rate >= 0.4


class TestLOO:
    def test_values_match_definition(self, valuation_setup):
        utility, __, ___ = valuation_setup
        att = leave_one_out_values(utility)
        full = utility.full_score()
        everything = np.arange(utility.n_points)
        i = 3
        expected = full - utility(np.delete(everything, i))
        assert att.values[i] == pytest.approx(expected)
        assert att.meta["n_retrainings"] == utility.n_points

    def test_batched_values_equal_the_per_set_loop(self, valuation_setup):
        __, ___, data = valuation_setup
        batched = UtilityFunction(lambda: LogisticRegression(alpha=1.0), *data)
        att = leave_one_out_values(batched)
        fresh = UtilityFunction(lambda: LogisticRegression(alpha=1.0), *data)
        full = fresh.full_score()
        everything = np.arange(fresh.n_points)
        loop = np.array([full - fresh(np.delete(everything, i))
                         for i in range(fresh.n_points)])
        assert np.array_equal(att.values, loop)
        assert batched.n_evaluations == fresh.n_evaluations


_CACHE_COUNTERS = ("datavalue.cache.hits", "datavalue.cache.misses")


def _solved_rows():
    """Rows sent to ``predict_subsets`` so far, certified or not."""
    return (counter("datavalue.certified").value
            + counter("datavalue.refits").value)


def _per_row_and_batch(build, masks):
    """``scores(masks)`` on one fresh utility and the per-row ``__call__``
    loop on another, each with its counters: (values, counts) twice."""
    out = []
    for batched in (True, False):
        utility = build()
        # A memo hit: both utilities already know one subset.
        utility(np.flatnonzero(masks[0]))
        before = [counter(name).value for name in _CACHE_COUNTERS]
        if batched:
            values = utility.scores(masks)
        else:
            values = np.array([utility(np.flatnonzero(m)) for m in masks])
        moved = [counter(name).value - b
                 for name, b in zip(_CACHE_COUNTERS, before)]
        out.append((values, (utility.n_evaluations, utility.cache_hits,
                             utility.cache_misses, moved,
                             dict(utility._cache or {}))))
    return out


def _mixed_masks(y, n_fresh=12, seed=0):
    """A memo hit (row 0, pre-evaluated), fresh subsets, the empty set,
    single-class sets and repeats of earlier rows of the same batch."""
    rng = np.random.default_rng(seed)
    n = y.shape[0]
    rows = [rng.random(n) < 0.5]
    for __ in range(n_fresh):
        rows.append(rng.random(n) < rng.uniform(0.1, 0.9))
    rows.append(np.zeros(n, dtype=bool))
    for label in np.unique(y)[:2]:
        single = np.zeros(n, dtype=bool)
        single[np.flatnonzero(y == label)[:4]] = True
        rows.append(single)
    rows += [rows[3].copy(), rows[-1].copy(), rows[5].copy()]
    return np.array(rows)


class TestBatchedUtility:
    def test_scores_equal_per_row_calls(self, valuation_setup):
        __, ___, data = valuation_setup
        masks = _mixed_masks(data[1])
        certified = counter("datavalue.certified").value
        for cache in (True, False):
            (got, got_counts), (want, want_counts) = _per_row_and_batch(
                lambda: UtilityFunction(lambda: LogisticRegression(alpha=1.0),
                                        *data, cache=cache),
                masks,
            )
            assert np.array_equal(got, want)
            assert got_counts == want_counts
        assert counter("datavalue.certified").value > certified

    def test_three_classes_keep_per_subset_fits(self):
        rng = np.random.default_rng(2)
        X = rng.normal(0, 1, (90, 3))
        y = np.digitize(X[:, 0] + rng.normal(0, 0.5, 90), [-0.5, 0.5])
        two = y < 2   # subsets drawn from two of the three classes
        X_train, y_train = X[:60], y[:60]

        def build():
            return UtilityFunction(lambda: LogisticRegression(alpha=1.0),
                                   X_train, y_train, X[60:], y[60:])

        masks = _mixed_masks(y_train) & two[:60]
        solved = _solved_rows()
        (got, got_counts), (want, want_counts) = _per_row_and_batch(build,
                                                                    masks)
        assert _solved_rows() == solved   # no predict_subsets call
        assert np.array_equal(got, want)
        assert got_counts == want_counts

    def test_other_models_and_metrics(self, valuation_setup):
        __, ___, data = valuation_setup
        masks = _mixed_masks(data[1])

        def balanced(y_true, y_pred):
            return float(np.mean([np.mean(y_pred[y_true == c] == c)
                                  for c in np.unique(y_true)]))

        builds = [
            lambda: UtilityFunction(GaussianNB, *data),
            lambda: UtilityFunction(lambda: LogisticRegression(alpha=0.1),
                                    *data, metric=balanced),
        ]
        for build, batched in zip(builds, (False, True)):
            solved = _solved_rows()
            (got, got_counts), (want, want_counts) = _per_row_and_batch(
                build, masks
            )
            assert (_solved_rows() > solved) == batched
            assert np.array_equal(got, want)
            assert got_counts == want_counts

    def test_fewer_than_three_fresh_subsets_are_fitted_one_by_one(
        self, valuation_setup
    ):
        __, ___, data = valuation_setup
        masks = np.random.default_rng(1).random((3, data[1].shape[0])) < 0.7
        for k, batched in ((2, False), (3, True)):
            utility = UtilityFunction(lambda: LogisticRegression(alpha=1.0),
                                      *data)
            solved = _solved_rows()
            utility.scores(masks[:k])
            assert utility.n_evaluations == k
            assert _solved_rows() - solved == (k if batched else 0)


class TestKnnShapleyExactness:
    def test_efficiency_identity(self):
        """Values must sum to U(D) − U(∅) per validation point."""
        rng = np.random.default_rng(3)
        X_train = rng.normal(0, 1, (30, 2))
        y_train = (X_train[:, 0] > 0).astype(int)
        X_val = rng.normal(0, 1, (10, 2))
        y_val = (X_val[:, 0] > 0).astype(int)
        k = 3
        att = knn_shapley(X_train, y_train, X_val, y_val, k=k)
        knn = KNeighborsClassifier(n_neighbors=k).fit(X_train, y_train)
        # Per-point utility: fraction of the k neighbors matching y_val,
        # averaged over validation points; empty-set utility is 0 in the
        # Jia et al. formulation.
        dist, idx = knn.kneighbors(X_val, n_neighbors=k)
        per_point = np.mean([
            np.mean(y_train[idx[i]] == y_val[i]) for i in range(len(y_val))
        ])
        assert att.values.sum() == pytest.approx(per_point, abs=1e-10)

    def test_matches_bruteforce_tmc_on_tiny_problem(self):
        rng = np.random.default_rng(9)
        X_train = rng.normal(0, 1, (8, 2))
        y_train = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        X_val = rng.normal(0, 1, (6, 2))
        y_val = (X_val[:, 0] > 0).astype(int)
        exact = knn_shapley(X_train, y_train, X_val, y_val, k=1)
        # brute force over the exact same game
        from repro.shapley import exact_shapley

        def v(masks):
            masks = np.atleast_2d(np.asarray(masks, dtype=bool))
            out = np.zeros(masks.shape[0])
            for row, mask in enumerate(masks):
                subset = np.where(mask)[0]
                if subset.size == 0:
                    out[row] = 0.0
                    continue
                correct = 0.0
                for xv, yv in zip(X_val, y_val):
                    d = np.linalg.norm(X_train[subset] - xv, axis=1)
                    nearest = subset[np.argmin(d)]
                    correct += float(y_train[nearest] == yv)
                out[row] = correct / len(y_val)
            return out

        reference = exact_shapley(v, 8)
        assert np.allclose(exact.values, reference, atol=1e-10)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            knn_shapley(np.zeros((5, 2)), np.zeros(5), np.zeros((2, 2)),
                        np.zeros(2), k=9)


class TestBetaWeights:
    def test_uniform_beta_is_flat(self):
        w = beta_weights(20, alpha=1.0, beta=1.0)
        assert np.allclose(w, 1.0, atol=1e-10)

    def test_alpha_emphasizes_small_coalitions(self):
        w = beta_weights(20, alpha=16.0, beta=1.0)
        assert w[0] > w[-1]
        assert np.all(np.diff(w) <= 1e-9)

    def test_normalization(self):
        w = beta_weights(15, alpha=4.0, beta=2.0)
        assert w.sum() == pytest.approx(15.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            beta_weights(10, alpha=0.0, beta=1.0)


def test_distributional_shapley_interface(valuation_setup):
    utility, __, ___ = valuation_setup
    value, stderr = distributional_shapley(
        0, utility, n_draws=40, max_cardinality=30, seed=0
    )
    assert np.isfinite(value)
    assert stderr >= 0.0
    with pytest.raises(IndexError):
        distributional_shapley(10_000, utility)


def test_gradient_shapley_runs_and_separates(valuation_setup):
    __, flipped, (X_train, y_noisy, X_val, y_val) = valuation_setup
    att = gradient_shapley(
        lambda: LogisticRegression(alpha=1.0),
        X_train, y_noisy, X_val, y_val,
        n_permutations=30, learning_rate=0.1, seed=0,
    )
    assert att.values.shape == (X_train.shape[0],)
    mask = np.zeros(X_train.shape[0], dtype=bool)
    mask[flipped] = True
    assert att.values[mask].mean() < att.values[~mask].mean()
