"""Tests for logistic regression and its white-box interface."""

import warnings

import numpy as np
import pytest

from repro.models import LogisticRegression, sigmoid


@pytest.fixture(scope="module")
def separable():
    rng = np.random.default_rng(4)
    X = rng.normal(0, 1, (300, 3))
    logits = 2.0 * X[:, 0] - 1.0 * X[:, 1]
    y = (sigmoid(logits) > rng.random(300)).astype(int)
    return X, y


def test_sigmoid_stability_and_range():
    z = np.array([-1000.0, -10.0, 0.0, 10.0, 1000.0])
    p = sigmoid(z)
    assert np.all(np.isfinite(p))
    assert p[0] == pytest.approx(0.0, abs=1e-12)
    assert p[2] == pytest.approx(0.5)
    assert p[4] == pytest.approx(1.0, abs=1e-12)


def test_learns_signal_direction(separable):
    X, y = separable
    model = LogisticRegression(alpha=0.5).fit(X, y)
    assert model.coef_[0] > 0.5
    assert model.coef_[1] < -0.2
    assert model.score(X, y) > 0.75


def test_predict_proba_rows_sum_to_one(separable):
    X, y = separable
    model = LogisticRegression().fit(X, y)
    proba = model.predict_proba(X[:20])
    assert np.allclose(proba.sum(axis=1), 1.0)
    assert np.all(proba >= 0)


def test_rejects_multiclass():
    X = np.zeros((6, 2))
    y = np.array([0, 1, 2, 0, 1, 2])
    with pytest.raises(ValueError):
        LogisticRegression().fit(X, y)


def test_arbitrary_label_values(separable):
    X, y = separable
    model = LogisticRegression(alpha=0.5).fit(X, np.where(y == 1, "yes", "no"))
    assert set(model.predict(X[:10])) <= {"yes", "no"}


def test_gradient_zero_at_optimum(separable):
    X, y = separable
    model = LogisticRegression(alpha=1.0, tol=1e-12).fit(X, y)
    reg_grad = np.append(model.alpha * model.coef_, 0.0)
    total = model.grad(X, y).sum(axis=0) + reg_grad
    assert np.allclose(total, 0.0, atol=1e-6)


def test_grad_matches_finite_differences(separable):
    X, y = separable
    model = LogisticRegression(alpha=0.5).fit(X, y)
    theta = model.params
    g = model.grad(X[:5], y[:5]).sum(axis=0)
    eps = 1e-6
    for j in range(theta.shape[0]):
        bumped = theta.copy()
        bumped[j] += eps
        model.set_params_vector(bumped)
        hi = model.loss(X[:5], y[:5]) * 5
        bumped[j] -= 2 * eps
        model.set_params_vector(bumped)
        lo = model.loss(X[:5], y[:5]) * 5
        assert g[j] == pytest.approx((hi - lo) / (2 * eps), abs=1e-4)
    model.set_params_vector(theta)


def test_hessian_positive_definite(separable):
    X, y = separable
    model = LogisticRegression(alpha=1.0).fit(X, y)
    H = model.hessian(X, y)
    assert np.allclose(H, H.T)
    assert np.all(np.linalg.eigvalsh(H) > 0)


def test_sample_weight_zero_equals_removal(separable):
    X, y = separable
    w = np.ones(X.shape[0])
    w[:50] = 0.0
    weighted = LogisticRegression(alpha=1.0).fit(X, y, sample_weight=w)
    removed = LogisticRegression(alpha=1.0).fit(X[50:], y[50:])
    assert np.allclose(weighted.coef_, removed.coef_, atol=1e-6)


def test_sigmoid_matches_the_two_branch_form():
    # sigmoid is one where-expression; it must keep the bits of the
    # masked two-branch form it replaced, which fit's iterates depend on.
    def two_branch(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    z = np.concatenate([
        np.random.default_rng(0).normal(0, 30, 5000),
        [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 1e308, -1e308,
         np.inf, -np.inf],
    ]).reshape(-1, 10)
    assert np.array_equal(sigmoid(z), two_branch(z))
    assert np.isnan(sigmoid(np.array([np.nan]))[0])


# -- predict_subsets: many subsets, one batched solve --------------------------


def _subset_cases(seed=0):
    """Subsets over small problems: alpha from 0 to 10, 1-6 features,
    x50 scaling, a subset with one minority point, and a duplicated point
    carrying both labels."""
    rng = np.random.default_rng(seed)
    for alpha in (0.0, 1e-3, 1.0, 10.0):
        for d in range(1, 7):
            for scale in (1.0, 50.0):
                n = 40
                X = rng.normal(0, 1, (n, d)) * scale
                y = (X[:, 0] + rng.normal(0, 1.5 * scale, n) > 0).astype(int)
                X[1], y[1] = X[0], 1 - y[0]
                X_eval = rng.normal(0, 1, (30, d)) * scale
                masks = np.zeros((12, n), dtype=bool)
                for r in range(10):
                    size = rng.integers(3, n)
                    masks[r, rng.choice(n, size, replace=False)] = True
                ones, zeros = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
                masks[10, zeros[:8]] = True
                masks[10, ones[0]] = True
                masks[11, :2] = True
                masks[11, zeros[2:6]] = True
                yield alpha, X, y, masks, X_eval


def test_predict_subsets_certified_rows_equal_fit_predict():
    n_rows = n_certified = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha, X, y, masks, X_eval in _subset_cases():
            labels, certified = LogisticRegression(alpha=alpha).predict_subsets(
                X, y, masks, X_eval
            )
            assert labels.shape == (masks.shape[0], X_eval.shape[0])
            for r, mask in enumerate(masks):
                if np.unique(y[mask]).size < 2:
                    assert not certified[r]
                    continue
                n_rows += 1
                if certified[r]:
                    n_certified += 1
                    want = LogisticRegression(alpha=alpha).fit(
                        X[mask], y[mask]
                    ).predict(X_eval)
                    assert np.array_equal(labels[r], want), (alpha, r)
    # Most rows certify; the rest (near-separable subsets at tiny alpha)
    # are left to their own fits.
    assert n_certified > 0.75 * n_rows


def test_predict_subsets_keeps_label_values():
    X = np.random.default_rng(1).normal(0, 1, (30, 2))
    y = np.where(X[:, 0] > 0, "yes", "no")
    y[:3] = np.where(y[:3] == "yes", "no", "yes")
    masks = np.ones((2, 30), dtype=bool)
    masks[1, 10:] = False
    labels, certified = LogisticRegression().predict_subsets(X, y, masks,
                                                             X[:5])
    assert certified.all()
    for r in range(2):
        want = LogisticRegression().fit(X[masks[r]], y[masks[r]]).predict(X[:5])
        assert labels[r].dtype == want.dtype
        assert np.array_equal(labels[r], want)


def test_predict_subsets_does_not_certify_a_separable_subset_without_penalty():
    # With alpha = 0 a separable subset has no finite optimum, so nothing
    # can be certified about where fit stops.
    x = np.linspace(-2.0, 2.0, 20)
    X = x[:, None]
    y = (x > 0).astype(int)
    y[[0, 19]] = [1, 0]        # the whole set is not separable
    masks = np.zeros((2, 20), dtype=bool)
    masks[0, 1:19] = True      # separable at 0
    masks[1] = True
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels, certified = LogisticRegression(alpha=0.0).predict_subsets(
            X, y, masks, X
        )
    assert not certified[0]
    assert certified[1]
    want = LogisticRegression(alpha=0.0).fit(X, y).predict(X)
    assert np.array_equal(labels[1], want)


def test_predict_subsets_stops_on_a_separated_subset_without_penalty(
    monkeypatch
):
    # Once an iterate separates the subset, the unpenalized objective has
    # no minimum to certify: the row leaves at once instead of running
    # Newton steps until its gradient vanishes (23 steps at alpha=1e-12).
    import repro.models.logistic as logistic

    x = np.linspace(-2.0, 2.0, 20)
    X = x[:, None]
    y = (x > 0).astype(int)
    mask = np.ones((1, 20), dtype=bool)
    steps = []
    solve = logistic._solve_stack
    monkeypatch.setattr(logistic, "_solve_stack",
                        lambda H, g: steps.append(g.shape[0]) or solve(H, g))
    __, certified = LogisticRegression(alpha=0.0).predict_subsets(X, y, mask,
                                                                  X)
    assert not certified[0]
    assert len(steps) <= 2
    steps.clear()
    __, certified = LogisticRegression(alpha=1e-12).predict_subsets(X, y,
                                                                    mask, X)
    assert not certified[0]
    assert len(steps) > 10


def test_predict_subsets_does_not_certify_a_point_on_the_boundary(separable):
    # fit's margin at a point on its own decision boundary is ~0, so the
    # batched solution's rounding could flip that label: no certificate.
    X, y = separable
    fitted = LogisticRegression().fit(X, y)
    w, b = fitted.coef_, fitted.intercept_
    on_boundary = -b * w / (w @ w)
    masks = np.ones((2, X.shape[0]), dtype=bool)
    __, certified = LogisticRegression().predict_subsets(
        X, y, masks, np.vstack([X[:3], on_boundary])
    )
    assert not certified.any()
    labels, certified = LogisticRegression().predict_subsets(X, y, masks,
                                                             X[:3])
    assert certified.all()
    assert np.array_equal(labels[0], fitted.predict(X[:3]))


def test_predict_subsets_leaves_a_singular_system_uncertified():
    # Two identical huge columns make the Hessian of every subset holding
    # point 0 exactly singular: fit raises on it, the batched solve must
    # not, and the other subsets still certify.
    rng = np.random.default_rng(0)
    X = rng.normal(0, 1, (30, 3))
    y = (X[:, 0] + rng.normal(0, 1, 30) > 0).astype(int)
    X[:, 1:] = 0.0
    X[0, 1:] = 1e12
    X_eval = rng.normal(0, 1, (10, 3))
    X_eval[:, 1:] = 0.0
    masks = np.ones((3, 30), dtype=bool)
    masks[1:, 0] = False
    masks[2, 5] = False
    with pytest.raises(np.linalg.LinAlgError):
        LogisticRegression().fit(X, y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        labels, certified = LogisticRegression().predict_subsets(
            X, y, masks, X_eval
        )
    assert certified.tolist() == [False, True, True]
    for r in (1, 2):
        want = LogisticRegression().fit(X[masks[r]], y[masks[r]]).predict(
            X_eval
        )
        assert np.array_equal(labels[r], want)


def test_predict_subsets_checks_its_inputs():
    X = np.zeros((6, 2))
    model = LogisticRegression()
    with pytest.raises(ValueError):
        model.predict_subsets(X, np.array([0, 1, 2, 0, 1, 2]),
                              np.ones((1, 6), dtype=bool), X)
    with pytest.raises(ValueError):
        model.predict_subsets(X, np.array([0, 1] * 3),
                              np.ones((1, 5), dtype=bool), X)
    with pytest.raises(ValueError):
        model.predict_subsets(X, np.array([0, 1] * 3),
                              np.ones((1, 6), dtype=bool), X[:, :1])
    assert not hasattr(model, "coef_")
