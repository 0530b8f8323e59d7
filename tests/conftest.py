"""Shared fixtures: small datasets and pre-trained models.

Everything is session-scoped and deterministic so the suite stays fast;
tests must not mutate fixture objects (copy first).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.datasets import (
    make_classification,
    make_income_dataset,
    make_loan_dataset,
    make_loan_scm,
)
from repro.models import (
    DecisionTreeClassifier,
    GradientBoostingClassifier,
    LogisticRegression,
)
from repro.models.model_selection import train_test_split


@pytest.fixture(scope="session")
def loan_data():
    return make_loan_dataset(500, seed=11)


@pytest.fixture(scope="session")
def loan_scm():
    return make_loan_scm()


@pytest.fixture(scope="session")
def income_data():
    return make_income_dataset(400, seed=7)


@pytest.fixture(scope="session")
def small_classification():
    return make_classification(300, n_features=6, n_informative=3, seed=5)


@pytest.fixture(scope="session")
def loan_split(loan_data):
    return train_test_split(loan_data.X, loan_data.y, test_size=0.3, seed=3)


@pytest.fixture(scope="session")
def loan_logistic(loan_split):
    X_train, __, y_train, __ = loan_split
    return LogisticRegression(alpha=1.0).fit(X_train, y_train)


@pytest.fixture(scope="session")
def loan_gbm(loan_split):
    X_train, __, y_train, __ = loan_split
    return GradientBoostingClassifier(
        n_estimators=25, max_depth=3, seed=0
    ).fit(X_train, y_train)


@pytest.fixture(scope="session")
def small_tree(small_classification):
    data = small_classification
    return DecisionTreeClassifier(max_depth=4, seed=0).fit(data.X, data.y)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


# Rows of the large tree probe batch: above one row block of the tree
# walk for every model the frozen-bits tests fit, and a multiple of none
# of those blocks.
TREE_PROBE_ROWS = 17391


def _tree_probes(X: np.ndarray) -> list[np.ndarray]:
    """Predict inputs around a training matrix ``X`` (at least 3 columns).

    One row; ``TREE_PROBE_ROWS`` rows; six rows holding NaN, +inf and
    -inf (as whole rows and as single entries); a Fortran-ordered block.
    """
    rng = np.random.default_rng(2024)
    n, d = TREE_PROBE_ROWS, X.shape[1]
    big = X[rng.integers(0, X.shape[0], n)] + rng.normal(0.0, 0.25, (n, d))
    odd = big[:6].copy()
    odd[0], odd[1], odd[2] = np.nan, np.inf, -np.inf
    odd[3, 0], odd[4, 1], odd[5, 2] = np.nan, np.inf, -np.inf
    return [big[:1], big, odd, np.asfortranarray(big[:301])]


@pytest.fixture(scope="session")
def tree_probes():
    """The probe inputs of the frozen-bits tests, as a function of ``X``."""
    return _tree_probes


@pytest.fixture(scope="session")
def tree_digest():
    """``digest(fn, X)``: sha256 of ``fn``'s float64 outputs on every
    probe input around ``X``, in order. Tests compare it with digests
    frozen from the list-walk implementation the array walk replaced."""

    def digest(fn, X: np.ndarray) -> str:
        h = hashlib.sha256()
        for probe in _tree_probes(X):
            out = np.ascontiguousarray(fn(probe), dtype=np.float64)
            h.update(out.tobytes())
        return h.hexdigest()

    return digest
