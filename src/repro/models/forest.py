"""Random forest classifier: bagging + per-node feature subsampling."""

from __future__ import annotations

import numpy as np

from ..persist.protocol import Serializable, register_serializable
from .base import BaseModel, ClassifierMixin
from .tree import DecisionTreeClassifier, StackedTrees

__all__ = ["RandomForestClassifier"]


@register_serializable("models.RandomForestClassifier")
class RandomForestClassifier(Serializable, ClassifierMixin, BaseModel):
    """Ensemble of CART trees on bootstrap resamples.

    Parameters
    ----------
    n_estimators:
        Number of trees.
    max_features:
        Features considered per split; ``None`` defaults to ⌈√d⌉.
    bootstrap:
        Draw each tree's training set with replacement; when ``False``
        every tree sees the full data (diversity then comes only from
        feature subsampling).
    """

    __persist_init__ = ("n_estimators", "max_depth", "min_samples_leaf",
                        "max_features", "bootstrap", "seed")
    __persist_state__ = ("classes_", "estimators_", "_sample_indices")

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        bootstrap: bool = True,
        seed: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be positive")
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self._stacked = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X, y = self._check_Xy(X, y)
        self._stacked = None
        self.classes_ = np.unique(y)
        rng = np.random.default_rng(self.seed)
        n, d = X.shape
        max_features = self.max_features or max(1, int(np.ceil(np.sqrt(d))))
        self.estimators_: list[DecisionTreeClassifier] = []
        self._sample_indices: list[np.ndarray] = []
        for t in range(self.n_estimators):
            if self.bootstrap:
                idx = rng.integers(0, n, size=n)
            else:
                idx = np.arange(n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=max_features,
                seed=int(rng.integers(0, 2**31 - 1)),
            )
            # Refuse degenerate bootstrap draws with a single class: resample.
            attempts = 0
            while np.unique(y[idx]).size < self.classes_.size and attempts < 10:
                idx = rng.integers(0, n, size=n)
                attempts += 1
            tree.fit(X[idx], y[idx])
            self.estimators_.append(tree)
            self._sample_indices.append(idx)
        return self

    def _stacked_trees(self) -> tuple[StackedTrees, np.ndarray]:
        """The trees stacked for one walk, and their class-aligned values.

        A tree's value columns follow its own ``classes_`` (a bootstrap
        sample can miss a class); the stacked values put them under the
        forest's columns, with 0 for a class the tree never saw. Derived
        state: built on the first predict after ``fit`` (which drops it)
        and never persisted.
        """
        if self._stacked is None:
            aligned = []
            for tree in self.estimators_:
                values = np.zeros((tree.tree_.n_nodes, len(self.classes_)))
                columns = np.searchsorted(self.classes_, tree.classes_)
                values[:, columns] = tree.tree_.value
                aligned.append(values)
            walk = StackedTrees(
                [tree.tree_ for tree in self.estimators_],
                max(tree.n_features_ for tree in self.estimators_),
            )
            self._stacked = (walk, np.concatenate(aligned))
        return self._stacked

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted("estimators_")
        X = self._check_X(X)
        walk, values = self._stacked_trees()
        proba = np.zeros((X.shape[0], len(self.classes_)))
        for lo, hi, leaves in walk.blocks(X):
            block = proba[lo:hi]
            for tree_leaves in leaves:  # trees in fit order
                block += values[tree_leaves]
        return proba / len(self.estimators_)
