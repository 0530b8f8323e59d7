"""Gradient boosted trees for regression and binary classification.

The classifier boosts in log-odds space with the logistic deviance loss;
each stage fits a regression tree to the negative gradient and then
re-estimates leaf values with a single Newton step (as in standard GBM).
The ensemble exposes its stages and leaf structure because both TreeSHAP
and the tree-influence explainer traverse them, and tree influence
additionally needs leaf values re-derivable from per-sample gradient and
Hessian sums.
"""

from __future__ import annotations

import numpy as np

from ..persist.protocol import Serializable, register_serializable
from .base import BaseModel, ClassifierMixin, RegressorMixin
from .logistic import sigmoid
from .tree import DecisionTreeRegressor, StackedTrees

__all__ = ["GradientBoostingRegressor", "GradientBoostingClassifier"]


class _BaseGBM(Serializable, BaseModel):
    __persist_init__ = ("n_estimators", "learning_rate", "max_depth",
                        "min_samples_leaf", "subsample", "seed")
    __persist_state__ = ("init_raw_", "estimators_")

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        subsample: float = 1.0,
        seed: int = 0,
    ) -> None:
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.subsample = subsample
        self.seed = seed
        self._stacked = None

    def _stacked_stages(self) -> tuple[StackedTrees, np.ndarray]:
        """The stages stacked for one walk, and their leaf values.

        Derived state: built on the first predict after ``fit`` (which
        drops it) and never persisted.
        """
        if self._stacked is None:
            trees = [stage.tree_ for stage in self.estimators_]
            walk = StackedTrees(trees, max(
                (stage.n_features_ for stage in self.estimators_), default=0
            ))
            values = np.concatenate([np.zeros(0)]
                                    + [tree.value[:, 0] for tree in trees])
            self._stacked = (walk, values)
        return self._stacked

    def _raw_predict(self, X: np.ndarray) -> np.ndarray:
        self._check_fitted("estimators_")
        X = self._check_X(X)
        walk, values = self._stacked_stages()
        out = np.full(X.shape[0], self.init_raw_)
        for lo, hi, leaves in walk.blocks(X):
            block = out[lo:hi]
            # Stage by stage in fit order, as a per-tree loop adds them:
            # every output is bitwise what that loop gives.
            for stage in self.learning_rate * values[leaves]:
                block += stage
        return out

    def staged_raw_predict(self, X: np.ndarray):
        """Yield the raw prediction after each boosting stage."""
        self._check_fitted("estimators_")
        X = self._check_X(X)
        walk, values = self._stacked_stages()
        out = np.full(X.shape[0], self.init_raw_)
        for stage in self.learning_rate * values[walk.apply(X)]:
            out = out + stage
            yield out


@register_serializable("models.GradientBoostingRegressor")
class GradientBoostingRegressor(RegressorMixin, _BaseGBM):
    """Least-squares boosting: each stage fits the current residuals."""

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        X, y = self._check_Xy(X, y)
        y = y.astype(float)
        self._stacked = None
        rng = np.random.default_rng(self.seed)
        self.init_raw_ = float(y.mean())
        raw = np.full(y.shape[0], self.init_raw_)
        self.estimators_: list[DecisionTreeRegressor] = []
        n = y.shape[0]
        for _ in range(self.n_estimators):
            residual = y - raw
            if self.subsample < 1.0:
                idx = rng.choice(n, size=max(1, int(self.subsample * n)), replace=False)
            else:
                idx = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            )
            tree.fit(X[idx], residual[idx])
            raw += self.learning_rate * tree.predict(X)
            self.estimators_.append(tree)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self._raw_predict(X)


@register_serializable("models.GradientBoostingClassifier")
class GradientBoostingClassifier(ClassifierMixin, _BaseGBM):
    """Binary logistic boosting with Newton-step leaf values.

    Raw scores are log-odds; ``predict_proba`` applies the sigmoid. Leaf
    values are ``Σ g / (Σ h + λ)`` over the leaf's samples, with ``g`` the
    negative gradient (y − p) and ``h = p(1 − p)`` the Hessian — the form
    the LeafInfluence-style explainer differentiates.
    """

    __persist_init__ = _BaseGBM.__persist_init__ + ("leaf_l2",)
    __persist_state__ = _BaseGBM.__persist_state__ + ("classes_",)

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 1,
        subsample: float = 1.0,
        leaf_l2: float = 1e-6,
        seed: int = 0,
    ) -> None:
        super().__init__(n_estimators, learning_rate, max_depth,
                         min_samples_leaf, subsample, seed)
        self.leaf_l2 = leaf_l2

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingClassifier":
        X, y = self._check_Xy(X, y)
        self.classes_, encoded = self._encode_labels(y)
        if len(self.classes_) != 2:
            raise ValueError("GradientBoostingClassifier is binary")
        t = encoded.astype(float)
        self._stacked = None
        rng = np.random.default_rng(self.seed)
        # Initial raw score: log-odds of the base rate (clipped).
        p0 = np.clip(t.mean(), 1e-6, 1 - 1e-6)
        self.init_raw_ = float(np.log(p0 / (1 - p0)))
        raw = np.full(t.shape[0], self.init_raw_)
        self.estimators_: list[DecisionTreeRegressor] = []
        n = t.shape[0]
        for _ in range(self.n_estimators):
            p = sigmoid(raw)
            g = t - p                  # negative gradient
            h = np.maximum(p * (1 - p), 1e-12)
            if self.subsample < 1.0:
                idx = rng.choice(n, size=max(1, int(self.subsample * n)), replace=False)
            else:
                idx = np.arange(n)
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            )
            tree.fit(X[idx], g[idx])
            self._newton_leaf_values(tree, X[idx], g[idx], h[idx])
            raw += self.learning_rate * tree.predict(X)
            self.estimators_.append(tree)
        return self

    def _newton_leaf_values(self, tree: DecisionTreeRegressor,
                            X: np.ndarray, g: np.ndarray, h: np.ndarray) -> None:
        """Replace mean-of-gradients leaf values by Σg / (Σh + λ).

        One ``g[mask].sum()`` per leaf: a ``bincount`` would sum in
        another order and move the last bits of the leaf values.
        """
        leaves = tree.tree_.apply(X)
        value = tree.tree_.value
        for leaf in np.unique(leaves):
            mask = leaves == leaf
            value[leaf] = g[mask].sum() / (h[mask].sum() + self.leaf_l2)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw log-odds scores."""
        return self._raw_predict(X)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p1 = sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])
