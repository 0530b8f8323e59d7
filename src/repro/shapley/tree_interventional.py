"""Interventional TreeSHAP: exact Shapley values against a background
distribution [Lundberg et al. 2020, "Independent TreeSHAP"].

Path-dependent TreeSHAP explains the tree's own cover-weighted
conditional-expectation game, which inherits the training data's feature
correlations. The *interventional* variant explains the marginal game

    v(S) = E_z[ T(x_S, z_{N∖S}) ]

against explicit background rows, the same game Kernel SHAP approximates
— but exactly and in O(L·D) per (instance, background) pair.

The closed form per background row z: a leaf ℓ is reachable under
coalition S iff every path feature whose conditions only **x** satisfies
is in S (call them A, |A| = a) and every path feature whose conditions
only **z** satisfies is out of S (B, |B| = b); features satisfying both
ways are free, features satisfying neither kill the leaf. The Shapley
value of that reachability indicator is

    φ_i = (a−1)!·b!/(a+b)!   for i ∈ A,
    φ_j = −a!·(b−1)!/(a+b)!  for j ∈ B,

so each leaf contributes its value times these weights — summed over
leaves and averaged over the background.
"""

from __future__ import annotations

from collections import defaultdict
from math import factorial

import numpy as np

from ..core.explanation import FeatureAttribution
from ..obs import instrument_explainer
from ..models.tree import TreeLists, TreeStructure
from ..robust.guard import check_instance
from .tree import TreeShapExplainer, _leaf_scalar

__all__ = ["interventional_tree_shap", "InterventionalTreeShapExplainer"]


def _leaf_paths(tree: TreeLists):
    """Yield ``(leaf, conditions)`` with per-feature condition lists.

    Each condition is ``(threshold, went_left)``: satisfied by value v
    iff ``v <= threshold`` when left else ``v > threshold``.
    """
    out = []

    def walk(node: int, conditions: dict[int, list[tuple[float, bool]]]):
        if tree.is_leaf(node):
            out.append((node, {k: list(v) for k, v in conditions.items()}))
            return
        feature = tree.feature[node]
        threshold = tree.threshold[node]
        conditions.setdefault(feature, []).append((threshold, True))
        walk(tree.children_left[node], conditions)
        conditions[feature][-1] = (threshold, False)
        walk(tree.children_right[node], conditions)
        conditions[feature].pop()
        if not conditions[feature]:
            del conditions[feature]

    walk(0, {})
    return out


def _satisfies(value: float, conditions: list[tuple[float, bool]]) -> bool:
    return all(
        (value <= threshold) if went_left else (value > threshold)
        for threshold, went_left in conditions
    )


def interventional_tree_shap(
    tree: TreeStructure,
    x: np.ndarray,
    background: np.ndarray,
    n_features: int,
    class_index: int | None = None,
) -> tuple[np.ndarray, float]:
    """Exact Shapley values of the marginal game; returns ``(phi, base)``.

    ``base`` is the mean tree output over the background (v(∅)).
    """
    x = np.asarray(x, dtype=float).ravel()
    background = np.atleast_2d(np.asarray(background, dtype=float))
    tree = tree.as_lists()
    paths = _leaf_paths(tree)
    phi = np.zeros(n_features)
    base = 0.0
    for z in background:
        for leaf, conditions in paths:
            value = _leaf_scalar(tree, leaf, class_index)
            x_only, z_only = [], []
            dead = False
            for feature, terms in conditions.items():
                x_ok = _satisfies(x[feature], terms)
                z_ok = _satisfies(z[feature], terms)
                if x_ok and not z_ok:
                    x_only.append(feature)
                elif z_ok and not x_ok:
                    z_only.append(feature)
                elif not x_ok and not z_ok:
                    dead = True
                    break
            if dead:
                continue
            a, b = len(x_only), len(z_only)
            if a == 0:
                base += value  # reachable with the empty coalition
            if a + b == 0:
                continue  # constant contribution, no attribution
            total = factorial(a + b)
            if a > 0:
                weight = factorial(a - 1) * factorial(b) / total
                for feature in x_only:
                    phi[feature] += value * weight
            if b > 0:
                weight = factorial(a) * factorial(b - 1) / total
                for feature in z_only:
                    phi[feature] -= value * weight
    n_background = background.shape[0]
    return phi / n_background, base / n_background


@instrument_explainer
class InterventionalTreeShapExplainer:
    """Background-based exact SHAP for any tree model in the library.

    Same ensemble decomposition as :class:`TreeShapExplainer`; the games
    add across trees, so per-tree values are combined with the ensemble
    weights.
    """

    method_name = "interventional_tree_shap"

    def __init__(self, model, background: np.ndarray,
                 max_background: int = 50, seed: int = 0) -> None:
        background = np.atleast_2d(np.asarray(background, dtype=float))
        if background.shape[0] > max_background:
            rng = np.random.default_rng(seed)
            idx = rng.choice(background.shape[0], max_background, replace=False)
            background = background[idx]
        self.background = background
        self._delegate = TreeShapExplainer(model)
        self.model = model

    def explain(self, x: np.ndarray, feature_names: list[str] | None = None
                ) -> FeatureAttribution:
        x = check_instance(x, self._delegate._n_features)
        n = x.shape[0]
        phi = np.zeros(n)
        base = 0.0
        for tree, weight, class_index in self._delegate._components:
            tree_phi, tree_base = interventional_tree_shap(
                tree, x, self.background, n, class_index
            )
            phi += weight * tree_phi
            base += weight * tree_base
        from ..models.boosting import (
            GradientBoostingClassifier,
            GradientBoostingRegressor,
        )

        if isinstance(self.model,
                      (GradientBoostingClassifier, GradientBoostingRegressor)):
            base += self.model.init_raw_
        names = feature_names or [f"x{i}" for i in range(n)]
        return FeatureAttribution(
            values=phi,
            feature_names=names,
            base_value=base,
            prediction=self._delegate._model_output(x),
            method=self.method_name,
            meta={"n_background": self.background.shape[0]},
        )
