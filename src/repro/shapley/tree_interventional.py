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

The kernel reads the same leaf-path table as path-dependent TreeSHAP
(:class:`~repro.shapley.tree.TreePrecompute`): a path feature's
conditions hold for a value v exactly when ``lo < v <= hi``, so per
k-group one set of array operations over (background rows × paths × k)
finds every pair's A, B and dead paths (Laberge & Pequignot,
"Understanding Interventional TreeSHAP: How and Why It Works", 2022).
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np

from ..core.explanation import FeatureAttribution
from ..obs import instrument_explainer
from ..robust.guard import check_instance
from .tree import TreePrecompute, TreeShapExplainer, row_blocks

__all__ = ["InterventionalTreeShapExplainer"]


@lru_cache(maxsize=None)
def _shapley_weights(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(a−1)!·b!/(a+b)!`` and ``a!·(b−1)!/(a+b)!`` indexed ``[a, b]``
    for a + b ≤ k; 0 where a (resp. b) is 0. Shared, so read-only."""
    w_x, w_z = np.zeros((k + 1, k + 1)), np.zeros((k + 1, k + 1))
    for a in range(k + 1):
        for b in range(k + 1 - a):
            total = factorial(a + b)
            if a:
                w_x[a, b] = factorial(a - 1) * factorial(b) / total
            if b:
                w_z[a, b] = factorial(a) * factorial(b - 1) / total
    w_x.flags.writeable = w_z.flags.writeable = False
    return w_x, w_z


def _interventional_values(pre: TreePrecompute, x: np.ndarray,
                           background: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact Shapley values of the marginal game; returns ``(phi, base)``.

    ``base`` is the mean model output over the background (v(∅)).
    """
    phi = np.zeros(x.shape[0])
    base = 0.0
    for group in pre.groups:
        lo, hi = group.lo[..., None], group.hi[..., None]
        xs = x[group.feature][..., None]
        x_ok = (lo < xs) & (xs <= hi)  # (slot, path, 1)
        w_x, w_z = _shapley_weights(group.feature.shape[0])
        for start, stop in row_blocks(background.shape[0], group):
            zs = background[start:stop].T[group.feature]
            z_ok = (lo < zs) & (zs <= hi)  # (slot, path, background row)
            only_x, only_z = x_ok & ~z_ok, z_ok & ~x_ok
            a, b = only_x.sum(axis=0), only_z.sum(axis=0)
            value = np.where((x_ok | z_ok).all(axis=0),
                             group.value[:, None], 0.0)
            base += float(value[a == 0].sum())
            terms = value * (only_x * w_x[a, b] - only_z * w_z[a, b])
            keys = np.broadcast_to(group.feature[..., None], terms.shape)
            phi += np.bincount(keys.ravel(), terms.ravel(),
                               minlength=phi.shape[0])
    n_background = background.shape[0]
    return phi / n_background, pre.offset + base / n_background


@instrument_explainer
class InterventionalTreeShapExplainer:
    """Background-based exact SHAP for any tree model in the library.

    Same ensemble decomposition and path table as
    :class:`TreeShapExplainer`, built when the explainer is; the games
    add across trees, so each path's value carries its tree's weight.
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
        phi, base = _interventional_values(
            self._delegate.precompute(), x, self.background
        )
        names = feature_names or [f"x{i}" for i in range(x.shape[0])]
        return FeatureAttribution(
            values=phi,
            feature_names=names,
            base_value=base,
            prediction=float(self._delegate._model_output_batch(x[None, :])[0]),
            method=self.method_name,
            meta={"n_background": self.background.shape[0]},
        )
