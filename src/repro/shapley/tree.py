"""TreeSHAP: polynomial-time exact Shapley values for tree ensembles.

Implements the path-dependent algorithm of Lundberg et al. (2020, "From
local explanations to global understanding with explainable AI for
trees"): Shapley values of the *tree conditional expectation* game

    v(S) = EXPVALUE(x, S) — follow the tree; at a split on a feature
    outside S, average both children weighted by training cover,

computed for all features simultaneously in O(L·D²) per tree with the
EXTEND/UNWOUND-SUM summary of feature-subset proportions.
:func:`tree_expected_value` is the direct (exponential when combined
with subset enumeration) oracle of the same game; the test suite checks
the fast algorithm against exact enumeration through it.

Supported models: both CART trees, :class:`RandomForestClassifier`
(explains the averaged class-1 probability) and the gradient boosting
models (explains the raw additive score — log-odds for the classifier).

One kernel over leaf-path tables. A leaf's share of v(S) factors over
the distinct features on its path: a feature in S contributes whether
x passes every test the path makes on it (the *one fraction*), a
feature outside S the product of its cover fractions (the *zero
fraction*). So each root-to-leaf path's Shapley weights come from
EXTEND over that path's k elements and UNWOUND-SUM for each element,
with no reference to the rest of the tree — the GPUTreeShap formulation
(Mitchell, Frank & Holmes, PeerJ CS 2022). :class:`TreePrecompute`
stacks the component trees' :meth:`~repro.models.tree.TreeStructure.leaf_paths`
once per model, groups them by k, and runs EXTEND and UNWOUND-SUM over
(slot × path × row) arrays: O(k) numpy calls per group, in row blocks
of about ``_BLOCK_CELLS`` cells. ``explain`` runs the same kernel on one
row. Each row's φ is accumulated by ``np.bincount`` over (row, feature)
keys, which adds a row's terms in a fixed (group, slot, path) order, so
a row's values do not depend on the rows beside it: they are bitwise
equal across ``explain`` and ``explain_batch``, backends and batch
splits.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..core.base import batch_matrix, finish_batch, screen_rows
from ..core.explanation import FeatureAttribution
from ..exec import map_shards, plan_shards, resolve_backend, resolve_n_procs
from ..obs import instrument_explainer
from ..obs.trace import current_span
from ..robust.guard import check_instance
from ..models.boosting import GradientBoostingClassifier, GradientBoostingRegressor
from ..models.forest import RandomForestClassifier
from ..models.tree import (
    DecisionTreeClassifier,
    DecisionTreeRegressor,
    TreeStructure,
)

__all__ = [
    "tree_expected_value",
    "TreePrecompute",
    "TreeShapExplainer",
]

# (slots × paths × rows) cells per kernel block, which keeps each float
# temporary at 64 KiB. In five interleaved sweeps of 256-row batches (the
# loan GBM, a depth-6 tree over 12 features, a 20-tree forest of 702
# paths), 2^13 cells ran fast in every process (forest 55–59 ms); 2^14
# and 2^15 ran as fast or faster in some processes and 1.3–1.9× slower in
# others, and 2^12 cells and unblocked batches ran up to 1.5× slower.
_BLOCK_CELLS = 1 << 13


def tree_expected_value(
    tree: TreeStructure,
    x: np.ndarray,
    mask: np.ndarray,
    class_index: int | None = None,
) -> float:
    """EXPVALUE: conditional expectation of the tree with features S fixed.

    ``mask[j]`` true means feature ``j`` is *present* (follows ``x``);
    absent features are integrated out by cover-weighted averaging. A
    recursion over the node arrays that shares no code with the
    path-table kernel, so tests can enumerate through it.
    """
    x = np.asarray(x, dtype=float).ravel()
    mask = np.asarray(mask, dtype=bool).ravel()
    feature = tree.feature.tolist()
    threshold = tree.threshold.tolist()
    left, right = tree.children_left.tolist(), tree.children_right.tolist()
    cover = tree.n_node_samples.tolist()
    value = tree.value[:, 0 if class_index is None else class_index].tolist()

    def recurse(node: int) -> float:
        f = feature[node]
        if f == -1:
            return value[node]
        a, b = left[node], right[node]
        if mask[f]:
            return recurse(a if x[f] <= threshold[node] else b)
        return (cover[a] * recurse(a) + cover[b] * recurse(b)) / (cover[a] + cover[b])

    return recurse(0)


class PathGroup(NamedTuple):
    """The stacked leaf paths with k distinct features, slot-major:
    ``feature``, ``lo``, ``hi`` and ``zero`` are ``(k, n)`` arrays and
    ``value`` (tree weight × leaf value) is ``(n,)``."""

    feature: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    zero: np.ndarray
    value: np.ndarray


class _Factors(NamedTuple):
    """A group's row-independent EXTEND and UNWOUND-SUM factors, shaped
    to broadcast against ``(slot, path, row)`` arrays."""

    grow: list  # [d]: (i + 1) / (d + 1) for i < d
    shrink: list  # [d]: zero of element d × (d − i) / (d + 1)
    carry: list  # [i]: zero × (k − i) / (k + 1), per element
    hot_value: np.ndarray  # (1 − zero) × value, per element
    cold_value: np.ndarray  # −value


def _factors(group: PathGroup) -> _Factors:
    k = group.feature.shape[0]
    zero = group.zero[..., None]
    grow, shrink = [None], [None]
    for d in range(1, k + 1):
        i = np.arange(d)[:, None, None]
        grow.append((i + 1) / (d + 1))
        shrink.append(zero[d - 1] * (d - i) / (d + 1))
    return _Factors(
        grow, shrink, [zero * (k - i) / (k + 1) for i in range(k)],
        (1.0 - zero) * group.value[:, None], -group.value[:, None],
    )


def row_blocks(n_rows: int, group: PathGroup):
    """``(lo, hi)`` row ranges of about ``_BLOCK_CELLS`` cells of ``group``."""
    step = max(1, _BLOCK_CELLS // max(1, group.feature.size))
    for lo in range(0, n_rows, step):
        yield lo, min(n_rows, lo + step)


def _path_shap(group: PathGroup, factors: _Factors, X: np.ndarray
               ) -> np.ndarray:
    """φ of every row of ``X`` over one group's paths, ``(rows, d)``."""
    n_rows, d = X.shape
    k, n_paths = group.feature.shape
    x = X.T[group.feature]
    one = (group.lo[..., None] < x) & (x <= group.hi[..., None])
    # EXTEND: pweight 0 is the root's, element j the path's j-th
    # feature; the one fraction is x's interval indicator.
    w = np.zeros((k + 1, n_paths, n_rows))
    w[0] = 1.0
    for depth in range(1, k + 1):
        grown = w[:depth] * factors.grow[depth]
        grown *= one[depth - 1]
        w[:depth] *= factors.shrink[depth]
        w[1:depth + 1] += grown
    # UNWOUND-SUM of every element at once. A hot element (one fraction
    # 1) unwinds through the (i + 1) divisors. A cold one (0) unwinds to
    # Σ_i w[i] (k + 1) / (zero (k − i)), and its term, that times
    # −zero × value, is −value × Σ_i w[i] (k + 1) / (k − i): one sum
    # serves every cold element of a path, and no zero is divided by.
    hot_sum = np.zeros((k, n_paths, n_rows))
    cold_sum = np.zeros((n_paths, n_rows))
    next_one = w[k]
    for i in range(k - 1, -1, -1):
        hot = next_one * ((k + 1) / (i + 1))
        hot_sum += hot
        next_one = w[i] - hot * factors.carry[i]
        cold_sum += w[i] * ((k + 1) / (k - i))
    terms = np.where(one, hot_sum * factors.hot_value,
                     cold_sum * factors.cold_value)
    keys = group.feature[..., None] + np.arange(0, n_rows * d, d)
    return np.bincount(keys.ravel(), terms.ravel(),
                       minlength=n_rows * d).reshape(n_rows, d)


# Per-model precompute store: one TreePrecompute per live model object,
# shared by every explainer built on it (and by forked process-backend
# workers, which inherit it copy-on-write), next to the component trees
# it was built from. Weak keys keep the store from pinning models in
# memory.
_PRECOMPUTE_STORE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


@dataclass
class TreePrecompute:
    """One tree model's leaf paths, stacked and grouped by k.

    Built once per model (see :func:`tree_precompute`). ``groups`` holds
    one :class:`PathGroup` per k in increasing order, the component
    trees' paths in component and leaf order; ``offset`` is the constant
    every output adds (gradient boosting's ``init_raw_``), and
    ``expected_value`` the cover-weighted mean output,
    ``offset + Σ value × Π zero``.
    """

    groups: list
    offset: float
    expected_value: float

    def __post_init__(self) -> None:
        self._factors = [_factors(group) for group in self.groups]

    def shap_values(self, X: np.ndarray) -> np.ndarray:
        """Ensemble Shapley values for every row of ``X``.

        Per group and row block, one ``np.bincount`` over (row,
        feature) keys adds a row's terms in (slot, path) order.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        phi = np.zeros(X.shape)
        for group, factors in zip(self.groups, self._factors):
            if group.feature.shape[0]:
                for lo, hi in row_blocks(X.shape[0], group):
                    phi[lo:hi] += _path_shap(group, factors, X[lo:hi])
        return phi


def _stack_paths(components, offset: float) -> TreePrecompute:
    parts: dict[int, list] = {}
    for tree, weight, class_index in components:
        paths = tree.leaf_paths()
        column = 0 if class_index is None else class_index
        value = weight * tree.value[paths.leaf, column]
        for k in np.unique(paths.k).tolist():
            rows = paths.k == k
            parts.setdefault(k, []).append((
                paths.feature[rows, :k], paths.lo[rows, :k],
                paths.hi[rows, :k], paths.zero[rows, :k], value[rows],
            ))
    # Slot-major and C-contiguous, so the kernel's arrays are too.
    groups = [PathGroup(*(np.concatenate(arrays).T.copy()
                          for arrays in zip(*parts[k])))
              for k in sorted(parts)]
    expected = offset + sum(
        float(np.sum(group.value * np.prod(group.zero, axis=0)))
        for group in groups
    )
    return TreePrecompute(groups, float(offset), float(expected))


def tree_precompute(model, components, offset: float) -> TreePrecompute:
    """The model's cached :class:`TreePrecompute`, built on first use.

    A stored precompute serves only while ``components`` holds the very
    tree objects it was built from. Fitting the model again replaces
    its trees, so the next call after a refit builds a new one.
    """
    trees = [tree for tree, __, __ci in components]
    try:
        cached = _PRECOMPUTE_STORE.get(model)
    except TypeError:
        cached = None
    if cached is not None and len(cached[0]) == len(trees) and all(
        old is new for old, new in zip(cached[0], trees)
    ):
        return cached[1]
    pre = _stack_paths(components, offset)
    try:
        _PRECOMPUTE_STORE[model] = (trees, pre)
    except TypeError:
        pass
    return pre


@instrument_explainer
class TreeShapExplainer:
    """Path-dependent TreeSHAP over any tree model in :mod:`repro.models`.

    For ensembles, per-tree Shapley values add (the game value functions
    add), so the explainer sums stage contributions — scaled by the
    learning rate for boosting, averaged for forests.
    """

    method_name = "tree_shap"

    def __init__(self, model) -> None:
        self.model = model
        self._components = self._decompose(model)
        members = getattr(model, "estimators_", [model])
        self._n_features = max((member.n_features_ for member in members),
                              default=None)
        offset = (model.init_raw_ if isinstance(
            model, (GradientBoostingClassifier, GradientBoostingRegressor)
        ) else 0.0)
        self._precompute = tree_precompute(model, self._components, offset)

    @staticmethod
    def _decompose(model) -> list[tuple[TreeStructure, float, int | None]]:
        """Flatten a model into ``(structure, weight, class_index)`` terms."""
        if isinstance(model, (DecisionTreeRegressor,)):
            return [(model.tree_, 1.0, None)]
        if isinstance(model, DecisionTreeClassifier):
            return [(model.tree_, 1.0, int(np.argmax(model.classes_)))]
        if isinstance(model, RandomForestClassifier):
            weight = 1.0 / len(model.estimators_)
            out = []
            for tree in model.estimators_:
                # Positive class column within this tree's own class order.
                pos = int(np.searchsorted(tree.classes_, model.classes_[-1]))
                if tree.classes_[pos] != model.classes_[-1]:
                    raise ValueError("tree missing the ensemble's positive class")
                out.append((tree.tree_, weight, pos))
            return out
        if isinstance(model, (GradientBoostingClassifier, GradientBoostingRegressor)):
            return [
                (stage.tree_, model.learning_rate, None)
                for stage in model.estimators_
            ]
        raise TypeError(
            f"TreeShapExplainer does not support {type(model).__name__}"
        )

    @property
    def expected_value(self) -> float:
        """Base value: the ensemble's cover-weighted expected output,
        read from the path table when the explainer is built."""
        return self._precompute.expected_value

    def precompute(self) -> TreePrecompute:
        """This model's shared :class:`TreePrecompute`."""
        return self._precompute

    def _model_output_batch(self, X: np.ndarray) -> np.ndarray:
        if isinstance(self.model, GradientBoostingClassifier):
            return np.asarray(self.model.decision_function(X), dtype=float)
        if isinstance(self.model, (DecisionTreeRegressor,
                                   GradientBoostingRegressor)):
            return np.asarray(self.model.predict(X), dtype=float)
        return np.asarray(self.model.predict_proba(X)[:, -1], dtype=float)

    def _explain_rows(self, X: np.ndarray, feature_names: list[str] | None
                      ) -> list[FeatureAttribution]:
        phi = self._precompute.shap_values(X)
        preds = self._model_output_batch(X)
        names = feature_names or [f"x{i}" for i in range(X.shape[1])]
        return [
            FeatureAttribution(
                values=phi[r],
                feature_names=names,
                base_value=self.expected_value,
                prediction=float(preds[r]),
                method=self.method_name,
                meta={"n_trees": len(self._components)},
            )
            for r in range(X.shape[0])
        ]

    def explain(self, x: np.ndarray, feature_names: list[str] | None = None
                ) -> FeatureAttribution:
        """One instance through the path-table kernel.

        The same kernel as :meth:`explain_batch`, on one row, so the two
        agree bitwise. An instance of the wrong width, with no entries
        or with a non-finite entry raises :class:`InputValidationError`.
        """
        x = check_instance(x, self._n_features)
        return self._explain_rows(x[None, :], feature_names)[0]

    def explain_batch(
        self,
        X: np.ndarray,
        feature_names: list[str] | None = None,
        backend: str | None = None,
        n_procs: int | None = None,
        return_errors: bool = False,
    ) -> list[FeatureAttribution] | tuple[list, list]:
        """Explain every row through one pass of the path-table kernel.

        ``backend="process"``/``"thread"`` shards contiguous row ranges —
        the precompute ships to forked workers once via copy-on-write,
        not per shard. A row's values do not depend on the rows beside
        it, so results are bitwise-identical to per-row :meth:`explain`
        and across backends and batch splits.

        Failures follow the base ``explain_batch`` contract: a row that
        ``explain`` would refuse fails alone as a
        :class:`repro.robust.BatchRowError` before the kernel runs, the
        other rows keep their values, and ``return_errors`` chooses
        between ``(results, errors)`` and
        :class:`repro.robust.PartialBatchError`.
        """
        X = batch_matrix(X)
        backend_name = resolve_backend(backend)
        sp = current_span()
        if sp is not None:
            sp.set_attr("amortized", True)
        outcomes, keep = screen_rows(X, self._n_features)
        if keep.size:
            rows = X if keep.size == X.shape[0] else X[keep]
            results = self._explain_sharded(rows, feature_names,
                                            backend_name, n_procs)
            for i, result in zip(keep, results):
                outcomes[i] = (result, None)
        return finish_batch(outcomes, return_errors)

    def _explain_sharded(self, X, feature_names, backend_name, n_procs
                         ) -> list[FeatureAttribution]:
        def run_rows(bounds):
            lo, hi = bounds
            return self._explain_rows(X[lo:hi], feature_names)

        n_rows = X.shape[0]
        if backend_name == "serial" or n_rows < 2:
            return run_rows((0, n_rows))
        plan = plan_shards(n_rows, resolve_n_procs(n_procs))
        if plan.n_shards < 2:
            return run_rows((0, n_rows))
        outcomes = map_shards(
            run_rows, list(plan.slices), backend=backend_name,
            n_procs=n_procs, split_scope=False,
        )
        results: list[FeatureAttribution] = []
        for outcome in outcomes:
            if not outcome.ok:
                raise outcome.error
            results.extend(outcome.value)
        return results

    def value_function(self, x: np.ndarray):
        """The ensemble's EXPVALUE game as a batched coalition function.

        Exponential when fed to :func:`repro.shapley.exact.exact_shapley`;
        exists for cross-validation of the fast algorithm.
        """
        x = np.asarray(x, dtype=float).ravel()

        def v(masks: np.ndarray) -> np.ndarray:
            masks = np.atleast_2d(masks)
            out = np.zeros(masks.shape[0])
            for row, mask in enumerate(masks):
                out[row] = self._precompute.offset + sum(
                    weight * tree_expected_value(tree, x, mask, ci)
                    for tree, weight, ci in self._components
                )
            return out

        return v
