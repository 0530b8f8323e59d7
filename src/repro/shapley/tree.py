"""TreeSHAP: polynomial-time exact Shapley values for tree ensembles.

Implements the path-dependent algorithm of Lundberg et al. (2020, "From
local explanations to global understanding with explainable AI for
trees"): Shapley values of the *tree conditional expectation* game

    v(S) = EXPVALUE(x, S) — follow the tree; at a split on a feature
    outside S, average both children weighted by training cover,

computed for all features simultaneously in O(L·D²) per tree by carrying
the EXTEND/UNWIND summary of feature-subset proportions down each
root-to-leaf path. :func:`tree_expected_value` is the direct (exponential
when combined with subset enumeration) oracle of the same game; the test
suite checks the fast algorithm against exact enumeration through it.

Supported models: both CART trees, :class:`RandomForestClassifier`
(explains the averaged class-1 probability) and the gradient boosting
models (explains the raw additive score — log-odds for the classifier).

Amortization (PR 7): the recursion's *structure* — node arrays, leaf
scalars, per-child cover fractions, the ensemble expected value — does
not depend on the instance, so :class:`TreePrecompute` extracts it once
per model (cached across explainer instances, inherited read-only by
process-backend shards via fork) and
:func:`batch_tree_shap_values` then runs one traversal with the numeric
path state held as per-row *vectors*: the whole batch is explained in a
single O(nodes · depth²) pass instead of a full re-traversal per row.
Hot/cold asymmetry between instances lives entirely in the
``one_fraction`` entries (the ``zero_fraction`` chain is cover-only and
row-independent), so every elementwise operation reproduces the scalar
algorithm's arithmetic exactly; the fused pass visits children in fixed
left-then-right order (the scalar path recurses hot-first), which can
differ from :func:`tree_shap_values` in the last ulp of the leaf
accumulation. Since the kernel is elementwise per row, fused results are
bitwise-identical across backends, batch splits and batch sizes; only
the scalar-vs-fused comparison carries the ulp caveat. Single-row
``explain`` stays on the scalar kernel (numpy per-node overhead only
amortizes across rows); ``explain_batch`` uses the fused kernel.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

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
    TreeLists,
    TreeStructure,
)

__all__ = [
    "tree_shap_values",
    "tree_expected_value",
    "batch_tree_shap_values",
    "TreePrecompute",
    "TreeShapExplainer",
]


def _leaf_scalar(tree: TreeLists, node: int, class_index: int | None) -> float:
    value = tree.value[node]
    if class_index is None:
        return float(value[0])
    return float(value[class_index])


def tree_expected_value(
    tree: TreeStructure,
    x: np.ndarray,
    mask: np.ndarray,
    class_index: int | None = None,
) -> float:
    """EXPVALUE: conditional expectation of the tree with features S fixed.

    ``mask[j]`` true means feature ``j`` is *present* (follows ``x``);
    absent features are integrated out by cover-weighted averaging.
    """
    x = np.asarray(x, dtype=float).ravel()
    mask = np.asarray(mask, dtype=bool).ravel()
    tree = tree.as_lists()

    def recurse(node: int) -> float:
        if tree.is_leaf(node):
            return _leaf_scalar(tree, node, class_index)
        feature = tree.feature[node]
        left, right = tree.children_left[node], tree.children_right[node]
        if mask[feature]:
            child = left if x[feature] <= tree.threshold[node] else right
            return recurse(child)
        w_left = tree.n_node_samples[left]
        w_right = tree.n_node_samples[right]
        total = w_left + w_right
        return (w_left * recurse(left) + w_right * recurse(right)) / total

    return recurse(0)


class _PathElement:
    """One entry of the TreeSHAP path summary."""

    __slots__ = ("feature", "zero_fraction", "one_fraction", "pweight")

    def __init__(self, feature: int = -1, zero_fraction: float = 0.0,
                 one_fraction: float = 0.0, pweight: float = 0.0) -> None:
        self.feature = feature
        self.zero_fraction = zero_fraction
        self.one_fraction = one_fraction
        self.pweight = pweight

    def copy(self) -> "_PathElement":
        return _PathElement(
            self.feature, self.zero_fraction, self.one_fraction, self.pweight
        )


def _extend(path: list[_PathElement], depth: int, zero_fraction: float,
            one_fraction: float, feature: int) -> None:
    path[depth].feature = feature
    path[depth].zero_fraction = zero_fraction
    path[depth].one_fraction = one_fraction
    path[depth].pweight = 1.0 if depth == 0 else 0.0
    for i in range(depth - 1, -1, -1):
        path[i + 1].pweight += (
            one_fraction * path[i].pweight * (i + 1) / (depth + 1)
        )
        path[i].pweight = (
            zero_fraction * path[i].pweight * (depth - i) / (depth + 1)
        )


def _unwind(path: list[_PathElement], depth: int, index: int) -> None:
    one_fraction = path[index].one_fraction
    zero_fraction = path[index].zero_fraction
    next_one = path[depth].pweight
    for i in range(depth - 1, -1, -1):
        if one_fraction != 0.0:
            tmp = path[i].pweight
            path[i].pweight = next_one * (depth + 1) / ((i + 1) * one_fraction)
            next_one = tmp - path[i].pweight * zero_fraction * (depth - i) / (depth + 1)
        else:
            path[i].pweight = path[i].pweight * (depth + 1) / (
                zero_fraction * (depth - i)
            )
    for i in range(index, depth):
        path[i].feature = path[i + 1].feature
        path[i].zero_fraction = path[i + 1].zero_fraction
        path[i].one_fraction = path[i + 1].one_fraction


def _unwound_sum(path: list[_PathElement], depth: int, index: int) -> float:
    one_fraction = path[index].one_fraction
    zero_fraction = path[index].zero_fraction
    next_one = path[depth].pweight
    total = 0.0
    for i in range(depth - 1, -1, -1):
        if one_fraction != 0.0:
            tmp = next_one * (depth + 1) / ((i + 1) * one_fraction)
            total += tmp
            next_one = path[i].pweight - tmp * zero_fraction * (depth - i) / (depth + 1)
        else:
            total += path[i].pweight * (depth + 1) / (zero_fraction * (depth - i))
    return total


def tree_shap_values(
    tree: TreeStructure,
    x: np.ndarray,
    n_features: int,
    class_index: int | None = None,
) -> np.ndarray:
    """Exact Shapley values of one tree's conditional-expectation game."""
    x = np.asarray(x, dtype=float).ravel()
    phi = np.zeros(n_features)
    tree = tree.as_lists()
    max_depth = tree.depth(0) + 2

    def recurse(
        node: int,
        parent_path: list[_PathElement],
        depth: int,
        zero_fraction: float,
        one_fraction: float,
        feature: int,
    ) -> None:
        path = [el.copy() for el in parent_path]
        while len(path) <= depth + max_depth:
            path.append(_PathElement())
        _extend(path, depth, zero_fraction, one_fraction, feature)
        if tree.is_leaf(node):
            leaf_value = _leaf_scalar(tree, node, class_index)
            for i in range(1, depth + 1):
                w = _unwound_sum(path, depth, i)
                phi[path[i].feature] += (
                    w * (path[i].one_fraction - path[i].zero_fraction) * leaf_value
                )
            return
        split_feature = tree.feature[node]
        left, right = tree.children_left[node], tree.children_right[node]
        hot, cold = (
            (left, right) if x[split_feature] <= tree.threshold[node] else (right, left)
        )
        incoming_zero, incoming_one = 1.0, 1.0
        new_depth = depth
        # A repeat split on the same feature must first undo its previous
        # path entry (the path tracks *unique* features).
        for i in range(1, depth + 1):
            if path[i].feature == split_feature:
                incoming_zero = path[i].zero_fraction
                incoming_one = path[i].one_fraction
                _unwind(path, depth, i)
                new_depth = depth - 1
                break
        cover = tree.n_node_samples[node]
        recurse(
            hot, path, new_depth + 1,
            incoming_zero * tree.n_node_samples[hot] / cover,
            incoming_one, split_feature,
        )
        recurse(
            cold, path, new_depth + 1,
            incoming_zero * tree.n_node_samples[cold] / cover,
            0.0, split_feature,
        )

    recurse(0, [], 0, 1.0, 1.0, -1)
    return phi


def _tree_base_value(tree: TreeStructure, class_index: int | None) -> float:
    """Cover-weighted mean leaf value = EXPVALUE with the empty set."""
    tree = tree.as_lists()

    def recurse(node: int) -> float:
        if tree.is_leaf(node):
            return _leaf_scalar(tree, node, class_index)
        left, right = tree.children_left[node], tree.children_right[node]
        w_left, w_right = tree.n_node_samples[left], tree.n_node_samples[right]
        return (w_left * recurse(left) + w_right * recurse(right)) / (w_left + w_right)

    return recurse(0)


# -- per-model precompute + fused batch kernel --------------------------------


class _TreeArrays:
    """One tree's instance-independent structure for the fused kernel.

    The node arrays are the model's own. ``frac[c]`` is child ``c``'s
    cover fraction of its parent — the multiplier the scalar algorithm
    recomputes as ``n_node_samples[c] / n_node_samples[parent]`` at every
    visit. ``value`` holds each leaf's explained scalar (the
    ``class_index`` column already selected); internal nodes carry 0.
    """

    __slots__ = ("feature", "threshold", "left", "right", "is_leaf",
                 "value", "frac")

    def __init__(self, tree: TreeStructure, class_index: int | None) -> None:
        self.feature = tree.feature
        self.threshold = tree.threshold
        self.left = tree.children_left
        self.right = tree.children_right
        self.is_leaf = self.feature == -1
        column = tree.value[:, 0 if class_index is None else class_index]
        self.value = np.where(self.is_leaf, column, 0.0)
        cover = tree.n_node_samples
        parents = np.flatnonzero(~self.is_leaf)
        self.frac = np.ones(tree.n_nodes)
        for children in (self.left[parents], self.right[parents]):
            self.frac[children] = cover[children] / cover[parents]


def _vec_unwind(feats, zeros, ones, ws, depth, index) -> None:
    """Vectorized UNWIND: remove path entry ``index``, rebinding only.

    The scalar algorithm branches on ``one_fraction != 0`` per instance;
    here both branch expressions are computed over the whole batch with
    masked (division-safe) denominators and selected per row — the
    arithmetic of each selected element is literally the scalar
    branch's. Entry fields shift down exactly as the scalar version
    does: feature/zero/one slide, pweights do not.
    """
    one = ones[index]
    zero = zeros[index]
    hot = one != 0.0
    next_one = ws[depth]
    for i in range(depth - 1, -1, -1):
        safe = np.where(hot, (i + 1) * one, 1.0)
        cand_hot = next_one * (depth + 1) / safe
        cand_cold = ws[i] * (depth + 1) / (zero * (depth - i))
        next_one = np.where(
            hot, ws[i] - cand_hot * zero * (depth - i) / (depth + 1), next_one
        )
        ws[i] = np.where(hot, cand_hot, cand_cold)
    for i in range(index, depth):
        feats[i] = feats[i + 1]
        zeros[i] = zeros[i + 1]
        ones[i] = ones[i + 1]


def _vec_unwound_sum(zeros, ones, ws, depth, index):
    """Vectorized UNWOUND-SUM: entry ``index``'s total unwound weight."""
    one = ones[index]
    zero = zeros[index]
    hot = one != 0.0
    next_one = ws[depth]
    total = np.zeros(next_one.shape[0])
    for i in range(depth - 1, -1, -1):
        safe = np.where(hot, (i + 1) * one, 1.0)
        tmp = next_one * (depth + 1) / safe
        total = total + np.where(
            hot, tmp, ws[i] * (depth + 1) / (zero * (depth - i))
        )
        next_one = np.where(
            hot, ws[i] - tmp * zero * (depth - i) / (depth + 1), next_one
        )
    return total


def batch_tree_shap_values(arrays: _TreeArrays, X: np.ndarray) -> np.ndarray:
    """Path-dependent TreeSHAP of one tree for every row of ``X`` at once.

    One traversal of the tree explains the whole batch: the path's
    ``one_fraction`` and ``pweight`` entries are ``(n_rows,)`` vectors
    (``zero_fraction`` is cover-only, hence a scalar), children are
    visited in fixed left-then-right order, and each row's hot/cold
    role is encoded by zeroing its ``one_fraction`` on the cold side —
    exactly the scalar EXTEND/UNWIND arithmetic, elementwise. Path
    state is copy-on-descend with rebind-only updates, so sibling
    subtrees never alias each other's vectors.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    n_rows, n_features = X.shape
    phi = np.zeros((n_rows, n_features))

    def recurse(node, feats, zeros, ones, ws, depth,
                zero_fraction, one_fraction, split_feature):
        feats = list(feats)
        zeros = list(zeros)
        ones = list(ones)
        ws = list(ws)
        while len(feats) <= depth:
            feats.append(-1)
            zeros.append(0.0)
            ones.append(None)
            ws.append(None)
        # EXTEND
        feats[depth] = split_feature
        zeros[depth] = zero_fraction
        ones[depth] = one_fraction
        ws[depth] = np.ones(n_rows) if depth == 0 else np.zeros(n_rows)
        for i in range(depth - 1, -1, -1):
            ws[i + 1] = ws[i + 1] + one_fraction * ws[i] * (i + 1) / (depth + 1)
            ws[i] = zero_fraction * ws[i] * (depth - i) / (depth + 1)
        if arrays.is_leaf[node]:
            leaf_value = arrays.value[node]
            for i in range(1, depth + 1):
                w = _vec_unwound_sum(zeros, ones, ws, depth, i)
                phi[:, feats[i]] += w * (ones[i] - zeros[i]) * leaf_value
            return
        f = int(arrays.feature[node])
        left, right = int(arrays.left[node]), int(arrays.right[node])
        goes_left = X[:, f] <= arrays.threshold[node]
        incoming_zero = 1.0
        incoming_one = one_ones
        new_depth = depth
        for i in range(1, depth + 1):
            if feats[i] == f:
                incoming_zero = zeros[i]
                incoming_one = ones[i]
                _vec_unwind(feats, zeros, ones, ws, depth, i)
                new_depth = depth - 1
                break
        recurse(
            left, feats, zeros, ones, ws, new_depth + 1,
            incoming_zero * arrays.frac[left],
            np.where(goes_left, incoming_one, 0.0), f,
        )
        recurse(
            right, feats, zeros, ones, ws, new_depth + 1,
            incoming_zero * arrays.frac[right],
            np.where(goes_left, 0.0, incoming_one), f,
        )

    one_ones = np.ones(n_rows)
    recurse(0, [], [], [], [], 0, 1.0, one_ones, -1)
    return phi


# Per-model precompute store: one TreePrecompute per live model object,
# shared by every explainer built on it (and by forked process-backend
# workers, which inherit it copy-on-write), next to the component trees
# it was built from. Weak keys keep the store from pinning models in
# memory.
_PRECOMPUTE_STORE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


@dataclass
class TreePrecompute:
    """Everything instance-independent about one tree model's TreeSHAP.

    Built once per model (see :func:`tree_precompute`): the flattened
    node arrays with leaf scalars and cover fractions per component
    tree, the per-component ensemble weights, and the cover-weighted
    expected value. ``shap_values`` is then O(nodes · depth²) for an
    entire batch.
    """

    trees: list
    weights: list
    expected_value: float

    def shap_values(self, X: np.ndarray) -> np.ndarray:
        """Ensemble Shapley values for every row of ``X``."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        phi = np.zeros((X.shape[0], X.shape[1]))
        for arrays, weight in zip(self.trees, self.weights):
            phi += weight * batch_tree_shap_values(arrays, X)
        return phi


def tree_precompute(model, components, expected_value: float) -> TreePrecompute:
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
    pre = TreePrecompute(
        trees=[_TreeArrays(tree, ci) for tree, __, ci in components],
        weights=[weight for __, weight, __ci in components],
        expected_value=float(expected_value),
    )
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
        # Hoisted init-time precompute: the ensemble expected value used
        # to be recomputed by full recursion on every explain call.
        base = sum(
            weight * _tree_base_value(tree, ci)
            for tree, weight, ci in self._components
        )
        if isinstance(model, (GradientBoostingClassifier,
                              GradientBoostingRegressor)):
            base += model.init_raw_
        self._expected_value = float(base)
        self._precompute: TreePrecompute | None = None

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
        """Base value: the ensemble's cover-weighted expected output.

        Computed once at construction (it is a pure function of the
        fitted trees), not re-derived per explanation.
        """
        return self._expected_value

    def precompute(self) -> TreePrecompute:
        """This model's shared :class:`TreePrecompute`, built lazily."""
        if self._precompute is None:
            self._precompute = tree_precompute(
                self.model, self._components, self._expected_value
            )
        return self._precompute

    def _model_output(self, x: np.ndarray) -> float:
        return float(self._model_output_batch(x[None, :])[0])

    def _model_output_batch(self, X: np.ndarray) -> np.ndarray:
        if isinstance(self.model, GradientBoostingClassifier):
            return np.asarray(self.model.decision_function(X), dtype=float)
        if isinstance(self.model, (DecisionTreeRegressor,
                                   GradientBoostingRegressor)):
            return np.asarray(self.model.predict(X), dtype=float)
        return np.asarray(self.model.predict_proba(X)[:, -1], dtype=float)

    def explain(self, x: np.ndarray, feature_names: list[str] | None = None
                ) -> FeatureAttribution:
        """One instance through the scalar per-tree recursion.

        Single rows deliberately stay on the scalar kernel: the
        vectorized batch kernel pays numpy per-node overhead that only
        amortizes across many rows (it is ~8× slower at ``n_rows=1``).
        Batches go through :meth:`explain_batch` for the fused path.
        An instance of the wrong width, with no entries or with a
        non-finite entry raises :class:`InputValidationError`.
        """
        x = check_instance(x, self._n_features)
        n = x.shape[0]
        phi = np.zeros(n)
        for tree, weight, class_index in self._components:
            phi += weight * tree_shap_values(tree, x, n, class_index)
        names = feature_names or [f"x{i}" for i in range(n)]
        return FeatureAttribution(
            values=phi,
            feature_names=names,
            base_value=self.expected_value,
            prediction=self._model_output(x),
            method=self.method_name,
            meta={"n_trees": len(self._components)},
        )

    def explain_batch(
        self,
        X: np.ndarray,
        feature_names: list[str] | None = None,
        backend: str | None = None,
        n_procs: int | None = None,
        return_errors: bool = False,
    ) -> list[FeatureAttribution] | tuple[list, list]:
        """Explain every row through one fused traversal per tree.

        The precompute is built (or fetched) once; each component tree
        is then walked a single time with vectorized path state, so the
        per-row marginal cost is the O(depth²) leaf bookkeeping rather
        than a full recursion. ``backend="process"``/``"thread"``
        shards contiguous row ranges — the precompute ships to forked
        workers once via copy-on-write, not per shard. Results are
        bitwise-identical across backends and batch splits (the kernel
        is elementwise per row); against per-row ``explain`` they agree
        to float accumulation order (the fused kernel visits children
        left-then-right, the scalar recursion hot-child-first).

        Failures follow the base ``explain_batch`` contract: a row that
        ``explain`` would refuse fails alone as a
        :class:`repro.robust.BatchRowError` before the kernel runs, the
        other rows stay fused (bitwise what the batch without the bad
        rows gives), and ``return_errors`` chooses between
        ``(results, errors)`` and :class:`repro.robust.PartialBatchError`.
        """
        X = batch_matrix(X)
        backend_name = resolve_backend(backend)
        sp = current_span()
        if sp is not None:
            sp.set_attr("amortized", True)
        outcomes, keep = screen_rows(X, self._n_features)
        if keep.size:
            rows = X if keep.size == X.shape[0] else X[keep]
            results = self._explain_fused(rows, feature_names, backend_name,
                                          n_procs)
            for i, result in zip(keep, results):
                outcomes[i] = (result, None)
        return finish_batch(outcomes, return_errors)

    def _explain_fused(self, X, feature_names, backend_name, n_procs
                       ) -> list[FeatureAttribution]:
        pre = self.precompute()
        names = feature_names or [f"x{i}" for i in range(X.shape[1])]
        n_trees = len(self._components)

        def run_rows(bounds):
            lo, hi = bounds
            phi = pre.shap_values(X[lo:hi])
            preds = self._model_output_batch(X[lo:hi])
            return [
                FeatureAttribution(
                    values=phi[r],
                    feature_names=names,
                    base_value=self._expected_value,
                    prediction=float(preds[r]),
                    method=self.method_name,
                    meta={"n_trees": n_trees},
                )
                for r in range(hi - lo)
            ]

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
                total = sum(
                    weight * tree_expected_value(tree, x, mask, ci)
                    for tree, weight, ci in self._components
                )
                if isinstance(
                    self.model,
                    (GradientBoostingClassifier, GradientBoostingRegressor),
                ):
                    total += self.model.init_raw_
                out[row] = total
            return out

        return v
