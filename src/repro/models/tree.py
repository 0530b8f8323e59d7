"""CART decision trees (classifier and regressor) built from scratch.

A fitted tree is a set of numpy arrays, one entry per node
(:class:`TreeStructure`): ``feature``, ``threshold``, ``children_left``,
``children_right`` and ``n_node_samples``, plus ``value`` with one
``(n_nodes, k)`` row per node. ``-1`` marks a leaf in ``feature`` and in
both child arrays. TreeSHAP (:mod:`repro.shapley.tree`), the logic-based
explainers (:mod:`repro.logic`) and the tree-influence method
(:mod:`repro.influence.tree_influence`) all read these arrays.

Every leaf id and prediction of a tree, a random forest or a gradient
boosting model comes from one walk, :class:`StackedTrees`. It stacks one
or more trees into flat tables. A leaf there is its own left *and* right
child and tests feature 0 against ``+inf``, so every row takes exactly
as many steps as the deepest tree is high, and all trees and rows of a
block step together. A NaN fails every ``<=`` test: at an internal node
it goes right, as a per-row walk would send it, and on a leaf it stays.
Each step gathers the tested features from ``X.ravel()`` with per-row
offsets, so an ``X`` narrower than the trees raises ``ValueError`` before
any gather rather than reading the next row's values. Rows go in blocks
of about ``_BLOCK_CELLS`` row-tree cells, which keeps the walk's
temporaries small and in cache.

Every walker that sums or tests over a tree's root-to-leaf paths
(path-dependent and interventional TreeSHAP, their base values, the
logic explainers) reads one table, :meth:`TreeStructure.leaf_paths`:
one row per leaf and, per distinct feature on the path, the interval a
row must fall in to follow the path and the product of the path's
cover fractions on that feature. It is built on first use, never by
``fit`` or ``predict``, and holds leaf ids rather than values, so
gradient boosting's in-place Newton rewrite of ``value`` cannot make it
stale.

Splits are of the form ``x[feature] <= threshold`` going left. Numeric
split search is vectorized: per candidate feature the node's rows are
sorted once and all prefix splits are scored together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from ..persist.protocol import Serializable, register_serializable
from .base import BaseModel, ClassifierMixin, RegressorMixin

__all__ = [
    "LeafPaths",
    "TreeStructure",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
]

_LEAF = -1
# Row-tree cells walked per block: 2^14 keeps each int64 temporary at
# 128 KiB. On the 25-tree loan GBM, blocks of 2^13 to 2^15 cells walked
# 7 360 rows fastest; 2^17 and more ran 35-100% slower.
_BLOCK_CELLS = 1 << 14


def block_rows(n_trees: int) -> int:
    """Rows per block of a walk over ``n_trees`` stacked trees."""
    return max(1, _BLOCK_CELLS // max(1, n_trees))


def _check_width(X: np.ndarray, n_features: int) -> None:
    if X.shape[1] < n_features:
        raise ValueError(
            f"X has {X.shape[1]} features; the trees need {n_features}"
        )


class LeafPaths(NamedTuple):
    """A tree's root-to-leaf paths as a table, one row per leaf.

    Rows go in the order a left-first preorder walk reaches the leaves,
    which is leaf-id order for CART trees (the builder numbers nodes in
    preorder). Slot ``j < k[p]`` of row ``p`` is the ``j``-th distinct
    feature the path tests, in order of its first test: a row ``x``
    passes every test the path makes on it exactly when
    ``lo < x[feature] <= hi``, and ``zero`` is the product of
    child/parent ``n_node_samples`` over those tests. Later slots are
    padding: feature -1, the whole line, zero fraction 1.
    """

    leaf: np.ndarray
    k: np.ndarray
    feature: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    zero: np.ndarray


def _tabulate_paths(tree: "TreeStructure") -> LeafPaths:
    feature = tree.feature.tolist()
    threshold = tree.threshold.tolist()
    left = tree.children_left.tolist()
    right = tree.children_right.tolist()
    cover = tree.n_node_samples.tolist()
    rows = []
    stack = [(0, {})]  # (node, {feature: (lo, hi, zero)}) in first-test order
    while stack:
        node, slots = stack.pop()
        f = feature[node]
        if f == _LEAF:
            rows.append((node, slots))
            continue
        t = threshold[node]
        lo, hi, zero = slots.get(f, (-np.inf, np.inf, 1.0))
        # Right first, so the left child is walked first.
        for child, bounds in ((right[node], (max(lo, t), hi)),
                              (left[node], (lo, min(hi, t)))):
            fraction = zero * cover[child] / cover[node]
            stack.append((child, {**slots, f: (*bounds, fraction)}))
    width = max((len(slots) for __, slots in rows), default=0)
    shape = (len(rows), width)
    paths = LeafPaths(
        leaf=np.array([leaf for leaf, __ in rows], dtype=np.intp),
        k=np.array([len(slots) for __, slots in rows], dtype=np.intp),
        feature=np.full(shape, _LEAF, dtype=np.intp),
        lo=np.full(shape, -np.inf), hi=np.full(shape, np.inf),
        zero=np.ones(shape),
    )
    for p, (__, slots) in enumerate(rows):
        for j, (f, (lo, hi, zero)) in enumerate(slots.items()):
            paths.feature[p, j] = f
            paths.lo[p, j], paths.hi[p, j], paths.zero[p, j] = lo, hi, zero
    return paths


@register_serializable("models.TreeStructure")
@dataclass(eq=False)
class TreeStructure:
    """Array representation of a fitted binary tree.

    ``feature[n] == -1`` marks node ``n`` as a leaf. ``value`` holds the
    node prediction: class-probability rows for classifiers (shape
    ``(n_nodes, n_classes)``), scalars for regressors (``(n_nodes, 1)``).
    ``n_node_samples`` is the training "cover" used by path-dependent
    TreeSHAP. The node arrays must not change after construction (the
    walk and path tables are derived from them once); ``value`` may be
    rewritten in place, as gradient boosting's Newton step does.
    """

    feature: np.ndarray
    threshold: np.ndarray
    children_left: np.ndarray
    children_right: np.ndarray
    value: np.ndarray
    n_node_samples: np.ndarray

    def __post_init__(self) -> None:
        self.feature = np.asarray(self.feature, dtype=np.intp)
        self.threshold = np.asarray(self.threshold, dtype=float)
        self.children_left = np.asarray(self.children_left, dtype=np.intp)
        self.children_right = np.asarray(self.children_right, dtype=np.intp)
        self.value = np.asarray(self.value, dtype=float)
        self.n_node_samples = np.asarray(self.n_node_samples, dtype=float)
        self._walk: StackedTrees | None = None
        self._paths: LeafPaths | None = None

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    @property
    def n_leaves(self) -> int:
        return int(np.count_nonzero(self.feature == _LEAF))

    def is_leaf(self, node: int) -> bool:
        return bool(self.feature[node] == _LEAF)

    def depth(self, node: int = 0) -> int:
        """Height of the subtree rooted at ``node`` (leaf = 0)."""
        level = np.array([node], dtype=np.intp)
        height = 0
        while True:
            level = level[self.feature[level] != _LEAF]
            if not level.size:
                return height
            height += 1
            level = np.concatenate([self.children_left[level],
                                    self.children_right[level]])

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Leaf node id reached by each row of ``X``."""
        if self._walk is None:
            self._walk = StackedTrees([self])
        return self._walk.apply(np.atleast_2d(np.asarray(X, dtype=float)))[0]

    def leaf_paths(self) -> LeafPaths:
        """The tree's :class:`LeafPaths` table, built on first use."""
        if self._paths is None:
            self._paths = _tabulate_paths(self)
        return self._paths

    def decision_path(self, x: np.ndarray) -> list[tuple[int, int, float, bool]]:
        """Internal nodes on the root-to-leaf path of ``x``.

        Each entry is ``(node, feature, threshold, went_left)``, as
        Python ``int``, ``int``, ``float`` and ``bool``.
        """
        x = np.asarray(x, dtype=float).ravel()
        path = []
        node = 0
        while self.feature[node] != _LEAF:
            feature = int(self.feature[node])
            threshold = float(self.threshold[node])
            went_left = bool(x[feature] <= threshold)
            path.append((node, feature, threshold, went_left))
            node = int(self.children_left[node] if went_left
                       else self.children_right[node])
        return path

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        """Leaf value rows for each row of ``X``."""
        return self.value[self.apply(X)]

    def used_features(self) -> set[int]:
        """Feature indices tested anywhere in the tree."""
        return {f for f in self.feature.tolist() if f != _LEAF}

    def to_dict(self) -> dict:
        """Persist payload: the six arrays, node arrays as plain lists."""
        return {
            "feature": self.feature.tolist(),
            "threshold": self.threshold.tolist(),
            "children_left": self.children_left.tolist(),
            "children_right": self.children_right.tolist(),
            "value": self.value.copy(),
            "n_node_samples": self.n_node_samples.tolist(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TreeStructure":
        value = np.atleast_2d(np.asarray(payload["value"], dtype=float))
        return cls(
            feature=payload["feature"],
            threshold=payload["threshold"],
            children_left=payload["children_left"],
            children_right=payload["children_right"],
            value=value[: len(payload["feature"])],
            n_node_samples=payload["n_node_samples"],
        )


class StackedTrees:
    """One or more trees as flat tables for one level-synchronous walk.

    Node ``n`` of tree ``t`` is stacked node ``roots[t] + n``. Leaves loop
    to themselves and test feature 0 against ``+inf``, so ``depth`` steps
    (the deepest tree's height) bring every row to its leaf in every
    tree. The next node is ``child[2 * n + (x <= threshold[n])]``: right
    children sit at even positions, left ones at odd. ``n_features`` is
    the narrowest ``X`` the walk accepts.
    """

    __slots__ = ("feature", "threshold", "child", "roots", "depth",
                 "n_features")

    def __init__(self, trees: Sequence[TreeStructure],
                 n_features: int = 0) -> None:
        sizes = [tree.n_nodes for tree in trees]
        self.roots = np.cumsum([0] + sizes, dtype=np.intp)[:-1]
        roots = self.roots.tolist()

        def stack(parts, dtype) -> np.ndarray:
            return np.concatenate([np.zeros(0, dtype)] + list(parts))

        feature = stack((tree.feature for tree in trees), np.intp)
        threshold = stack((tree.threshold for tree in trees), float)
        left = stack((tree.children_left + root
                      for tree, root in zip(trees, roots)), np.intp)
        right = stack((tree.children_right + root
                       for tree, root in zip(trees, roots)), np.intp)
        leaf = feature == _LEAF
        self_loop = np.flatnonzero(leaf)
        depth = 0
        level = self.roots[~leaf[self.roots]]
        while level.size:
            depth += 1
            level = np.concatenate([left[level], right[level]])
            level = level[~leaf[level]]
        tested = feature[~leaf]
        left[self_loop] = right[self_loop] = self_loop
        threshold[self_loop] = np.inf
        feature[self_loop] = 0
        self.feature = feature
        self.threshold = threshold
        self.child = np.column_stack([right, left]).ravel()
        self.depth = depth
        self.n_features = max(n_features,
                              int(tested.max()) + 1 if tested.size else 0)

    @property
    def n_trees(self) -> int:
        return int(self.roots.shape[0])

    def blocks(self, X: np.ndarray):
        """Yield ``(lo, hi, leaves)`` per row block of the 2-D float ``X``:
        ``leaves[t, r]`` is the stacked leaf of row ``lo + r`` in tree ``t``."""
        n, d = X.shape
        _check_width(X, self.n_features)
        flat = np.ascontiguousarray(X).ravel()
        step = block_rows(self.n_trees)
        for lo in range(0, n, step):
            hi = min(n, lo + step)
            node = np.repeat(self.roots[:, None], hi - lo, axis=1)
            offset = np.arange(lo * d, hi * d, d, dtype=np.intp)
            for __ in range(self.depth):
                x = flat[offset + self.feature[node]]
                node = self.child[2 * node + (x <= self.threshold[node])]
            yield lo, hi, node

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Stacked leaf ids, ``(n_trees, n_rows)``, of the 2-D float ``X``."""
        out = np.empty((self.n_trees, X.shape[0]), dtype=np.intp)
        for lo, hi, leaves in self.blocks(X):
            out[:, lo:hi] = leaves
        return out


class _TreeBuilder:
    """Node lists the recursive builder appends to; ``finish`` converts."""

    def __init__(self) -> None:
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.children_left: list[int] = []
        self.children_right: list[int] = []
        self.value: list[np.ndarray] = []
        self.n_node_samples: list[float] = []

    def add_node(self, value: np.ndarray, n_samples: float) -> int:
        """Append a leaf node and return its id."""
        node = len(self.feature)
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.children_left.append(_LEAF)
        self.children_right.append(_LEAF)
        self.value.append(np.atleast_1d(np.asarray(value, dtype=float)))
        self.n_node_samples.append(float(n_samples))
        return node

    def make_split(self, node: int, feature: int, threshold: float,
                   left: int, right: int) -> None:
        """Turn leaf ``node`` into an internal node."""
        self.feature[node] = feature
        self.threshold[node] = threshold
        self.children_left[node] = left
        self.children_right[node] = right

    def finish(self) -> TreeStructure:
        return TreeStructure(
            self.feature, self.threshold, self.children_left,
            self.children_right, np.stack(self.value), self.n_node_samples,
        )


class _BaseDecisionTree(BaseModel):
    """Shared recursive CART builder; subclasses define the impurity."""

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        seed: int = 0,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_split = max(2, min_samples_split)
        self.min_samples_leaf = max(1, min_samples_leaf)
        self.max_features = max_features
        self.seed = seed

    # Subclass hooks -----------------------------------------------------------

    def _node_value(self, y: np.ndarray, sw: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _impurity_reduction(
        self, y_sorted: np.ndarray, sw_sorted: np.ndarray
    ) -> np.ndarray:
        """Score every prefix split of a sorted node.

        Returns an array ``gain[k]`` for splitting after position ``k``
        (left = first k+1 rows); larger is better. Weighted by sample count.
        """
        raise NotImplementedError

    # Builder --------------------------------------------------------------------

    def _fit_tree(
        self, X: np.ndarray, y: np.ndarray, sample_weight: np.ndarray | None
    ) -> TreeStructure:
        n, d = X.shape
        if sample_weight is None:
            sample_weight = np.ones(n)
        sw = np.asarray(sample_weight, dtype=float)
        rng = np.random.default_rng(self.seed)
        tree = _TreeBuilder()
        self._build(tree, X, y, sw, np.arange(n), depth=0, rng=rng)
        return tree.finish()

    def _predict_X(self, X: np.ndarray) -> np.ndarray:
        """``X`` as a float matrix at least as wide as the training one."""
        self._check_fitted("tree_")
        X = self._check_X(X)
        _check_width(X, self.n_features_)
        return X

    def _build(
        self,
        tree: _TreeBuilder,
        X: np.ndarray,
        y: np.ndarray,
        sw: np.ndarray,
        idx: np.ndarray,
        depth: int,
        rng: np.random.Generator,
    ) -> int:
        node = tree.add_node(
            self._node_value(y[idx], sw[idx]), float(sw[idx].sum())
        )
        if (
            idx.size < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or self._is_pure(y[idx])
        ):
            return node
        split = self._best_split(X, y, sw, idx, rng)
        if split is None:
            return node
        feature, threshold = split
        left_mask = X[idx, feature] <= threshold
        left_idx, right_idx = idx[left_mask], idx[~left_mask]
        left = self._build(tree, X, y, sw, left_idx, depth + 1, rng)
        right = self._build(tree, X, y, sw, right_idx, depth + 1, rng)
        tree.make_split(node, feature, threshold, left, right)
        return node

    def _is_pure(self, y: np.ndarray) -> bool:
        return np.unique(y).size <= 1

    def _candidate_features(self, d: int, rng: np.random.Generator) -> np.ndarray:
        if self.max_features is None or self.max_features >= d:
            return np.arange(d)
        return rng.choice(d, size=self.max_features, replace=False)

    def _best_split(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sw: np.ndarray,
        idx: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[int, float] | None:
        best_gain = 1e-12
        best: tuple[int, float] | None = None
        for feature in self._candidate_features(X.shape[1], rng):
            col = X[idx, feature]
            order = np.argsort(col, kind="mergesort")
            col_sorted = col[order]
            # Splits are only valid between distinct consecutive values.
            distinct = col_sorted[1:] != col_sorted[:-1]
            if not distinct.any():
                continue
            gains = self._impurity_reduction(y[idx][order], sw[idx][order])
            k_count = np.arange(1, idx.size)
            valid = (
                distinct
                & (k_count >= self.min_samples_leaf)
                & (idx.size - k_count >= self.min_samples_leaf)
            )
            gains = np.where(valid, gains, -np.inf)
            k = int(np.argmax(gains))
            if gains[k] > best_gain:
                best_gain = float(gains[k])
                threshold = 0.5 * (col_sorted[k] + col_sorted[k + 1])
                best = (int(feature), float(threshold))
        return best


@register_serializable("models.DecisionTreeClassifier")
class DecisionTreeClassifier(Serializable, ClassifierMixin, _BaseDecisionTree):
    """CART classifier with gini or entropy impurity."""

    __persist_init__ = ("max_depth", "min_samples_split", "min_samples_leaf",
                        "max_features", "criterion", "seed")
    __persist_state__ = ("classes_", "n_classes_", "n_features_", "tree_")

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        max_features: int | None = None,
        criterion: str = "gini",
        seed: int = 0,
    ) -> None:
        super().__init__(max_depth, min_samples_split, min_samples_leaf,
                         max_features, seed)
        if criterion not in ("gini", "entropy"):
            raise ValueError(f"unknown criterion {criterion!r}")
        self.criterion = criterion

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeClassifier":
        X, y = self._check_Xy(X, y)
        self.classes_, encoded = self._encode_labels(y)
        self.n_classes_ = len(self.classes_)
        self.n_features_ = X.shape[1]
        self.tree_ = self._fit_tree(X, encoded, sample_weight)
        return self

    def _node_value(self, y: np.ndarray, sw: np.ndarray) -> np.ndarray:
        counts = np.bincount(y.astype(int), weights=sw, minlength=self.n_classes_)
        total = counts.sum()
        return counts / total if total > 0 else np.full(self.n_classes_, 1.0 / self.n_classes_)

    def _impurity_reduction(self, y_sorted, sw_sorted) -> np.ndarray:
        n = y_sorted.shape[0]
        onehot = np.zeros((n, self.n_classes_))
        onehot[np.arange(n), y_sorted.astype(int)] = 1.0
        onehot *= sw_sorted[:, None]
        left_counts = np.cumsum(onehot, axis=0)[:-1]  # after position k
        total_counts = left_counts[-1] + onehot[-1]
        right_counts = total_counts[None, :] - left_counts
        left_n = left_counts.sum(axis=1)
        right_n = right_counts.sum(axis=1)
        total_n = left_n + right_n

        def impurity(counts: np.ndarray, size: np.ndarray) -> np.ndarray:
            p = counts / np.maximum(size, 1e-12)[:, None]
            if self.criterion == "gini":
                return 1.0 - (p ** 2).sum(axis=1)
            safe = np.where(p > 0, p, 1.0)  # log2(1) = 0 kills the term
            return -(p * np.log2(safe)).sum(axis=1)

        parent = impurity(total_counts[None, :], total_n[:1])[0]
        child = (
            left_n * impurity(left_counts, left_n)
            + right_n * impurity(right_counts, right_n)
        ) / np.maximum(total_n, 1e-12)
        return (parent - child) * total_n

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.tree_.predict_value(self._predict_X(X))


@register_serializable("models.DecisionTreeRegressor")
class DecisionTreeRegressor(Serializable, RegressorMixin, _BaseDecisionTree):
    """CART regressor minimizing weighted squared error."""

    __persist_init__ = ("max_depth", "min_samples_split", "min_samples_leaf",
                        "max_features", "seed")
    __persist_state__ = ("n_features_", "tree_")

    def fit(self, X, y, sample_weight=None) -> "DecisionTreeRegressor":
        X, y = self._check_Xy(X, y)
        self.n_features_ = X.shape[1]
        self.tree_ = self._fit_tree(X, y.astype(float), sample_weight)
        return self

    def _node_value(self, y: np.ndarray, sw: np.ndarray) -> np.ndarray:
        total = sw.sum()
        mean = float((sw * y).sum() / total) if total > 0 else 0.0
        return np.array([mean])

    def _is_pure(self, y: np.ndarray) -> bool:
        return bool(np.ptp(y) < 1e-12) if y.size else True

    def _impurity_reduction(self, y_sorted, sw_sorted) -> np.ndarray:
        # Variance reduction via weighted prefix sums of y and y².
        wy = sw_sorted * y_sorted
        wy2 = sw_sorted * y_sorted ** 2
        cw = np.cumsum(sw_sorted)
        cwy = np.cumsum(wy)
        cwy2 = np.cumsum(wy2)
        total_w, total_wy, total_wy2 = cw[-1], cwy[-1], cwy2[-1]
        left_w, left_wy, left_wy2 = cw[:-1], cwy[:-1], cwy2[:-1]
        right_w = total_w - left_w
        right_wy = total_wy - left_wy
        right_wy2 = total_wy2 - left_wy2

        def sse(w, s1, s2):
            # Σ w y² − (Σ w y)² / Σ w, guarded against empty sides.
            return s2 - np.where(w > 0, s1 ** 2 / np.maximum(w, 1e-12), 0.0)

        parent_sse = sse(total_w, total_wy, total_wy2)
        child_sse = sse(left_w, left_wy, left_wy2) + sse(right_w, right_wy, right_wy2)
        return parent_sse - child_sse

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.tree_.predict_value(self._predict_X(X)).ravel()
