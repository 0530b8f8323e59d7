"""The utility function U(S): performance of a model trained on subset S.

Every data-valuation method in §2.3.1 is a cooperative game over training
points with this utility. The class wraps the (model factory, train set,
validation set, metric) quadruple, handles the degenerate subsets Monte
Carlo methods constantly produce (empty sets, single-class sets), and
memoizes. TMC walks rarely revisit a prefix: on the ``datavalue_tmc``
benchmark (98 points, seed 1) the memo answered 12 of 62 411 lookups.

:meth:`UtilityFunction.scores` evaluates a batch of subsets. Its fresh
subsets that need a fit go to the model's ``predict_subsets`` in one
call when the model offers it, and any subset whose labels that call
cannot certify is refitted the usual way, so every score is bitwise
what ``__call__`` returns.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..models.metrics import accuracy
from ..obs.metrics import counter

__all__ = ["UtilityFunction"]

# Fewest fresh subsets ``scores`` hands to ``predict_subsets`` in one call:
# one or two separate fits are as fast or faster (measured in DESIGN.md,
# *Data Shapley in lockstep*).
_MIN_BATCH = 3


class UtilityFunction:
    """U(S) = metric(model trained on S, validation data).

    Parameters
    ----------
    model_factory:
        Zero-argument callable returning a fresh unfitted model.
    X_train, y_train:
        The points being valued.
    X_val, y_val:
        Held-out data the metric is computed on.
    metric:
        ``metric(y_true, y_pred) -> float``; accuracy by default.
    empty_score:
        U(∅) and the fallback for untrainable subsets; defaults to the
        performance of always predicting the validation majority class,
        per Ghorbani & Zou's setup.
    """

    def __init__(
        self,
        model_factory: Callable,
        X_train: np.ndarray,
        y_train: np.ndarray,
        X_val: np.ndarray,
        y_val: np.ndarray,
        metric: Callable = accuracy,
        empty_score: float | None = None,
        cache: bool = True,
    ) -> None:
        self.model_factory = model_factory
        self.X_train = np.atleast_2d(np.asarray(X_train, dtype=float))
        self.y_train = np.asarray(y_train).ravel()
        self.X_val = np.atleast_2d(np.asarray(X_val, dtype=float))
        self.y_val = np.asarray(y_val).ravel()
        self.metric = metric
        if empty_score is None:
            labels, counts = np.unique(self.y_val, return_counts=True)
            majority = labels[np.argmax(counts)]
            empty_score = float(
                metric(self.y_val, np.full(self.y_val.shape, majority))
            )
        self.empty_score = empty_score
        self._cache: dict[tuple[int, ...], float] | None = {} if cache else None
        self.n_evaluations = 0
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def n_points(self) -> int:
        return self.X_train.shape[0]

    def full_score(self) -> float:
        """U of the complete training set."""
        return self(np.arange(self.n_points))

    def __call__(self, indices) -> float:
        indices = np.asarray(indices, dtype=int).ravel()
        key = tuple(sorted(indices.tolist()))
        if self._lookup(key):
            return self._cache[key]
        # Evaluate the canonical (sorted) subset: U is a set function, so
        # the score must not depend on the order the sampler produced the
        # indices in — the cache key is already order-insensitive.
        score = self._evaluate(np.asarray(key, dtype=int))
        if self._cache is not None:
            self._cache[key] = score
        return score

    def scores(self, masks) -> np.ndarray:
        """U of every row of a boolean ``(k, n_points)`` mask matrix.

        Row by row this is ``self(np.flatnonzero(mask))``: the same memo
        keys, empty-set and single-class rules, ``n_evaluations`` and
        cache counts (a row repeating an earlier row of the batch is a
        memo hit, as it would be one call later). The fresh subsets that
        need a fit are fitted last: with at least ``_MIN_BATCH`` of them,
        a binary ``y_train`` and a model offering ``predict_subsets``,
        one ``predict_subsets`` call solves them all, and each subset
        whose labels it cannot certify is fitted on its own
        (``datavalue.certified``, ``datavalue.refits``).
        ``DataValueGame`` evaluates through this method, so a subclass
        that changes ``__call__`` must change it too.
        """
        masks = np.atleast_2d(np.asarray(masks, dtype=bool))
        out = np.empty(masks.shape[0])
        pending: dict[tuple[int, ...], list[int]] = {}
        fresh: list[tuple[tuple[int, ...], list[int]]] = []
        for row, mask in enumerate(masks):
            key = tuple(np.flatnonzero(mask).tolist())
            if self._lookup(key, pending):
                if key in pending:
                    pending[key].append(row)
                else:
                    out[row] = self._cache[key]
                continue
            score = self._degenerate_score(np.asarray(key, dtype=int))
            if score is not None:
                out[row] = score
                if self._cache is not None:
                    self._cache[key] = score
                continue
            rows = [row]
            fresh.append((key, rows))
            if self._cache is not None:
                pending[key] = rows
        if fresh:
            subsets = masks[[rows[0] for __, rows in fresh]]
            for (key, rows), score in zip(fresh, self._fit_scores(subsets)):
                out[rows] = score
                if self._cache is not None:
                    self._cache[key] = score
        return out

    def _lookup(self, key: tuple[int, ...], pending=()) -> bool:
        """Count one memo lookup of ``key`` as a hit or a miss; a key
        ``pending`` evaluation in the current batch is a hit."""
        if self._cache is not None and (key in self._cache or key in pending):
            self.cache_hits += 1
            counter("datavalue.cache.hits").inc()
            return True
        self.cache_misses += 1
        counter("datavalue.cache.misses").inc()
        return False

    def _fit_scores(self, subsets: np.ndarray) -> list[float]:
        """U of each row of ``subsets``, fresh sets that all need a fit."""
        certified = np.zeros(subsets.shape[0], dtype=bool)
        if (subsets.shape[0] >= _MIN_BATCH
                and np.unique(self.y_train).size == 2):
            solve = getattr(self.model_factory(), "predict_subsets", None)
            if solve is not None:
                labels, certified = solve(self.X_train, self.y_train,
                                          subsets, self.X_val)
                n_certified = int(np.count_nonzero(certified))
                counter("datavalue.certified").inc(n_certified)
                counter("datavalue.refits").inc(subsets.shape[0]
                                                - n_certified)
        scores = []
        for row, mask in enumerate(subsets):
            if certified[row]:
                self.n_evaluations += 1
                scores.append(float(self.metric(self.y_val, labels[row])))
            else:
                scores.append(self._fit(np.flatnonzero(mask)))
        return scores

    def _evaluate(self, indices: np.ndarray) -> float:
        score = self._degenerate_score(indices)
        return self._fit(indices) if score is None else score

    def _degenerate_score(self, indices: np.ndarray) -> float | None:
        """U of a subset no model is fitted on: the empty set, or a
        single-class set, which predicts its class everywhere."""
        if indices.size == 0:
            return self.empty_score
        y_subset = self.y_train[indices]
        if np.unique(y_subset).size < 2:
            only = y_subset[0]
            return float(
                self.metric(self.y_val, np.full(self.y_val.shape, only))
            )
        return None

    def _fit(self, indices: np.ndarray) -> float:
        """U of a subset holding both classes: fit, predict, score."""
        self.n_evaluations += 1
        model = self.model_factory()
        model.fit(self.X_train[indices], self.y_train[indices])
        return float(self.metric(self.y_val, model.predict(self.X_val)))
