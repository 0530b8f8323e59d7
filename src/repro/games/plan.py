"""Shared coalition plans: draw the sampling design once per batch.

``explain_batch`` used to pay the full per-explanation setup for every
row — re-drawing the same seeded permutations, re-enumerating the same
Kernel SHAP coalitions, re-deduplicating the same walk masks — because
each row's ``explain`` started cold. A :class:`CoalitionPlan` hoists
everything that depends only on ``(n_players, budget, seed)`` out of the
per-row loop:

* the permutation walks (antithetic pairs included, in the exact order
  the serial estimator would consume them from ``default_rng(seed)``);
* the coalition masks those walks visit, deduplicated by packed-bit key
  in first-occurrence order (the same dedup the coalition value cache
  performs per row, so per-mask values are bitwise-identical);
* the walk → unique-mask index matrix that turns one fused value vector
  back into per-walk value sequences;
* for Kernel SHAP, the enumerated/sampled coalition rows and their
  kernel weights.

Plans are immutable after construction and contain no per-instance
state, so one plan serves every row of a batch *and* every shard of a
process-backend batch (forked workers inherit it read-only — it ships
once, not per shard). Amortization is observable: building a plan bumps
``coalition.plan.built``, and every row served from an existing plan
bumps ``coalition.plan.reused`` — the E42 bench and the ``/metrics``
endpoint report the hit rate as ``reused / (built + reused)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs import metrics
from .base import walk_masks

__all__ = [
    "CoalitionPlan",
    "permutation_plan",
    "kernel_plan",
    "shared_plan",
    "mean_walks_reduce",
]

_BUILT = "coalition.plan.built"
_REUSED = "coalition.plan.reused"


@dataclass(frozen=True)
class CoalitionPlan:
    """One batch's frozen sampling design, shared across rows and shards.

    Attributes
    ----------
    kind:
        ``"permutation"`` or ``"kernel"``.
    n_players:
        Feature count the plan was drawn for.
    unique_masks:
        ``(n_unique, n_players)`` boolean matrix of every distinct
        coalition the plan visits, in first-occurrence order.
    value_index:
        Integer matrix mapping the plan's logical evaluations onto rows
        of ``unique_masks``: shape ``(n_walks, n_players + 1)`` for
        permutation plans (each walk's ∅-to-grand mask sequence), shape
        ``(n_coalitions,)`` for kernel plans (``[∅, N, *sampled]``).
    walk_perms:
        Permutation plans only: ``(n_walks, n_players)`` player orders,
        antithetic reversals already interleaved in serial walk order.
    masks, weights:
        Kernel plans only: the enumerated/sampled coalition rows (the
        WLS design matrix, excluding ∅ and N) and their kernel weights.
    empty_index:
        Row of ``unique_masks`` holding the empty coalition.
    """

    kind: str
    n_players: int
    unique_masks: np.ndarray
    value_index: np.ndarray
    empty_index: int
    walk_perms: np.ndarray | None = None
    masks: np.ndarray | None = None
    weights: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_unique(self) -> int:
        return int(self.unique_masks.shape[0])

    @property
    def n_walks(self) -> int:
        return 0 if self.walk_perms is None else int(self.walk_perms.shape[0])

    def mark_reused(self, n_rows: int) -> None:
        """Record ``n_rows`` explanations served from this shared plan."""
        if n_rows > 0:
            metrics.counter(_REUSED).inc(n_rows)


def _dedup_masks(
    mask_blocks: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate stacked masks by packed-bit key, first occurrence wins.

    Returns ``(unique_masks, index)`` where ``index`` maps each input
    row (in input order) to its row in ``unique_masks`` — exactly the
    follower bookkeeping the per-row coalition value cache performs, so
    evaluating ``unique_masks`` once and gathering through ``index``
    reproduces the cached per-row values bitwise.
    """
    stacked = np.concatenate(mask_blocks, axis=0)
    keys = np.packbits(stacked, axis=1)
    seen: dict[bytes, int] = {}
    unique_rows: list[int] = []
    index = np.empty(stacked.shape[0], dtype=np.intp)
    for i in range(stacked.shape[0]):
        key = keys[i].tobytes()
        slot = seen.get(key)
        if slot is None:
            slot = len(unique_rows)
            seen[key] = slot
            unique_rows.append(i)
        index[i] = slot
    return stacked[unique_rows], index


def permutation_plan(
    n_players: int,
    n_permutations: int = 100,
    antithetic: bool = True,
    seed: int = 0,
) -> CoalitionPlan:
    """Draw the permutation-sampling design once.

    The walks (and therefore the masks) are exactly what
    :func:`repro.games.estimators.permutation_estimator` consumes from
    ``default_rng(seed)`` in serial order: per batch one fresh
    permutation, followed by its reverse when ``antithetic``.
    """
    n = int(n_players)
    rng = np.random.default_rng(seed)
    pair = antithetic and n_permutations > 1
    n_batches = n_permutations // 2 if pair else n_permutations
    walks: list[np.ndarray] = []
    for __ in range(n_batches):
        perm = rng.permutation(n)
        walks.append(perm)
        if antithetic:
            walks.append(perm[::-1])
    blocks = [walk_masks(p) for p in walks]
    unique, index = _dedup_masks(blocks)
    value_index = index.reshape(len(walks), n + 1)
    metrics.counter(_BUILT).inc()
    return CoalitionPlan(
        kind="permutation",
        n_players=n,
        unique_masks=unique,
        value_index=value_index,
        empty_index=int(value_index[0, 0]),
        walk_perms=np.array(walks, dtype=np.intp),
        meta={"n_permutations": n_permutations, "antithetic": antithetic,
              "seed": seed},
    )


def kernel_plan(n_players: int, n_samples: int = 2048, seed: int = 0
                ) -> CoalitionPlan:
    """Draw the Kernel SHAP coalition design once.

    Coalition rows and weights come from the same
    ``_enumerate_coalitions(n, budget, default_rng(seed))`` stream the
    per-row estimator consumes, so the WLS design is identical for
    every row of the batch. ``value_index`` is laid out
    ``[∅, N, *masks]`` to match the estimator's evaluation order.
    """
    # Local import: estimators imports the engine machinery this module
    # must stay independent of (plans are pure data).
    from .estimators import _enumerate_coalitions

    n = int(n_players)
    rng = np.random.default_rng(seed)
    masks, weights = _enumerate_coalitions(n, n_samples, rng)
    ends = np.vstack([np.zeros(n, dtype=bool), np.ones(n, dtype=bool)])
    unique, index = _dedup_masks([ends, masks])
    metrics.counter(_BUILT).inc()
    return CoalitionPlan(
        kind="kernel",
        n_players=n,
        unique_masks=unique,
        value_index=index,
        empty_index=int(index[0]),
        masks=masks,
        weights=weights,
        meta={"n_samples": n_samples, "seed": seed},
    )


def shared_plan(owner, key: tuple, builder, n_rows: int) -> CoalitionPlan:
    """Fetch/build a plan in ``owner``'s plan store and count amortization.

    One explainer instance keeps one plan per parameter key, so
    consecutive ``explain_batch`` calls (and the aggregation helpers on
    top of them) never re-draw the design. The first row of a batch that
    *builds* the plan is the build; every other row is a reuse.
    """
    store = owner.__dict__.setdefault("_plan_store", {})
    plan = store.get(key)
    if plan is None:
        plan = builder()
        store[key] = plan
        plan.mark_reused(n_rows - 1)
    else:
        plan.mark_reused(n_rows)
    return plan


def mean_walks_reduce(
    walk_values: np.ndarray, walk_perms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-walk value sequences → ``(phi, std_err)``, bitwise-stable.

    ``walk_values`` is ``(n_walks, n + 1)`` — each walk's ∅-to-grand
    coalition values; ``walk_perms`` is ``(n_walks, n)``. Builds the
    identical ``(n_walks, n)`` contribution matrix the serial estimator
    stacks walk-by-walk, then applies the same mean/stderr reduction,
    so the result matches ``aggregate="mean_walks"`` bit for bit.
    """
    n_walks, n = walk_perms.shape
    diffs = walk_values[:, 1:] - walk_values[:, :-1]
    contrib = np.zeros((n_walks, n))
    contrib[np.arange(n_walks)[:, None], walk_perms] = diffs
    phi = contrib.mean(axis=0)
    std_err = (
        contrib.std(axis=0, ddof=1) / np.sqrt(n_walks)
        if n_walks > 1
        else np.zeros(n)
    )
    return phi, std_err
