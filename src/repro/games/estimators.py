"""The shared Shapley estimator suite.

Four estimators cover every Shapley-style computation in the library;
each accepts either a :class:`repro.games.base.Game` (evaluated through
:func:`repro.games.engine.game_value_function`, i.e. with caching,
chunking, budgets and telemetry) or a bare batched ``value_fn``
(evaluated as-is, preserving the exact behaviour of the pre-games call
sites):

* :func:`exact_enumeration` — all ``2^n`` coalitions with factorial
  weights; the ground-truth oracle (moved here from
  ``shapley/exact.py``).
* :func:`permutation_estimator` — Castro-style permutation sampling,
  generalized to subsume every bespoke loop the repo used to carry:
  antithetic pairing (sampling SHAP), TMC truncation (Data Shapley),
  Beta(α, β) position weights (Beta Shapley), restricted permutation
  samplers (asymmetric Shapley's topological orders), and whole-walk
  delegation for path-dependent games (G-Shapley, causal Shapley).
* :func:`kernel_wls_estimator` — the Kernel SHAP weighted least squares
  solve (moved here from ``shapley/kernel.py``).
* :func:`stratified_estimator` — one player's value via stratified
  cardinality draws (distributional Shapley's one-sample estimator).

Two accumulation modes keep seeded **bitwise parity** with the legacy
loops: ``aggregate="mean_walks"`` stacks per-walk contribution vectors
and reports mean ± standard error exactly like
``shapley/sampling.py`` did; ``aggregate="sum_counts"`` keeps running
weighted sums and per-player counts exactly like the datavalue/causal
loops did (their accumulation order differs from stack-then-mean in the
last ulp, so the mode is part of the contract, not a cosmetic choice).

Execution backends (:mod:`repro.exec`): the permutation, exact and
kernel estimators accept ``backend=`` (default: ``REPRO_BACKEND``, then
serial) plus ``n_shards=``/``n_procs=``. Sharding follows the
shard/seed/reduce contract — all randomness is drawn in the parent from
the canonical stream before dispatch, workers evaluate contiguous
slices (permutation walks, or coalition-matrix rows with their *global*
positions for position-seeded games), and the parent re-accumulates
per-item results in global order — so any backend and shard count
yields **bitwise-identical** attributions to serial. Games that are
stochastic or stateful (``deterministic=False`` or ``shardable=False``)
and whole-walk games (``walk_contributions``) silently fall back to the
serial path, which satisfies the same identity trivially.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, count, islice, repeat
from math import comb, factorial

import numpy as np

from ..exec import in_worker, map_shards, plan_shards, resolve_backend, \
    resolve_n_procs
from ..obs import metrics
from ..obs.trace import enabled as _obs_enabled
from ..persist.protocol import register_serializable
from ..robust.errors import BudgetExceededError
from ..robust.guard import budgets_in_force, current_scope
from .base import as_game
from .engine import game_value_function

__all__ = [
    "EstimatorState",
    "PermutationEstimate",
    "all_coalitions",
    "exact_enumeration",
    "permutation_estimator",
    "kernel_wls_estimator",
    "solve_kernel_wls",
    "stratified_estimator",
    "shapley_kernel_weight",
]


def _resolve(game_or_fn, n_players):
    """``(value_fn, n, game)`` for either input convention."""
    game = as_game(game_or_fn, n_players)
    return game_value_function(game), game.n_players, game


# -- sharded execution helpers ------------------------------------------------


def _shard_eligible(game, backend_name: str, n_items: int) -> bool:
    """Whether this work may be sharded without changing its outputs.

    The gate is conservative: only games that declare both
    ``deterministic`` (same mask → same value, whatever the partition)
    and ``shardable`` (no cross-call mutable state) qualify; everything
    else takes the serial path, which is the bitwise reference by
    definition. Bare ``FunctionGame`` wrappers promise neither, so
    legacy value-fn call sites are untouched.
    """
    return (
        backend_name != "serial"
        and n_items >= 2
        and getattr(game, "deterministic", False)
        and getattr(game, "shardable", True)
    )


def _mergeable_state(value_fn, game):
    """``(store, stateful)``: the runtime state workers must ship back.

    ``store`` is the packed-bit coalition cache behind the value
    function; ``stateful`` flags games exposing the
    ``export_shard_state``/``merge_shard_state`` pair (the data-value
    utility memo and its counters).
    """
    return getattr(value_fn, "cache", None), hasattr(game, "export_shard_state")


def _capture_worker_state(payload, store, baseline_keys, game, stateful):
    """Worker-side: attach mergeable state to the shard payload.

    Only forked workers marshal anything — under the thread backend the
    store and the game are the parent's own objects and every mutation
    already landed. Cache entries ship as a delta against the keys the
    worker inherited at fork (idempotent to merge: deterministic games
    map each key to one value).
    """
    if not in_worker():
        return payload
    if store is not None:
        payload["cache_new"] = {
            k: v for k, v in store.values.items() if k not in baseline_keys
        }
    if stateful:
        payload["state_after"] = game.export_shard_state()
    return payload


def _merge_worker_state(payload, store, game, stateful, state_before):
    """Parent-side: fold one ok shard's marshalled state back in."""
    if payload.get("cache_new"):
        store.values.update(payload["cache_new"])
    if stateful and payload.get("state_after") is not None:
        game.merge_shard_state(state_before, payload["state_after"])


class _MatrixShardRunner:
    """Picklable shard runner: evaluate a row block of a coalition matrix.

    A module-level class (not a closure) so the spawn backend can pickle
    it: the game travels via its own ``__getstate__`` recipe and the
    value function — the evaluator holding the *same* game — rides the
    pickle memo, so the worker rebuilds exactly one game. The mergeable
    store is re-derived from the live objects inside :meth:`__call__`,
    never captured at construction: under spawn the unpickled
    evaluator's store is the one worker mutations land on, and the
    ``cache_new`` delta against it is what ships back (a parent-side
    store reference would be an orphaned copy).
    """

    def __init__(self, value_fn, game, masks, positional):
        self.value_fn = value_fn
        self.game = game
        self.masks = masks
        self.positional = positional

    def __call__(self, bounds):
        lo, hi = bounds
        store, stateful = _mergeable_state(self.value_fn, self.game)
        baseline = (
            frozenset(store.values)
            if store is not None and in_worker()
            else ()
        )
        if self.positional:
            vals = self.value_fn(
                self.masks[lo:hi], positions=np.arange(lo, hi)
            )
        else:
            vals = self.value_fn(self.masks[lo:hi])
        payload = {"values": np.asarray(vals, dtype=float)}
        return _capture_worker_state(
            payload, store, baseline, self.game, stateful
        )


def _sharded_values(
    value_fn, game, masks, backend_name, n_shards, n_procs, seed=0
):
    """Evaluate a coalition matrix, sharded by contiguous row blocks.

    Workers for position-seeded games receive their rows' **global**
    indices as explicit positions, so the ``seed + position`` draws (and
    the ``(position, mask)`` cache keys) match what the unsharded batch
    would have produced — the reduce is then a plain concatenation in
    shard order. Falls back to one serial call when the game is not
    shard-eligible or the plan degenerates to a single shard.
    """
    if not _shard_eligible(game, backend_name, masks.shape[0]):
        return np.asarray(value_fn(masks), dtype=float)
    plan = plan_shards(
        masks.shape[0],
        n_shards if n_shards is not None else resolve_n_procs(n_procs),
        seed=seed,
    )
    if plan.n_shards < 2:
        return np.asarray(value_fn(masks), dtype=float)
    positional = hasattr(game, "value_at")
    store, stateful = _mergeable_state(value_fn, game)
    state_before = game.export_shard_state() if stateful else None
    run_shard = _MatrixShardRunner(value_fn, game, masks, positional)

    outcomes = map_shards(
        run_shard, list(plan.slices), backend=backend_name, n_procs=n_procs
    )
    chunks = []
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
        _merge_worker_state(outcome.value, store, game, stateful, state_before)
        chunks.append(outcome.value["values"])
    return np.concatenate(chunks)


# -- exact enumeration --------------------------------------------------------


def all_coalitions(n: int) -> list[tuple[int, ...]]:
    """Every subset of {0..n−1}, ordered by size then lexicographically."""
    out: list[tuple[int, ...]] = []
    for size in range(n + 1):
        out.extend(combinations(range(n), size))
    return out


def exact_enumeration(
    game_or_fn,
    n_players: int | None = None,
    backend: str | None = None,
    n_shards: int | None = None,
    n_procs: int | None = None,
) -> np.ndarray:
    """Exact Shapley values of a cooperative game.

    φ_i = Σ_{S ⊆ N∖{i}} |S|!(n−|S|−1)!/n! · (v(S ∪ {i}) − v(S)),
    computed literally over all 2^n coalitions. Exponential by design —
    this is the oracle the approximation experiments compare against.
    Under a non-serial ``backend`` the coalition matrix is evaluated in
    sharded row blocks (bitwise-identical values; see
    :func:`_sharded_values`); the factorial-weighted reduction is always
    parent-side.
    """
    value_fn, n_players, game = _resolve(game_or_fn, n_players)
    if n_players > 20:
        raise ValueError(
            f"exact Shapley over {n_players} players needs 2^{n_players} "
            "evaluations; use sampling or Kernel SHAP instead"
        )
    subsets = all_coalitions(n_players)
    masks = np.zeros((len(subsets), n_players), dtype=bool)
    for row, subset in enumerate(subsets):
        masks[row, list(subset)] = True
    values = _sharded_values(
        value_fn, game, masks, resolve_backend(backend), n_shards, n_procs
    )
    value_of = {subset: values[row] for row, subset in enumerate(subsets)}

    phi = np.zeros(n_players)
    n_fact = factorial(n_players)
    for i in range(n_players):
        others = [j for j in range(n_players) if j != i]
        for size in range(n_players):
            weight = factorial(size) * factorial(n_players - size - 1) / n_fact
            for subset in combinations(others, size):
                with_i = tuple(sorted(subset + (i,)))
                phi[i] += weight * (value_of[with_i] - value_of[subset])
    return phi


# -- permutation sampling -----------------------------------------------------


@register_serializable("games.EstimatorState")
@dataclass
class EstimatorState:
    """Resumable accumulation state of :func:`permutation_estimator`.

    An anytime-estimation handle: every estimate carries the state it
    ended in (``PermutationEstimate.state``), and passing it back via
    ``permutation_estimator(resume_state=...)`` continues the walk
    sequence from ``n_walks`` instead of restarting — the already-drawn
    permutations are re-drawn from the same seeded stream (cheap) and
    skipped, so a budget-exhausted partial estimate topped up to the
    full walk budget is **bitwise-identical** to an uninterrupted run.

    ``params`` pins what must match on resume (player count, seed,
    antithetic pairing, aggregation mode, position/truncation flavour);
    a mismatch raises ``ValueError`` rather than silently mixing
    incompatible walk streams. ``to_dict``/``from_dict`` round-trip the
    state through JSON-safe plain types for persistence across
    processes or runs.
    """

    n_walks: int
    aggregate: str
    contributions: list = field(default_factory=list)
    sums: np.ndarray | None = None
    counts: np.ndarray | None = None
    truncated_at: list = field(default_factory=list)
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "n_walks": int(self.n_walks),
            "aggregate": self.aggregate,
            "contributions": [np.asarray(c).tolist() for c in self.contributions],
            "sums": None if self.sums is None else np.asarray(self.sums).tolist(),
            "counts": (
                None if self.counts is None else np.asarray(self.counts).tolist()
            ),
            "truncated_at": [int(t) for t in self.truncated_at],
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EstimatorState":
        return cls(
            n_walks=int(d["n_walks"]),
            aggregate=d["aggregate"],
            contributions=[np.asarray(c, dtype=float)
                           for c in d.get("contributions", [])],
            sums=(
                None if d.get("sums") is None
                else np.asarray(d["sums"], dtype=float)
            ),
            counts=(
                None if d.get("counts") is None
                else np.asarray(d["counts"], dtype=float)
            ),
            truncated_at=list(d.get("truncated_at", [])),
            params=dict(d.get("params", {})),
        )


@dataclass
class PermutationEstimate:
    """Result of :func:`permutation_estimator`.

    ``std_err`` is per-player standard error over walks in
    ``mean_walks`` mode and ``None`` in ``sum_counts`` mode (where
    weighted/truncated walks are not identically distributed).
    ``diagnostics`` always carries the PR 3 convergence contract
    (``converged``/``n_walks_completed``/``n_walks_requested``/
    ``budget_error``) plus ``mean_truncation_position`` when truncation
    was active. ``state`` is the resumable accumulation handle —
    feed it back as ``resume_state=`` (typically after a budget
    interruption, with a larger or replenished budget) to continue.
    """

    values: np.ndarray
    std_err: np.ndarray | None
    diagnostics: dict = field(default_factory=dict)
    state: EstimatorState | None = None


def permutation_estimator(
    game_or_fn,
    n_players: int | None = None,
    n_permutations: int = 100,
    antithetic: bool = True,
    seed: int = 0,
    rng: np.random.Generator | None = None,
    permutation_sampler=None,
    position_weights: np.ndarray | None = None,
    truncation_tolerance: float | None = None,
    truncation_target: float | None = None,
    empty_value: float | None = None,
    aggregate: str = "mean_walks",
    min_count: float = 1.0,
    backend: str | None = None,
    n_shards: int | None = None,
    n_procs: int | None = None,
    resume_state: EstimatorState | dict | None = None,
) -> PermutationEstimate:
    """Estimate Shapley values (or semivalues) from permutation walks.

    Parameters
    ----------
    antithetic:
        Pair each permutation with its reverse (variance reduction for
        roughly symmetric games).
    permutation_sampler:
        ``sampler(rng) -> perm`` overriding uniform sampling; defaults
        to the game's own ``permutation_sampler`` when it has one
        (asymmetric Shapley restricts walks to topological orders).
    position_weights:
        Per-position weights ``w[k]`` applied to the marginal
        contribution made at walk position ``k`` (Beta Shapley);
        ``None`` means uniform Shapley.
    truncation_tolerance:
        When set, walks are scanned sequentially and stop early once
        ``|truncation_target − v(prefix)|`` falls below the tolerance
        (TMC-Shapley); the unscanned tail receives zero marginal
        contribution but still counts. ``truncation_target`` defaults
        to the grand-coalition value, evaluated once.
    empty_value:
        Known v(∅). When given, walks never evaluate the empty
        coalition (the datavalue convention); otherwise each walk's
        mask batch includes ∅ as its first row.
    aggregate:
        ``"mean_walks"`` (stack walks, mean ± stderr — the sampling-SHAP
        convention) or ``"sum_counts"`` (running weighted sums divided
        by per-player counts clamped at ``min_count`` — the
        datavalue/causal convention).
    min_count:
        Clamp for the ``sum_counts`` denominator (1.0 for TMC counts,
        1e-12 for Beta weight totals).
    backend:
        Execution backend (``serial``/``thread``/``process``/``spawn``;
        default ``REPRO_BACKEND``, then serial). Non-serial backends
        shard the walk batches across workers (for a game over a matrix
        of instances too: walks are sharded, never rows) — the permutations
        themselves are all drawn in the parent first, and the per-walk
        contribution vectors are re-accumulated in global walk order,
        so the estimate is bitwise-identical to serial. Whole-walk,
        stochastic or stateful games fall back to serial silently;
        under ``spawn`` a runner whose game cannot pickle degrades to
        the thread pool with the same results.

    Walks are evaluated in groups, one ``value`` call per group
    (:func:`_group_sizes`): every pending walk at once over a
    ``deterministic`` game without ``value_at`` when no deadline or
    query budget is in force, groups of 1, 2, 4, … walks under a
    deadline alone, and one walk per call otherwise. A game whose
    ``value`` returns one row of values per coalition (a game over a
    matrix of instances) gets ``values`` and ``std_err`` with the same
    trailing axis; truncation and ``sum_counts`` need scalar values.

    Budget exhaustion (:class:`~repro.robust.BudgetExceededError`)
    mid-estimate keeps the completed walks as a partial estimate
    (``diagnostics["converged"] = False``); a group interrupted midway
    is discarded whole, so the kept walks are a prefix in walk order.
    If no walk completed, the error propagates.
    Under a sharded backend the parent's remaining budget is split per
    shard; on exhaustion the estimate keeps the global *prefix* of
    walks up to the first exhausted shard (serial-style prefix
    semantics — walks a later shard completed are dropped rather than
    leaving holes in the accumulation order).

    Resumption: ``resume_state=`` (an :class:`EstimatorState` or its
    ``to_dict`` form, usually taken from a previous call's
    ``PermutationEstimate.state``) restores the accumulated walks and
    continues the *same* seeded walk sequence — completed batches are
    re-drawn from the stream and skipped, a half-finished antithetic
    pair resumes at its second walk, and the final estimate is
    bitwise-identical to an uninterrupted run with the same total walk
    budget, on serial and sharded backends alike. Resuming requires the
    same design parameters (players, seed, antithetic, aggregate,
    weighting/truncation flavour); a mismatch raises ``ValueError``.
    Resume is only meaningful with the seeded stream — passing an
    explicit ``rng`` together with ``resume_state`` is rejected because
    the skipped draws could not be replayed from it.
    """
    if aggregate not in ("mean_walks", "sum_counts"):
        raise ValueError(
            f"aggregate must be mean_walks|sum_counts, got {aggregate!r}"
        )
    game = as_game(game_or_fn, n_players)
    n = game.n_players
    walk_fn = getattr(game, "walk_contributions", None)
    value_fn = None if walk_fn is not None else game_value_function(game)
    if rng is not None and resume_state is not None:
        raise ValueError(
            "resume_state requires the seeded stream; an explicit rng "
            "cannot replay the draws the completed walks consumed"
        )
    rng = rng if rng is not None else np.random.default_rng(seed)
    sampler = permutation_sampler or getattr(game, "permutation_sampler", None)
    if sampler is None:
        def sampler(r):
            return r.permutation(n)
    if position_weights is not None:
        position_weights = np.asarray(position_weights, dtype=float)
        if position_weights.shape[0] != n:
            raise ValueError("position_weights must have one entry per player")
    truncating = truncation_tolerance is not None and walk_fn is None
    if truncating and truncation_target is None:
        truncation_target = float(
            value_fn(np.ones((1, n), dtype=bool))[0]
        )

    pair = antithetic and n_permutations > 1
    n_batches = n_permutations // 2 if pair else n_permutations
    walks_per_batch = 2 if pair else 1

    params = {
        "n_players": n,
        "seed": seed,
        "antithetic": bool(antithetic),
        "aggregate": aggregate,
        "weighted": position_weights is not None,
        "truncating": bool(truncating),
    }
    if isinstance(resume_state, dict):
        resume_state = EstimatorState.from_dict(resume_state)
    if resume_state is not None:
        if resume_state.params and resume_state.params != params:
            raise ValueError(
                f"resume_state was produced under {resume_state.params}, "
                f"cannot continue with {params}"
            )

    contributions: list[np.ndarray] = []
    sums = np.zeros(n)
    counts = np.zeros(n)
    truncated_at: list[int] = []
    n_walks = 0
    start_walks = 0
    if resume_state is not None:
        start_walks = n_walks = int(resume_state.n_walks)
        contributions = [np.asarray(c, dtype=float)
                         for c in resume_state.contributions]
        if resume_state.sums is not None:
            sums = np.asarray(resume_state.sums, dtype=float).copy()
        if resume_state.counts is not None:
            counts = np.asarray(resume_state.counts, dtype=float).copy()
        truncated_at = list(resume_state.truncated_at)
    budget_error: BudgetExceededError | None = None
    # Convergence stream: each accumulated walk observes the largest
    # per-player shift of the running estimate into the
    # ``games.step_delta`` histogram (and bumps ``games.walks``), so the
    # exposition endpoint and the run ledger can see *how settled* an
    # estimate was, not just how long it took. Computed once per group,
    # from the group's stacked contributions. Purely passive — the
    # estimate itself never reads these — and skipped when observability
    # is off.
    telemetry = _obs_enabled()
    running = None
    if telemetry and n_walks:
        # Resumed estimates re-enter the step-delta stream at the
        # estimate they left off with, not at zero.
        running = (
            np.stack(contributions).mean(axis=0)
            if aggregate == "mean_walks"
            else sums / np.maximum(counts, min_count)
        )
    if telemetry:
        walks_counter = metrics.counter("games.walks")
        step_histogram = metrics.histogram("games.step_delta")

    def accumulate(contribs, local_counts, scanned):
        """Fold one group of walks in, in walk order."""
        nonlocal n_walks, sums, counts, running
        g = contribs.shape[0]
        if telemetry:
            if aggregate == "mean_walks":
                prior = 0.0 if running is None else running * n_walks
                walks_so_far = np.arange(n_walks + 1, n_walks + g + 1)
                estimates = (prior + np.cumsum(contribs, axis=0)) / \
                    walks_so_far.reshape((g,) + (1,) * (contribs.ndim - 1))
            else:
                estimates = (sums + np.cumsum(contribs, axis=0)) / np.maximum(
                    counts + np.cumsum(local_counts, axis=0), min_count
                )
            start = np.zeros_like(estimates[:1]) if running is None \
                else running[None]
            shifts = np.abs(
                estimates - np.concatenate([start, estimates[:-1]])
            ).reshape(g, -1).max(axis=1)
            walks_counter.inc(g)
            step_histogram.observe_many(shifts.tolist())
            running = estimates[-1]
        if scanned is not None:
            truncated_at.extend(scanned.tolist())
        if aggregate == "mean_walks":
            contributions.extend(contribs)
        else:
            # Walk by walk: the running sums' association order is part
            # of the ``sum_counts`` contract.
            for contrib, local in zip(contribs, local_counts):
                sums += contrib
                counts += local
        n_walks += g

    backend_name = resolve_backend(backend)
    # Actual walks per executed batch (a lone antithetic permutation
    # still runs both directions, whatever the diagnostics contract
    # calls a "requested" walk), so resume lands on the right batch.
    skip_batches, mid_walks = divmod(start_walks, 2 if antithetic else 1)
    sharded = walk_fn is None and _shard_eligible(
        game, backend_name, n_batches - skip_batches
    )
    if sharded:
        budget_error = _run_sharded_walks(
            accumulate, sampler, rng, game, value_fn,
            n_batches, antithetic, backend_name, n_shards, n_procs, seed,
            empty_value, position_weights, truncating, truncation_target,
            truncation_tolerance, start_walks=start_walks,
        )
        if budget_error is not None and n_walks == 0:
            raise budget_error
    else:
        def drawn():
            # Draw every batch's permutation — including ones a resumed
            # state already completed — so the stream stays in the exact
            # serial order; only the walk evaluation is skipped. Lazily,
            # so walks run one at a time draw each permutation only after
            # the walks before it, as the old loop did.
            for b in range(n_batches):
                perm = sampler(rng)
                if b >= skip_batches:
                    yield perm

        walks = _batch_walks(drawn(), skip_batches, antithetic,
                             skip_batches, mid_walks)
        if walk_fn is not None:
            groups = ((np.asarray(walk_fn(p), dtype=float)[None],
                       np.ones((1, n)), None) for p in walks)
        else:
            groups = _walk_groups(
                value_fn, game, walks, empty_value, position_weights,
                truncating, truncation_target, truncation_tolerance,
            )
        try:
            for group in groups:
                accumulate(*group)
        except BudgetExceededError as e:
            if n_walks == 0:
                raise
            budget_error = e

    diagnostics = {
        "converged": budget_error is None,
        "n_walks_completed": n_walks,
        "n_walks_requested": n_batches * walks_per_batch,
        "budget_error": None if budget_error is None else str(budget_error),
    }
    if truncated_at:
        diagnostics["mean_truncation_position"] = float(np.mean(truncated_at))
    state = EstimatorState(
        n_walks=n_walks,
        aggregate=aggregate,
        contributions=list(contributions),
        sums=sums if aggregate == "sum_counts" else None,
        counts=counts if aggregate == "sum_counts" else None,
        truncated_at=list(truncated_at),
        params=params,
    )
    if aggregate == "mean_walks":
        stacked = np.stack(contributions)
        phi = stacked.mean(axis=0)
        std_err = stacked.std(axis=0, ddof=1) / np.sqrt(stacked.shape[0]) \
            if stacked.shape[0] > 1 else np.zeros_like(phi)
        return PermutationEstimate(phi, std_err, diagnostics, state)
    phi = sums / np.maximum(counts, min_count)
    return PermutationEstimate(phi, None, diagnostics, state)


def _group_sizes(game):
    """Walks per ``value_fn`` call over ``game``: the one grouping rule.

    Walks share a call only over a ``deterministic`` game without
    ``value_at``, whose values do not depend on what else is in the call
    (a position-seeded game keys its draws to a coalition's row in the
    call). Over such a game, with no deadline or query budget in force,
    every pending walk joins one group. Under a deadline alone groups
    hold 1, 2, 4, … walks, so a deadline loses at most the running
    group. Under a query budget each group is one walk, because budgets
    are charged and run out coalition by coalition in walk order. Every
    other game keeps one walk per call.
    """
    if not getattr(game, "deterministic", False) or hasattr(game, "value_at"):
        return repeat(1)
    if not budgets_in_force():
        return repeat(None)
    if current_scope().query_budget is not None:
        return repeat(1)
    return (1 << k for k in count())


def _batch_walks(perms, first, antithetic, skip_batches, mid_walks):
    """The walks of consecutive batches ``first, first + 1, …``.

    Each batch is its permutation and, when ``antithetic``, its reverse.
    Batch ``skip_batches`` of a resumed run with ``mid_walks`` walks
    already accumulated (a half-finished antithetic pair) resumes at
    its second walk.
    """
    for b, perm in enumerate(perms, start=first):
        batch = [perm, perm[::-1]] if antithetic else [perm]
        if b == skip_batches and mid_walks:
            batch = batch[mid_walks:]
        yield from batch


def _walk_groups(
    value_fn, game, walks, empty_value, position_weights,
    truncating, truncation_target, truncation_tolerance,
):
    """``(contribs, local_counts, scanned)`` of each group of value-fn
    walks (:func:`_group_sizes`), in walk order: the walk body the serial
    loop and the shard runner share (whole-walk games never reach here;
    their walks stay serial behind ``walk_contributions``). Each array
    has one row per walk of the group; ``scanned`` is ``None`` unless
    truncation was active.
    """
    walks = iter(walks)
    for size in _group_sizes(game):
        group = list(islice(walks, size))
        if not group:
            return
        order = np.stack(group)
        if truncating:
            yield _truncated_group(
                value_fn, order, empty_value, position_weights,
                truncation_target, truncation_tolerance,
            )
        else:
            yield _full_group(value_fn, order, empty_value, position_weights)


def _full_group(value_fn, order, empty_value, position_weights):
    """Untruncated walks: every prefix of every walk in one ``value_fn``
    call, each walk's block laid out like :func:`walk_masks` (row ``k``
    holds its first ``k`` players; ∅ is left out when ``empty_value`` is
    known). Values may carry a trailing axis, one entry per instance.
    """
    g, n = order.shape
    walk = np.arange(g)[:, None]
    ranks = np.empty_like(order)
    ranks[walk, order] = np.arange(n)
    first = 0 if empty_value is None else 1
    masks = ranks[:, None, :] < np.arange(first, n + 1)[:, None]
    values = np.asarray(value_fn(masks.reshape(-1, n)), dtype=float)
    values = values.reshape((g, n + 1 - first) + values.shape[1:])
    if empty_value is not None:
        known = np.full((g, 1) + values.shape[2:], float(empty_value))
        values = np.concatenate([known, values], axis=1)
    diffs = values[:, 1:] - values[:, :-1]
    contrib = np.zeros((g, n) + diffs.shape[2:])
    if position_weights is None:
        contrib[walk, order] = diffs
        return contrib, np.ones((g, n)), None
    weights = position_weights.reshape((n,) + (1,) * (diffs.ndim - 2))
    contrib[walk, order] = weights * diffs
    local_counts = np.zeros((g, n))
    local_counts[walk, order] = position_weights
    return contrib, local_counts, None


class _WalkShardRunner:
    """Picklable shard runner: evaluate a contiguous block of walks.

    Module-level for the same reason as :class:`_MatrixShardRunner` —
    the spawn backend pickles the runner, rebuilding the game (and the
    evaluator over it) in a fresh worker. All permutations are
    pre-drawn parent-side and ship as data; the mergeable store is
    re-derived from the live objects inside :meth:`__call__` so worker
    cache mutations land on the unpickled store that ships back.
    """

    def __init__(self, value_fn, game, perms, skip_batches, mid_walks,
                 antithetic, empty_value, position_weights, truncating,
                 truncation_target, truncation_tolerance):
        self.value_fn = value_fn
        self.game = game
        self.perms = perms
        self.skip_batches = skip_batches
        self.mid_walks = mid_walks
        self.antithetic = antithetic
        self.empty_value = empty_value
        self.position_weights = position_weights
        self.truncating = truncating
        self.truncation_target = truncation_target
        self.truncation_tolerance = truncation_tolerance

    def __call__(self, bounds):
        lo, hi = bounds
        store, stateful = _mergeable_state(self.value_fn, self.game)
        baseline = (
            frozenset(store.values)
            if store is not None and in_worker()
            else ()
        )
        first = self.skip_batches + lo
        # `antithetic`, not the pair flag: n_permutations=1 with
        # antithetic=True runs 2 walks serially, and must here.
        walks = _batch_walks(
            self.perms[first:self.skip_batches + hi], first,
            self.antithetic, self.skip_batches, self.mid_walks,
        )
        groups, err = [], None
        try:
            for group in _walk_groups(
                self.value_fn, self.game, walks, self.empty_value,
                self.position_weights, self.truncating,
                self.truncation_target, self.truncation_tolerance,
            ):
                groups.append(group)
        except BudgetExceededError as e:
            err = {
                "message": str(e), "kind": e.kind,
                "spent": e.spent, "budget": e.budget,
            }
        payload = {"groups": groups, "error": err}
        return _capture_worker_state(
            payload, store, baseline, self.game, stateful
        )


def _run_sharded_walks(
    accumulate, sampler, rng, game, value_fn,
    n_batches, antithetic, backend_name, n_shards, n_procs, seed,
    empty_value, position_weights, truncating, truncation_target,
    truncation_tolerance, start_walks=0,
):
    """Shard the permutation walks; returns the budget error, if any.

    Seed parity: *every* permutation is drawn here, in the parent, from
    the caller's stream — the same ``sampler(rng)`` sequence the serial
    loop would consume — before anything is dispatched. Workers receive
    explicit permutations, never a generator. Reduce parity: shard
    payloads carry per-group ``(contribs, local_counts, scanned)``
    arrays and ``accumulate`` replays them in global walk order, so even
    the running-sum (``sum_counts``) association order matches serial
    exactly. Budget exhaustion inside a shard is marshalled as data;
    accumulation stops at the first exhausted shard (prefix semantics),
    but cache/utility state from *all* completed shards still merges —
    that work really happened and the counters should say so.

    Resume (``start_walks`` > 0): the full permutation stream is still
    drawn, but only the batches after the resumed walk count are
    sharded and evaluated — a half-finished antithetic pair's remaining
    walk runs in the first shard. Per-walk results are independent of
    the shard partition, so resuming re-joins the serial walk order
    bitwise no matter how the remaining batches split.
    """
    walks_per_batch = 2 if antithetic else 1
    skip_batches, mid_walks = divmod(start_walks, walks_per_batch)
    perms = [sampler(rng) for __ in range(n_batches)]
    remaining = n_batches - skip_batches
    if remaining <= 0:
        return None
    plan = plan_shards(
        remaining,
        n_shards if n_shards is not None else resolve_n_procs(n_procs),
        seed=seed,
    )
    store, stateful = _mergeable_state(value_fn, game)
    state_before = game.export_shard_state() if stateful else None
    run_shard = _WalkShardRunner(
        value_fn, game, perms, skip_batches, mid_walks, antithetic,
        empty_value, position_weights, truncating, truncation_target,
        truncation_tolerance,
    )

    def rebuild(err):
        return BudgetExceededError(
            err["message"], kind=err["kind"],
            spent=err["spent"], budget=err["budget"],
        )

    if plan.n_shards < 2:
        payload = run_shard((0, remaining))
        for group in payload["groups"]:
            accumulate(*group)
        return None if payload["error"] is None else rebuild(payload["error"])

    outcomes = map_shards(
        run_shard, list(plan.slices), backend=backend_name, n_procs=n_procs
    )
    budget_error = None
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
        payload = outcome.value
        _merge_worker_state(payload, store, game, stateful, state_before)
        if budget_error is None:
            for group in payload["groups"]:
                accumulate(*group)
            if payload["error"] is not None:
                budget_error = rebuild(payload["error"])
    return budget_error


def _truncated_group(
    value_fn, order, empty_value, position_weights, target, tolerance,
):
    """TMC walks with early stopping, stepped together → ``(contribs,
    local_counts, scanned)``, one row per walk.

    Step j evaluates each live walk's (j+1)-prefix in one ``value_fn``
    call (one ``coalition_eval`` span, one cache pass), and a walk leaves
    the live set once it truncates. A prefix's value does not depend on
    what else is in the call, so a walk evaluates the same prefixes, gets
    the same values and fills the same buffers whatever its group.

    Each walk accumulates into its own row, so a walk cut short is
    discarded whole. Each player is touched once per walk, so adding the
    rows up in walk order reproduces the legacy in-place accumulation
    bitwise.
    """
    g, n = order.shape
    contrib = np.zeros((g, n))
    local_counts = np.zeros((g, n))
    masks = np.zeros((g, n), dtype=bool)
    scanned = np.full(g, n)
    if empty_value is None:
        previous = np.asarray(value_fn(masks), dtype=float)
    else:
        previous = np.full(g, float(empty_value))
    live = np.arange(g)
    for position in range(n):
        players = order[live, position]
        masks[live, players] = True
        current = np.asarray(value_fn(masks[live]), dtype=float)
        if position_weights is None:
            contrib[live, players] = current - previous[live]
            local_counts[live, players] = 1.0
        else:
            weight = position_weights[position]
            contrib[live, players] = weight * (current - previous[live])
            local_counts[live, players] = weight
        previous[live] = current
        stop = np.abs(target - current) < tolerance
        scanned[live[stop]] = position + 1
        live = live[~stop]
        if live.size == 0:
            break
    # The unscanned tail contributes zero but still counts — truncation
    # is an estimate of ~0 marginals, not missing data.
    walk, position = np.nonzero(np.arange(n) >= scanned[:, None])
    local_counts[walk, order[walk, position]] = (
        1.0 if position_weights is None else position_weights[position]
    )
    return contrib, local_counts, scanned


# -- Kernel SHAP (weighted least squares) -------------------------------------

# Coalition enumeration asks for the same C(n, s) several times per size
# (budget check, weight, sampling probabilities); memoize both lookups.
_comb = lru_cache(maxsize=None)(comb)


@lru_cache(maxsize=None)
def shapley_kernel_weight(n: int, size: int) -> float:
    """The Shapley kernel π(S) for |S| = size (infinite at 0 and n)."""
    if size == 0 or size == n:
        return float("inf")
    return (n - 1) / (_comb(n, size) * size * (n - size))


def _enumerate_coalitions(
    n: int, budget: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Choose coalition rows and kernel weights under an evaluation budget.

    Returns ``(masks, weights)`` excluding the empty and grand coalitions.
    """
    masks: list[np.ndarray] = []
    weights: list[float] = []
    remaining = budget
    # Pair sizes (1, n−1), (2, n−2), ...; each pair shares a kernel weight.
    sizes = []
    for s in range(1, n // 2 + 1):
        sizes.append(s)
        if s != n - s:
            sizes.append(n - s)
    fully_enumerated: set[int] = set()
    for s in sizes:
        count = _comb(n, s)
        if count <= remaining:
            for subset in combinations(range(n), s):
                row = np.zeros(n, dtype=bool)
                row[list(subset)] = True
                masks.append(row)
                weights.append(shapley_kernel_weight(n, s))
            remaining -= count
            fully_enumerated.add(s)
        else:
            break
    leftover_sizes = [s for s in sizes if s not in fully_enumerated]
    if leftover_sizes and remaining > 0:
        probs = np.array([shapley_kernel_weight(n, s) * _comb(n, s)
                          for s in leftover_sizes])
        probs /= probs.sum()
        drawn = rng.choice(len(leftover_sizes), size=remaining, p=probs)
        for k in drawn:
            s = leftover_sizes[k]
            subset = rng.choice(n, size=s, replace=False)
            row = np.zeros(n, dtype=bool)
            row[subset] = True
            masks.append(row)
            # Sampled rows share equal weight within the leftover pool: the
            # sampling distribution already encodes the kernel.
            weights.append(1.0)
    return np.array(masks, dtype=bool), np.asarray(weights, dtype=float)


def solve_kernel_wls(
    masks: np.ndarray,
    weights: np.ndarray,
    values: np.ndarray,
    v_empty: float,
    v_full: float,
) -> np.ndarray:
    """The Kernel SHAP weighted least-squares solve, design → ``phi``.

    The estimator's closed-form step for one instance's values (a game
    over a matrix of instances is solved column by column): imposes
    Σφ = v_full − v_empty by eliminating the last player, then solves
    the kernel-weighted normal equations with a 1e-12 ridge.
    """
    n_players = masks.shape[1]
    # Impose Σφ = v_full − v_empty by eliminating the last player:
    # model y − z_last·(v_full − v_empty) = (Z_front − z_last)·φ_front.
    Z = masks.astype(float)
    y = values - v_empty
    total = v_full - v_empty
    z_last = Z[:, -1]
    A = Z[:, :-1] - z_last[:, None]
    b = y - z_last * total
    W = weights
    lhs = A.T @ (W[:, None] * A)
    rhs = A.T @ (W * b)
    phi_front = np.linalg.solve(lhs + 1e-12 * np.eye(n_players - 1), rhs)
    return np.append(phi_front, total - phi_front.sum())


def kernel_wls_estimator(
    game_or_fn,
    n_players: int | None = None,
    n_samples: int = 2048,
    seed: int = 0,
    backend: str | None = None,
    n_shards: int | None = None,
    n_procs: int | None = None,
) -> tuple[np.ndarray, float]:
    """Kernel SHAP estimate; returns ``(phi, base_value)``.

    Solves the Shapley-kernel weighted least squares problem with the
    efficiency constraint imposed exactly by variable elimination.
    ``n_samples`` bounds the number of coalition evaluations (in
    addition to the empty and grand coalitions, always evaluated).
    Under a non-serial ``backend`` the sampled coalition rows are
    evaluated in sharded blocks (coalition choice and the WLS solve stay
    parent-side, so the estimate is bitwise-identical to serial). A
    game whose values carry a trailing axis (one entry per instance)
    gets ``phi`` and the base value with that axis, each instance
    solved on its own.
    """
    value_fn, n_players, game = _resolve(game_or_fn, n_players)
    rng = np.random.default_rng(seed)
    if n_players == 1:
        ends = np.asarray(value_fn(np.array([[False], [True]])), dtype=float)
        return (ends[1] - ends[0])[None], _scalar(ends[0])
    masks, weights = _enumerate_coalitions(n_players, n_samples, rng)
    ends = np.asarray(value_fn(
        np.vstack([np.zeros(n_players, dtype=bool), np.ones(n_players, dtype=bool)])
    ), dtype=float)
    values = _sharded_values(
        value_fn, game, masks, resolve_backend(backend), n_shards, n_procs,
        seed=seed,
    )
    columns = values.reshape(values.shape[0], -1)
    empty, full = ends.reshape(2, -1)
    phi = np.stack([
        solve_kernel_wls(masks, weights, columns[:, r], float(empty[r]),
                         float(full[r]))
        for r in range(columns.shape[1])
    ], axis=-1)
    return phi.reshape((n_players,) + values.shape[1:]), _scalar(ends[0])


def _scalar(value):
    """A 0-d value as a ``float``; a row of values stays an array."""
    value = np.asarray(value, dtype=float)
    return float(value) if value.ndim == 0 else value


# -- stratified cardinality sampling ------------------------------------------


def stratified_estimator(
    game_or_fn,
    player: int,
    n_players: int | None = None,
    n_draws: int = 100,
    max_cardinality: int | None = None,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> tuple[float, float]:
    """One player's Shapley value by stratified cardinality draws.

    Each draw picks a random coalition size m, a random m-subset of the
    other players, and records the player's marginal contribution to it
    — distributional Shapley's one-sample estimator of the average over
    cardinalities. Returns ``(value, standard_error)``.
    """
    value_fn, n, __ = _resolve(game_or_fn, n_players)
    if not 0 <= player < n:
        raise IndexError(player)
    rng = rng if rng is not None else np.random.default_rng(seed)
    others = np.array([i for i in range(n) if i != player])
    max_cardinality = max_cardinality or others.size
    contributions = np.zeros(n_draws)
    for t in range(n_draws):
        m = int(rng.integers(0, max_cardinality + 1))
        subset = rng.choice(others, size=m, replace=False)
        masks = np.zeros((2, n), dtype=bool)
        masks[0, subset] = True
        masks[0, player] = True
        masks[1, subset] = True
        vals = np.asarray(value_fn(masks), dtype=float)
        contributions[t] = vals[0] - vals[1]
    value = float(contributions.mean())
    stderr = float(contributions.std(ddof=1) / np.sqrt(n_draws)) \
        if n_draws > 1 else 0.0
    return value, stderr
