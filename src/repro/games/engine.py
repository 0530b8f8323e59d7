"""One evaluation pipeline for every cooperative game.

:func:`game_value_function` turns any :class:`repro.games.base.Game`
into a batched ``v(coalitions)`` callable. It is the one place that
dedupes, chunks, retries and meters coalition evaluations — for feature
masking, k-NN conditioning, data valuation, tuple provenance and causal
games alike; each game's ``value`` computes only its own rows:

* **packed-bit value caching** via
  :class:`repro.core.coalition_engine.CoalitionValueCache` (counters
  ``coalition.cache.hits`` / ``.misses``), enabled when the game
  declares itself ``deterministic`` and not disabled globally via
  ``REPRO_COALITION_CACHE=0``;
* **memory-bounded chunking**: ``max_batch_rows`` (env
  ``REPRO_MAX_BATCH_ROWS``) divided by the game's
  ``rows_per_coalition`` bounds coalitions per evaluation call;
* **budget charging**: games that are not already ``guarded`` charge
  the ambient :class:`repro.robust.GuardScope` one
  ``rows_per_coalition`` per coalition, so deadlines and query budgets
  now stop a runaway Data Shapley exactly like they stop sampling SHAP;
* **transient retry + chunk retry**: unguarded games get the guard's
  capped-exponential retry of ``TRANSIENT_DEFAULT`` failures
  (``robust.retries``), and any chunk that still dies with
  :class:`~repro.robust.ModelEvaluationError` is retried whole
  (``robust.chunk_retries``);
* **span telemetry**: every call opens a ``coalition_eval`` span
  carrying the game class, chunk geometry and cache hit/miss counts.

Position-seeded games (``value_at``) are cached by ``(row, mask)``
instead of mask alone: their randomness is keyed to the batch row (the
interventional SCM value function seeds ``seed + row``), so the same
mask at the same walk position is deterministic — and cacheable —
while masks at different positions stay distinct.

The amortized ``explain_batch`` path (PR 7) evaluates a shared
:class:`repro.games.plan.CoalitionPlan` instead of re-sampling per row:
masking-family explainers go through
:meth:`repro.core.coalition_engine.CoalitionEngine.batch_value_matrix`
(one fused ``batch × coalitions`` grid, evaluated here as a
position-keyed game), and game-shaped value functions without an
engine go through :func:`amortized_plan_values` — one
``coalition_eval`` span per row covering every unique mask the whole
walk schedule visits.
"""

from __future__ import annotations

import numpy as np

from ..config import setting
from ..core.coalition_engine import DEFAULT_CHUNK_RETRIES, CoalitionValueCache
from ..obs import metrics
from ..obs.trace import span
from ..robust.errors import (
    BudgetExceededError,
    InputValidationError,
    ModelEvaluationError,
)
from ..robust.guard import (
    TRANSIENT_DEFAULT,
    _ENV_GUARD,
    _backoff_sleep,
    _note_retry,
    current_scope,
)
from .base import as_game

__all__ = ["game_value_function", "amortized_plan_values"]

_CHUNK_RETRIES = "robust.chunk_retries"


def amortized_plan_values(value_fn, plan) -> np.ndarray:
    """Evaluate one row's value function over a plan's unique coalitions.

    The fused counterpart of calling ``value_fn`` once per walk: every
    distinct mask the plan's walk schedule visits is evaluated in a
    single batched call (the value function's own internal batching —
    e.g. the conditional explainer's stacked neighbor blocks — then
    collapses the whole schedule into O(1) model calls). Per-mask
    values are bitwise-identical to the per-walk path because each
    mask's value never depends on what else is in the batch.
    """
    masks = plan.unique_masks
    with span(
        "coalition_eval", n_coalitions=masks.shape[0], game="plan",
        amortized=True,
    ) as sp:
        vals = np.asarray(value_fn(masks), dtype=float).ravel()
        sp.set_attr("plan_kind", plan.kind)
    return vals


def _evaluate_chunk(game, positions, masks, guarded, rows_per, chunk_retries):
    """One chunk through the game, with budgets, retries and charging."""
    n_rows = masks.shape[0] * rows_per
    scope = None if guarded else current_scope()
    retries = None
    failures = 0
    attempts = 0
    while True:
        if scope is not None:
            scope.check(n_rows)
        try:
            if positions is not None:
                vals = game.value_at(positions, masks)
            else:
                vals = game.value(masks)
            vals = np.asarray(vals, dtype=float).ravel()
            break
        except (BudgetExceededError, InputValidationError):
            raise
        except ModelEvaluationError:
            # Chunk-level retry: a guarded game's predict function has
            # already burned its own retry allowance; one fresh pass at
            # the whole chunk re-enters it with a full allowance.
            attempts += 1
            if attempts > chunk_retries:
                raise
            metrics.counter(_CHUNK_RETRIES).inc()
        except TRANSIENT_DEFAULT as e:
            if guarded:
                raise
            failures += 1
            if retries is None:
                # Read only once something failed: the clean path runs
                # once per chunk and must not pay for the env lookups.
                retries, backoff = _ENV_GUARD.retry_policy()
            if failures > retries:
                raise ModelEvaluationError(
                    f"game evaluation failed after {failures} attempts "
                    f"({retries} retries): {type(e).__name__}: {e}",
                    attempts=failures,
                ) from e
            _note_retry(scope)
            _backoff_sleep(_ENV_GUARD, backoff, failures, scope)
    if vals.shape[0] != masks.shape[0]:
        raise ModelEvaluationError(
            f"{type(game).__name__}.value returned {vals.shape[0]} values "
            f"for {masks.shape[0]} coalitions"
        )
    if scope is not None:
        scope.rows_spent += n_rows
    return vals


class _GameValueFunction:
    """The ``v(coalitions, positions=None)`` that :func:`game_value_function`
    returns. A class rather than a closure so the spawn backend can
    pickle it together with its game."""

    def __init__(self, game, store, max_batch_rows, chunk_retries) -> None:
        self.game = game
        self.cache = store
        self._guarded = getattr(game, "guarded", False)
        self._rows_per = max(1, int(getattr(game, "rows_per_coalition", 1)))
        rows = int(setting("REPRO_MAX_BATCH_ROWS", max_batch_rows))
        self._per_chunk = max(1, rows // self._rows_per)
        self._chunk_retries = max(0, int(chunk_retries))
        self._positional = hasattr(game, "value_at")

    def _evaluate(self, coalitions: np.ndarray, pos: np.ndarray | None, sp
                  ) -> np.ndarray:
        """Every row of ``coalitions``, in chunks of ``_per_chunk``."""
        n_c = coalitions.shape[0]
        per_chunk = self._per_chunk
        out = np.empty(n_c, dtype=float)
        n_chunks = 0
        for start in range(0, n_c, per_chunk):
            stop = min(start + per_chunk, n_c)
            with metrics.observe_duration("coalition.chunk_ms"):
                out[start:stop] = _evaluate_chunk(
                    self.game,
                    None if pos is None else pos[start:stop],
                    coalitions[start:stop],
                    self._guarded,
                    self._rows_per,
                    self._chunk_retries,
                )
            n_chunks += 1
        sp.set_attr("n_chunks", n_chunks)
        return out

    def __call__(self, coalitions: np.ndarray,
                 positions: np.ndarray | None = None) -> np.ndarray:
        coalitions = np.atleast_2d(np.asarray(coalitions, dtype=bool))
        n_c = coalitions.shape[0]
        pos = None
        if self._positional:
            pos = (
                np.arange(n_c)
                if positions is None
                else np.asarray(positions, dtype=int).ravel()
            )
            if pos.shape[0] != n_c:
                raise InputValidationError(
                    f"positions has {pos.shape[0]} entries for "
                    f"{n_c} coalitions"
                )
        store = self.cache
        with span("coalition_eval", n_coalitions=n_c,
                  game=type(self.game).__name__,
                  chunk_coalitions=self._per_chunk,
                  chunk_rows=self._per_chunk * self._rows_per,
                  n_chunks=0) as sp:
            if store is None:
                out = self._evaluate(coalitions, pos, sp)
                sp.set_attr("cache_hits", 0)
                sp.set_attr("cache_misses", n_c)
                return out
            keys = np.packbits(coalitions, axis=1)
            if pos is not None:
                # Position-seeded games key the cache by (position, mask):
                # the same mask at a different walk position draws
                # different samples and must not collide. The position is
                # global (== the batch row unless the caller overrode it).
                keys = [int(p).to_bytes(4, "little") + k.tobytes()
                        for p, k in zip(pos, keys)]
            else:
                keys = [k.tobytes() for k in keys]
            out = np.empty(n_c, dtype=float)
            fresh_rows: list[int] = []
            followers: dict[bytes, list[int]] = {}
            hits = 0
            for i, key in enumerate(keys):
                known = store.values.get(key)
                if known is not None:
                    out[i] = known
                    hits += 1
                elif key in followers:
                    followers[key].append(i)
                    hits += 1
                else:
                    followers[key] = [i]
                    fresh_rows.append(i)
            if fresh_rows:
                idx = np.asarray(fresh_rows)
                vals = self._evaluate(
                    coalitions[idx], None if pos is None else pos[idx], sp
                )
                # Commit only after the whole evaluation succeeded, so a
                # failed chunk can never leave corrupt values behind.
                for j, i0 in enumerate(fresh_rows):
                    key = keys[i0]
                    store.values[key] = vals[j]
                    for i in followers[key]:
                        out[i] = vals[j]
            store.record(hits, len(fresh_rows))
            sp.set_attr("cache_hits", hits)
            sp.set_attr("cache_misses", len(fresh_rows))
            return out


def game_value_function(
    game,
    n_players: int | None = None,
    cache: bool | None = None,
    max_batch_rows: int | None = None,
    chunk_retries: int | None = None,
):
    """The game's ``v(coalitions)`` with caching/chunking/budgets applied.

    ``cache=None`` defers to the game's ``deterministic`` flag (and the
    global ``REPRO_COALITION_CACHE`` kill switch); passing ``True`` for
    a non-deterministic game is the caller asserting determinism the
    adapter could not, and passing a
    :class:`~repro.core.coalition_engine.CoalitionValueCache` *instance*
    shares that store across value functions — the exec backend uses
    this to seed workers with the parent's cache and merge worker stores
    back. Self-evaluating games (bare callables wrapped by
    :func:`~repro.games.base.as_game`) are returned as-is.

    A game may carry its own evaluation settings, which explicit
    arguments override: a ``cache`` store it owns (``None`` when its
    caching is off), ``max_batch_rows`` and ``chunk_retries``.
    :class:`~repro.games.adapters.FeatureMaskingGame` carries its
    engine's, so every evaluator built over one masking game shares one
    store and one chunk geometry.

    The returned ``v(coalitions, positions=None)`` accepts optional
    explicit *positions* for position-seeded games (``value_at``): by
    default each batch row's own index is its position, but a sharded
    caller evaluating a slice of a larger coalition matrix passes the
    rows' **global** indices so the position-keyed seeding (and the
    ``(row, mask)`` cache keys) match what the unsharded batch would
    have drawn.
    """
    game = as_game(game, n_players)
    if getattr(game, "self_evaluating", False):
        return game.value
    if cache is None and hasattr(game, "cache"):
        cache = False if game.cache is None else game.cache
    if isinstance(cache, CoalitionValueCache):
        store = cache if setting("REPRO_COALITION_CACHE") else None
    else:
        if cache is None:
            cache = getattr(game, "deterministic", False)
        store = (CoalitionValueCache()
                 if cache and setting("REPRO_COALITION_CACHE") else None)
    if max_batch_rows is None:
        max_batch_rows = getattr(game, "max_batch_rows", None)
    if chunk_retries is None:
        chunk_retries = getattr(game, "chunk_retries", DEFAULT_CHUNK_RETRIES)
    return _GameValueFunction(game, store, max_batch_rows, chunk_retries)
