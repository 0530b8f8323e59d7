"""Shared coalition-evaluation engine for Shapley-family explainers.

Every coalition-based explainer in the library reduces to the same hot
loop: given an instance ``x``, a background sample, and a batch of binary
coalition masks, materialize ``n_coalitions × n_background`` hybrid rows,
push them through the black-box predict function, and average each
coalition's block into one value ``v(S)``. The tutorial's cost axis for
post-hoc explainers is exactly this model-query bill, and the meters in
:mod:`repro.obs` made it visible; this module makes it cheap:

* **Broadcast masking** — one ``np.where(coalitions[:, None, :], x,
  background)`` replaces the historical per-coalition Python loop.
* **Memory-bounded chunking** — ``max_batch_rows`` (env
  ``REPRO_MAX_BATCH_ROWS``) splits huge coalition×background blocks into
  bounded predict-fn calls instead of one giant allocation; the chunk
  geometry is surfaced on the ``coalition_eval`` span.
* **Coalition-value caching** — identical masks are deduplicated within
  and across calls via packed-bit keys, so paired/antithetic permutation
  walks and the fully-enumerated small sizes of Kernel SHAP never pay
  for the same ``v(S)`` twice. Hits/misses are exported through
  ``repro.obs.metrics`` as ``coalition.cache.hits`` / ``.misses``.

:class:`CoalitionEngine` owns the background, the chunk bound and the
chunk-retry allowance, and builds the (optionally snapshot-pre-warmed)
value store; the masking game itself is
:class:`repro.games.adapters.FeatureMaskingGame`, and the dedupe, chunk
and retry loop is :func:`repro.games.engine.game_value_function` — the
one evaluator every cooperative game in the library runs through.

The cache is only correct when the value function is a *deterministic*
function of the mask — true for the interventional masking game (no
randomness after background subsampling) and the empirical-conditional
game, false for stochastic value functions that consume fresh random
draws per evaluation (e.g. QII's factorized interventions). Those callers
must pass ``cache=False`` (or use :func:`batched_predict` directly) so
repeated masks keep their independent draws.

Fault tolerance: each chunk's guarded predict call is retried at the
chunk level (``chunk_retries``) when the guard gives up, and failed
evaluations are **never committed** to the value cache — cache writes
happen only after a chunk's values come back clean, so a poisoned chunk
cannot leave corrupt ``v(S)`` entries behind for later calls to reuse.

The pre-engine evaluation path (per-coalition loop expand, one unchunked
predict call, no cache) is preserved as :func:`legacy_expand` /
:meth:`CoalitionEngine.legacy_value_function` so E37 can benchmark
old-vs-new at equal coalition budget and the regression tests can assert
bitwise-identical expansions.
"""

from __future__ import annotations

import base64
from typing import Callable

import numpy as np

from ..config import setting
from ..obs import metrics
from ..persist.errors import PayloadError
from ..persist.protocol import register_serializable

__all__ = [
    "broadcast_expand",
    "legacy_expand",
    "batched_predict",
    "CoalitionValueCache",
    "CoalitionEngine",
]

DEFAULT_CHUNK_RETRIES = 1

_HITS = "coalition.cache.hits"
_MISSES = "coalition.cache.misses"


def broadcast_expand(
    x: np.ndarray, coalitions: np.ndarray, background: np.ndarray
) -> np.ndarray:
    """Materialize coalition rows against the whole background, vectorized.

    Returns shape ``(n_coalitions * n_background, d)``: for each
    coalition, one copy of every background row with present features
    overwritten by the instance's values. Block layout (all background
    rows of coalition 0, then coalition 1, …) matches
    :func:`legacy_expand` exactly.
    """
    x = np.asarray(x, dtype=float).ravel()
    coalitions = np.atleast_2d(np.asarray(coalitions, dtype=bool))
    background = np.atleast_2d(np.asarray(background, dtype=float))
    n_c, d = coalitions.shape
    rows = np.where(coalitions[:, None, :], x[None, None, :], background[None, :, :])
    return rows.reshape(n_c * background.shape[0], d)


def legacy_expand(
    x: np.ndarray, coalitions: np.ndarray, background: np.ndarray
) -> np.ndarray:
    """The pre-engine per-coalition expansion loop.

    Kept verbatim-in-behaviour (the chained ``out[block][:, present]``
    view assignment is replaced by a single-step index) so E37 can time
    the old path and the regression tests can assert the broadcast path
    is bitwise identical.
    """
    x = np.asarray(x, dtype=float).ravel()
    coalitions = np.atleast_2d(np.asarray(coalitions, dtype=bool))
    background = np.atleast_2d(np.asarray(background, dtype=float))
    n_c = coalitions.shape[0]
    n_b = background.shape[0]
    out = np.tile(background, (n_c, 1))
    for c in range(n_c):
        present = coalitions[c]
        out[c * n_b : (c + 1) * n_b, present] = x[present]
    return out


def batched_predict(
    predict_fn: Callable[[np.ndarray], np.ndarray],
    rows: np.ndarray,
    max_batch_rows: int | None = None,
) -> np.ndarray:
    """Evaluate ``predict_fn`` over ``rows`` in memory-bounded chunks.

    Per-row outputs are independent of chunk boundaries, so the result is
    identical to one giant call — only the peak allocation (and the
    ``model.calls`` meter) changes.
    """
    rows = np.atleast_2d(rows)
    limit = max(1, int(setting("REPRO_MAX_BATCH_ROWS", max_batch_rows)))
    n = rows.shape[0]
    if n <= limit:
        return np.asarray(predict_fn(rows), dtype=float).ravel()
    out = np.empty(n, dtype=float)
    for start in range(0, n, limit):
        stop = min(start + limit, n)
        out[start:stop] = np.asarray(
            predict_fn(rows[start:stop]), dtype=float
        ).ravel()
    return out


@register_serializable("core.CoalitionValueCache")
class CoalitionValueCache:
    """Memo of coalition values keyed by packed-bit masks.

    Keys are ``np.packbits`` bytes of the boolean mask — 8× smaller than
    tuple keys and hashable without per-element Python objects. One cache
    instance is scoped to one ``(instance, value function)`` pair; values
    for different explained instances never share a cache.
    """

    __slots__ = ("values", "hits", "misses")

    def __init__(self) -> None:
        self.values: dict[bytes, float] = {}
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self.values)

    def record(self, hits: int, misses: int) -> None:
        """Accumulate local stats and export them through repro.obs."""
        self.hits += hits
        self.misses += misses
        if hits:
            metrics.counter(_HITS).inc(hits)
        if misses:
            metrics.counter(_MISSES).inc(misses)

    def to_dict(self) -> dict:
        """Entries only; hit/miss statistics are ephemeral run state."""
        return {
            "entries": {
                base64.b64encode(key).decode("ascii"): float(value)
                for key, value in self.values.items()
            }
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CoalitionValueCache":
        out = cls()
        try:
            for key_b64, value in payload.get("entries", {}).items():
                out.values[base64.b64decode(key_b64.encode("ascii"))] = \
                    float(value)
        except (ValueError, TypeError, AttributeError) as e:
            raise PayloadError(f"malformed cache entries: {e}") from e
        return out


class _FusedMaskingGame:
    """The ``instance × coalition`` grid as a position-keyed game.

    Position ``p`` is coalition ``p % n_coalitions`` fixed to instance
    ``X[p // n_coalitions]``, so one evaluator chunk can span row
    boundaries; each position's value is still the mean over its own
    background block only.
    """

    guarded = True

    def __init__(self, model_fn, X: np.ndarray, n_coalitions: int,
                 background: np.ndarray) -> None:
        self.model_fn = model_fn
        self.X = X
        self.n_coalitions = n_coalitions
        self.background = background
        self.n_players = X.shape[1]
        self.rows_per_coalition = background.shape[0]

    def value_at(self, positions: np.ndarray, masks: np.ndarray
                 ) -> np.ndarray:
        rows = np.where(
            masks[:, None, :],
            self.X[positions // self.n_coalitions][:, None, :],
            self.background[None, :, :],
        ).reshape(masks.shape[0] * self.rows_per_coalition, self.n_players)
        preds = np.asarray(self.model_fn(rows), dtype=float).ravel()
        return preds.reshape(masks.shape[0], self.rows_per_coalition).mean(
            axis=1
        )

    def value(self, masks: np.ndarray) -> np.ndarray:
        return self.value_at(np.arange(masks.shape[0]), masks)


@register_serializable("core.CoalitionEngine")
class CoalitionEngine:
    """Background, chunk bound and retry allowance for masking games.

    The interventional masking sampler of Kernel SHAP and friends: a
    coalition's absent features are imputed from the background sample.
    Evaluation runs through :func:`repro.games.engine.game_value_function`
    over a :class:`repro.games.adapters.FeatureMaskingGame`, which
    carries this engine's settings.

    Parameters
    ----------
    background:
        Background sample; absent features are imputed from it
        (subsampled to ``max_background`` rows, as before).
    max_batch_rows:
        Upper bound on rows per predict-fn call (``None`` → env
        ``REPRO_MAX_BATCH_ROWS`` → 65 536, see :mod:`repro.config`).
    chunk_retries:
        Extra whole-chunk attempts after the guarded predict function
        gives up on a chunk (:class:`repro.robust.ModelEvaluationError`).
        Chunk geometry means one flaky evaluation would otherwise sink
        thousands of coalition values at once; a fresh attempt re-enters
        the guard with a full retry allowance. Budget exhaustion is
        never chunk-retried (the budget will not recover).
    """

    def __init__(
        self,
        background: np.ndarray,
        max_background: int = 100,
        rng: np.random.Generator | None = None,
        max_batch_rows: int | None = None,
        chunk_retries: int = DEFAULT_CHUNK_RETRIES,
    ) -> None:
        background = np.atleast_2d(np.asarray(background, dtype=float))
        if background.shape[0] > max_background:
            rng = rng or np.random.default_rng(0)
            idx = rng.choice(background.shape[0], size=max_background, replace=False)
            background = background[idx]
        self.background = background
        self.max_batch_rows = max(
            1, int(setting("REPRO_MAX_BATCH_ROWS", max_batch_rows))
        )
        self.chunk_retries = max(0, int(chunk_retries))

    @property
    def n_background(self) -> int:
        return self.background.shape[0]

    def to_dict(self) -> dict:
        return {
            "background": self.background,
            "max_batch_rows": self.max_batch_rows,
            "chunk_retries": self.chunk_retries,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CoalitionEngine":
        background = np.atleast_2d(np.asarray(payload["background"],
                                              dtype=float))
        # The stored background was already subsampled at construction;
        # passing its own row count as the cap keeps it verbatim instead
        # of re-subsampling.
        return cls(
            background,
            max_background=background.shape[0],
            max_batch_rows=payload.get("max_batch_rows"),
            chunk_retries=payload.get("chunk_retries",
                                      DEFAULT_CHUNK_RETRIES),
        )

    # -- expansion -----------------------------------------------------------

    def expand(self, x: np.ndarray, coalitions: np.ndarray) -> np.ndarray:
        """Broadcast-materialize coalition rows (see :func:`broadcast_expand`)."""
        return broadcast_expand(x, coalitions, self.background)

    # -- evaluation ----------------------------------------------------------

    def new_store(self, x: np.ndarray, cache: bool = True
                  ) -> CoalitionValueCache | None:
        """A fresh value store for instance ``x``; ``None`` when caching is
        off (``cache=False`` or ``REPRO_COALITION_CACHE=0``).

        Opt-in pre-warming from a persisted snapshot
        (``REPRO_CACHE_SNAPSHOT``): scope tokens keep foreign snapshots
        out, and a broken snapshot never fails the explanation.
        """
        if not (cache and setting("REPRO_COALITION_CACHE")):
            return None
        from ..persist.snapshot import maybe_prewarm, scope_token
        store = CoalitionValueCache()
        if setting("REPRO_CACHE_SNAPSHOT") is not None:
            maybe_prewarm(store, scope_token(x, self.background))
        return store

    def batch_value_matrix(
        self,
        model_fn: Callable[[np.ndarray], np.ndarray],
        X: np.ndarray,
        coalitions: np.ndarray,
    ) -> np.ndarray:
        """Fused ``v(S)`` over a batch of instances × shared coalitions.

        Returns a ``(n_instances, n_coalitions)`` matrix: entry
        ``[r, c]`` is the mean model output over the background with
        coalition ``c`` fixed to instance ``r`` — exactly what
        ``value_function(model_fn, X[r])(coalitions)[c]`` computes, but
        evaluated as one flattened ``instance × coalition`` grid so
        chunks can span row boundaries and small per-row mask sets no
        longer pay one model call each. Each coalition block is averaged
        over its own background rows only, so values are bitwise
        independent of the chunk geometry (the same invariant
        :func:`batched_predict` relies on); the amortized
        ``explain_batch`` parity tests assert this against the per-row
        path. Callers pass pre-deduplicated coalitions (a
        :class:`repro.games.plan.CoalitionPlan`); no value cache is
        consulted here.
        """
        # Deferred import: repro.games imports this module at package init.
        from ..games.engine import game_value_function

        X = np.atleast_2d(np.asarray(X, dtype=float))
        coalitions = np.atleast_2d(np.asarray(coalitions, dtype=bool))
        n_rows, n_c = X.shape[0], coalitions.shape[0]
        game = _FusedMaskingGame(model_fn, X, n_c, self.background)
        v = game_value_function(
            game, cache=False, max_batch_rows=self.max_batch_rows,
            chunk_retries=self.chunk_retries,
        )
        return v(np.tile(coalitions, (n_rows, 1))).reshape(n_rows, n_c)

    def value_function(
        self,
        model_fn: Callable[[np.ndarray], np.ndarray],
        x: np.ndarray,
        cache: bool = True,
    ):
        """Return ``v(S)``: mean model output with coalition S fixed to x.

        The returned callable accepts a binary coalition matrix and
        returns one averaged output per coalition. With ``cache=True``
        (the default — correct because the masking game is deterministic)
        identical masks are evaluated once within and across calls; the
        cache is reachable afterwards as ``v.cache``.
        """
        from ..games.adapters import FeatureMaskingGame
        from ..games.engine import game_value_function

        return game_value_function(
            FeatureMaskingGame(model_fn, x, engine=self, cache=cache)
        )

    def legacy_value_function(
        self, model_fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray
    ):
        """The pre-engine path: loop expand, one unchunked call, no cache.

        Kept so E37 can compare old-vs-new wall time and model-eval counts
        at equal coalition budget.
        """
        x = np.asarray(x, dtype=float).ravel()
        n_b = self.n_background

        def v(coalitions: np.ndarray) -> np.ndarray:
            rows = legacy_expand(x, coalitions, self.background)
            preds = np.asarray(model_fn(rows), dtype=float)
            return preds.reshape(-1, n_b).mean(axis=1)

        return v
