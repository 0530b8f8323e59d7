"""Explainer base classes and the black-box model protocol.

The library is model-agnostic at its boundaries: explainers accept either a
plain callable ``f(X) -> outputs`` or any model from :mod:`repro.models`.
:func:`as_predict_fn` normalizes both to a single calling convention, and
chooses the probability of the positive class for classifiers so that every
attribution method explains a real-valued output in ``[0, 1]``.

Every normalized predict function carries two layers:

* the :mod:`repro.obs` model-eval meter — each invocation is counted
  (calls and batched rows) and attributed to the innermost open span,
  which is how ``explain()`` spans learn their model-query cost;
* the :mod:`repro.robust` guard, composed directly above the meter —
  output shape/finiteness validation, capped-exponential retry of
  transient failures, and per-explanation deadlines and model-query
  budgets (``REPRO_RETRIES`` / ``REPRO_BACKOFF`` / ``REPRO_DEADLINE_S``
  / ``REPRO_QUERY_BUDGET``). Pass ``guard=False`` to opt a predict
  function out, or a :class:`repro.robust.GuardConfig` to tune it.

Subclassing :class:`Explainer` auto-instruments ``explain`` /
``explain_batch`` with spans *and* wraps them in a fresh guard scope, so
budgets are per explanation (each row of a batch budgets independently,
on every backend). ``explain_batch`` degrades
gracefully: per-row failures are captured, completed rows survive, and
the caller gets them back either via ``return_errors=True`` or on the
:class:`repro.robust.PartialBatchError` raised by default. Explainers
whose ``explain`` is the one-row case of an ``_explain_rows`` method
serve a budget-free batch with one call of it (one estimate for every
row), and fall back to the per-row loop when that call fails.
"""

from __future__ import annotations

import functools
from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from ..exec import in_worker, map_shards, plan_shards, resolve_backend, \
    resolve_n_procs
from ..obs import metrics
from ..obs.instrument import instrument_explainer
from ..obs.metrics import meter_predict_fn
from ..obs.trace import current_span
from ..robust.errors import BatchRowError, InputValidationError, PartialBatchError
from ..robust.guard import (
    GuardConfig,
    check_instance,
    guard_predict_fn,
    guard_scope,
)
from .explanation import FeatureAttribution

__all__ = ["as_predict_fn", "Explainer", "AttributionExplainer"]

_ROWS_FAILED = "robust.rows_failed"
_PLAN_FALLBACKS = "coalition.plan.fallbacks"


def _budgets_configured(guard) -> bool:
    """Whether a guard deadline or model-query budget is configured.

    The fused batch call explains many rows inside one guard scope,
    which would silently convert per-*row* budgets into a per-*batch*
    budget; explainers with a deadline or query budget therefore keep
    the per-row loop, whose scope-per-row semantics the robust tests pin
    down.
    """
    cfg = guard if isinstance(guard, GuardConfig) else GuardConfig()
    return cfg.limits() != (None, None)


PredictFn = Callable[[np.ndarray], np.ndarray]


def as_predict_fn(model, output: str = "auto",
                  guard: GuardConfig | None | bool = None) -> PredictFn:
    """Normalize a model or callable to ``f(X) -> 1-D float array``.

    Parameters
    ----------
    model:
        A callable, or an object exposing ``predict_proba`` / ``predict``.
    output:
        * ``"auto"`` — ``predict_proba[:, 1]`` when available, else
          ``predict``;
        * ``"proba"`` — require ``predict_proba[:, 1]``;
        * ``"label"`` — hard ``predict`` labels;
        * ``"raw"`` — require ``decision_function`` / raw margin.
    guard:
        ``None`` (default) installs the :mod:`repro.robust` guard with
        environment-driven settings; a :class:`GuardConfig` tunes it;
        ``False`` skips guarding (meter only).

    The returned function is wrapped with the :mod:`repro.obs` model-eval
    meter and the robust guard (both idempotently — re-normalizing a
    metered or guarded function does not double-count or double-guard).
    """
    if getattr(model, "__repro_guarded__", False):
        return model
    if getattr(model, "__repro_metered__", False):
        return guard_predict_fn(model, guard)

    if callable(model) and not hasattr(model, "predict"):
        fn = lambda X: np.asarray(model(np.atleast_2d(X)), dtype=float).ravel()
    elif output == "label":
        fn = lambda X: np.asarray(
            model.predict(np.atleast_2d(X)), dtype=float
        ).ravel()
    elif output == "raw":
        if not hasattr(model, "decision_function"):
            raise TypeError(f"{type(model).__name__} has no decision_function")
        fn = lambda X: np.asarray(
            model.decision_function(np.atleast_2d(X)), dtype=float
        ).ravel()
    elif hasattr(model, "predict_proba") and output in ("auto", "proba"):
        def fn(X: np.ndarray) -> np.ndarray:
            p = np.asarray(model.predict_proba(np.atleast_2d(X)), dtype=float)
            return p[:, 1] if p.ndim == 2 else p.ravel()
    elif output == "proba":
        raise TypeError(f"{type(model).__name__} has no predict_proba")
    else:
        fn = lambda X: np.asarray(
            model.predict(np.atleast_2d(X)), dtype=float
        ).ravel()
    wrapped = guard_predict_fn(meter_predict_fn(fn), guard)
    # Rebuild recipe for pickle-free transport: the spawn backend and the
    # persist layer reconstruct an equivalent predict function from the
    # underlying model rather than pickling the closure stack.
    wrapped.__repro_spec__ = {"model": model, "output": output, "guard": guard}
    return wrapped


def batch_matrix(X) -> np.ndarray:
    """``X`` as a non-empty 2-D float batch, else
    :class:`InputValidationError`."""
    try:
        X = np.atleast_2d(np.asarray(X, dtype=float))
    except (TypeError, ValueError) as e:
        raise InputValidationError(
            f"X is not convertible to a float matrix: {e}"
        ) from e
    if X.size == 0:
        raise InputValidationError(
            f"explain_batch needs a non-empty batch, got shape {X.shape}"
        )
    return X


def screen_rows(X: np.ndarray, n_features: int | None = None):
    """Fail the rows :func:`check_instance` refuses before any batch work.

    Returns one ``(result, error)`` outcome per row, a
    :class:`BatchRowError` for each row with a non-finite entry (for
    every row when the batch is not ``n_features`` wide) and
    ``(None, None)`` for the rest, and the indices of the rows that
    passed.
    """
    outcomes = [(None, None)] * X.shape[0]
    ok = np.isfinite(X).all(axis=1)
    if n_features is not None and X.shape[1] != n_features:
        ok[:] = False
    for i in np.flatnonzero(~ok):
        try:
            check_instance(X[i], n_features)
        except InputValidationError as e:
            outcomes[i] = (None, BatchRowError(index=int(i), error=e))
    return outcomes, np.flatnonzero(ok)


def finish_batch(outcomes: list, return_errors: bool):
    """End a batch by the partial-batch contract.

    Failed rows count on ``robust.rows_failed``. Returns the results
    (``None`` where a row failed) and, with ``return_errors``, the
    :class:`BatchRowError` list beside them; without it, any failure
    raises :class:`PartialBatchError` carrying the partial results.
    """
    results = [res for res, __ in outcomes]
    errors = [err for __, err in outcomes if err is not None]
    if errors:
        metrics.counter(_ROWS_FAILED).inc(len(errors))
    if return_errors:
        return results, errors
    if errors:
        raise PartialBatchError(partial=results, errors=errors)
    return results


def _scope_wrap(fn):
    """Open a fresh per-explanation guard scope around an entry point."""

    @functools.wraps(fn)
    def scoped(self, *args, **kwargs):
        with guard_scope(getattr(self, "guard_config", None)):
            return fn(self, *args, **kwargs)

    scoped.__repro_guard_scoped__ = True
    return scoped


class Explainer(ABC):
    """Common base: wraps a model into a normalized prediction function.

    Subclasses are automatically instrumented: their own ``explain`` /
    ``explain_batch`` definitions are wrapped in :mod:`repro.obs` spans
    carrying the explainer name, input width, wall time and model-eval
    counters — and in a :func:`repro.robust.guard_scope`, so deadlines
    and query budgets reset per explanation.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        instrument_explainer(cls)
        for name in ("explain", "explain_batch"):
            fn = cls.__dict__.get(name)
            if fn is None:
                continue
            if getattr(fn, "__repro_guard_scoped__", False):
                continue
            if getattr(fn, "__isabstractmethod__", False):
                continue
            if isinstance(fn, (staticmethod, classmethod)):
                continue
            setattr(cls, name, _scope_wrap(fn))

    def __init__(self, model, output: str = "auto",
                 guard: GuardConfig | None | bool = None) -> None:
        self.model = model
        self.guard_config = guard
        self.predict_fn = as_predict_fn(model, output, guard=guard)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The normalized model output being explained."""
        return self.predict_fn(X)


class AttributionExplainer(Explainer):
    """Base for explainers that return :class:`FeatureAttribution`."""

    method_name = "attribution"

    @abstractmethod
    def explain(self, x: np.ndarray, **kwargs) -> FeatureAttribution:
        """Explain the model output at a single instance ``x``."""

    def explain_batch(
        self,
        X: np.ndarray,
        return_errors: bool = False,
        backend: str | None = None,
        n_procs: int | None = None,
        **kwargs,
    ) -> list[FeatureAttribution] | tuple[list, list[BatchRowError]]:
        """Explain every row of ``X``, surviving per-row failures.

        ``backend`` (or env ``REPRO_BACKEND``; default serial; see
        :mod:`repro.exec`) selects the execution backend: ``"thread"``,
        ``"process"`` and ``"spawn"`` all shard contiguous row ranges
        across ``n_procs`` workers through :func:`repro.exec.map_shards`.
        Each row runs under a copy of the submitting context with its
        own guard scope, so per-instance ``explain`` spans keep the
        batch span as parent (worker spans re-parent under it on join),
        eval counters roll up exactly as in the serial path (worker-side
        ``model.*`` / ``robust.*`` counters merge into the parent
        snapshot), and results come back in row order. Per-row failures
        travel through the :class:`BatchRowError` channel; a dead worker
        fails its shard's rows, never hangs the batch.

        Failure semantics (serial and parallel paths behave identically):
        one poisoned row no longer discards the completed ones. With
        ``return_errors=True`` the call returns ``(results, errors)`` —
        ``results`` has ``None`` at failed positions, ``errors`` is a
        list of :class:`repro.robust.BatchRowError` records. With the
        default ``return_errors=False`` a clean batch returns the plain
        result list, and any failure raises
        :class:`repro.robust.PartialBatchError` carrying the same
        partial results. Failed rows increment ``robust.rows_failed``.

        Fused call: explainers with an ``_explain_rows(X,
        feature_names, backend, n_procs)`` method (sampling, kernel, QII
        and conditional SHAP; their ``explain`` is its one-row case)
        explain the whole batch in one call of it — one estimate whose
        game holds every row, bitwise-identical per row to ``explain``.
        The batch ``backend`` then shards that estimate's walks or
        coalitions, not rows. The call is skipped in favour of the
        per-row loop (``amortized=False`` on the batch span) when the
        batch has a single row, when extra ``explain`` kwargs beyond
        ``feature_names`` are passed, or when guard deadlines/query
        budgets are configured (those are per-row semantics one call
        cannot honour); a failure inside it increments
        ``coalition.plan.fallbacks`` and falls back to the loop.
        """
        X = batch_matrix(X)
        backend_name = resolve_backend(backend)

        def run_row(i: int, x: np.ndarray):
            try:
                return self.explain(x, **kwargs), None
            except Exception as e:
                return None, BatchRowError(index=i, error=e)

        outcomes = self._try_fused(X, backend_name, n_procs, kwargs)
        if outcomes is None:
            if backend_name == "serial" or X.shape[0] <= 1:
                outcomes = [run_row(i, x) for i, x in enumerate(X)]
            else:
                outcomes = self._run_batch_sharded(
                    X, run_row, n_procs, backend_name
                )
        return finish_batch(outcomes, return_errors)

    def _try_fused(self, X, backend_name, n_procs, kwargs):
        """Explain the batch in one ``_explain_rows`` call if eligible,
        else ``None``.

        Returns one ``(result, error)`` outcome per row, like the per-row
        loop. Rows with non-finite entries never enter the call: they
        fail with the :class:`InputValidationError` that ``explain``
        would raise for them, and the rest stay fused. Any exception
        inside the call counts a ``coalition.plan.fallbacks`` and yields
        the per-row loop. The ambient batch span gets an ``amortized``
        attribute either way.
        """
        fused = False
        outcomes = None
        if (
            X.shape[0] >= 2
            and hasattr(self, "_explain_rows")
            and set(kwargs) <= {"feature_names"}
            and not _budgets_configured(self.guard_config)
        ):
            outcomes, keep = screen_rows(X)
            try:
                if keep.size:
                    results = self._explain_rows(
                        X if keep.size == X.shape[0] else X[keep],
                        backend=backend_name, n_procs=n_procs, **kwargs,
                    )
                    for i, result in zip(keep, results):
                        outcomes[i] = (result, None)
                fused = True
            except Exception:
                metrics.counter(_PLAN_FALLBACKS).inc()
                outcomes = None
        sp = current_span()
        if sp is not None:
            sp.set_attr("amortized", fused)
        return outcomes

    def _run_batch_sharded(self, X, run_row, n_procs, backend):
        """Row-sharded ``explain_batch`` on a thread or process pool.

        Each shard is a contiguous row range; shards ship back, per
        row, either the explanation or its error. Worker processes send
        a JSON-safe error record, because live exception objects do not
        reliably cross the pickle boundary; shards that run in this
        process (threads, or a pool degraded to threads) keep the live
        :class:`BatchRowError`. ``split_scope=False`` because budgets
        here are per *row*, not per batch: each ``explain`` call opens
        its own guard scope exactly as it does serially. Under
        ``spawn`` the row closure cannot pickle, so
        :func:`repro.exec.map_shards` degrades it to the thread pool —
        same results, shared memory.
        """
        plan = plan_shards(X.shape[0], resolve_n_procs(n_procs))

        def run_shard(bounds):
            lo, hi = bounds
            out = []
            for i in range(lo, hi):
                res, err = run_row(i, X[i])
                if err is not None and in_worker():
                    err = err.to_dict()
                out.append((res, err))
            return out

        shard_args = list(plan.slices)
        shard_outcomes = map_shards(
            run_shard, shard_args, backend=backend,
            n_procs=n_procs, split_scope=False,
        )
        outcomes = []
        for (lo, hi), outcome in zip(shard_args, shard_outcomes):
            if not outcome.ok:
                # The whole shard died (worker crash / broken pool):
                # every row in it is reported failed, rows elsewhere
                # survive — same contract as a poisoned row.
                outcomes.extend(
                    (None, BatchRowError(index=i, error=outcome.error))
                    for i in range(lo, hi)
                )
                continue
            for res, err in outcome.value:
                if isinstance(err, dict):
                    exc = type(err["error_type"], (Exception,), {})(
                        err["message"]
                    )
                    err = BatchRowError(index=err["index"], error=exc)
                outcomes.append((res, err))
        return outcomes
