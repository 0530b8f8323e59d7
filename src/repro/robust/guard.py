"""Guarded model execution: validation, retries, deadlines, budgets.

:func:`guard_predict_fn` is composed inside
:func:`repro.core.base.as_predict_fn`, directly above the
:mod:`repro.obs` model-eval meter, so **every** normalized predict
function in the library passes through it. For each model call it

* validates the output — one finite float per input row. A wrong-length
  return is retried (a flaky service returning garbage), and non-finite
  entries follow the configured ``on_nonfinite`` policy: ``"raise"``
  (default, :class:`NonFiniteOutputError`), ``"requery"`` (re-ask the
  model, then raise), or ``"impute"`` (replace bad entries with the
  finite mean of the same batch, falling back to
  ``GuardConfig.impute_value``);
* retries *transient* failures (:class:`TransientModelError`,
  connection/timeout errors) with capped exponential backoff
  (``REPRO_RETRIES`` attempts, ``REPRO_BACKOFF`` base seconds) and
  **full jitter**: each sleep is a uniform draw in ``[0, capped delay]``
  so concurrent retries against the same flaky model de-synchronize
  instead of herding (deterministic sleeps re-align every waiter onto
  the same retry schedule). The jitter stream is seeded whenever fault
  injection is active (:class:`repro.robust.faults.FaultyModel` calls
  :func:`seed_backoff_jitter` with its own seed), keeping seeded test
  runs reproducible. Non-transient exceptions fail fast as
  :class:`ModelEvaluationError` — a deterministic numpy broadcast bug
  does not deserve three retries;
* enforces the ambient :class:`GuardScope`'s wall-clock deadline
  (``REPRO_DEADLINE_S``) and model-query row budget
  (``REPRO_QUERY_BUDGET``), raising :class:`BudgetExceededError` when
  either runs out. Sampling-based explainers catch that and return a
  partial, convergence-flagged estimate instead of dying.

Scoping: budgets are **per explanation**. ``Explainer.__init_subclass__``
wraps every ``explain``/``explain_batch`` in :func:`guard_scope`, which
pins a fresh :class:`GuardScope` on a contextvar — so each row of a
batch gets its own deadline and row budget, including on the thread-pool
path (worker rows run under copied contexts). Rows spent line up with
the :mod:`repro.obs` model-eval meter because the guard sits
immediately above it and charges the same row counts.

Telemetry: ``robust.retries``, ``robust.nonfinite``, ``robust.imputed``
and ``robust.budget_exhausted`` counters export through
:mod:`repro.obs.metrics`; each *successful* model call also times into
the ``model.latency_ms`` histogram; retries additionally roll up through open
spans (``Span.retries``), so an ``explain_batch`` span reports the total
retry bill of its rows.
"""

from __future__ import annotations

import contextlib
import contextvars
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import setting
from ..obs import metrics, trace
from ..persist.protocol import Serializable, register_serializable
from .errors import (
    BudgetExceededError,
    InputValidationError,
    ModelEvaluationError,
    NonFiniteOutputError,
    OutputShapeError,
    ReproError,
    TransientModelError,
)

__all__ = [
    "BACKOFF_CAP_S",
    "GuardConfig",
    "GuardScope",
    "guard_scope",
    "push_scope",
    "current_scope",
    "remaining_s",
    "request_envelope",
    "envelope_remaining_s",
    "compose_deadline",
    "seed_backoff_jitter",
    "guard_predict_fn",
    "check_instance",
]

BACKOFF_CAP_S = 2.0

# Exception types the guard treats as transient (retryable) by default.
TRANSIENT_DEFAULT: tuple = (
    TransientModelError,
    ConnectionError,
    TimeoutError,
    OSError,
)

_RETRIES = "robust.retries"
_NONFINITE = "robust.nonfinite"
_IMPUTED = "robust.imputed"
_BUDGET_EXHAUSTED = "robust.budget_exhausted"


@register_serializable("robust.GuardConfig")
@dataclass
class GuardConfig(Serializable):
    """Knobs for one guarded predict function / explainer.

    Every ``None`` field falls back to its environment variable at call
    time (so tests and the CLI can flip ``REPRO_*`` without rebuilding
    explainers), then to the default in :mod:`repro.config`.

    Persistence note: ``transient`` (exception classes) and ``sleep``
    (a callable) are ephemeral — a revived config carries the library
    defaults for both, which is the equivalent-copy contract.
    """

    retries: int | None = None          # REPRO_RETRIES
    backoff_s: float | None = None      # REPRO_BACKOFF
    deadline_s: float | None = None     # REPRO_DEADLINE_S
    query_budget: int | None = None     # REPRO_QUERY_BUDGET
    on_nonfinite: str = "raise"         # raise | requery | impute
    impute_value: float | None = None   # fallback when a whole batch is bad
    transient: tuple = TRANSIENT_DEFAULT
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    __persist_init__ = ("retries", "backoff_s", "deadline_s", "query_budget",
                        "on_nonfinite", "impute_value")

    def __post_init__(self) -> None:
        if self.on_nonfinite not in ("raise", "requery", "impute"):
            raise ValueError(
                f"on_nonfinite must be raise|requery|impute, "
                f"got {self.on_nonfinite!r}"
            )

    def retry_policy(self) -> tuple[int, float]:
        """``(retries, base backoff seconds)`` in force; negatives are 0."""
        return (max(0, int(setting("REPRO_RETRIES", self.retries))),
                max(0.0, float(setting("REPRO_BACKOFF", self.backoff_s))))

    def limits(self) -> tuple[float | None, int | None]:
        """``(deadline_s, query_budget)`` in force; ``None`` (or a
        non-positive value) means no limit."""
        deadline = setting("REPRO_DEADLINE_S", self.deadline_s)
        budget = setting("REPRO_QUERY_BUDGET", self.query_budget)
        return (float(deadline) if deadline is not None and deadline > 0
                else None,
                int(budget) if budget is not None and budget > 0 else None)


# The config of explainers built without one: every field from the env.
_ENV_GUARD = GuardConfig()


class GuardScope:
    """Per-explanation budget state (deadline + model-query rows)."""

    __slots__ = ("t0", "deadline_s", "query_budget", "rows_spent", "retries")

    def __init__(self, deadline_s: float | None, query_budget: int | None
                 ) -> None:
        self.t0 = time.monotonic()
        self.deadline_s = deadline_s
        self.query_budget = query_budget
        self.rows_spent = 0
        self.retries = 0

    def elapsed_s(self) -> float:
        return time.monotonic() - self.t0

    def remaining_s(self) -> float | None:
        if self.deadline_s is None:
            return None
        return self.deadline_s - self.elapsed_s()

    def check(self, rows_next: int) -> None:
        """Raise :class:`BudgetExceededError` if ``rows_next`` won't fit."""
        remaining = self.remaining_s()
        if remaining is not None and remaining <= 0:
            metrics.counter(_BUDGET_EXHAUSTED).inc()
            raise BudgetExceededError(
                f"deadline of {self.deadline_s:.3f}s exceeded "
                f"({self.elapsed_s():.3f}s elapsed)",
                kind="deadline",
                spent=self.elapsed_s(),
                budget=self.deadline_s,
            )
        if (
            self.query_budget is not None
            and self.rows_spent + rows_next > self.query_budget
        ):
            metrics.counter(_BUDGET_EXHAUSTED).inc()
            raise BudgetExceededError(
                f"model-query budget of {self.query_budget} rows exceeded "
                f"({self.rows_spent} spent, {rows_next} requested)",
                kind="queries",
                spent=self.rows_spent,
                budget=self.query_budget,
            )


_SCOPE: contextvars.ContextVar[GuardScope | None] = contextvars.ContextVar(
    "repro_robust_guard_scope", default=None
)


def current_scope() -> GuardScope | None:
    """The innermost open guard scope on this context, or ``None``."""
    return _SCOPE.get()


def remaining_s() -> float | None:
    """Remaining wall-clock budget of the ambient scope, in seconds.

    ``None`` means unbounded — either no scope is open on this context
    or the open scope carries no deadline. Contextvars are per-thread
    (and per copied context), so concurrent request threads each read
    their *own* scope's remainder; ``tests/test_robust.py`` pins down
    that two overlapping scopes on different threads never see each
    other's budget.
    """
    scope = _SCOPE.get()
    if scope is None:
        return None
    return scope.remaining_s()


_ENVELOPE: contextvars.ContextVar[GuardScope | None] = contextvars.ContextVar(
    "repro_robust_request_envelope", default=None
)


@contextlib.contextmanager
def request_envelope(deadline_s: float | None,
                     query_budget: int | None = None):
    """Open an outer *request* budget that nested guard scopes clip to.

    The serve layer opens one envelope per request at arrival time.
    Unlike :func:`guard_scope` — where nested scopes deliberately reset
    (each row of a batch budgets independently) — the envelope is
    *composed into* every scope opened within its extent: a scope's
    deadline becomes ``min(its own deadline, envelope remaining)``. The
    remaining time is measured from envelope open, so seconds spent in
    the admission queue are seconds the explanation no longer has.
    """
    scope = GuardScope(*GuardConfig(deadline_s=deadline_s,
                                    query_budget=query_budget).limits())
    token = _ENVELOPE.set(scope)
    try:
        yield scope
    finally:
        _ENVELOPE.reset(token)


def envelope_remaining_s() -> float | None:
    """Remaining wall-clock of the ambient request envelope, if any."""
    envelope = _ENVELOPE.get()
    if envelope is None:
        return None
    return envelope.remaining_s()


def compose_deadline(deadline_s: float | None) -> float | None:
    """The tightest of a requested deadline and every ambient budget.

    Returns ``min(deadline_s, ambient scope remaining, request-envelope
    remaining)``, treating ``None`` as unbounded everywhere. This is
    the deadline a *nested* scope should open with: the serve layer
    relies on it so a request's queue wait eats into the compute budget
    (the explanation's scope gets the request deadline *minus* time
    already spent), and an inner explanation can never outlive the
    envelope that carries it.
    """
    candidates = [
        value
        for value in (
            None if deadline_s is None else float(deadline_s),
            remaining_s(),
            envelope_remaining_s(),
        )
        if value is not None
    ]
    return min(candidates) if candidates else None


@contextlib.contextmanager
def guard_scope(config: GuardConfig | None | bool = None):
    """Open a fresh per-explanation budget scope.

    Entered automatically around every ``explain``/``explain_batch`` by
    the explainer base class; nesting replaces the ambient scope (each
    row of a batch budgets independently). ``config=False`` disables
    budget enforcement for the dynamic extent.
    """
    if config is False:
        token = _SCOPE.set(None)
        try:
            yield None
        finally:
            _SCOPE.reset(token)
        return
    cfg = config if isinstance(config, GuardConfig) else _ENV_GUARD
    deadline, query_budget = cfg.limits()
    # An ambient request envelope (the serve layer's per-request budget)
    # clips every scope opened inside it: the fresh scope gets at most
    # the envelope's *remaining* wall clock, so time spent queueing is
    # time the computation no longer has.
    envelope_left = envelope_remaining_s()
    if envelope_left is not None:
        deadline = (
            envelope_left if deadline is None
            else min(deadline, envelope_left)
        )
    scope = GuardScope(deadline, query_budget)
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)


@contextlib.contextmanager
def push_scope(scope: GuardScope | None):
    """Install an already-built scope as the ambient one.

    Unlike :func:`guard_scope`, which constructs a fresh scope from a
    config, this pins an *existing* :class:`GuardScope` object — the
    exec-backend shard runners use it to run each shard under its split
    of the parent budget (the split share was computed before dispatch,
    the worker just has to live inside it). ``None`` disables budget
    enforcement for the extent, same as ``guard_scope(False)``.
    """
    token = _SCOPE.set(scope)
    try:
        yield scope
    finally:
        _SCOPE.reset(token)


def _note_retry(scope: GuardScope | None) -> None:
    metrics.counter(_RETRIES).inc()
    if scope is not None:
        scope.retries += 1
    active = trace.current_span()
    if active is not None:
        active.add_retries(1)


# Retry-jitter stream. Unseeded by default (each process de-synchronizes
# naturally); FaultyModel seeds it on construction/reset so fault-injected
# runs draw a reproducible sleep sequence.
_jitter_lock = threading.Lock()
_jitter_rng = random.Random()


def seed_backoff_jitter(seed: int | None) -> None:
    """(Re)seed the retry-jitter stream; ``None`` returns it to entropy.

    Called by :class:`repro.robust.faults.FaultyModel` whenever fault
    injection is activated or reset, so seeded tests and the E38/E43
    benchmarks observe a deterministic backoff schedule even though
    production retries are fully jittered.
    """
    global _jitter_rng
    with _jitter_lock:
        _jitter_rng = random.Random(seed) if seed is not None else random.Random()


def _backoff_sleep(cfg: GuardConfig, backoff: float, failures: int,
                   scope: GuardScope | None) -> None:
    """Full-jitter exponential backoff, clipped to the remaining deadline.

    The capped exponential ``backoff · 2^(failures−1)`` is the *ceiling*
    of a uniform draw, not the sleep itself ("full jitter", AWS
    architecture-blog style): N concurrent callers retrying the same
    flaky model spread over the window instead of thundering back in
    lockstep at identical offsets.
    """
    cap = min(backoff * (2.0 ** (failures - 1)), BACKOFF_CAP_S)
    with _jitter_lock:
        delay = _jitter_rng.uniform(0.0, cap) if cap > 0 else 0.0
    if scope is not None:
        remaining = scope.remaining_s()
        if remaining is not None:
            delay = min(delay, max(0.0, remaining))
    if delay > 0:
        cfg.sleep(delay)


def _n_rows(X) -> int:
    shape = getattr(X, "shape", None)
    if shape is None:
        return len(X)
    return 1 if len(shape) <= 1 else int(shape[0])


def guard_predict_fn(fn, config: GuardConfig | None | bool = None):
    """Wrap a (metered) predict function with the guarded-execution layer.

    Idempotent (a guarded function passes through unchanged) and marked
    ``__repro_metered__`` so re-normalization through ``as_predict_fn``
    never stacks another meter on top. ``config=False`` skips guarding
    entirely — the escape hatch the E38 benchmark uses to price the
    guard at 0% faults.
    """
    if config is False:
        return fn
    if getattr(fn, "__repro_guarded__", False):
        return fn
    cfg = config if isinstance(config, GuardConfig) else GuardConfig()

    def guarded(X):
        n_rows = _n_rows(X)
        # (retries, backoff), read only once a call has failed: the clean
        # path runs once per model call and must not pay for the lookups.
        policy = None
        scope = _SCOPE.get()
        failures = 0
        while True:
            if scope is not None:
                scope.check(n_rows)
            try:
                # Successful attempts feed the model-latency histogram
                # (observe_duration skips the failed ones by design).
                with metrics.observe_duration("model.latency_ms"):
                    out = np.asarray(fn(X), dtype=float).ravel()
            except (BudgetExceededError, InputValidationError):
                raise
            except cfg.transient as e:
                failures += 1
                policy = policy or cfg.retry_policy()
                if failures > policy[0]:
                    raise ModelEvaluationError(
                        f"model evaluation failed after {failures} attempts "
                        f"({policy[0]} retries): {type(e).__name__}: {e}",
                        attempts=failures,
                    ) from e
                _note_retry(scope)
                _backoff_sleep(cfg, policy[1], failures, scope)
                continue
            except ReproError:
                raise
            except Exception as e:
                # Deterministic failures (shape bugs, type errors) are not
                # retried: the same inputs would fail the same way.
                raise ModelEvaluationError(
                    f"model evaluation failed: {type(e).__name__}: {e}",
                    attempts=failures + 1,
                ) from e
            if scope is not None:
                scope.rows_spent += n_rows
            if out.shape[0] != n_rows:
                failures += 1
                policy = policy or cfg.retry_policy()
                if failures > policy[0]:
                    raise OutputShapeError(
                        f"model returned {out.shape[0]} outputs for "
                        f"{n_rows} rows (after {failures} attempts)",
                        attempts=failures,
                    )
                _note_retry(scope)
                _backoff_sleep(cfg, policy[1], failures, scope)
                continue
            finite = np.isfinite(out)
            if finite.all():
                return out
            n_bad = int((~finite).sum())
            metrics.counter(_NONFINITE).inc(n_bad)
            policy = policy or cfg.retry_policy()
            if cfg.on_nonfinite == "requery" and failures < policy[0]:
                failures += 1
                _note_retry(scope)
                _backoff_sleep(cfg, policy[1], failures, scope)
                continue
            if cfg.on_nonfinite == "impute" or (
                cfg.on_nonfinite == "requery" and cfg.impute_value is not None
            ):
                if finite.any():
                    baseline = float(out[finite].mean())
                elif cfg.impute_value is not None:
                    baseline = float(cfg.impute_value)
                else:
                    raise NonFiniteOutputError(
                        f"model returned {n_bad}/{out.shape[0]} non-finite "
                        "outputs and no finite entries to impute from "
                        "(set GuardConfig.impute_value)",
                        attempts=failures + 1,
                    )
                metrics.counter(_IMPUTED).inc(n_bad)
                out = out.copy()
                out[~finite] = baseline
                return out
            raise NonFiniteOutputError(
                f"model returned {n_bad}/{out.shape[0]} non-finite outputs "
                f"(after {failures + 1} attempts; policy="
                f"{cfg.on_nonfinite!r})",
                attempts=failures + 1,
            )

    guarded.__repro_guarded__ = True
    guarded.__repro_metered__ = True  # the meter sits immediately below
    guarded.__wrapped__ = fn
    guarded.guard_config = cfg
    return guarded


def check_instance(x, n_features: int | None = None, name: str = "x"
                   ) -> np.ndarray:
    """Validate one explained instance; returns it as a 1-D float array.

    Raises :class:`InputValidationError` (a ``ValueError``) for inputs
    that previously died as cryptic numpy broadcast errors deep inside a
    value function: the wrong feature count, an empty instance,
    unconvertible entries, or non-finite feature values.
    """
    try:
        arr = np.asarray(x, dtype=float)
    except (TypeError, ValueError) as e:
        raise InputValidationError(
            f"{name} is not convertible to a float array: {e}"
        ) from e
    arr = arr.ravel()
    if arr.size == 0:
        raise InputValidationError(f"{name} is empty")
    if n_features is not None and arr.size != n_features:
        raise InputValidationError(
            f"{name} has {arr.size} features, expected {n_features}"
        )
    if not np.isfinite(arr).all():
        raise InputValidationError(
            f"{name} contains non-finite entries at positions "
            f"{np.flatnonzero(~np.isfinite(arr)).tolist()}"
        )
    return arr
