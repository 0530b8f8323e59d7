"""Fault tolerance: typed errors, guarded execution, fault injection.

The tutorial's post-hoc explainers are services that hammer an opaque
``predict_fn`` — the component that actually fails under load (flaky
endpoints, NaN blowups, latency spikes). This package makes the
explanation runtime survive that instead of crashing:

``errors``
    Typed exception hierarchy (:class:`ReproError` down to
    :class:`PartialBatchError`) replacing bare numpy blowups.
``guard``
    :func:`guard_predict_fn`, composed inside
    :func:`repro.core.base.as_predict_fn`: output validation
    (shape/finiteness policies), capped-exponential retry of transient
    failures, and per-explanation wall-clock deadlines + model-query
    budgets (``REPRO_RETRIES``, ``REPRO_BACKOFF``, ``REPRO_DEADLINE_S``,
    ``REPRO_QUERY_BUDGET``). On budget exhaustion, sampling-based
    explainers degrade to partial, convergence-flagged estimates.
``faults``
    :class:`FaultyModel`, a deterministic seeded fault injector
    (exceptions, NaN/Inf, wrong shapes, latency) for tests and the E38
    benchmark.

Counters ``robust.retries``, ``robust.rows_failed``,
``robust.budget_exhausted`` (and friends) export through
:mod:`repro.obs.metrics`; retries also roll up through spans.
"""

from .errors import (
    BatchRowError,
    BudgetExceededError,
    InputValidationError,
    ModelEvaluationError,
    NonFiniteOutputError,
    OutputShapeError,
    PartialBatchError,
    ReproError,
    TransientModelError,
)
from .guard import (
    GuardConfig,
    GuardScope,
    check_instance,
    compose_deadline,
    current_scope,
    envelope_remaining_s,
    guard_predict_fn,
    guard_scope,
    remaining_s,
    request_envelope,
    seed_backoff_jitter,
)
from .faults import FaultyModel

__all__ = [
    "ReproError",
    "InputValidationError",
    "ModelEvaluationError",
    "NonFiniteOutputError",
    "OutputShapeError",
    "BudgetExceededError",
    "PartialBatchError",
    "TransientModelError",
    "BatchRowError",
    "GuardConfig",
    "GuardScope",
    "guard_predict_fn",
    "guard_scope",
    "current_scope",
    "remaining_s",
    "request_envelope",
    "envelope_remaining_s",
    "compose_deadline",
    "seed_backoff_jitter",
    "check_instance",
    "FaultyModel",
]
