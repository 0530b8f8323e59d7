"""Observability: tracing, metering, profiling, ledger, exposition.

The tutorial frames every post-hoc explainer as a consumer of black-box
model queries — that is the resource being spent, and this package makes
it measurable. All stdlib-only:

``trace``
    Context-manager spans (monotonic wall + thread CPU time, contextvar
    nesting, thread-safe) feeding a process-global :class:`Tracer` with
    JSONL export. Deterministic root-level sampling via
    ``REPRO_TRACE_SAMPLE`` keeps always-on tracing cheap; disable
    everything with ``REPRO_OBS=0``.
``metrics``
    Counters, gauges, and fixed-boundary log-bucketed **quantile
    histograms** (p50/p95/p99 without stored samples, mergeable across
    forked workers), plus the **model-eval meter** that
    :func:`repro.core.base.as_predict_fn` installs around every wrapped
    predict function: each call is attributed (calls *and* batched rows)
    to the active span and the global ``model.calls``/``model.rows``.
``instrument``
    Class decorator that auto-spans ``explain``/``explain_batch``,
    feeds the ``explain.wall_ms``/``explain_batch.wall_ms`` latency
    histograms, and records every run into the ledger — zero per-module
    code.
``profile``
    Phase-level wall/CPU attribution from the span tree and
    folded-stack ("flamegraph") text export from any trace JSONL.
``ledger``
    Append-only run ledger (in-memory ring + optional ``REPRO_LEDGER``
    JSONL sink): explainer, params hash, seed, cost, convergence,
    error type for every explanation run.
``export``
    The live exposition endpoint — ``/metrics`` (Prometheus text),
    ``/health``, ``/ledger/tail`` — via ``repro metrics serve`` or
    ``REPRO_METRICS_PORT``.
``summary`` / ``bench``
    Aggregation + pretty tables for the CLI and decision reports, and
    atomic writers for ``benchmarks/results/*.json`` and the top-level
    ``BENCH_summary.json`` perf trajectory (stamped with ``git_sha`` and
    ``schema_version``).

Quick use::

    from repro import obs
    with obs.span("experiment", name="ablation"):
        explainer.explain(x)            # auto-spanned, evals metered
    print(obs.summary())                # per-explainer cost table
    print(obs.phase_table())            # where the time went
    obs.get_tracer().export("trace.jsonl")
"""

from ..config import setting as _setting
from .trace import (
    Span,
    Tracer,
    current_span,
    enabled,
    get_tracer,
    set_enabled,
    set_trace_sample,
    span,
    trace_sample,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    counter,
    gauge,
    histogram,
    histogram_deltas,
    histogram_states,
    merge_histogram_deltas,
    meter_predict_fn,
    observe_duration,
    record_model_eval,
    reset_metrics,
    snapshot,
)
from .instrument import instrument_explainer
from .ledger import RunLedger, get_ledger, params_hash, reset_ledger
from .profile import (
    folded_from_jsonl,
    folded_stacks,
    phase_profile,
    phase_table,
    render_folded,
)
from .export import (
    maybe_autostart,
    metrics_server_address,
    prometheus_text,
    start_metrics_server,
    stop_metrics_server,
)
from .summary import aggregate, internal_errors, summary, summary_dict
from . import (
    bench,
    export,
    instrument,
    ledger,
    metrics,
    profile,
    summary as summary_mod,
    trace,
)

__all__ = [
    "Span",
    "Tracer",
    "span",
    "current_span",
    "get_tracer",
    "enabled",
    "set_enabled",
    "trace_sample",
    "set_trace_sample",
    "Counter",
    "Gauge",
    "Histogram",
    "counter",
    "gauge",
    "histogram",
    "observe_duration",
    "record_model_eval",
    "meter_predict_fn",
    "snapshot",
    "reset_metrics",
    "histogram_states",
    "histogram_deltas",
    "merge_histogram_deltas",
    "instrument_explainer",
    "RunLedger",
    "get_ledger",
    "reset_ledger",
    "params_hash",
    "phase_profile",
    "phase_table",
    "folded_stacks",
    "folded_from_jsonl",
    "render_folded",
    "prometheus_text",
    "start_metrics_server",
    "stop_metrics_server",
    "metrics_server_address",
    "maybe_autostart",
    "aggregate",
    "internal_errors",
    "summary",
    "summary_dict",
    "bench",
    "trace",
    "metrics",
    "instrument",
    "ledger",
    "profile",
    "export",
]

# The package's three import-time settings (see repro.config), read once
# every obs module is loaded. REPRO_METRICS_PORT starts the exposition
# endpoint with the process — the no-code-change path for wrapping
# telemetry around existing scripts; a no-op unless the variable is set.
set_enabled(_setting("REPRO_OBS"))
set_trace_sample(_setting("REPRO_TRACE_SAMPLE"))
maybe_autostart()
