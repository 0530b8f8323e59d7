"""Spans, the process-global tracer, and JSONL export.

The tutorial's cost axis for post-hoc XAI is *model-query complexity*:
KernelSHAP, LIME, Anchors and the counterfactual searches all trade
fidelity against black-box evaluations. This module is the floor that
makes that cost observable — a dependency-free span tracer in the spirit
of OpenTelemetry, small enough to sit inside every ``explain()`` call
without moving the numbers it measures.

Design constraints:

* **Zero third-party deps** — stdlib only (``contextvars``, ``time``,
  ``json``, ``threading``).
* **Near-zero cost when disabled** — ``REPRO_OBS=0`` turns ``span`` into
  a no-op context manager (one attribute load + one branch).
* **Thread-safe** — span parenthood rides on a :mod:`contextvars`
  variable, so concurrent explainers in different threads never splice
  into each other's traces; the tracer's record buffer is lock-guarded.

Span schema (one JSON object per line in the JSONL export)::

    {"span_id": 7, "parent_id": 3, "name": "explain",
     "t_start": 1754..., "wall_ms": 12.4,
     "model_evals": 130, "rows_evaluated": 13000,
     "attrs": {"explainer": "kernel_shap", "n_features": 8}}

``model_evals`` counts *calls* into the wrapped predict function;
``rows_evaluated`` counts the rows those calls batched. Both are
cumulative: when a span closes, its totals roll up into its parent, so
an ``explain_batch`` span reports the cost of all its per-row children.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import threading
import time
from collections import deque

__all__ = [
    "Span",
    "Tracer",
    "span",
    "current_span",
    "get_tracer",
    "adopt_span_records",
    "enabled",
    "set_enabled",
    "trace_sample",
    "set_trace_sample",
]

# Set from REPRO_OBS and REPRO_TRACE_SAMPLE when repro.obs finishes
# importing (see repro.config).
_enabled = True


def enabled() -> bool:
    """Whether the observability layer is recording (env ``REPRO_OBS``)."""
    return _enabled


def set_enabled(flag: bool) -> None:
    """Programmatically enable/disable recording (overrides the env var)."""
    global _enabled
    _enabled = bool(flag)


def _stride(rate: float | None) -> int:
    """Sampling stride from a keep rate (1.0 → 1, 0.1 → 10, 0 → none)."""
    if rate is None or rate >= 1.0:
        return 1
    if rate <= 0.0:
        return 0
    return max(1, round(1.0 / rate))


# Trace sampling (env REPRO_TRACE_SAMPLE, a keep rate in [0, 1]) bounds
# the cost of always-on tracing: only every Nth *root* span tree is
# handed to the tracer / JSONL export. Sampling is deterministic
# (a stride counter, not a coin flip) and structural — children follow
# their root's fate, so sampled traces are always complete trees.
# Metrics (histograms, counters, the model-eval meter) are never
# sampled; they observe every event regardless.
_sample_stride = 1
_sample_counter = itertools.count()


def trace_sample() -> float:
    """The effective trace keep-rate (1.0 = keep every root span)."""
    return 0.0 if _sample_stride == 0 else 1.0 / _sample_stride


def set_trace_sample(rate: float | None) -> None:
    """Programmatically set the trace keep-rate (overrides the env var)."""
    global _sample_stride
    _sample_stride = _stride(None if rate is None else float(rate))


def _sample_keep() -> bool:
    if _sample_stride == 1:
        return True
    if _sample_stride == 0:
        return False
    return next(_sample_counter) % _sample_stride == 0


_span_ids = itertools.count(1)
_ROLLUP_LOCK = threading.Lock()
_current: contextvars.ContextVar["Span | None"] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


def _internal_error() -> None:
    """Count a swallowed instrumentation failure so it stays visible."""
    from . import metrics  # local: metrics imports this module at top level

    metrics.counter("obs.internal_errors").inc()


def _jsonable(value):
    """Best-effort conversion of attr values to JSON-safe scalars."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "item"):  # numpy scalar
        try:
            return value.item()
        except (TypeError, ValueError):
            _internal_error()
    return str(value)


class Span:
    """One timed, attributed unit of work. Created via :class:`span`."""

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "attrs",
        "t_start",
        "_t0",
        "_c0",
        "wall_ms",
        "cpu_ms",
        "model_evals",
        "rows_evaluated",
        "retries",
        "status",
        "sampled",
    )

    def __init__(self, name: str, attrs: dict, parent_id: int | None) -> None:
        self.span_id = next(_span_ids)
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.t_start = time.time()
        self._t0 = time.perf_counter()
        self._c0 = time.thread_time()
        self.wall_ms: float | None = None
        self.cpu_ms: float | None = None
        self.model_evals = 0
        self.rows_evaluated = 0
        self.retries = 0
        self.status = "ok"
        self.sampled = True

    def add_model_evals(self, calls: int, rows: int) -> None:
        """Attribute ``calls`` predict-fn calls batching ``rows`` rows.

        Guarded by a shared lock: a parallel ``explain_batch`` closes its
        per-instance child spans from worker threads, and each close rolls
        counters up into the same parent span.
        """
        with _ROLLUP_LOCK:
            self.model_evals += calls
            self.rows_evaluated += rows

    def add_retries(self, n: int = 1) -> None:
        """Attribute ``n`` guarded-model retries (rolls up like evals)."""
        with _ROLLUP_LOCK:
            self.retries += n

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "t_start": self.t_start,
            "wall_ms": self.wall_ms,
            "cpu_ms": self.cpu_ms,
            "model_evals": self.model_evals,
            "rows_evaluated": self.rows_evaluated,
            "retries": self.retries,
            "status": self.status,
            "attrs": {k: _jsonable(v) for k, v in self.attrs.items()},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"wall_ms={self.wall_ms}, evals={self.model_evals})"
        )


class _NullSpan:
    """Returned by ``span(...)`` when observability is disabled."""

    __slots__ = ()

    def add_model_evals(self, calls: int, rows: int) -> None:
        pass

    def add_retries(self, n: int = 1) -> None:
        pass

    def set_attr(self, key: str, value) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Process-global sink for finished spans, with optional JSONL export.

    Finished spans are kept in an in-memory ring of the newest
    ``max_spans``; each span the ring evicts increments ``dropped`` and
    the ``obs.spans.dropped`` counter. When an export is active, spans
    are also appended to a JSONL file as they close.
    """

    def __init__(self, max_spans: int = 100_000) -> None:
        self._lock = threading.Lock()
        self._spans: deque[Span] = deque(maxlen=max_spans)
        self._recorded = 0
        self.dropped = 0
        self._export_path: str | None = None
        self._export_file = None

    # -- recording ----------------------------------------------------------

    def record(self, finished: Span) -> None:
        with self._lock:
            evicts = len(self._spans) == self._spans.maxlen
            self._spans.append(finished)
            self._recorded += 1
            if evicts:
                self.dropped += 1
            if self._export_file is not None:
                json.dump(finished.to_dict(), self._export_file)
                self._export_file.write("\n")
                self._export_file.flush()
        if evicts:
            from . import metrics  # local: metrics imports this module

            metrics.counter("obs.spans.dropped").inc()

    def spans(self) -> list[Span]:
        """Snapshot of the spans the ring holds (closed spans only)."""
        with self._lock:
            return list(self._spans)

    def mark(self) -> int:
        """Spans recorded so far (monotonic, never reset); pair with
        :meth:`spans_since`."""
        with self._lock:
            return self._recorded

    def spans_since(self, mark: int) -> list[Span]:
        """The spans recorded after ``mark`` that the ring still holds."""
        with self._lock:
            newer = self._recorded - mark
            skip = max(0, len(self._spans) - newer)
            return list(itertools.islice(self._spans, skip, None))

    def reset(self) -> None:
        with self._lock:
            self._spans.clear()
            self.dropped = 0

    # -- export -------------------------------------------------------------

    def start_export(self, path: str) -> None:
        """Stream every subsequently closed span to ``path`` as JSONL."""
        with self._lock:
            if self._export_file is not None:
                self._export_file.close()
            self._export_path = path
            self._export_file = open(path, "w", encoding="utf-8")

    def stop_export(self) -> str | None:
        """Close the JSONL stream; returns the path that was written."""
        with self._lock:
            path, self._export_path = self._export_path, None
            if self._export_file is not None:
                self._export_file.close()
                self._export_file = None
            return path

    def export(self, path: str) -> int:
        """Dump every recorded span to ``path`` (JSONL); returns the count."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as f:
            for s in spans:
                json.dump(s.to_dict(), f)
                f.write("\n")
        return len(spans)


_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-global tracer."""
    return _tracer


def current_span() -> Span | None:
    """The innermost open span on this thread, or ``None``."""
    return _current.get()


def adopt_span_records(records: list[dict]) -> None:
    """Graft span records from a worker process into this trace.

    The exec backend ships each worker's closed spans back as
    ``Span.to_dict()`` payloads. Adoption re-keys them with fresh local
    span ids (worker id counters collide across forks), preserves the
    parent links *internal* to the shipped batch, and re-parents the
    batch's roots under the caller's currently open span — so a
    ``coalition_eval`` recorded inside a worker renders as a child of
    the parent's ``explain`` span, exactly where its serial twin would
    sit. The roots' eval/retry totals also roll up into the open span
    (children's totals are already folded into their roots, worker-side,
    by the normal close-time rollup). Metric counters are *not* touched
    here — the counter-delta merge owns those.
    """
    if not _enabled or not records:
        return
    # Pass 1: allocate fresh ids. Workers close children before parents,
    # so a record's parent (if shipped at all) appears later in the list
    # — the id map must be complete before links are rewritten.
    id_map: dict[int, int] = {}
    for rec in records:
        id_map[rec["span_id"]] = next(_span_ids)
    ambient = _current.get()
    ambient_id = ambient.span_id if ambient is not None else None
    for rec in records:
        s = Span.__new__(Span)
        s.span_id = id_map[rec["span_id"]]
        old_parent = rec.get("parent_id")
        is_root = old_parent not in id_map
        s.parent_id = id_map.get(old_parent, ambient_id)
        s.name = rec.get("name", "")
        s.attrs = dict(rec.get("attrs") or {})
        s.t_start = rec.get("t_start", 0.0)
        s._t0 = 0.0
        s._c0 = 0.0
        s.sampled = True
        s.wall_ms = rec.get("wall_ms")
        s.cpu_ms = rec.get("cpu_ms")
        s.model_evals = int(rec.get("model_evals") or 0)
        s.rows_evaluated = int(rec.get("rows_evaluated") or 0)
        s.retries = int(rec.get("retries") or 0)
        s.status = rec.get("status", "ok")
        if is_root and ambient is not None:
            ambient.add_model_evals(s.model_evals, s.rows_evaluated)
            if s.retries:
                ambient.add_retries(s.retries)
        _tracer.record(s)


class span:
    """Context manager opening a span: ``with span("explain", k=v): ...``.

    Cheap when disabled (returns a shared no-op object); when enabled it
    links into the ambient trace via a contextvar, measures monotonic
    wall time, and on close rolls its eval counters up into its parent
    before handing itself to the global tracer.
    """

    __slots__ = ("_name", "_attrs", "_span", "_token")

    def __init__(self, name: str, **attrs) -> None:
        self._name = name
        self._attrs = attrs
        self._span: Span | None = None
        self._token = None

    def __enter__(self):
        if not _enabled:
            return _NULL_SPAN
        parent = _current.get()
        self._span = Span(
            self._name,
            dict(self._attrs),
            parent.span_id if parent is not None else None,
        )
        # Children follow their root's sampling fate so recorded traces
        # are always complete trees; the span object itself still exists
        # either way (rollups, the eval meter and the wall-time
        # histograms see every event — sampling only gates the tracer).
        self._span.sampled = (
            parent.sampled if parent is not None else _sample_keep()
        )
        self._token = _current.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._span is None:
            return False
        s = self._span
        s.wall_ms = (time.perf_counter() - s._t0) * 1000.0
        s.cpu_ms = (time.thread_time() - s._c0) * 1000.0
        if exc_type is not None:
            s.status = f"error:{exc_type.__name__}"
        _current.reset(self._token)
        parent = _current.get()
        if parent is not None:
            parent.add_model_evals(s.model_evals, s.rows_evaluated)
            if s.retries:
                parent.add_retries(s.retries)
        if s.sampled:
            _tracer.record(s)
        self._span = None
        return False
