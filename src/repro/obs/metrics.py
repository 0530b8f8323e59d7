"""Counters, quantile histograms, gauges, and the model-eval meter.

The single most important metric in the library is the **model-eval
meter**: :func:`record_model_eval` is called by the wrapper that
:func:`repro.core.base.as_predict_fn` installs around every normalized
predict function, so each black-box query is counted twice over —

* ``calls``: how many times the predict function was invoked, and
* ``rows``: how many rows those invocations batched in total.

The distinction matters for the cost model: a KernelSHAP run with 130
coalitions against a 100-row background is *one or two calls* but
*13 000 rows* — batching is exactly the lever the ROADMAP's "fast as the
hardware allows" goal pulls, and calls/rows makes it visible.

Every eval is attributed to the innermost open span (so ``explain()``
spans carry their own cost) *and* to the process-global counters
``model.calls`` / ``model.rows``.

Telemetry v2 adds the ops vocabulary the future service layer needs:

* :class:`Histogram` is now a **fixed-boundary log-bucketed quantile
  histogram**: 8 geometric buckets per decade over 13 decades, so
  p50/p95/p99 read out with bounded relative error (one bucket width,
  ≤ ``10^0.125 − 1 ≈ 33%``) without storing samples. Bucket boundaries
  are identical in every process, which makes worker histograms
  mergeable by plain element-wise bucket addition — the process backend
  ships bucket-count deltas exactly like counter deltas
  (:func:`histogram_deltas` / :func:`merge_histogram_deltas`).
* :class:`Gauge` holds a last-value measurement (worker utilization,
  shard imbalance) for the ``/metrics`` exposition endpoint.
* :class:`observe_duration` is the blessed way to time a block into a
  histogram; the ``metric-names`` rule of ``scripts/lint.py`` bans ad-hoc
  ``time.perf_counter()`` timing outside ``repro.obs`` so every latency
  measurement flows through here (and therefore shows up in
  ``/metrics`` and the run ledger).

Metric names are dotted lowercase (``model.latency_ms``,
``exec.shard_ms``) — enforced by the same lint.

Batch counters: ``coalition.plan.fallbacks`` counts batches whose fused
``explain_batch`` call (one estimate over a game holding every row)
failed and fell back to the per-row loop; the batch span carries a
matching ``amortized`` attribute. ``games.walks`` grows by each walk
group's size and ``games.step_delta`` takes one observation per walk,
so a batch's walk count is its walk budget, not budget × rows.

HTTP counters: ``serve.http.connections`` counts the connections the
serve front accepted, and the ``serve.http.open`` gauge holds how many
are open (sampled on every open and close); many requests over few
connections means kept-alive connections were reused.
``serve.http.errors`` counts failed requests, failed writes and
connections the client reset between requests.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left

from . import trace

__all__ = [
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
]


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def to_dict(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A last-value metric (utilization, imbalance, queue depth)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def to_dict(self) -> dict:
        return {"type": "gauge", "value": self.value}


def _geometric_boundaries() -> tuple[float, ...]:
    """Upper bucket bounds: 8 per decade from 1e-6 up to 1e7.

    Computed as ``10^(k/8)`` so every process derives the *same* float
    values — bucket counts from forked workers merge element-wise.
    """
    return tuple(10.0 ** (k / 8.0) for k in range(-48, 57))


class Histogram:
    """Fixed-boundary log-bucketed summary of an observed distribution.

    Keeps count/sum/min/max plus per-bucket counts against the shared
    geometric boundary table (:func:`_geometric_boundaries`; bucket ``i``
    holds values in ``(b[i-1], b[i]]``, bucket 0 everything up to the
    first bound, the last bucket the overflow). Quantiles interpolate
    linearly inside the selected bucket and clamp to the observed
    min/max, so relative error is bounded by one bucket width
    (``10^0.125 ≈ 1.33``).
    """

    BOUNDARIES: tuple[float, ...] = _geometric_boundaries()
    N_BUCKETS = len(BOUNDARIES) + 1

    __slots__ = ("name", "count", "sum", "min", "max", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets = [0] * self.N_BUCKETS

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.buckets[bisect_left(self.BOUNDARIES, value)] += 1

    def observe_many(self, values: list[float]) -> None:
        """:meth:`observe` each float of ``values`` in one call (a walk
        group's step deltas), without a method call per value."""
        if not values:
            return
        buckets, bounds = self.buckets, self.BOUNDARIES
        total = self.sum
        for value in values:
            total += value
            buckets[bisect_left(bounds, value)] += 1
        self.sum = total
        self.count += len(values)
        self.min = min(self.min, min(values))
        self.max = max(self.max, max(values))

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def _bucket_bounds(self, index: int) -> tuple[float, float]:
        lo = 0.0 if index == 0 else self.BOUNDARIES[index - 1]
        hi = (
            self.max
            if index >= len(self.BOUNDARIES)
            else self.BOUNDARIES[index]
        )
        return lo, hi

    def quantile(self, q: float) -> float:
        """The q-quantile (0 ≤ q ≤ 1), interpolated within its bucket."""
        if self.count == 0:
            return 0.0
        if self.count == 1 or q <= 0.0:
            return self.min
        if q >= 1.0:
            return self.max
        target = q * self.count
        cumulative = 0
        for index, in_bucket in enumerate(self.buckets):
            if in_bucket == 0:
                continue
            cumulative += in_bucket
            if cumulative >= target:
                lo, hi = self._bucket_bounds(index)
                lo = max(lo, self.min)
                hi = min(hi, self.max)
                fraction = (target - (cumulative - in_bucket)) / in_bucket
                return lo + fraction * (hi - lo)
        return self.max

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def to_dict(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else None,
            "max": self.max if self.count else None,
            "mean": self.mean,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }

    # -- worker-state marshalling --------------------------------------------

    def state(self) -> dict:
        """Raw mergeable state (shared boundaries make it additive)."""
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": list(self.buckets),
        }

    def merge_state(self, state: dict) -> None:
        """Fold another histogram's (delta) state into this one."""
        self.count += int(state["count"])
        self.sum += float(state["sum"])
        if state["min"] < self.min:
            self.min = float(state["min"])
        if state["max"] > self.max:
            self.max = float(state["max"])
        buckets = state["buckets"]
        for i, n in enumerate(buckets):
            if n:
                self.buckets[i] += n

    @classmethod
    def from_state(cls, name: str, state: dict) -> "Histogram":
        """A standalone histogram rebuilt from a (delta) state dict."""
        h = cls(name)
        h.merge_state(state)
        return h


_lock = threading.Lock()
_registry: dict[str, Counter | Gauge | Histogram] = {}


def _get_or_create(name: str, cls):
    with _lock:
        metric = _registry.get(name)
        if metric is None:
            metric = _registry[name] = cls(name)
        elif not isinstance(metric, cls):
            raise TypeError(f"metric {name!r} is a {type(metric).__name__}")
        return metric


def counter(name: str) -> Counter:
    """Get-or-create the named counter."""
    return _get_or_create(name, Counter)


def gauge(name: str) -> Gauge:
    """Get-or-create the named gauge."""
    return _get_or_create(name, Gauge)


def histogram(name: str) -> Histogram:
    """Get-or-create the named histogram."""
    return _get_or_create(name, Histogram)


def snapshot() -> dict:
    """Plain-dict snapshot of every registered metric."""
    with _lock:
        return {name: m.to_dict() for name, m in sorted(_registry.items())}


def registry_items() -> list:
    """``(name, metric)`` pairs, sorted — the exposition endpoint's feed.

    The metric objects are the live registry entries (the registry only
    ever grows); callers must treat them as read-only.
    """
    with _lock:
        return sorted(_registry.items())


def reset_metrics() -> None:
    """Drop all registered metrics (tests and benchmark isolation)."""
    with _lock:
        _registry.clear()


def histogram_states() -> dict[str, dict]:
    """Mergeable state of every registered histogram, by name."""
    with _lock:
        return {
            name: m.state()
            for name, m in _registry.items()
            if isinstance(m, Histogram)
        }


def histogram_deltas(before: dict[str, dict]) -> dict[str, dict]:
    """Per-histogram state deltas since a :func:`histogram_states` call.

    Bucket counts and count/sum subtract exactly; min/max cannot be
    un-merged, so the delta carries the *current* min/max (a superset
    window — quantile clamping stays conservative). Histograms with no
    new observations are omitted.
    """
    out: dict[str, dict] = {}
    for name, after in histogram_states().items():
        base = before.get(name)
        if base is None:
            if after["count"]:
                out[name] = after
            continue
        count = after["count"] - base["count"]
        if count <= 0:
            continue
        out[name] = {
            "count": count,
            "sum": after["sum"] - base["sum"],
            "min": after["min"],
            "max": after["max"],
            "buckets": [
                a - b for a, b in zip(after["buckets"], base["buckets"])
            ],
        }
    return out


def merge_histogram_deltas(deltas: dict[str, dict]) -> None:
    """Re-observe worker histogram deltas into this process's registry."""
    for name, state in deltas.items():
        if state.get("count"):
            histogram(name).merge_state(state)


class observe_duration:
    """Time a block into a histogram: ``with observe_duration("x.ms"): …``.

    Records elapsed wall milliseconds on clean exit only (a failed model
    call's duration is an attempt, not a latency sample). No-op when
    observability is disabled — one attribute load and one branch, the
    same bar :class:`repro.obs.trace.span` clears. This is the blessed
    timing primitive: the ``metric-names`` rule of ``scripts/lint.py``
    bans raw ``time.perf_counter()`` timing outside ``repro.obs``.
    """

    __slots__ = ("_name", "_t0")

    def __init__(self, name: str) -> None:
        self._name = name
        self._t0 = None

    def __enter__(self) -> "observe_duration":
        if trace.enabled():
            self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._t0 is not None and exc_type is None:
            histogram(self._name).observe(
                (time.perf_counter() - self._t0) * 1000.0
            )
        self._t0 = None
        return False


def record_model_eval(rows: int, calls: int = 1) -> None:
    """Attribute ``calls`` black-box evaluations batching ``rows`` rows.

    No-op when observability is disabled. Otherwise increments the
    global ``model.calls`` / ``model.rows`` counters and the innermost
    open span's cumulative counters.
    """
    if not trace.enabled():
        return
    with _lock:
        c = _registry.get("model.calls")
        if c is None:
            c = _registry["model.calls"] = Counter("model.calls")
        r = _registry.get("model.rows")
        if r is None:
            r = _registry["model.rows"] = Counter("model.rows")
        c.value += calls
        r.value += rows
    active = trace.current_span()
    if active is not None:
        active.add_model_evals(calls, rows)


def meter_predict_fn(fn):
    """Wrap a normalized predict function with the model-eval meter.

    The wrapped function is marked so double-wrapping (e.g. a predict
    function passed back through ``as_predict_fn``) never double-counts.
    """
    if getattr(fn, "__repro_metered__", False):
        return fn

    def metered(X):
        out = fn(X)
        record_model_eval(rows=int(getattr(out, "size", 0) or len(out)))
        return out

    metered.__repro_metered__ = True
    metered.__wrapped__ = fn
    return metered
