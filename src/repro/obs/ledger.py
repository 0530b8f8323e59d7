"""The run ledger: an append-only record of every explanation run.

The future service layer (ROADMAP item 1) needs a request log, and the
meta-explainer (item 5) needs historical cost/stability profiles per
(explainer, workload) pair. The ledger is both: one JSON row per
``explain`` / ``explain_batch`` call, capturing *who* ran (explainer,
parameter hash, seed), *what it cost* (wall/CPU milliseconds, model
calls and rows, retries), *how it went* (status, error type,
convergence diagnostics when the estimator reports them).

Rows live in a bounded in-memory ring (:data:`RING_SIZE`, oldest rows
evicted) served by ``/ledger/tail`` on the exposition endpoint, and are
optionally appended to a JSONL file named by ``REPRO_LEDGER`` so runs
survive the process. Recording is best-effort by design: a ledger
failure increments ``obs.internal_errors`` and never breaks the
explanation that triggered it.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from collections import deque

from ..config import setting
from . import metrics

__all__ = [
    "RunLedger",
    "get_ledger",
    "reset_ledger",
    "params_hash",
    "record_run",
    "record_request",
]

RING_SIZE = 4096

_SCALARS = (bool, int, float, str, bytes, type(None))


def params_hash(obj) -> str | None:
    """Short stable hash of an explainer's scalar configuration.

    Hashes the sorted ``(name, value)`` pairs of scalar instance
    attributes (ints, floats, strings, bools, None) — enough to tell
    "same explainer, same knobs" apart without serializing models or
    arrays. Returns None when nothing hashable is found.
    """
    attrs = getattr(obj, "__dict__", None)
    if not isinstance(attrs, dict):
        return None
    items = [
        (k, v)
        for k, v in attrs.items()
        if not k.startswith("_") and isinstance(v, _SCALARS)
    ]
    if not items:
        return None
    payload = repr(sorted(items)).encode()
    return hashlib.sha1(payload).hexdigest()[:12]


class RunLedger:
    """Thread-safe bounded ring of run rows with optional JSONL sink."""

    def __init__(self, path: str | None = None, ring_size: int = RING_SIZE):
        self._lock = threading.Lock()
        self._rows: deque = deque(maxlen=ring_size)
        self.path = path
        self.recorded = 0

    def record(self, row: dict) -> None:
        """Append one run row (stamps ``ts`` if absent)."""
        if "ts" not in row:
            row = dict(row, ts=round(time.time(), 3))
        with self._lock:
            self._rows.append(row)
            self.recorded += 1
            if self.path:
                line = json.dumps(row, sort_keys=True, default=str)
                with open(self.path, "a", encoding="utf-8") as fh:
                    fh.write(line + "\n")

    def tail(self, n: int = 20) -> list[dict]:
        """The most recent ``n`` rows, oldest first."""
        with self._lock:
            rows = list(self._rows)
        return rows[-max(0, int(n)):]

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)


_ledger: RunLedger | None = None
_ledger_lock = threading.Lock()


def get_ledger() -> RunLedger:
    """The process-global ledger (sink path from ``REPRO_LEDGER``)."""
    global _ledger
    with _ledger_lock:
        if _ledger is None:
            _ledger = RunLedger(setting("REPRO_LEDGER"))
        return _ledger


def reset_ledger(path: str | None = None) -> RunLedger:
    """Replace the global ledger (tests; reconfiguring the sink)."""
    global _ledger
    with _ledger_lock:
        _ledger = RunLedger(path)
        return _ledger


def _convergence_of(result) -> dict | None:
    """Convergence diagnostics an estimator attached to its result."""
    meta = getattr(result, "meta", None)
    if isinstance(meta, dict):
        conv = meta.get("convergence")
        if isinstance(conv, dict):
            return conv
        keys = ("n_permutations", "n_samples", "iterations", "stderr")
        picked = {k: meta[k] for k in keys if k in meta}
        if picked:
            return picked
    return None


def record_run(span, explainer=None, result=None, error=None) -> None:
    """Build and record a ledger row from a closed explain span.

    Best-effort: any failure increments ``obs.internal_errors`` instead
    of propagating into the explanation call.
    """
    try:
        attrs = span.attrs or {}
        row = {
            "kind": span.name,
            "explainer": attrs.get("explainer"),
            "params_hash": params_hash(explainer),
            "seed": getattr(
                explainer, "seed", getattr(explainer, "random_state", None)
            ),
            "wall_ms": span.wall_ms,
            "cpu_ms": span.cpu_ms,
            "model_calls": span.model_evals,
            "model_rows": span.rows_evaluated,
            "retries": span.retries,
            "status": "ok" if error is None else f"error:{type(error).__name__}",
            "convergence": _convergence_of(result),
        }
        for key in ("n_features", "n_rows"):
            if key in attrs:
                row[key] = attrs[key]
        get_ledger().record(row)
    except Exception:
        # The ledger must never take an explanation down with it, but the
        # swallow stays visible on the internal-errors counter.
        metrics.counter("obs.internal_errors").inc()


def record_request(
    endpoint: str | None,
    tier: str | None,
    status: int,
    wall_ms: float,
    *,
    cache: str = "miss",
    degraded: bool = False,
    error: BaseException | None = None,
    deadline_ms: float | None = None,
) -> None:
    """Record one serve-layer request outcome (``kind="serve.request"``).

    The service-side counterpart of :func:`record_run`: one row per
    HTTP request, successful or shed, so overload behavior is auditable
    after the fact. Best-effort like everything else here.
    """
    try:
        row = {
            "kind": "serve.request",
            "endpoint": endpoint,
            "tier": tier,
            "status": int(status),
            "wall_ms": round(float(wall_ms), 3),
            "cache": cache,
            "degraded": bool(degraded),
            "error": None if error is None else type(error).__name__,
        }
        if deadline_ms is not None:
            row["deadline_ms"] = round(float(deadline_ms), 1)
        get_ledger().record(row)
    except Exception:
        metrics.counter("obs.internal_errors").inc()
