"""Live exposition endpoint: ``/metrics``, ``/health``, ``/ledger/tail``.

The first brick of the future ``repro.serve`` layer (ROADMAP item 1):
a dependency-free ``http.server`` thread that makes the process's
telemetry scrapeable while experiments run. Three routes:

``/metrics``
    Prometheus text exposition format 0.0.4. Counters and gauges map
    directly; histograms export the standard cumulative
    ``_bucket{le="…"}`` / ``_sum`` / ``_count`` series **plus**
    ``<name>_p50`` / ``_p95`` / ``_p99`` gauges precomputed from the
    log-bucketed quantile sketch — scrape-side quantiles without
    PromQL. Dotted metric names flatten to underscores under a
    ``repro_`` prefix (``model.latency_ms`` → ``repro_model_latency_ms``).
``/health``
    JSON liveness: observability state, trace keep-rate, span/ledger
    volumes, and the ``obs.internal_errors`` count.
``/ledger/tail``
    The most recent run-ledger rows as ND-JSON (``?n=`` bounds the
    count, default 20).

Start it with ``repro metrics serve``, programmatically via
:func:`start_metrics_server`, or implicitly by setting
``REPRO_METRICS_PORT`` (checked once at ``repro.obs`` import). The
server is a daemon thread — it never blocks interpreter exit.
"""

from __future__ import annotations

import json
import re
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

from ..config import setting
from . import metrics, trace
from .ledger import get_ledger
from .metrics import Counter, Gauge, Histogram

__all__ = [
    "prometheus_text",
    "start_metrics_server",
    "stop_metrics_server",
    "metrics_server_address",
    "maybe_autostart",
]

_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """``model.latency_ms`` → ``repro_model_latency_ms``."""
    return "repro_" + _NAME_BAD.sub("_", name)


def _num(value: float) -> str:
    """A Prometheus-parseable number (integers stay integral)."""
    if isinstance(value, int) or (
        isinstance(value, float) and value.is_integer() and abs(value) < 1e15
    ):
        return str(int(value))
    return format(float(value), ".10g")


def _histogram_lines(name: str, h: Histogram) -> list[str]:
    lines = [f"# TYPE {name} histogram"]
    cumulative = 0
    for index, in_bucket in enumerate(h.buckets):
        if not in_bucket:
            continue  # a sparse-but-sorted le series is valid exposition
        cumulative += in_bucket
        if index < len(h.BOUNDARIES):
            le = _num(h.BOUNDARIES[index])
            lines.append(f'{name}_bucket{{le="{le}"}} {cumulative}')
    lines.append(f'{name}_bucket{{le="+Inf"}} {h.count}')
    lines.append(f"{name}_sum {_num(h.sum)}")
    lines.append(f"{name}_count {h.count}")
    for q, value in (("p50", h.p50), ("p95", h.p95), ("p99", h.p99)):
        lines.append(f"# TYPE {name}_{q} gauge")
        lines.append(f"{name}_{q} {_num(value)}")
    return lines


def prometheus_text() -> str:
    """The full registry in Prometheus text exposition format 0.0.4."""
    lines: list[str] = []
    for name, metric in metrics.registry_items():
        prom = _prom_name(name)
        if isinstance(metric, Counter):
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {_num(metric.value)}")
        elif isinstance(metric, Gauge):
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {_num(metric.value)}")
        elif isinstance(metric, Histogram):
            lines.extend(_histogram_lines(prom, metric))
    return "\n".join(lines) + "\n"


def _health_payload() -> dict:
    snap = metrics.snapshot()
    internal = snap.get("obs.internal_errors", {}).get("value", 0)
    return {
        "status": "ok",
        "obs_enabled": trace.enabled(),
        "trace_sample": trace.trace_sample(),
        "spans_recorded": len(trace.get_tracer().spans()),
        "ledger_rows": len(get_ledger()),
        "internal_errors": internal,
    }


class _Handler(BaseHTTPRequestHandler):
    server_version = "repro-obs"

    def _send(self, body: str, content_type: str, status: int = 200) -> None:
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parsed = urlparse(self.path)
        route = parsed.path.rstrip("/") or "/"
        try:
            if route == "/metrics":
                self._send(
                    prometheus_text(), "text/plain; version=0.0.4"
                )
            elif route == "/health":
                self._send(
                    json.dumps(_health_payload(), sort_keys=True),
                    "application/json",
                )
            elif route == "/ledger/tail":
                raw = parse_qs(parsed.query).get("n", ["20"])[0]
                try:
                    n = max(0, int(raw))
                except ValueError:
                    n = 20
                body = "\n".join(
                    json.dumps(row, sort_keys=True, default=str)
                    for row in get_ledger().tail(n)
                )
                self._send(body + ("\n" if body else ""),
                           "application/x-ndjson")
            else:
                self._send("not found\n", "text/plain", status=404)
        except Exception:
            # A broken scrape must not take the endpoint thread down.
            metrics.counter("obs.internal_errors").inc()
            try:
                self._send("internal error\n", "text/plain", status=500)
            except Exception:
                metrics.counter("obs.internal_errors").inc()

    def log_message(self, fmt, *args) -> None:  # noqa: D102
        pass  # scrape logging would drown the CLI's own output


_server: ThreadingHTTPServer | None = None
_server_lock = threading.Lock()


def start_metrics_server(
    port: int = 0, host: str = "127.0.0.1"
) -> tuple[str, int]:
    """Start (or reuse) the exposition server; returns ``(host, port)``.

    ``port=0`` lets the OS pick a free port — the in-process tests use
    that. Idempotent: a second call returns the running server's
    address.
    """
    global _server
    with _server_lock:
        if _server is None:
            _server = ThreadingHTTPServer((host, int(port)), _Handler)
            _server.daemon_threads = True
            thread = threading.Thread(
                target=_server.serve_forever,
                name="repro-metrics-server",
                daemon=True,
            )
            thread.start()
        address = _server.server_address
        return str(address[0]), int(address[1])


def stop_metrics_server() -> None:
    """Shut the exposition server down (idempotent)."""
    global _server
    with _server_lock:
        server, _server = _server, None
    if server is not None:
        server.shutdown()
        server.server_close()


def metrics_server_address() -> tuple[str, int] | None:
    """The running server's ``(host, port)``, or ``None``."""
    with _server_lock:
        if _server is None:
            return None
        address = _server.server_address
        return str(address[0]), int(address[1])


def maybe_autostart() -> tuple[str, int] | None:
    """Honor ``REPRO_METRICS_PORT`` (checked once at package import)."""
    port = setting("REPRO_METRICS_PORT")
    if port is None:
        return None
    try:
        return start_metrics_server(port=port)
    except OSError:
        metrics.counter("obs.internal_errors").inc()
        return None
