"""The explanation service: admission, coalescing, cache, ladder, breaker.

The load-bearing invariants:

* overload is refused, not absorbed: a full bounded queue fast-fails
  429 with ``Retry-After``, a queued request whose deadline lapses gets
  503 — and every refusal resolves *within* the request's own budget;
* identical concurrent requests coalesce into one computation whose
  outcome — result or typed error — reaches every waiter exactly once;
* the warm cache serves repeats, honors its TTL, and is emptied by a
  model version bump;
* the degradation ladder substitutes cheaper tiers under pressure and
  declares it in ``meta`` (a degraded answer is never silent);
* a persistently failing model trips its circuit breaker (fast 503
  without touching the model), and a successful half-open probe closes
  it again;
* over HTTP every failure is a typed JSON envelope — never a stack
  trace, never a hung socket;
* a connection stays open across requests, closes whenever a request's
  body was left unread, and ``stop()`` ends the ones it kept.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import socket
import struct
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.config import SETTINGS, setting
from repro.obs import metrics
from repro.robust.errors import (
    BudgetExceededError,
    ModelEvaluationError,
    TransientModelError,
)
from repro.serve import (
    CircuitBreaker,
    DegradationLadder,
    ExplainServer,
    QueueFullError,
    ServeConfig,
    error_envelope,
    request_key,
)
from repro.serve.breaker import CLOSED, OPEN
from repro.serve.server import MAX_BODY_BYTES


@pytest.fixture(autouse=True)
def _clean_obs():
    obs.get_tracer().reset()
    metrics.reset_metrics()
    obs.reset_ledger()
    yield
    obs.get_tracer().reset()
    metrics.reset_metrics()
    obs.reset_ledger()


class StubModel:
    """Deterministic linear model with a call counter and optional delay."""

    def __init__(self, delay_s: float = 0.0):
        self.delay_s = delay_s
        self.calls = 0
        self._lock = threading.Lock()

    def predict(self, X):
        with self._lock:
            self.calls += 1
        if self.delay_s:
            time.sleep(self.delay_s)
        X = np.asarray(X, dtype=float)
        return X @ np.arange(1.0, X.shape[1] + 1.0)


class FailingModel(StubModel):
    """Raises until ``healthy`` is flipped on."""

    def __init__(self):
        super().__init__()
        self.healthy = False

    def predict(self, X):
        with self._lock:
            self.calls += 1
        if not self.healthy:
            raise TransientModelError("injected outage")
        return super().predict(np.asarray(X))


def _background(n_features: int = 5, rows: int = 16) -> np.ndarray:
    rng = np.random.default_rng(3)
    return rng.normal(size=(rows, n_features))


def _server(model=None, **cfg) -> ExplainServer:
    cfg.setdefault("max_inflight", 2)
    cfg.setdefault("queue_limit", 4)
    cfg.setdefault("default_deadline_s", 10.0)
    cfg.setdefault("ladder_enabled", False)
    server = ExplainServer(ServeConfig(**cfg))
    server.add_endpoint("m", model or StubModel(), _background())
    return server


def _body(x=None, **extra) -> dict:
    body = {
        "model": "m",
        "instance": list(x if x is not None else np.arange(5.0)),
        "tier": "sampling",
        "params": {"n_permutations": 8, "seed": 0},
    }
    body.update(extra)
    return body


# --------------------------------------------------------------- admission


def test_queue_full_fast_fails_429_with_retry_after():
    model = StubModel(delay_s=0.5)
    server = _server(model, max_inflight=1, queue_limit=0)
    occupier = threading.Thread(
        target=server.handle_explain, args=(_body(),), daemon=True
    )
    occupier.start()
    for _ in range(200):  # wait for the slot to be taken
        if server.admission.inflight == 1:
            break
        time.sleep(0.005)
    t0 = time.monotonic()
    status, resp, headers = server.handle_explain(
        _body(np.arange(5.0) + 1.0)
    )
    elapsed = time.monotonic() - t0
    occupier.join(timeout=10)
    assert status == 429
    assert resp["error"]["type"] == "QueueFullError"
    assert "Retry-After" in headers
    assert elapsed < 0.4  # fast-fail: no queue wait at all


def test_queue_wait_is_capped_by_the_request_deadline():
    model = StubModel(delay_s=0.6)
    server = _server(model, max_inflight=1, queue_limit=4)
    occupier = threading.Thread(
        target=server.handle_explain, args=(_body(),), daemon=True
    )
    occupier.start()
    for _ in range(200):
        if server.admission.inflight == 1:
            break
        time.sleep(0.005)
    t0 = time.monotonic()
    status, resp, headers = server.handle_explain(
        _body(np.arange(5.0) + 2.0, deadline_ms=150)
    )
    elapsed = time.monotonic() - t0
    occupier.join(timeout=10)
    # The queued request resolved with a typed refusal *within* (about)
    # its own deadline — it did not ride out the occupier's 600 ms.
    assert status in (503, 504)
    assert resp["error"]["type"] in (
        "AdmissionTimeoutError", "BudgetExceededError"
    )
    assert elapsed < 0.5


# -------------------------------------------------------------- coalescing


def test_identical_concurrent_requests_share_one_computation():
    model = StubModel(delay_s=0.25)
    server = _server(model, max_inflight=4)
    results: list = []

    def fire():
        results.append(server.handle_explain(_body()))

    threads = [threading.Thread(target=fire) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=15)
    assert len(results) == 4
    statuses = [r[0] for r in results]
    assert statuses == [200, 200, 200, 200]
    values = {json.dumps(r[1]["attribution"]["values"]) for r in results}
    assert len(values) == 1  # everyone got the same explanation
    snap = metrics.snapshot()
    assert snap["serve.coalesce.leaders"]["value"] == 1
    assert snap["serve.coalesce.waiters"]["value"] == 3
    provenance = sorted(r[1]["meta"]["cache"] for r in results)
    assert provenance == ["coalesced", "coalesced", "coalesced", "miss"]


def test_leader_failure_reaches_every_waiter_as_the_same_typed_error():
    model = FailingModel()  # never healthy: guard retries, then gives up
    server = _server(model, max_inflight=4, breaker_threshold=100)
    results: list = []
    barrier = threading.Barrier(4)

    def fire():
        barrier.wait()
        results.append(server.handle_explain(_body()))

    threads = [threading.Thread(target=fire) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=15)
    assert len(results) == 4  # exactly one outcome per request
    for status, resp, __ in results:
        assert status == 502
        assert resp["error"]["type"] in (
            "ModelEvaluationError", "TransientModelError"
        )
        assert "Traceback" not in json.dumps(resp)
    # Errors are not cached: the next request recomputes.
    snap = metrics.snapshot()
    assert snap.get("serve.cache.hits", {}).get("value", 0) == 0


# -------------------------------------------------------------------- cache


def test_cache_hit_and_model_version_invalidation():
    model = StubModel()
    server = _server(model)
    s1, r1, __ = server.handle_explain(_body())
    s2, r2, __ = server.handle_explain(_body())
    assert (s1, s2) == (200, 200)
    assert r1["meta"]["cache"] == "miss"
    assert r2["meta"]["cache"] == "hit"
    assert r1["attribution"] == r2["attribution"]
    calls_before = model.calls
    server.set_model_version("m", "v2")
    s3, r3, __ = server.handle_explain(_body())
    assert s3 == 200
    assert r3["meta"]["cache"] == "miss"
    assert r3["meta"]["model_version"] == "v2"
    assert model.calls > calls_before  # genuinely recomputed
    assert metrics.snapshot()["serve.cache.invalidated"]["value"] >= 1


def test_cache_ttl_expires_entries():
    server = _server(cache_ttl_s=0.05)
    server.handle_explain(_body())
    __, warm, __ = server.handle_explain(_body())
    assert warm["meta"]["cache"] == "hit"
    time.sleep(0.08)
    __, cold, __ = server.handle_explain(_body())
    assert cold["meta"]["cache"] == "miss"
    assert metrics.snapshot()["serve.cache.expired"]["value"] == 1


def test_request_key_separates_tiers_and_versions():
    x = np.arange(5.0)
    base = request_key("m", "v1", x, "sampling", {"seed": 0})
    assert base != request_key("m", "v2", x, "sampling", {"seed": 0})
    assert base != request_key("m", "v1", x, "surrogate", {"seed": 0})
    assert base != request_key("m", "v1", x + 1, "sampling", {"seed": 0})
    assert base == request_key("m", "v1", x.copy(), "sampling", {"seed": 0})


# ------------------------------------------------------------------- ladder


def test_ladder_degrades_and_sheds_with_pressure():
    ladder = DegradationLadder(ServeConfig(
        ladder_enabled=True, degrade_pressure=0.5, shed_pressure=0.85,
    ))
    tiers = ("exact", "sampling", "surrogate")
    tier, overrides, meta = ladder.choose("exact", tiers, 0.0)
    assert (tier, meta["degraded"]) == ("exact", False)
    tier, overrides, meta = ladder.choose("exact", tiers, 0.6)
    assert (tier, meta["degraded"]) == ("sampling", True)
    assert overrides["n_permutations"] < 60  # budget squeezed too
    tier, __, meta = ladder.choose("exact", tiers, 0.9)
    assert (tier, meta["degraded"]) == ("surrogate", True)
    # Explicit cheap requests are never upgraded, and not marked degraded.
    tier, __, meta = ladder.choose("surrogate", tiers, 0.9)
    assert (tier, meta["degraded"]) == ("surrogate", False)
    assert metrics.snapshot()["serve.shed.degraded"]["value"] == 2


def test_ladder_uses_compute_p95_as_trailing_pressure():
    config = ServeConfig(
        ladder_enabled=True, default_deadline_s=1.0,
        degrade_pressure=0.5, shed_pressure=0.85,
    )
    ladder = DegradationLadder(config)
    h = metrics.histogram("serve.compute_ms")
    for __ in range(10):
        h.observe(950.0)  # p95 ≈ the whole deadline
    assert ladder.pressure(0.0) >= 0.85
    tier, __, meta = ladder.choose("exact",
                                   ("exact", "sampling", "surrogate"), 0.0)
    assert tier == "surrogate"


def test_wide_endpoint_never_offers_exact():
    server = ExplainServer(ServeConfig(ladder_enabled=False))
    server.add_endpoint("wide", StubModel(), _background(n_features=20))
    assert "exact" not in server.registry.get("wide").available_tiers
    status, resp, __ = server.handle_explain({
        "model": "wide",
        "instance": list(range(20)),
        "tier": "exact",
        "params": {},
    })
    # Exact silently stands down to the nearest cheaper tier...
    assert status == 200
    assert resp["meta"]["tier"] == "sampling"
    # ...which is a substitution the response must declare.
    assert resp["meta"]["degraded"] is True


# ------------------------------------------------------------------ breaker


def test_breaker_opens_after_consecutive_failures_and_probe_recloses():
    model = FailingModel()
    server = _server(
        model, breaker_threshold=2, breaker_cooldown_s=0.1, queue_limit=8
    )
    # Two distinct instances (no coalescing/caching) fail the model.
    for i in range(2):
        status, resp, __ = server.handle_explain(
            _body(np.arange(5.0) + 10 * i)
        )
        assert status == 502
    assert server.breaker("m").state == OPEN
    calls_when_open = model.calls
    status, resp, headers = server.handle_explain(
        _body(np.arange(5.0) + 50)
    )
    assert status == 503
    assert resp["error"]["type"] == "BreakerOpenError"
    assert "Retry-After" in headers
    assert model.calls == calls_when_open  # refused without touching it
    # Cooldown elapses, the model recovers, one probe closes the circuit.
    model.healthy = True
    time.sleep(0.12)
    status, resp, __ = server.handle_explain(_body(np.arange(5.0) + 99))
    assert status == 200
    assert server.breaker("m").state == CLOSED
    snap = metrics.snapshot()
    assert snap["serve.breaker.opened"]["value"] == 1
    assert snap["serve.breaker.probes"]["value"] == 1
    assert snap["serve.breaker.closed"]["value"] == 1


def test_breaker_half_open_admits_exactly_one_probe():
    breaker = CircuitBreaker("m", threshold=1, cooldown_s=0.05)
    breaker.record_failure(ModelEvaluationError("down"))
    assert breaker.state == OPEN
    time.sleep(0.06)
    breaker.allow()  # wins the probe slot
    from repro.serve import BreakerOpenError

    with pytest.raises(BreakerOpenError):
        breaker.allow()  # concurrent request while the probe is out
    breaker.record_success()
    assert breaker.state == CLOSED
    breaker.allow()  # closed again: free passage


def test_breaker_ignores_budget_errors():
    breaker = CircuitBreaker("m", threshold=1, cooldown_s=10.0)
    breaker.record_failure(BudgetExceededError("slow", kind="deadline"))
    assert breaker.state == CLOSED  # load is not model sickness


# ----------------------------------------------------------- error envelope


def test_error_envelope_statuses_and_opacity():
    status, body, headers = error_envelope(
        QueueFullError("full", retry_after_s=2.0)
    )
    assert status == 429
    assert body["error"]["type"] == "QueueFullError"
    assert headers["Retry-After"] == "2"
    # An unexpected exception is a bug, not a contract: constant message.
    status, body, __ = error_envelope(RuntimeError("secret internals"))
    assert status == 500
    assert body["error"]["type"] == "InternalError"
    assert "secret" not in json.dumps(body)


# --------------------------------------------------------------------- HTTP


def _post(url: str, payload: dict, timeout: float = 15.0):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"), method="POST"
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read()), dict(resp.headers)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read()), dict(err.headers)


def _get(url: str, timeout: float = 15.0):
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return resp.status, json.loads(resp.read())


def test_http_explain_healthz_stats_and_version_bump():
    server = _server(StubModel())
    host, port = server.start()
    try:
        base = f"http://{host}:{port}"
        status, body, __ = _post(f"{base}/explain", _body())
        assert status == 200
        assert body["meta"]["tier"] == "sampling"
        assert len(body["attribution"]["values"]) == 5
        status, health = _get(f"{base}/healthz")
        assert (status, health["status"]) == (200, "ok")
        assert health["models"] == ["m"]
        # The effective configuration: every setting with its source,
        # and this server's resolved knobs.
        settings = health["config"]["settings"]
        assert set(settings) == set(SETTINGS)
        assert all(entry["source"] in ("env", "default")
                   for entry in settings.values())
        assert settings["REPRO_RETRIES"]["value"] == setting("REPRO_RETRIES")
        assert health["config"]["serve"] == dataclasses.asdict(server.config)
        assert health["config"]["serve"]["max_inflight"] == 2
        status, stats = _get(f"{base}/serve/stats")
        assert status == 200
        assert stats["models"]["m"]["breaker"] == "closed"
        assert stats["cache"]["entries"] == 1
        status, bump, __ = _post(
            f"{base}/models/m/version", {"version": "v2"}
        )
        assert (status, bump["version"]) == (200, "v2")
        status, body, __ = _post(f"{base}/explain", _body())
        assert body["meta"]["model_version"] == "v2"
        assert body["meta"]["cache"] == "miss"
    finally:
        server.stop()


def test_http_failures_are_typed_envelopes_not_tracebacks():
    server = _server(StubModel())
    host, port = server.start()
    try:
        base = f"http://{host}:{port}"
        for payload, want_status, want_type in (
            ({"model": "ghost", "instance": [1, 2, 3, 4, 5]},
             404, "UnknownEndpointError"),
            ({"model": "m", "instance": [1]},
             400, "InputValidationError"),
            ({"model": "m"}, 400, "InputValidationError"),
        ):
            status, body, __ = _post(f"{base}/explain", payload)
            assert status == want_status
            assert body["error"]["type"] == want_type
            assert "Traceback" not in json.dumps(body)
        # Non-JSON body and unknown routes are envelopes too.
        req = urllib.request.Request(
            f"{base}/explain", data=b"not json{", method="POST"
        )
        try:
            with urllib.request.urlopen(req, timeout=15) as resp:
                status, body = resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as err:
            status, body = err.code, json.loads(err.read())
        assert (status, body["error"]["type"]) == (
            400, "InputValidationError"
        )
        status, body, __ = _post(f"{base}/no/such/route", {})
        assert (status, body["error"]["type"]) == (
            404, "UnknownEndpointError"
        )
    finally:
        server.stop()


def _wait_until(predicate, timeout_s: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


def _exchange(conn, method: str, path: str, body: bytes | None = None,
              headers: dict | None = None):
    """One request on ``conn``: ``(response, decoded JSON body)``."""
    conn.request(method, path, body=body, headers=headers or {})
    resp = conn.getresponse()
    return resp, json.loads(resp.read())


def test_http_keeps_one_connection_across_requests():
    server = _server(StubModel())
    host, port = server.start()
    conn = http.client.HTTPConnection(host, port, timeout=15)
    try:
        bodies = [_body(np.arange(5.0) + key) for key in range(5)]
        for body in bodies:  # both sides below then answer from cache
            server.handle_explain(body)
        accepted = server.stats()["http"]["connections"]
        first_socket = None
        for i in range(50):
            body = bodies[i % len(bodies)]
            resp, got = _exchange(conn, "POST", "/explain",
                                  json.dumps(body).encode())
            assert (resp.version, resp.status) == (11, 200)
            first_socket = first_socket or conn.sock
            assert conn.sock is first_socket
            status, want, __ = server.handle_explain(body)
            assert status == 200
            # The remaining deadline is the one per-call field.
            for reply in (got, want):
                del reply["meta"]["deadline_remaining_ms"]
            assert got == json.loads(json.dumps(want))
        assert server.stats()["http"]["connections"] == accepted + 1
    finally:
        conn.close()
        server.stop()


def test_concurrent_kept_alive_connections_are_all_counted_and_closed():
    # Handler threads unregister while the accept loop registers: with
    # a short switch interval, a lost update would leave ``open`` above
    # zero once every client has closed.
    server = _server(StubModel())
    host, port = server.start()
    body = json.dumps(_body()).encode()
    server.handle_explain(_body())  # the clients below hit the cache
    n_clients, n_requests = 8, 10
    statuses: list[int] = []

    def client() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=15)
        try:
            for __ in range(n_requests):
                statuses.append(
                    _exchange(conn, "POST", "/explain", body)[0].status
                )
        finally:
            conn.close()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client) for __ in range(n_clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert statuses == [200] * (n_clients * n_requests)
        assert server.stats()["http"]["connections"] == n_clients
        assert _wait_until(lambda: server.stats()["http"]["open"] == 0)
    finally:
        server.stop()


def test_http_closes_a_connection_whose_body_it_did_not_read():
    # A body left on the stream would be parsed as the next request
    # line, so each refusal below closes, and the client's next request
    # goes out on a fresh connection.
    server = _server(StubModel())
    host, port = server.start()
    conn = http.client.HTTPConnection(host, port, timeout=15)
    valid = json.dumps(_body()).encode()

    def unknown_route():
        conn.request("POST", "/no/such/route", body=b'{"a": 1}')

    def oversized():
        conn.putrequest("POST", "/explain")
        conn.putheader("Content-Length", str(MAX_BODY_BYTES + 1))
        conn.endheaders()

    def chunked():  # an iterable body goes out chunked
        conn.request("POST", "/explain", body=iter([valid]))

    try:
        for send, want_status, want_type in (
            (unknown_route, 404, "UnknownEndpointError"),
            (oversized, 400, "InputValidationError"),
            (chunked, 400, "InputValidationError"),
        ):
            send()
            resp = conn.getresponse()
            body = json.loads(resp.read())
            assert (resp.status, body["error"]["type"]) == (
                want_status, want_type
            )
            assert resp.getheader("Connection") == "close"
            resp, body = _exchange(conn, "POST", "/explain", valid)
            assert resp.status == 200, body
    finally:
        conn.close()
        server.stop()


def test_http_closes_when_the_client_asks():
    server = _server(StubModel())
    host, port = server.start()
    conn = http.client.HTTPConnection(host, port, timeout=15)
    try:
        resp, __ = _exchange(conn, "GET", "/healthz",
                             headers={"Connection": "close"})
        assert resp.status == 200
        assert resp.getheader("Connection") == "close"
        assert _wait_until(lambda: server.stats()["http"]["open"] == 0)
    finally:
        conn.close()
        server.stop()


def test_stop_ends_kept_alive_connections():
    server = _server(StubModel())
    host, port = server.start()
    conn = http.client.HTTPConnection(host, port, timeout=15)
    try:
        resp, __ = _exchange(conn, "GET", "/healthz")
        assert resp.status == 200 and resp.getheader("Connection") is None
        kept = conn.sock
        assert server.stats()["http"]["open"] == 1
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 5.0
        assert _wait_until(lambda: server.stats()["http"]["open"] == 0)
        # The idle connection is gone: a request on it fails rather than
        # being served by a handler that outlived stop().
        with pytest.raises((OSError, http.client.HTTPException)):
            conn.request("POST", "/explain", body=json.dumps(_body()))
            assert conn.sock is kept
            conn.getresponse()
    finally:
        conn.close()


def test_stop_returns_promptly():
    # The accept loop wakes every POLL_S to notice stop(); at
    # serve_forever's default 0.5 s interval each stop() took ~0.45 s.
    server = _server(StubModel())
    server.start()
    started = time.monotonic()
    server.stop()
    assert time.monotonic() - started < 0.25
    assert server.address() is None


def test_a_client_reset_between_requests_is_counted_not_printed(capsys):
    server = _server(StubModel())
    host, port = server.start()
    try:
        sock = socket.create_connection((host, port), timeout=15)
        sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        assert sock.recv(1 << 16).startswith(b"HTTP/1.1 200")
        # Closing with a zero linger time sends a reset, not a FIN.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                        struct.pack("ii", 1, 0))
        sock.close()
        assert _wait_until(lambda: server.stats()["http"]["open"] == 0)
        errors = metrics.snapshot()["serve.http.errors"]["value"]
        assert errors == 1
        assert "Traceback" not in capsys.readouterr().err
    finally:
        server.stop()


@pytest.mark.parametrize("request_head, want_status", [
    (b"PUT /explain HTTP/1.1\r\nHost: x\r\n\r\n", 501),
    (b"GARBAGE\r\n", 400),
    (b"POST /explain HTTP/2.0\r\nHost: x\r\n\r\n", 505),
])
def test_http_protocol_errors_are_json_envelopes(request_head, want_status):
    server = _server(StubModel())
    host, port = server.start()
    try:
        with socket.create_connection((host, port), timeout=15) as sock:
            sock.sendall(request_head)
            chunks = []
            while chunk := sock.recv(1 << 16):  # until the server closes
                chunks.append(chunk)
        head, __, payload = b"".join(chunks).partition(b"\r\n\r\n")
        status_line, *lines = head.decode("latin-1").split("\r\n")
        headers = dict(line.split(": ", 1) for line in lines)
        assert status_line.split()[1] == str(want_status)
        assert headers["Content-Type"] == "application/json"
        assert headers["Connection"] == "close"
        assert int(headers["Content-Length"]) == len(payload)
        error = json.loads(payload)["error"]
        assert (error["type"], error["status"]) == (
            "InputValidationError", want_status
        )
    finally:
        server.stop()


def test_requests_land_in_the_run_ledger():
    server = _server(StubModel())
    server.handle_explain(_body())
    server.handle_explain({"model": "ghost", "instance": [1.0] * 5})
    rows = [
        row for row in obs.get_ledger().tail(10)
        if row.get("kind") == "serve.request"
    ]
    assert len(rows) == 2
    ok, bad = rows
    assert (ok["status"], ok["tier"], ok["cache"]) == (
        200, "sampling", "miss"
    )
    assert (bad["status"], bad["error"]) == (404, "UnknownEndpointError")
