"""The explanation service: HTTP front, fault-contained request core.

:class:`ExplainServer` composes the pieces of this package around an
endpoint registry and exposes them two ways: in-process via
:meth:`ExplainServer.handle_explain` (what the tests and the benchmark
load generator call — the full admission/coalescing/breaker path with
no sockets), and over HTTP via :meth:`ExplainServer.start` (a
``ThreadingHTTPServer`` daemon thread, one connection per thread, every
socket under ``REPRO_SERVE_SOCKET_TIMEOUT_S``).

The life of a request::

    parse/validate ── 400 on bad JSON, unknown model, malformed instance
    breaker peek ──── 503 fast-fail while the model's circuit is open
    ladder choice ─── pick the served tier from pressure (meta.tier)
    cache lookup ──── hit returns immediately; sheds all downstream load
    coalesce join ─── duplicate of an in-flight request? wait, don't queue
    admission ─────── bounded queue; wait capped by *remaining* deadline
    breaker allow ─── half-open probe gate
    compute ───────── explainer under a guard scope that inherits the
                      request envelope's remaining time
    publish ───────── cache.put + flight.resolve (errors: flight.fail)

Deadline accounting runs through :func:`repro.robust.request_envelope`:
the envelope opens at parse time with the request's full budget, so by
construction every later stage — queue wait, coalesced wait, the
explainer's own guard scope — sees only what is left. No stage can
sleep past the deadline the client was promised, which is what "zero
hung requests under overload" means operationally.

Routes: ``POST /explain``, ``GET /healthz``, ``GET /serve/stats``,
``POST /models/<name>/version``.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from ..config import effective
from ..obs import metrics
from ..obs.ledger import record_request
from ..persist.errors import ArtifactNotFoundError
from ..persist.registry import ArtifactRegistry, resolve_registry_dir
from ..robust.errors import BudgetExceededError, InputValidationError
from ..robust.guard import request_envelope
from .admission import AdmissionController
from .breaker import CircuitBreaker
from .cache import ExplanationCache
from .coalesce import Coalescer
from .config import ServeConfig
from .endpoints import Endpoint, EndpointRegistry
from .errors import ModelNotFoundError, UnknownEndpointError
from .ladder import DegradationLadder
from .protocol import attribution_payload, error_envelope, request_key

__all__ = ["ExplainServer"]

MAX_BODY_BYTES = 1 << 20  # a one-instance explanation request is small


class ExplainServer:
    """Admission-controlled, coalescing, degradable explanation service."""

    def __init__(self, config: ServeConfig | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 artifacts: ArtifactRegistry | str | None = None) -> None:
        self.config = config or ServeConfig()
        self.host = host
        self.port = int(port)
        self.registry = EndpointRegistry()
        # The persist artifact registry that feeds version bumps. An
        # explicit ArtifactRegistry (or root path) wins; otherwise the
        # ambient root (REPRO_REGISTRY_DIR > .repro_registry) is picked
        # up lazily, and only if it exists on disk — servers that never
        # pushed an artifact keep the label-only version-bump behavior.
        if isinstance(artifacts, str):
            artifacts = ArtifactRegistry(artifacts)
        self._artifacts = artifacts
        self.admission = AdmissionController(
            self.config.max_inflight,
            self.config.queue_limit,
            self.config.retry_after_s,
        )
        self.cache = ExplanationCache(
            self.config.cache_size, self.config.cache_ttl_s
        )
        self.coalescer = Coalescer()
        self.ladder = DegradationLadder(self.config)
        self._breakers: dict[str, CircuitBreaker] = {}
        self._breaker_lock = threading.Lock()
        self._http: ThreadingHTTPServer | None = None
        self._http_lock = threading.Lock()

    # -- hosting -----------------------------------------------------------

    def add_endpoint(
        self,
        name: str,
        model,
        background: np.ndarray,
        feature_names: list[str] | None = None,
        version: str = "v1",
    ) -> Endpoint:
        """Host a model under ``name``; returns the created endpoint."""
        return self.registry.add(
            Endpoint(
                name,
                model,
                background,
                feature_names=feature_names,
                version=version,
                config=self.config,
            )
        )

    def breaker(self, name: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker for one endpoint."""
        with self._breaker_lock:
            found = self._breakers.get(name)
            if found is None:
                found = CircuitBreaker(
                    name,
                    threshold=self.config.breaker_threshold,
                    cooldown_s=self.config.breaker_cooldown_s,
                )
                self._breakers[name] = found
            return found

    def artifact_store(self) -> ArtifactRegistry | None:
        """The persist registry feeding version bumps, if one exists."""
        if self._artifacts is not None:
            return self._artifacts
        root = resolve_registry_dir()
        if os.path.isdir(root):
            self._artifacts = ArtifactRegistry(root)
        return self._artifacts

    def add_endpoint_from_registry(
        self,
        name: str,
        background: np.ndarray,
        feature_names: list[str] | None = None,
        version: str | None = None,
    ) -> Endpoint:
        """Host a registered artifact under its registry name.

        Loads ``(name, version)`` — latest when ``version`` is None —
        from the persist artifact registry and hosts the deserialized
        model. Unknown names or versions raise the typed 404.
        """
        store = self.artifact_store()
        if store is None:
            raise ModelNotFoundError(name, version or "latest")
        try:
            if version is None:
                version = store.latest_version(name)
            model = store.get(name, version)
        except ArtifactNotFoundError as exc:
            raise ModelNotFoundError(
                name, str(version),
                available=getattr(exc, "available", None)
                or store.versions(name),
            ) from exc
        metrics.counter("serve.registry.loads").inc()
        return self.add_endpoint(
            name, model, background,
            feature_names=feature_names, version=version,
        )

    def set_model_version(self, name: str, version: str) -> str:
        """Bump an endpoint's model version and drain its cache entries.

        When the persist artifact registry holds artifacts under
        ``name``, the bump is *real*: the registered artifact for
        ``version`` is loaded and swapped into the endpoint, and an
        unknown version is a typed 404 listing what the registry does
        hold. Endpoints with no registered artifact keep the label-only
        bump (the hosted model object is unchanged).
        """
        endpoint = self.registry.get(name)
        store = self.artifact_store()
        if store is not None and name in store.names():
            try:
                model = store.get(name, version)
            except ArtifactNotFoundError as exc:
                raise ModelNotFoundError(
                    name, version,
                    available=getattr(exc, "available", None)
                    or store.versions(name),
                ) from exc
            metrics.counter("serve.registry.loads").inc()
            new_version = endpoint.set_model(model, version)
        else:
            new_version = endpoint.set_version(version)
        self.cache.invalidate_endpoint(name)
        return new_version

    def _available_versions(self, endpoint: Endpoint) -> list[str]:
        """Registry versions for one endpoint, live version included."""
        store = self.artifact_store()
        versions = store.versions(endpoint.name) if store is not None else []
        live = endpoint.version
        if live not in versions:
            versions.append(live)
        return versions

    # -- the request core (no sockets; tests call this directly) -----------

    def handle_explain(self, body) -> tuple[int, dict, dict]:
        """``(status, response_body, headers)`` for one explain request.

        Never raises: every failure — typed or unexpected — becomes the
        protocol's error envelope, and every outcome lands in the run
        ledger and the ``serve.request_ms`` histogram.
        """
        started = time.monotonic()
        ctx: dict = {
            "endpoint": None, "tier": None,
            "cache": "miss", "degraded": False, "deadline_ms": None,
        }
        error: BaseException | None = None
        try:
            payload, meta = self._explain(body, ctx)
            status, headers = 200, {}
            response = {"attribution": payload, "meta": meta}
        except Exception as exc:  # the envelope is the contract
            error = exc
            status, response, headers = error_envelope(exc)
        wall_ms = (time.monotonic() - started) * 1000.0
        metrics.histogram("serve.request_ms").observe(wall_ms)
        record_request(
            ctx["endpoint"], ctx["tier"], status, wall_ms,
            cache=ctx["cache"], degraded=ctx["degraded"], error=error,
            deadline_ms=ctx["deadline_ms"],
        )
        return status, response, headers

    def _deadline_s(self, body: dict) -> float:
        raw = body.get("deadline_ms")
        if raw is None:
            return float(self.config.default_deadline_s)
        try:
            deadline_ms = float(raw)
        except (TypeError, ValueError):
            raise InputValidationError(
                f"deadline_ms must be a number, got {raw!r}"
            ) from None
        if deadline_ms <= 0:
            raise InputValidationError("deadline_ms must be > 0")
        return deadline_ms / 1000.0

    def _explain(self, body, ctx: dict) -> tuple[dict, dict]:
        if not isinstance(body, dict):
            raise InputValidationError("request body must be a JSON object")
        name = body.get("model")
        if not isinstance(name, str) or not name:
            raise InputValidationError("request must name a 'model'")
        endpoint = self.registry.get(name)
        ctx["endpoint"] = endpoint.name
        if "instance" not in body:
            raise InputValidationError("request must carry an 'instance'")
        x = endpoint.validate_instance(body["instance"])
        pinned = body.get("model_version")
        if pinned is not None:
            if not isinstance(pinned, str) or not pinned:
                raise InputValidationError(
                    "model_version must be a non-empty string"
                )
            if pinned != endpoint.version:
                # The pin names a version this endpoint is not serving:
                # a typed 404 that lists the registry's versions beats
                # silently answering from the wrong model.
                raise ModelNotFoundError(
                    name, pinned, available=self._available_versions(endpoint)
                )
        deadline_s = self._deadline_s(body)
        ctx["deadline_ms"] = deadline_s * 1000.0
        breaker = self.breaker(endpoint.name)
        breaker.peek()
        with request_envelope(deadline_s) as envelope:
            tier, overrides, tier_meta = self.ladder.choose(
                body.get("tier"),
                endpoint.available_tiers,
                self.admission.queue_fraction(),
            )
            ctx["tier"] = tier
            ctx["degraded"] = tier_meta["degraded"]
            params = endpoint.effective_params(
                tier, body.get("params"), overrides
            )
            version = endpoint.version
            key = request_key(endpoint.name, version, x, tier, params)
            payload = self.cache.get(key)
            if payload is not None:
                ctx["cache"] = "hit"
            else:
                payload = self._compute(
                    endpoint, breaker, key, tier, params, x, envelope, ctx
                )
            meta = dict(tier_meta)
            meta["model"] = endpoint.name
            meta["model_version"] = version
            meta["cache"] = ctx["cache"]
            meta["params"] = params
            remaining = envelope.remaining_s()
            if remaining is not None:
                meta["deadline_remaining_ms"] = round(remaining * 1000.0, 1)
            return payload, meta

    def _compute(self, endpoint, breaker, key, tier, params, x,
                 envelope, ctx) -> dict:
        """Leader/waiter split around one coalesced computation."""
        if not self.config.coalesce_enabled:
            return self._run(endpoint, breaker, key, tier, params, x,
                             envelope, ctx)
        flight, leader = self.coalescer.join(key)
        if not leader:
            ctx["cache"] = "coalesced"
            return flight.wait(envelope.remaining_s() or 0.0)
        try:
            payload = self._run(endpoint, breaker, key, tier, params, x,
                                envelope, ctx)
            flight.resolve(payload)
            return payload
        except BaseException as exc:
            flight.fail(exc)
            raise
        finally:
            self.coalescer.finish(key, flight)

    def _run(self, endpoint, breaker, key, tier, params, x,
             envelope, ctx) -> dict:
        """Admission → breaker → compute → cache, under the envelope."""
        remaining = envelope.remaining_s()
        wait_s = (
            remaining if remaining is not None
            else float(self.config.default_deadline_s)
        )
        with self.admission.admit(wait_s):
            remaining = envelope.remaining_s()
            if remaining is not None and remaining <= 0:
                budget_s = float(ctx["deadline_ms"] or 0.0) / 1000.0
                raise BudgetExceededError(
                    "deadline exhausted in the admission queue",
                    kind="deadline",
                    spent=budget_s,
                    budget=budget_s,
                )
            breaker.allow()
            try:
                with metrics.observe_duration("serve.compute_ms"):
                    # The explainer's own guard scope composes with the
                    # ambient request envelope, so the compute deadline
                    # is the request's *remaining* time.
                    attribution = endpoint.explain(tier, params, x)
            except Exception as exc:
                breaker.record_failure(exc)
                raise
            breaker.record_success()
        payload = attribution_payload(attribution)
        self.cache.put(key, payload)
        return payload

    # -- introspection -----------------------------------------------------

    def stats(self) -> dict:
        """Live service state for ``/serve/stats`` and the tests."""
        snapshot = metrics.snapshot()

        def count(name: str) -> float:
            return snapshot.get(name, {}).get("value", 0)

        return {
            "models": {
                name: {
                    "version": self.registry.get(name).version,
                    "tiers": list(self.registry.get(name).available_tiers),
                    "breaker": self.breaker(name).state,
                }
                for name in self.registry.names()
            },
            "admission": {
                "max_inflight": self.admission.max_inflight,
                "queue_limit": self.admission.queue_limit,
                "inflight": self.admission.inflight,
                "waiting": self.admission.waiting,
            },
            "cache": {
                "entries": len(self.cache),
                "hits": count("serve.cache.hits"),
                "misses": count("serve.cache.misses"),
            },
            "coalesce": {
                "inflight": self.coalescer.inflight(),
                "leaders": count("serve.coalesce.leaders"),
                "waiters": count("serve.coalesce.waiters"),
            },
            "pressure": self.ladder.pressure(self.admission.queue_fraction()),
        }

    def healthz(self) -> dict:
        return {
            "status": "ok",
            "models": self.registry.names(),
            "breakers": {
                name: self.breaker(name).state
                for name in self.registry.names()
            },
            # What this process runs with: every REPRO_* setting's value
            # and source, and this server's resolved knobs.
            "config": {
                "settings": effective(),
                "serve": dataclasses.asdict(self.config),
            },
        }

    # -- HTTP --------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Serve on a daemon thread; returns the bound ``(host, port)``."""
        with self._http_lock:
            if self._http is None:
                handler = _make_handler(self)
                self._http = ThreadingHTTPServer(
                    (self.host, self.port), handler
                )
                self._http.daemon_threads = True
                threading.Thread(
                    target=self._http.serve_forever,
                    name="repro-serve",
                    daemon=True,
                ).start()
            address = self._http.server_address
            return str(address[0]), int(address[1])

    def stop(self) -> None:
        """Shut the HTTP front down (idempotent; in-process use keeps working)."""
        with self._http_lock:
            http, self._http = self._http, None
        if http is not None:
            http.shutdown()
            http.server_close()

    def address(self) -> tuple[str, int] | None:
        with self._http_lock:
            if self._http is None:
                return None
            address = self._http.server_address
            return str(address[0]), int(address[1])


def _make_handler(server: ExplainServer):
    """A handler class bound to one :class:`ExplainServer` instance."""

    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-serve"
        # StreamRequestHandler.setup() applies this to the connection,
        # so no read or write on the socket can block forever.
        timeout = server.config.socket_timeout_s

        def _send_json(self, status: int, body: dict,
                       headers: dict | None = None) -> None:
            payload = json.dumps(body, sort_keys=True).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            for key, value in (headers or {}).items():
                self.send_header(key, value)
            self.end_headers()
            self.wfile.write(payload)

        def _send_error(self, exc: BaseException) -> None:
            status, body, headers = error_envelope(exc)
            self._send_json(status, body, headers)

        def _read_body(self) -> dict:
            try:
                length = int(self.headers.get("Content-Length", "0"))
            except ValueError:
                raise InputValidationError(
                    "bad Content-Length header"
                ) from None
            if length <= 0:
                raise InputValidationError("request body is required")
            if length > MAX_BODY_BYTES:
                raise InputValidationError(
                    f"request body exceeds {MAX_BODY_BYTES} bytes"
                )
            raw = self.rfile.read(length)
            try:
                return json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                raise InputValidationError(
                    "request body is not valid JSON"
                ) from None

        def do_POST(self) -> None:  # noqa: N802 - http.server API
            try:
                route = self.path.rstrip("/")
                if route == "/explain":
                    body = self._read_body()
                    status, response, headers = server.handle_explain(body)
                    self._send_json(status, response, headers)
                elif route.startswith("/models/") and route.endswith(
                    "/version"
                ):
                    name = route[len("/models/"):-len("/version")]
                    body = self._read_body()
                    version = body.get("version")
                    if not isinstance(version, str) or not version:
                        raise InputValidationError(
                            "body must carry a non-empty 'version' string"
                        )
                    new_version = server.set_model_version(name, version)
                    self._send_json(
                        200, {"model": name, "version": new_version}
                    )
                else:
                    raise UnknownEndpointError(f"no such route {route!r}")
            except Exception as exc:  # every failure is an envelope
                metrics.counter("serve.http.errors").inc()
                try:
                    self._send_error(exc)
                except Exception:
                    metrics.counter("serve.http.errors").inc()

        def do_GET(self) -> None:  # noqa: N802 - http.server API
            try:
                route = self.path.rstrip("/")
                if route == "/healthz":
                    self._send_json(200, server.healthz())
                elif route == "/serve/stats":
                    self._send_json(200, server.stats())
                else:
                    raise UnknownEndpointError(f"no such route {route!r}")
            except Exception as exc:
                metrics.counter("serve.http.errors").inc()
                try:
                    self._send_error(exc)
                except Exception:
                    metrics.counter("serve.http.errors").inc()

        def log_message(self, fmt, *args) -> None:  # noqa: D102
            pass  # request logging lives in the run ledger, not stderr

    return Handler
