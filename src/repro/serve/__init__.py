"""``repro.serve``: a fault-contained explanation service.

ROADMAP item 1 made concrete: the explainers behind an HTTP front that
stays honest under overload. Built entirely on the repo's own layers —
:mod:`repro.robust` supplies the typed errors and the request-envelope
deadline accounting, :mod:`repro.obs` the ``serve.*`` telemetry — and
the stdlib's ``ThreadingHTTPServer``; no new dependencies.

The load-bearing pieces:

``admission``   bounded queue in front of a fixed compute budget;
                429 (queue full, fast-fail) / 503 (slot timeout)
``coalesce``    single-flight: identical in-flight requests share one
                computation and one outcome, typed errors included
``cache``       warm TTL+LRU explanation cache, invalidated on model
                version bumps
``ladder``      load-shedding degradation: exact → sampling →
                surrogate as pressure rises, declared in ``meta``
``breaker``     per-model circuit breaker fed by
                :class:`~repro.robust.ModelEvaluationError`
``protocol``    request keys, response payloads, the error envelope
                (no stack trace ever crosses the wire)
``server``      :class:`ExplainServer` — the composition, in-process
                and over HTTP/1.1: one thread per connection, kept
                alive across requests, each response in one write

Quickstart::

    server = ExplainServer(ServeConfig(max_inflight=4))
    server.add_endpoint("loan", model, background, feature_names)
    host, port = server.start()   # POST /explain, GET /healthz, ...

or from the shell: ``repro serve --port 8080``.
"""

from .breaker import CircuitBreaker
from .cache import ExplanationCache
from .coalesce import Coalescer, Flight
from .config import ServeConfig
from .endpoints import Endpoint, EndpointRegistry
from .errors import (
    AdmissionTimeoutError,
    BreakerOpenError,
    CoalesceAbandonedError,
    ModelNotFoundError,
    QueueFullError,
    ServeError,
    UnknownEndpointError,
)
from .admission import AdmissionController
from .ladder import TIERS, DegradationLadder
from .protocol import error_envelope, instance_hash, request_key, status_for
from .server import ExplainServer

__all__ = [
    "AdmissionController",
    "AdmissionTimeoutError",
    "BreakerOpenError",
    "CircuitBreaker",
    "Coalescer",
    "CoalesceAbandonedError",
    "DegradationLadder",
    "Endpoint",
    "EndpointRegistry",
    "ExplainServer",
    "ExplanationCache",
    "Flight",
    "ModelNotFoundError",
    "QueueFullError",
    "ServeConfig",
    "ServeError",
    "TIERS",
    "UnknownEndpointError",
    "error_envelope",
    "instance_hash",
    "request_key",
    "status_for",
]
