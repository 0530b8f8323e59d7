"""Every ``REPRO_*`` setting: one table, one reader, one parsing rule.

:data:`SETTINGS` has one row per environment variable: its type, default,
inclusive range or choices, a one-line doc, and the CLI flag or
:class:`repro.serve.ServeConfig` field it backs. :func:`setting` is the
only reader of ``os.environ`` in the package: it returns the caller's
explicit value if given, else the environment's, else the default
(``None`` means unset, and the consumer's documented fallback applies).

The rule: values are stripped, and an empty one is unset; booleans
accept ``1/0/true/false/on/off/yes/no`` in any case; numbers must parse
(NaN does not) and lie in the row's range; choices must match in any
case. Anything else raises :class:`~repro.robust.InputValidationError`
naming the variable, the value and the accepted form. Explicit values
are not parsed: each consumer keeps its own rules for them.

Reads happen at call time, because tests flip variables with
``monkeypatch.setenv``, the CLI writes its flags into the environment
after import, and spawn workers inherit it. ``REPRO_OBS``,
``REPRO_TRACE_SAMPLE`` and ``REPRO_METRICS_PORT`` are the exceptions:
:mod:`repro.obs` reads them once, at import. Each distinct raw string is
parsed once, so a read costs one ``os.environ.get`` and one dict lookup.
Nothing from ``repro`` is imported at module level, because
:mod:`repro.obs` reads this module while ``repro`` is still importing.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

__all__ = ["Setting", "SETTINGS", "setting", "effective"]

_BOOLS = {"1": True, "0": False, "true": True, "false": False,
          "on": True, "off": False, "yes": True, "no": False}
_NOUNS = {int: "an integer", float: "a number", str: "a string"}


@dataclass(frozen=True)
class Setting:
    """One ``REPRO_*`` variable."""

    name: str
    type: type                   # bool, int, float or str
    default: object
    doc: str
    range: tuple | None = None   # inclusive (lo, hi); hi=None is open
    choices: tuple = ()
    flag: str | None = None      # CLI flag that sets or overrides it
    field: str | None = None     # ServeConfig field it backs

    def accepts(self) -> str:
        """The accepted form, in words."""
        if self.type is bool:
            return "one of " + "/".join(_BOOLS)
        if self.choices:
            return "one of " + "|".join(self.choices)
        noun = _NOUNS[self.type]
        if self.range is None:
            return noun
        lo, hi = self.range
        return f"{noun} >= {lo}" if hi is None else f"{noun} in [{lo}, {hi}]"

    def parse(self, raw: str | None):
        """The typed value of a raw environment string (``None``: unset)."""
        text = (raw or "").strip()
        if not text:
            return self.default
        if self.type is bool:
            value = _BOOLS.get(text.lower())
        elif self.choices:
            value = text.lower() if text.lower() in self.choices else None
        elif self.type is str:
            value = text
        else:
            try:
                value = self.type(text)
            except ValueError:
                value = None
            lo, hi = self.range or (-math.inf, None)
            # NaN fails the comparison, so it is rejected with the rest.
            if value is not None and not (
                lo <= value and (hi is None or value <= hi)
            ):
                value = None
        if value is None:
            # Deferred: repro.robust imports repro.obs, which reads this
            # module at import time.
            from .robust.errors import InputValidationError

            raise InputValidationError(
                f"{self.name}={raw!r} is not valid: expected "
                f"{self.accepts()} — {self.doc}"
            )
        return value


_ROWS = (
    Setting("REPRO_MAX_BATCH_ROWS", int, 65_536, range=(1, None),
            doc="rows per model call before coalition evaluation chunks"),
    Setting("REPRO_COALITION_CACHE", bool, True, flag="--no-coalition-cache",
            doc="coalition-value caches of the games evaluator and "
                "coalition engine; off disables every one"),
    Setting("REPRO_BATCH_PLAN", bool, True,
            "shared-coalition-plan path of explain_batch; off runs the "
            "per-row loop (same bits)"),
    Setting("REPRO_PRECOMPUTE", bool, True,
            "cached TreeSHAP precompute and fused batch kernel; off runs "
            "the per-instance recursion"),
    Setting("REPRO_RETRIES", int, 2, flag="--retries",
            doc="retries per model call after a transient failure"),
    Setting("REPRO_BACKOFF", float, 0.05, flag="--backoff",
            doc="base retry backoff in seconds, doubled per attempt "
                "(cap 2 s)"),
    Setting("REPRO_DEADLINE_S", float, None, flag="--deadline-s",
            doc="wall-clock deadline per explanation in seconds; unset or "
                "<= 0 is none"),
    Setting("REPRO_QUERY_BUDGET", int, None, flag="--query-budget",
            doc="model-query budget per explanation in rows; unset or "
                "<= 0 is none"),
    Setting("REPRO_BACKEND", str, "serial", flag="--backend",
            choices=("serial", "thread", "process", "spawn"),
            doc="execution backend for estimators and explain_batch "
                "(bitwise-identical outputs)"),
    Setting("REPRO_N_PROCS", int, None, flag="--n-procs",
            doc="workers for the thread/process/spawn backends; unset or "
                "-1 is every core"),
    Setting("REPRO_DB_INDEX", bool, True,
            "every db index path; off degrades plans to filter scans and "
            "naive joins (same answers)"),
    Setting("REPRO_DB_INTERVAL_MAX_OCC", int, None,
            "occurrence cap of the interval-encoded provenance index (past "
            "it: IntervalBlowupError, naive walks); unset is "
            "max(8 x nodes, 1024)"),
    Setting("REPRO_CACHE_SNAPSHOT", str, None,
            "coalition-cache snapshot file that pre-warms new value caches "
            "(scope-token guarded)"),
    Setting("REPRO_REGISTRY_DIR", str, ".repro_registry",
            flag="registry --dir",
            doc="artifact registry root (objects and manifest)"),
    Setting("REPRO_OBS", bool, True,
            "spans and counters; off makes them no-ops (read at import)"),
    Setting("REPRO_TRACE_SAMPLE", float, 1.0,
            "trace keep-rate in [0, 1] over root spans; metrics see every "
            "event (read at import)"),
    Setting("REPRO_METRICS_PORT", int, None, range=(0, 65_535),
            flag="metrics --port",
            doc="port of the /metrics, /health and /ledger/tail endpoint; "
                "when set, it starts at import (0 = OS-assigned)"),
    Setting("REPRO_LEDGER", str, None,
            "JSONL file the run ledger appends every explanation to"),
    Setting("REPRO_SERVE_PORT", int, 0, range=(0, 65_535),
            flag="serve --port",
            doc="listen port of `repro serve` (0 = OS-assigned)"),
    Setting("REPRO_SERVE_MAX_INFLIGHT", int, 4, range=(1, None),
            field="max_inflight", doc="concurrent explanations computing"),
    Setting("REPRO_SERVE_QUEUE_LIMIT", int, 16, range=(0, None),
            field="queue_limit",
            doc="bounded waiters beyond those; the next request gets 429"),
    Setting("REPRO_SERVE_DEADLINE_S", float, 10.0, field="default_deadline_s",
            doc="per-request deadline when the body sends none (> 0)"),
    Setting("REPRO_SERVE_CACHE_SIZE", int, 512, field="cache_size",
            doc="warm-cache entries (0 disables)"),
    Setting("REPRO_SERVE_CACHE_TTL_S", float, 300.0, field="cache_ttl_s",
            doc="warm-cache entry freshness backstop in seconds"),
    Setting("REPRO_SERVE_COALESCE", bool, True, field="coalesce_enabled",
            doc="single-flight coalescing of identical requests"),
    Setting("REPRO_SERVE_BREAKER_THRESHOLD", int, 5,
            field="breaker_threshold",
            doc="consecutive model failures that open a circuit breaker"),
    Setting("REPRO_SERVE_BREAKER_COOLDOWN_S", float, 5.0,
            field="breaker_cooldown_s",
            doc="open time before the single half-open probe"),
    Setting("REPRO_SERVE_LADDER", bool, True, field="ladder_enabled",
            doc="degradation ladder; off always honors the requested tier"),
    Setting("REPRO_SERVE_DEGRADE_AT", float, 0.5, field="degrade_pressure",
            doc="pressure above which the service downgrades one tier "
                "(0 < it <= shed)"),
    Setting("REPRO_SERVE_SHED_AT", float, 0.85, field="shed_pressure",
            doc="pressure above which only the cheapest tier is served"),
    Setting("REPRO_SERVE_SOCKET_TIMEOUT_S", float, 30.0,
            field="socket_timeout_s",
            doc="per-connection socket timeout in seconds"),
)

SETTINGS: dict[str, Setting] = {row.name: row for row in _ROWS}

# (name, raw string or None) -> parsed value. A failed parse is not
# stored, so a bad value raises on every read.
_parsed: dict = {}


def setting(name: str, value=None):
    """``value`` if not ``None``, else ``name`` from the environment,
    else its default."""
    if value is not None:
        return value
    raw = os.environ.get(name)
    try:
        return _parsed[name, raw]
    except KeyError:
        parsed = _parsed[name, raw] = SETTINGS[name].parse(raw)
        return parsed


def effective() -> dict:
    """Every row's value now in force, with its source (``env`` or
    ``default``)."""
    return {
        name: {"value": setting(name),
               "source": "env" if (os.environ.get(name) or "").strip()
               else "default"}
        for name in SETTINGS
    }
