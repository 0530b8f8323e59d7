"""Service configuration: the resolved knobs of one explanation server.

The twelve ``None``-defaulted fields each back one ``REPRO_SERVE_*``
variable of :mod:`repro.config` (the table's ``field`` column), and
resolve at :class:`ServeConfig` construction: an explicit constructor
argument wins, else the environment, else the table's default. So
``repro serve`` deployments are tunable without code and the tests can
build tiny servers (1 slot, 2-entry cache) directly.

``degrade_pressure`` / ``shed_pressure`` are the two rungs of the
degradation ladder (:mod:`repro.serve.ladder`): below the first the
request's own explainer choice is honored, between them the service
downgrades one tier and trims sampling budgets, above the second it
serves the cheapest tier only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import SETTINGS, setting

__all__ = ["ServeConfig"]

# The table rows that back a field, in table order.
_FIELD_ROWS = tuple(row for row in SETTINGS.values() if row.field)


@dataclass
class ServeConfig:
    """Resolved service knobs (``None`` fields pull their env default)."""

    max_inflight: int | None = None
    queue_limit: int | None = None
    default_deadline_s: float | None = None
    cache_size: int | None = None
    cache_ttl_s: float | None = None
    coalesce_enabled: bool | None = None
    breaker_threshold: int | None = None
    breaker_cooldown_s: float | None = None
    ladder_enabled: bool | None = None
    degrade_pressure: float | None = None
    shed_pressure: float | None = None
    socket_timeout_s: float | None = None
    # Sampling-tier budget bounds the ladder scales within.
    sampling_permutations: int = 60
    min_sampling_permutations: int = 8
    # Exact enumeration is refused above this feature count regardless
    # of what the client asked for (2^n coalitions is not a request, it
    # is an outage).
    exact_max_features: int = 12
    retry_after_s: float = field(default=1.0)

    def __post_init__(self) -> None:
        for row in _FIELD_ROWS:
            explicit = getattr(self, row.field)
            setattr(self, row.field, setting(row.name, explicit))
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        if self.queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if self.default_deadline_s <= 0:
            raise ValueError("default_deadline_s must be > 0")
        if not 0.0 < self.degrade_pressure <= self.shed_pressure:
            raise ValueError(
                "need 0 < degrade_pressure <= shed_pressure, got "
                f"{self.degrade_pressure} / {self.shed_pressure}"
            )
