"""Summary statistics and outcome bookkeeping shared by every workload.

Stdlib only: the orchestrator imports this module before any worker
process exists, and the helper tests run without numpy.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

# Percentiles a tail metric may use, lowest first. A run reports the
# highest one that leaves at least MIN_BEYOND samples above it, so the
# tail of a short run is p75 or p90 and the tail of a long one p99 or
# beyond. The steps are decades: an intermediate p99.5 or p99.95 would
# rest on 10 to 20 samples, which on a shared host move with every
# descheduling of the process.
PERCENTILE_LADDER = (50, 75, 90, 99, 99.9, 99.99)
MIN_BEYOND = 10

_METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name: str) -> bool:
    """True when ``name`` starts with a letter or digit and is at most
    64 characters from ``[A-Za-z0-9_.-]``."""
    return isinstance(name, str) and _METRIC_NAME.fullmatch(name) is not None


def nearest_rank(q: float, n: int) -> int:
    """1-based rank of the ``q``-th percentile of ``n`` sorted samples.

    Exact rational arithmetic: ``0.9 * 100`` in floats is
    ``90.00000000000001``, which would push the rank one sample up.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile out of range: {q}")
    rank = math.ceil(Fraction(str(q)) * n / 100)
    return min(max(rank, 1), n)


def beyond(q: float, n: int) -> int:
    """Samples strictly above the ``q``-th percentile's rank."""
    return n - nearest_rank(q, n)


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> float:
    """Highest ladder percentile with at least ``min_beyond`` samples
    beyond it at ``n`` samples."""
    best = None
    for q in PERCENTILE_LADDER:
        if beyond(q, n) >= min_beyond:
            best = q
    if best is None:
        raise ValueError(
            f"{n} samples leave fewer than {min_beyond} beyond the median"
        )
    return best


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; ``inf`` entries sort last."""
    ordered = sorted(values)
    return ordered[nearest_rank(q, len(ordered)) - 1]


class Outcomes:
    """Attempted / succeeded accounting for one run.

    Every op the workload starts is attempted. It succeeds only if it
    completed *and* its output passed the check; a refused request, a
    raised error and a wrong answer all count as attempted and failed.
    """

    def __init__(self, keep_reasons: int = 20) -> None:
        self.attempted = 0
        self.succeeded = 0
        self.reasons: list[str] = []
        self._keep = keep_reasons

    def record(self, ok: bool, reason: str | None = None) -> None:
        self.attempted += 1
        if ok:
            self.succeeded += 1
        elif len(self.reasons) < self._keep:
            self.reasons.append(reason or "failed")

    @property
    def failed(self) -> int:
        return self.attempted - self.succeeded

    @property
    def success_rate(self) -> float:
        if self.attempted < 1:
            raise ValueError("no op was attempted")
        return self.succeeded / self.attempted


def latency_summary(latencies_s, ok_flags, tail_q: float) -> dict:
    """p50 and tail in ms; a failed op counts as infinitely slow, so it
    misses any latency limit instead of flattering the percentiles."""
    ms = [
        dt * 1000.0 if ok else math.inf
        for dt, ok in zip(latencies_s, ok_flags)
    ]
    return {
        "latency_p50_ms": percentile(ms, 50),
        "latency_tail_ms": percentile(ms, tail_q),
    }


def end_to_end(records, tail_q: float) -> tuple[dict, Outcomes]:
    """The end-to-end metrics, and the op outcomes, of one or more
    replicas that ran the same ops from the same state at the same
    time, one per CPU.

    An op's latency is the fastest of its copies and it succeeds only
    if every copy passed its check. A co-tenant slows one virtual CPU
    at a time, so the fastest copy is the program's own time; a slow op
    of the program's own is slow in every copy. Set-up time is the
    fastest replica's median, peak RSS the largest.
    """
    latencies = [min(copies) for copies in
                 zip(*(r["latencies_s"] for r in records))]
    ok = [all(copies) for copies in zip(*(r["ok"] for r in records))]
    outcomes = Outcomes()
    for good in ok:
        outcomes.record(good)
    units = records[0]["unit_per_op"] * outcomes.succeeded
    metrics = {
        "throughput_per_s": units / sum(latencies),
        **latency_summary(latencies, ok, tail_q),
        "setup_s": min(r["setup_s"] for r in records),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records),
        "success_rate": outcomes.success_rate,
    }
    return metrics, outcomes
