"""Shared helpers for the experiment benchmarks (E1–E36).

Each ``bench_eNN_*.py`` regenerates one experiment from DESIGN.md's index:
it prints the table/series the claim is about (visible with ``-s``; also
persisted under ``benchmarks/results/``) and asserts the claim's *shape*,
so the suite doubles as a regression harness for the headline results.
The ``benchmark`` fixture times the experiment's representative kernel.

Telemetry: every call to :func:`emit` now writes, atomically,

* ``results/<experiment>.txt`` — the human table, headed by the
  experiment id and an ISO timestamp;
* ``results/<experiment>.json`` — the same lines plus optional
  structured ``data`` rows, the test's wall time, the model-eval
  counters it spent (``repro.obs`` meter deltas) and per-explainer span
  aggregates;
* ``BENCH_summary.json`` at the repository root — the rolling perf
  trajectory mapping experiment id → latest entry, stamped with
  ``git_sha``/``schema_version`` and carrying p50/p95/p99 explain
  latency from the quantile histograms (the ``p95_ms`` the
  ``scripts/bench_compare.py`` guard compares).
"""

from __future__ import annotations

import os
import time

import pytest

from repro import obs

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
BENCH_SUMMARY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_summary.json",
)

# Per-test observation window, maintained by the autouse fixture below so
# emit() can report wall time and eval-counter deltas without any changes
# to the individual benchmark modules.
_WINDOW: dict = {}


def _counter_values() -> dict[str, int]:
    return {
        "model_calls": obs.counter("model.calls").value,
        "model_rows": obs.counter("model.rows").value,
        "robust_retries": obs.counter("robust.retries").value,
        "robust_rows_failed": obs.counter("robust.rows_failed").value,
        "robust_budget_exhausted": obs.counter("robust.budget_exhausted").value,
        # Cache counters include worker-side deltas merged by the exec
        # backends — visible proof in BENCH_summary.json that sharded
        # runs still account their cache traffic to the parent.
        "coalition_cache_hits": obs.counter("coalition.cache.hits").value,
        "coalition_cache_misses": obs.counter("coalition.cache.misses").value,
        "datavalue_cache_hits": obs.counter("datavalue.cache.hits").value,
        "datavalue_cache_misses": obs.counter("datavalue.cache.misses").value,
    }


@pytest.fixture(autouse=True)
def _obs_window():
    _WINDOW["t0"] = time.perf_counter()
    _WINDOW["counters"] = _counter_values()
    _WINDOW["span_mark"] = obs.get_tracer().mark()
    _WINDOW["histograms"] = obs.histogram_states()
    yield
    _WINDOW.clear()


# Explain-call latency histograms folded into each experiment's summary
# entry as p50/p95/p99 (what scripts/bench_compare.py guards as p95_ms).
_LATENCY_HISTOGRAMS = ("explain.wall_ms", "explain_batch.wall_ms")


def _latency_quantiles(before: dict) -> dict | None:
    """p50/p95/p99 (ms) of this test's explain calls, or None if none ran."""
    deltas = obs.histogram_deltas(before)
    window = obs.Histogram("window.explain_ms")
    for name in _LATENCY_HISTOGRAMS:
        if name in deltas:
            window.merge_state(deltas[name])
    if window.count == 0:
        return None
    return {
        "count": window.count,
        "p50_ms": round(window.p50, 3),
        "p95_ms": round(window.p95, 3),
        "p99_ms": round(window.p99, 3),
    }


def emit(experiment: str, lines: list[str], data=None, summary=None) -> None:
    """Print a result table and persist it under benchmarks/results/.

    ``data`` optionally carries the structured rows behind the formatted
    table (any JSON-serializable value); it lands verbatim in the
    experiment's ``.json`` record. ``summary`` optionally adds flat
    headline numbers (e.g. speedup ratios) to the experiment's
    ``BENCH_summary.json`` entry; a benchmark asserts its own floors
    on them.
    """
    banner = f"==== {experiment} ===="
    print()
    print(banner)
    for line in lines:
        print(line)

    wall_s = None
    counters: dict[str, int] = {}
    spans: list[dict] = []
    latency = None
    if _WINDOW:
        wall_s = time.perf_counter() - _WINDOW["t0"]
        before = _WINDOW["counters"]
        counters = {
            key: value - before.get(key, 0)
            for key, value in _counter_values().items()
        }
        spans = obs.summary_dict(
            obs.get_tracer().spans_since(_WINDOW["span_mark"])
        )
        latency = _latency_quantiles(_WINDOW["histograms"])
    timestamp = obs.bench.utc_timestamp()
    json_path = obs.bench.write_benchmark_result(
        RESULTS_DIR,
        experiment,
        lines,
        data=data,
        wall_s=wall_s,
        counters=counters,
        spans=spans,
        timestamp=timestamp,
    )
    obs.bench.update_bench_summary(
        BENCH_SUMMARY,
        experiment,
        {
            "timestamp": timestamp,
            "wall_s": None if wall_s is None else round(wall_s, 6),
            **counters,
            **(latency or {}),
            **(summary or {}),
            "result_json": os.path.relpath(
                json_path, os.path.dirname(BENCH_SUMMARY)
            ),
        },
    )


def fmt_row(*cells, width: int = 14) -> str:
    out = []
    for cell in cells:
        if isinstance(cell, float):
            out.append(f"{cell:>{width}.4g}")
        else:
            out.append(f"{str(cell):>{width}}")
    return " ".join(out)


@pytest.fixture(scope="session")
def loan_setup():
    """Shared loan data + models used by several experiments."""
    from repro.datasets import make_loan_dataset
    from repro.models import GradientBoostingClassifier, LogisticRegression

    data = make_loan_dataset(600, seed=7)
    logistic = LogisticRegression(alpha=1.0).fit(data.X, data.y)
    gbm = GradientBoostingClassifier(
        n_estimators=25, max_depth=3, seed=0
    ).fit(data.X, data.y)
    return data, logistic, gbm
