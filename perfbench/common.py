"""Pieces every workload process shares: set-up timing, the program's own
counters, peak memory, the single-caller closed loop and the result
record. Imported only inside a worker process, after the orchestrator
fixed the environment (thread counts, hash seed, no ``REPRO_*``)."""

from __future__ import annotations

import gc
import resource
import statistics
import time

from layers import LAYERS
from spans import END, NAME, PARENT, ROWS, START, layer_table, self_times
from stats import Outcomes, percentile, tail_percentile

# The program's own counters that make up a run's work fingerprint.
WORK_COUNTERS = (
    "model.calls",
    "model.rows",
    "coalition.cache.hits",
    "coalition.cache.misses",
    "coalition.plan.built",
    "coalition.plan.reused",
    "coalition.plan.fallbacks",
    "datavalue.cache.hits",
    "datavalue.cache.misses",
    "games.walks",
    "robust.retries",
    "robust.rows_failed",
    "robust.chunk_retries",
    "serve.cache.hits",
    "serve.cache.misses",
    "serve.cache.evictions",
    "serve.coalesce.leaders",
    "serve.coalesce.waiters",
    "serve.shed.degraded",
    "serve.admitted",
    "serve.http.errors",
    "db.index.hits",
    "db.index.misses",
    "db.index.builds",
    "db.index.maintained",
    "db.index.invalidations",
    "db.index.tombstones",
    "obs.internal_errors",
)


def timed_setup(build, repeats: int, release=None):
    """Run ``build()`` ``repeats`` times from scratch; return the last
    result, the median time and every sample. One construction of a
    few milliseconds does not hold within a tenth on a shared host, the
    median of several does. ``release(built)``, untimed, shuts down a
    construction that garbage collection alone would not free (a
    running server) before the next one starts."""
    samples = []
    built = None
    for _ in range(repeats):
        if built is not None and release is not None:
            release(built)
        built = None
        gc.collect()
        t0 = time.perf_counter()
        built = build()
        samples.append(time.perf_counter() - t0)
    return built, statistics.median(samples), samples


def program_counters() -> dict:
    """The program's counters plus its span and ledger totals."""
    from repro import obs
    from repro.obs.ledger import get_ledger

    snap = obs.snapshot()
    out = {name: int(snap.get(name, {}).get("value", 0))
           for name in WORK_COUNTERS}
    tracer = obs.get_tracer()
    out["obs.spans.recorded"] = tracer.mark()
    out["obs.spans.dropped"] = int(tracer.dropped)
    out["obs.ledger.rows"] = int(get_ledger().recorded)
    return out


def delta(before: dict, after: dict) -> dict:
    return {k: after[k] - before.get(k, 0) for k in after}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def closed_loop(ops, run_op, log, after=None):
    """One caller issuing ``ops`` back to back.

    ``run_op(op)`` returns the op's output; its wall time is taken
    around that call only, so the benchmark's own bookkeeping between
    ops stays out of the timed phase. Returns per-op latencies, the
    outputs (``None`` where the op raised) and error texts. With
    ``after(i, op, output)`` (a check or shadow update run between ops)
    the outputs are handed to it instead of kept.
    """
    latencies = []
    outputs = []
    errors = {}
    clock = time.perf_counter
    gc.collect()
    for i, op in enumerate(ops):
        with log.op(i):
            t0 = clock()
            try:
                out = run_op(op)
            except Exception as exc:  # counted as a failed op
                out = None
                errors[i] = f"{type(exc).__name__}: {exc}"
            latencies.append(clock() - t0)
        if after is not None:
            after(i, op, out)
        else:
            outputs.append(out)
    return latencies, outputs, errors


def result(*, ok, reasons, latencies, unit_per_op, setup, work, rss_mb,
           layer=None, extra=None) -> dict:
    """The record a worker hands back to the orchestrator: per-op
    latencies and check outcomes, from which ``stats.end_to_end``
    computes the metrics, plus set-up, memory and counts."""
    outcomes = Outcomes()
    for i, good in enumerate(ok):
        outcomes.record(good, reasons.get(i))
    return {
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "reasons": outcomes.reasons,
        "latencies_s": list(latencies),
        "ok": list(ok),
        "unit_per_op": unit_per_op,
        "setup_s": setup[1],
        "setup_samples_s": setup[2],
        "peak_rss_mb": rss_mb,
        "work": work,
        "layer": layer,
        "extra": extra or {},
    }


# -- per-layer metrics of a traced run ------------------------------------


def _ms(spans, name):
    return [(s[END] - s[START]) * 1e3 for s in spans if s[NAME] == name]


def _mean_us(spans, names):
    times = [(s[END] - s[START]) * 1e6 for s in spans if s[NAME] in names]
    return (sum(times) / len(times), len(times)) if times else (0.0, 0)


def _ratio(hits, misses):
    total = hits + misses
    return hits / total if total else 0.0


def layer_metrics(spans, work: dict, extra: dict | None = None) -> dict:
    """Every per-layer metric from one traced run's spans and counts.

    ``spans`` are self-contained (see :func:`spans.subset`), rooted at
    the timed ops. Metrics of layers a workload does not reach are 0.
    """
    extra = extra or {}
    table = layer_table(spans, LAYERS)
    own = {}
    for s, t in zip(spans, self_times(spans)):
        if s[PARENT] >= 0:
            own[s[NAME]] = own.get(s[NAME], 0.0) + t
    predict = [s for s in spans if s[NAME] == "models.predict"]
    predict_busy = sum(s[END] - s[START] for s in predict)
    predict_rows = sum(s[ROWS] or 0 for s in predict)
    fits = _ms(spans, "models.fit")
    compute = _ms(spans, "serve.compute")
    read_us, read_calls = _mean_us(spans, {"db.read"})
    select_us, select_calls = _mean_us(spans, {"db.select"})
    write_us, write_calls = _mean_us(spans, {"db.write"})
    out = {
        "models.predict.calls": len(predict),
        "models.predict.rows": predict_rows,
        "models.predict.busy_s": predict_busy,
        "models.predict.us_per_row":
            predict_busy / predict_rows * 1e6 if predict_rows else 0.0,
        "models.fit.calls": len(fits),
        "models.fit.busy_s": sum(fits) / 1e3,
        "models.fit.ms_per_call": sum(fits) / len(fits) if fits else 0.0,
        "core.coalition.self_s": own.get("core.batch_value_matrix", 0.0)
            + own.get("core.masking_value", 0.0),
        "core.coalition.cache_hit_ratio": _ratio(
            work["coalition.cache.hits"], work["coalition.cache.misses"]),
        "core.plan.built": work["coalition.plan.built"],
        "core.plan.reused": work["coalition.plan.reused"],
        "core.plan.fallbacks": work["coalition.plan.fallbacks"],
        "games.estimator.self_s": own.get("games.estimator", 0.0),
        "games.value.calls": sum(
            1 for s in spans
            if s[NAME] in ("core.masking_value", "games.value")),
        "games.truncation_position_mean":
            extra.get("truncation_position_mean", 0.0),
        "datavalue.utility.calls": sum(
            1 for s in spans if s[NAME] == "datavalue.utility"),
        "datavalue.utility.fits": extra.get("utility_fits", 0),
        "datavalue.utility.cache_hit_ratio": _ratio(
            work["datavalue.cache.hits"], work["datavalue.cache.misses"]),
        "datavalue.utility.self_s": own.get("datavalue.utility", 0.0),
        "serve.server_ms.p50": _p50(_ms(spans, "serve.handle_explain")),
        "serve.http_ms.p50": extra.get("http_ms_p50", 0.0),
        "serve.compute_ms.p50": _p50(compute),
        "serve.compute_ms.tail":
            percentile(compute, tail_percentile(len(compute)))
            if len(compute) > 20 else 0.0,
        "serve.cache.hit_ratio": _ratio(
            work["serve.cache.hits"], work["serve.cache.misses"]),
        "serve.cache.evictions": work["serve.cache.evictions"],
        "serve.coalesced": work["serve.coalesce.waiters"],
        "serve.degraded": work["serve.shed.degraded"],
        "serve.admission.wait_ms.tail":
            extra.get("admission_wait_ms_tail", 0.0),
        "db.read.calls": read_calls,
        "db.read.us_per_op": read_us,
        "db.select.us_per_op": select_us,
        "db.write.calls": write_calls,
        "db.write.us_per_op": write_us,
        "db.index.compactions": extra.get("compactions", 0),
        "db.index.tombstones": work["db.index.tombstones"],
        "db.fragmentation": extra.get("fragmentation", 0.0),
        "obs.spans.recorded": work["obs.spans.recorded"],
        "obs.spans.dropped": work["obs.spans.dropped"],
        "obs.ledger.rows": work["obs.ledger.rows"],
        "obs.internal_errors": work["obs.internal_errors"],
        "robust.retries": work["robust.retries"],
        "robust.rows_failed": work["robust.rows_failed"],
        "layer.op_wall_s": table["op_wall_s"],
    }
    for layer in (*LAYERS, "unattributed"):
        out[f"layer.{layer}.self_s"] = table[layer]["self_s"]
        out[f"layer.{layer}.share"] = table[layer]["share"]
    return out


def _p50(values):
    return percentile(values, 50) if values else 0.0

