"""E44 — Persist: round-trip cost, registry load latency, cache pre-warm.

Claim: serialization is cheap enough to sit on the serving path, and a
persisted coalition-cache snapshot turns a repeat explanation into pure
cache hits. Three headline numbers:

* **round-trip wall time** — ``loads(dumps(to_envelope(model)))`` for
  the fitted GBM, the equivalent-copy path every golden and registry
  artifact takes. Predictions of the copy are asserted bitwise equal.
* **registry load latency** — ``ArtifactRegistry.get`` end to end
  (manifest lookup, content-addressed object read, envelope decode);
  what a serve version bump pays before the endpoint swaps models.
* **pre-warm speedup** (floor: ≥2×, asserted after the table) —
  evaluating one instance's coalition mask set against a GBM, cold
  cache vs a cache pre-warmed from a ``REPRO_CACHE_SNAPSHOT`` file
  written by the previous run. The warm path answers from the snapshot
  (zero model rows), and its values are bitwise those of the cold run.
"""

import time

import numpy as np

from repro import obs
from repro.core.coalition_engine import CoalitionEngine
from repro.persist import ArtifactRegistry, dumps, loads, to_envelope
from repro.persist.snapshot import save_cache_snapshot, scope_token

from conftest import emit, fmt_row

N_MASKS = 220
N_BACKGROUND = 60
ROUNDTRIPS = 20
REGISTRY_LOADS = 20


def test_e44_persist(loan_setup, tmp_path):
    data, __, gbm = loan_setup

    # -- round-trip wall time --------------------------------------------
    envelope_text = dumps(to_envelope(gbm))
    t0 = time.perf_counter()
    for __ in range(ROUNDTRIPS):
        copy = loads(dumps(to_envelope(gbm)))
    roundtrip_ms = (time.perf_counter() - t0) / ROUNDTRIPS * 1e3
    assert np.array_equal(
        gbm.predict_proba(data.X[:64]), copy.predict_proba(data.X[:64])
    )

    # -- registry load latency -------------------------------------------
    store = ArtifactRegistry(str(tmp_path / "registry"))
    store.push("loan-gbm", gbm, version="v1")
    t0 = time.perf_counter()
    for __ in range(REGISTRY_LOADS):
        loaded = store.get("loan-gbm", "v1")
    registry_load_ms = (time.perf_counter() - t0) / REGISTRY_LOADS * 1e3
    assert np.array_equal(
        gbm.predict_proba(data.X[:64]), loaded.predict_proba(data.X[:64])
    )

    # -- cache pre-warm: cold run vs snapshot-warmed repeat --------------
    rng = np.random.default_rng(44)
    x = data.X[7]
    background = data.X[:N_BACKGROUND]
    masks = (rng.random((N_MASKS, x.shape[0])) < 0.5).astype(float)
    from repro.core.base import as_predict_fn

    model_fn = as_predict_fn(gbm)  # metered: model.rows counts the work

    engine = CoalitionEngine(background, max_background=N_BACKGROUND)
    rows_before = obs.counter("model.rows").value
    v_cold = engine.value_function(model_fn, x)
    t0 = time.perf_counter()
    cold_values = v_cold(masks)
    cold_s = time.perf_counter() - t0
    cold_rows = obs.counter("model.rows").value - rows_before

    snapshot_path = str(tmp_path / "cache_snapshot.json")
    save_cache_snapshot(
        snapshot_path, v_cold.cache, scope_token(x, engine.background)
    )

    import os

    os.environ["REPRO_CACHE_SNAPSHOT"] = snapshot_path
    try:
        prewarmed_before = obs.counter("persist.cache.prewarmed").value
        rows_before = obs.counter("model.rows").value
        v_warm = engine.value_function(model_fn, x)
        t0 = time.perf_counter()
        warm_values = v_warm(masks)
        warm_s = time.perf_counter() - t0
        warm_rows = obs.counter("model.rows").value - rows_before
        prewarmed = (
            obs.counter("persist.cache.prewarmed").value - prewarmed_before
        )
    finally:
        del os.environ["REPRO_CACHE_SNAPSHOT"]

    # The snapshot is a pure perf artifact: bitwise values, no model work.
    assert np.array_equal(cold_values, warm_values)
    assert prewarmed == len(v_cold.cache.values)
    assert warm_rows == 0
    prewarm_speedup = cold_s / warm_s

    rows = [
        fmt_row("path", "wall", "model rows", "note"),
        fmt_row("round-trip", f"{roundtrip_ms:.2f} ms", "-",
                f"{len(envelope_text)} bytes"),
        fmt_row("registry get", f"{registry_load_ms:.2f} ms", "-",
                "manifest+object"),
        fmt_row("cold masks", f"{cold_s * 1e3:.1f} ms", cold_rows,
                f"{N_MASKS} masks"),
        fmt_row("prewarmed", f"{warm_s * 1e3:.1f} ms", warm_rows,
                f"{prewarm_speedup:.0f}x"),
    ]
    emit(
        "E44_persist",
        rows,
        data={
            "n_masks": N_MASKS,
            "n_background": N_BACKGROUND,
            "envelope_bytes": len(envelope_text),
            "cold": {"wall_s": cold_s, "model_rows": int(cold_rows)},
            "warm": {"wall_s": warm_s, "model_rows": int(warm_rows)},
            "prewarmed_entries": int(prewarmed),
        },
        summary={
            "roundtrip_ms": roundtrip_ms,
            "registry_load_ms": registry_load_ms,
            "prewarm_speedup": prewarm_speedup,
        },
    )

    # The floor: a snapshot-warmed repeat at least 2x faster than the
    # cold run (in practice orders of magnitude: zero model rows).
    assert prewarm_speedup >= 2.0
