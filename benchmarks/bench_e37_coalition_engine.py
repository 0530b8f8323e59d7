"""E37 — Vectorized coalition engine vs the legacy evaluation path.

Claim: at an equal coalition budget, broadcast masking + packed-bit value
caching + chunked batching make coalition-based explainers ≥2× faster
than the historical per-coalition loop, without changing a single output
bit. The cache is the big lever for permutation sampling: every walk
re-evaluates ∅ and N, and antithetic pairs plus short prefixes collide
constantly at tabular feature counts, so most v(S) queries become
dictionary lookups instead of model evaluations.
"""

import time

import numpy as np

from repro import obs
from repro.core import CoalitionEngine, as_predict_fn
from repro.shapley import (
    KernelShapExplainer,
    SamplingShapleyExplainer,
    kernel_shap,
    permutation_shapley,
)

from conftest import emit, fmt_row

N_PERMUTATIONS = 100
KERNEL_BUDGET = 126


def _timed(run):
    """(result, wall seconds, rows evaluated) for one call."""
    rows_before = obs.counter("model.rows").value
    t0 = time.perf_counter()
    result = run()
    wall = time.perf_counter() - t0
    return result, wall, obs.counter("model.rows").value - rows_before


def test_e37_engine_speedup(loan_setup):
    data, __, gbm = loan_setup
    x = data.X[1]
    n = x.shape[0]
    # The legacy side: the pre-engine value function (loop expansion,
    # one unchunked call, no cache) over the explainers' own background
    # subsample, fed to the same estimators.
    legacy_v = CoalitionEngine(
        data.X, max_background=100
    ).legacy_value_function(as_predict_fn(gbm), x)

    phi_legacy, wall_legacy, rows_legacy = _timed(
        lambda: permutation_shapley(
            legacy_v, n, n_permutations=N_PERMUTATIONS, seed=3
        )[0]
    )
    engine = SamplingShapleyExplainer(
        gbm, data.X, n_permutations=N_PERMUTATIONS, max_background=100,
        seed=3,
    )
    hits_before = obs.counter("coalition.cache.hits").value
    misses_before = obs.counter("coalition.cache.misses").value
    att_engine, wall_engine, rows_engine = _timed(lambda: engine.explain(x))
    cache_hits = obs.counter("coalition.cache.hits").value - hits_before
    cache_misses = obs.counter("coalition.cache.misses").value - misses_before

    # Equal budget, identical numbers: the engine is a pure perf change.
    assert np.array_equal(att_engine.values, phi_legacy)
    speedup = wall_legacy / wall_engine

    # Kernel SHAP at full enumeration: coalitions are all distinct, so
    # this row isolates the broadcast-expansion win without cache help.
    k_phi_legacy, k_wall_legacy, k_rows_legacy = _timed(
        lambda: kernel_shap(legacy_v, n, n_samples=KERNEL_BUDGET, seed=3)[0]
    )
    k_engine = KernelShapExplainer(
        gbm, data.X, n_samples=KERNEL_BUDGET, max_background=100, seed=3
    )
    k_att_engine, k_wall_engine, k_rows_engine = _timed(
        lambda: k_engine.explain(x)
    )
    assert np.array_equal(k_att_engine.values, k_phi_legacy)
    k_speedup = k_wall_legacy / k_wall_engine

    rows = [
        fmt_row("explainer", "path", "wall s", "rows evald", "speedup"),
        fmt_row("sampling_shap", "legacy", wall_legacy, rows_legacy, 1.0),
        fmt_row("sampling_shap", "engine", wall_engine, rows_engine, speedup),
        fmt_row("kernel_shap", "legacy", k_wall_legacy, k_rows_legacy, 1.0),
        fmt_row("kernel_shap", "engine", k_wall_engine, k_rows_engine,
                k_speedup),
        fmt_row("cache", "hits", cache_hits, "misses", cache_misses),
    ]
    emit("E37_coalition_engine", rows, data={
        "n_permutations": N_PERMUTATIONS,
        "kernel_budget": KERNEL_BUDGET,
        "sampling": {
            "wall_s_legacy": wall_legacy,
            "wall_s_engine": wall_engine,
            "rows_legacy": int(rows_legacy),
            "rows_engine": int(rows_engine),
            "speedup": speedup,
        },
        "kernel": {
            "wall_s_legacy": k_wall_legacy,
            "wall_s_engine": k_wall_engine,
            "rows_legacy": int(k_rows_legacy),
            "rows_engine": int(k_rows_engine),
            "speedup": k_speedup,
        },
        "cache_hits": int(cache_hits),
        "cache_misses": int(cache_misses),
    })

    # The headline claim: ≥2× at equal budget, with the cache doing the
    # heavy lifting (most coalition evaluations become lookups).
    assert speedup >= 2.0
    assert cache_hits > cache_misses
    assert rows_engine < rows_legacy / 2
