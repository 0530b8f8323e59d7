"""E39 — the games layer: one walk loop, shared caching and truncation.

Claim: routing Shapley-style computations through the shared
cooperative-game estimator (``repro.games``) is not just a refactor.
At an *equal permutation budget*, Data Shapley through
``permutation_estimator`` with truncation is ≥2× faster than the
pre-games untruncated walk loop, bit-identical when truncation is
disabled; and Shapley-of-tuples through the shared evaluator memoizes
repeated sub-databases in the packed-bit coalition cache, which the
pre-games value function re-evaluated from scratch.
"""

import time

import numpy as np

from repro import obs
from repro.datasets import make_classification
from repro.datavalue import UtilityFunction, tmc_shapley
from repro.db import Relation, shapley_of_tuples
from repro.models import LogisticRegression
from repro.models.model_selection import train_test_split
from tests.oracles import legacy_shapley_of_tuples, legacy_tmc_shapley

from conftest import emit, fmt_row


def make_utility(seed: int = 41) -> UtilityFunction:
    """A fresh utility per configuration, so memo caches cannot leak."""
    data = make_classification(140, n_features=4, class_sep=3.0, seed=seed)
    X_train, X_val, y_train, y_val = train_test_split(
        data.X, data.y, test_size=0.3, seed=0
    )
    return UtilityFunction(
        lambda: LogisticRegression(alpha=1.0), X_train, y_train, X_val, y_val
    )


def make_sales(n: int, seed: int = 0) -> Relation:
    rng = np.random.default_rng(seed)
    regions = ["east", "west", "north"]
    rows = [
        (regions[int(rng.integers(0, 3))], float(rng.exponential(50)))
        for __ in range(n)
    ]
    return Relation(["region", "amount"], rows, name="sales")


def skewed_total(rel: Relation) -> float:
    """Non-additive aggregate: second-largest + 0.1 · total."""
    amounts = sorted((t["amount"] for t in rel.to_dicts()), reverse=True)
    second = amounts[1] if len(amounts) > 1 else 0.0
    return second + 0.1 * sum(amounts)


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def test_e39_games_layer():
    n_perms = 30
    rows = [fmt_row("data shapley", "wall (s)", "utility evals",
                    "trunc pos", "speedup")]

    # Before: the pre-games loop, scanning every permutation to the end
    # (truncation_tolerance=0.0 never fires) — the equal-budget baseline.
    u_legacy = make_utility()
    legacy, t_legacy = _timed(lambda: legacy_tmc_shapley(
        u_legacy, n_permutations=n_perms, truncation_tolerance=0.0, seed=0,
    ))
    rows.append(fmt_row("legacy untrunc", t_legacy,
                        u_legacy.n_evaluations, float(u_legacy.n_points), 1.0))

    # Same budget through the shared estimator, truncation still off:
    # bitwise-identical values (the refactor changed nothing numeric).
    u_plain = make_utility()
    plain, t_plain = _timed(lambda: tmc_shapley(
        u_plain, n_permutations=n_perms, truncation_tolerance=0.0, seed=0,
    ))
    rows.append(fmt_row("games untrunc", t_plain, u_plain.n_evaluations,
                        float(u_plain.n_points), t_legacy / t_plain))
    assert np.array_equal(plain.values, legacy.values)

    # After: the games path at its default tolerance — the estimator's
    # truncation stops each walk once the running utility reaches the
    # full-data score, at the same permutation budget.
    u_games = make_utility()
    dv_hits0 = obs.counter("coalition.cache.hits").value
    dv_misses0 = obs.counter("coalition.cache.misses").value
    games, t_games = _timed(lambda: tmc_shapley(
        u_games, n_permutations=n_perms, seed=0,
    ))
    dv_hits = obs.counter("coalition.cache.hits").value - dv_hits0
    dv_misses = obs.counter("coalition.cache.misses").value - dv_misses0
    dv_rate = dv_hits / (dv_hits + dv_misses) if dv_hits + dv_misses else 0.0
    mean_pos = games.meta["mean_truncation_position"]
    speedup = t_legacy / t_games
    rows.append(fmt_row("games trunc", t_games, u_games.n_evaluations,
                        mean_pos, speedup))

    n_points = u_games.n_points
    trunc_savings = 1.0 - mean_pos / n_points
    # Within one estimate the coalition cache fronts the utility memo,
    # so repeats land there; the memo serves estimates that share a
    # utility (its process counters are datavalue.cache.hits/misses).
    memo = u_games.cache_hits + u_games.cache_misses
    memo_rate = u_games.cache_hits / memo if memo else 0.0
    rows.append("")
    rows.append(fmt_row("trunc savings", trunc_savings))
    rows.append(fmt_row("coalition rate", dv_rate))
    rows.append(fmt_row("memo hit rate", memo_rate))

    # Shapley of tuples: the same sampling walk, with and without the
    # shared evaluator's packed-bit coalition cache (10 endogenous
    # tuples, 400 walks → sub-databases repeat constantly).
    relation = make_sales(10, seed=10)
    uncached, t_uncached = _timed(lambda: legacy_shapley_of_tuples(
        relation, skewed_total, method="sampling",
        n_permutations=400, seed=0,
    ))
    hits0 = obs.counter("coalition.cache.hits").value
    misses0 = obs.counter("coalition.cache.misses").value
    cached, t_cached = _timed(lambda: shapley_of_tuples(
        relation, skewed_total, method="sampling",
        n_permutations=400, seed=0,
    ))
    hits = obs.counter("coalition.cache.hits").value - hits0
    misses = obs.counter("coalition.cache.misses").value - misses0
    hit_rate = hits / (hits + misses) if hits + misses else 0.0
    rows.append("")
    rows.append(fmt_row("tuple shapley", "wall (s)", "cache rate", "speedup"))
    rows.append(fmt_row("pre-games v(S)", t_uncached, "-", 1.0))
    rows.append(fmt_row("games engine", t_cached, hit_rate,
                        t_uncached / t_cached))

    emit("E39_games_layer", rows, data={
        "n_permutations": n_perms,
        "data_shapley": {
            "t_legacy_s": t_legacy,
            "t_games_untruncated_s": t_plain,
            "t_games_s": t_games,
            "speedup": speedup,
            "evals_legacy": u_legacy.n_evaluations,
            "evals_games": u_games.n_evaluations,
            "mean_truncation_position": mean_pos,
            "truncation_savings": trunc_savings,
            "coalition_cache_hit_rate": dv_rate,
            "utility_memo_hit_rate": memo_rate,
        },
        "tuple_shapley": {
            "t_uncached_s": t_uncached,
            "t_cached_s": t_cached,
            "speedup": t_uncached / t_cached,
            "coalition_cache_hit_rate": hit_rate,
        },
    })

    # The headline claims: identical values with the bespoke loops
    # deleted, ≥2× on Data Shapley at an equal permutation budget, and
    # the tuple walk actually exercising the shared cache.
    assert speedup >= 2.0
    assert trunc_savings > 0.25
    assert hits > 0 and hit_rate > 0.5
    scale = max(abs(v) for v in uncached.values())
    assert all(
        abs(uncached[i] - cached[i]) <= 1e-9 * scale for i in uncached
    )
