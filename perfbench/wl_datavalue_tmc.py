"""datavalue_tmc: Data Shapley by truncated Monte Carlo.

Each op values 98 training points with ``tmc_shapley`` over a fresh
``UtilityFunction(LogisticRegression)`` (so the utility memo starts
empty), 20 permutations, default truncation. The data set is the same
for every seed, because how soon walks truncate depends on the data
and would otherwise change the work per op several-fold; the seed
picks each op's permutation seed. This is the only workload where the
model layer fits rather than predicts, and where the games layer walks
a ``DataValueGame``.
"""

from __future__ import annotations

import numpy as np
from repro.datasets import make_classification
from repro.datavalue import UtilityFunction, tmc_shapley
from repro.models import LogisticRegression

from common import (closed_loop, delta, layer_metrics, peak_rss_mb,
                    program_counters, result, timed_setup)
from spans import subset

N_POINTS = 140
N_TRAIN = 98
DATA_SEED = 1
N_PERMUTATIONS = 20
TRUNCATION_TOL = 0.01   # tmc_shapley's default, restated for the check
WARMUP_OPS = 2
SETUP_REPEATS = 21      # one set-up takes milliseconds


def build():
    data = make_classification(N_POINTS, n_features=4, class_sep=1.0,
                               seed=DATA_SEED)
    split = (data.X[:N_TRAIN], data.y[:N_TRAIN],
             data.X[N_TRAIN:], data.y[N_TRAIN:])
    utility = UtilityFunction(LogisticRegression, *split)
    # U(D) and U(empty set), the efficiency target every op is checked on.
    target = utility.full_score() - utility.empty_score
    return split, target


def run(ctx) -> dict:
    setup = timed_setup(build, SETUP_REPEATS)
    split, target = setup[0]
    base = 1_000_003 * ctx.seed
    warmup_seeds = [base - 1 - i for i in range(WARMUP_OPS)]
    op_seeds = [base + i for i in range(ctx.n_ops)]
    fits = []

    def value(seed):
        utility = UtilityFunction(LogisticRegression, *split)
        out = tmc_shapley(utility, n_permutations=N_PERMUTATIONS,
                          truncation_tolerance=TRUNCATION_TOL, seed=seed)
        fits.append(utility.n_evaluations)
        return out

    for seed in warmup_seeds:
        value(seed)
    fits.clear()

    before = program_counters()
    ctx.log.active = ctx.trace
    latencies, outputs, errors = closed_loop(op_seeds, value, ctx.log)
    ctx.log.active = False
    work = delta(before, program_counters())

    reasons = dict(errors)
    ok = []
    for i, att in enumerate(outputs):
        if att is None:
            ok.append(False)
            continue
        gap = abs(float(np.sum(att.values)) - target)
        good = bool(np.all(np.isfinite(att.values))) and gap <= TRUNCATION_TOL
        if not good:
            reasons[i] = f"efficiency gap {gap:.3g} > {TRUNCATION_TOL}"
        ok.append(good)

    truncation = [a.meta["mean_truncation_position"]
                  for a in outputs if a is not None]
    work.update({"ops": len(op_seeds), "utility_fits": sum(fits)})
    extra = {
        "utility_fits": sum(fits),
        "truncation_position_mean":
            float(np.mean(truncation)) if truncation else 0.0,
    }
    layer = None
    if ctx.trace:
        layer = layer_metrics(subset(ctx.log.spans, range(len(op_seeds))),
                              work, extra)
    return result(
        ok=ok, reasons=reasons, latencies=latencies, unit_per_op=1,
        setup=setup, work=work, rss_mb=peak_rss_mb(), layer=layer,
        extra=extra,
    )
