"""batch_gbm: offline explanation of loan applications.

Each op is ``SamplingShapleyExplainer(gbm).explain_batch`` on the next
``ROWS_PER_OP`` distinct loan rows, serial backend, one caller. The
model and explainer are the same for every seed (their size sets the
work per op); the seed picks the rows. Almost all of an op is the
GBM's ``predict_proba`` over the fused coalition grid, so this is the
workload a faster model predict path moves.
"""

from __future__ import annotations

import numpy as np
from repro import obs
from repro.datasets import make_loan_dataset
from repro.models import GradientBoostingClassifier
from repro.shapley import SamplingShapleyExplainer

from common import (closed_loop, delta, layer_metrics, peak_rss_mb,
                    program_counters, result, timed_setup)
from spans import subset

ROWS_PER_OP = 8
WARMUP_OPS = 2
SETUP_REPEATS = 9
N_TRAIN = 600
MODEL_SEED = 7
ADDITIVITY_TOL = 1e-9


def build():
    data = make_loan_dataset(N_TRAIN, seed=MODEL_SEED)
    gbm = GradientBoostingClassifier(
        n_estimators=25, max_depth=3, seed=0
    ).fit(data.X, data.y)
    explainer = SamplingShapleyExplainer(
        gbm, data.X, n_permutations=10, max_background=20, seed=0
    )
    return gbm, explainer


def run(ctx) -> dict:
    n_rows = (ctx.n_ops + WARMUP_OPS) * ROWS_PER_OP
    rows = make_loan_dataset(n_rows, seed=ctx.seed).X
    batches = [rows[i:i + ROWS_PER_OP] for i in range(0, n_rows, ROWS_PER_OP)]
    warmup, timed = batches[:WARMUP_OPS], batches[WARMUP_OPS:]

    setup = timed_setup(build, SETUP_REPEATS)
    gbm, explainer = setup[0]

    def explain(X):
        return explainer.explain_batch(X, backend="serial")

    for X in warmup:
        explain(X)

    fallbacks = obs.counter("coalition.plan.fallbacks")
    outputs = []
    fell_back = {}

    def after(i, X, out):
        outputs.append(out)
        fell_back[i] = fallbacks.value

    before = program_counters()
    ctx.log.active = ctx.trace
    fell_back[-1] = fallbacks.value
    latencies, __, errors = closed_loop(timed, explain, ctx.log, after)
    ctx.log.active = False
    work = delta(before, program_counters())

    # Output checks, outside the timed phase: efficiency against the
    # benchmark's own evaluation of the model, and no fused-plan fallback.
    reasons = dict(errors)
    ok = []
    for i, (X, atts) in enumerate(zip(timed, outputs)):
        if atts is None:
            ok.append(False)
            continue
        expected = gbm.predict_proba(X)[:, 1]
        bad = None
        if fell_back[i] != fell_back[i - 1]:
            bad = "coalition plan fell back to the per-row loop"
        for att, fx in zip(atts, expected):
            gap = abs(float(np.sum(att.values)) + att.base_value - fx)
            if att.prediction != fx or not gap <= ADDITIVITY_TOL:
                bad = f"additivity gap {gap:.3g} or prediction mismatch"
        if bad:
            reasons[i] = bad
        ok.append(bad is None)

    explained = ROWS_PER_OP * sum(ok)
    work.update({"ops": len(timed), "rows_explained": explained})
    layer = None
    if ctx.trace:
        layer = layer_metrics(subset(ctx.log.spans, range(len(timed))), work)
    return result(
        ok=ok, reasons=reasons, latencies=latencies,
        unit_per_op=ROWS_PER_OP, setup=setup, work=work,
        rss_mb=peak_rss_mb(), layer=layer,
    )
