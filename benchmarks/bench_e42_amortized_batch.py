"""E42 — Amortized batch explanation vs the per-row loop (PR 7).

Claim: when a batch of instances is explained together, the work that
does not depend on the row — coalition sampling, permutation draws,
kernel weights, TreeSHAP tree decompositions — should be paid once per
batch, not once per row. One permutation estimate over a masking game
that holds every row (the walks drawn once, each coalition's rows
predicted together) makes batch sampling-SHAP ≥5×
faster than the per-row loop at an equal walk budget, and the cached
:class:`repro.shapley.tree.TreePrecompute` (the model's leaf paths,
grouped by their number of distinct features) makes batch TreeSHAP ≥10×
faster than per-row ``explain``, which runs the same path-table kernel
on one row at a time. Sampling attributions are bitwise-identical to
the serial per-row path under the same seed; TreeSHAP batch rows are
bitwise equal to per-row ``explain`` and stable across backends and
batch splits.

The table reports the precompute cost separately from the
per-instance explain cost, so the amortization structure (fixed cost
once, marginal cost per row) is visible rather than folded into one
number, and the walks the batch drew, which must be the walk budget
of one row.
"""

import time

import numpy as np

from repro import obs
from repro.persist import dumps, loads, to_envelope
from repro.shapley import SamplingShapleyExplainer, TreeShapExplainer

from conftest import emit, fmt_row

N_PERMUTATIONS = 100
BATCH_SAMPLING = 32
BATCH_TREE = 256
N_BUILDS = 5


def test_e42_amortized_batch(loan_setup):
    data, logistic, gbm = loan_setup

    # -- sampling SHAP: one batch estimate vs per-row re-sampling --------
    # The logistic model keeps the (identical-on-both-paths) model-eval
    # cost small, so the measured gap is the amortizable work itself:
    # permutation draws, walk loops, and per-call dispatch overhead.
    common = dict(
        n_permutations=N_PERMUTATIONS, max_background=80, seed=3
    )
    X = data.X[:BATCH_SAMPLING]
    per_row = SamplingShapleyExplainer(logistic, data.X, **common)
    amortized = SamplingShapleyExplainer(logistic, data.X, **common)

    t0 = time.perf_counter()
    serial_atts = [per_row.explain(x) for x in X]
    wall_per_row = time.perf_counter() - t0

    walks_before = obs.counter("games.walks").value
    t0 = time.perf_counter()
    batch_atts = amortized.explain_batch(X, backend="serial")
    wall_batch = time.perf_counter() - t0
    batch_walks = obs.counter("games.walks").value - walks_before

    # Equal budget, identical bits: amortization is a pure perf change.
    for serial_att, batch_att in zip(serial_atts, batch_atts):
        assert np.array_equal(serial_att.values, batch_att.values)
        assert serial_att.base_value == batch_att.base_value
    sampling_speedup = wall_per_row / wall_batch

    # -- TreeSHAP: one kernel over the path table, batch vs per row -------
    X_tree = data.X[:BATCH_TREE]

    # The explainer builds the model's path table. The table is stored
    # per model object, and earlier benchmarks in the same pytest run
    # explain this GBM, so the build is timed on persisted copies that
    # no explainer has seen (the median of N_BUILDS, one build each).
    builds = []
    for __ in range(N_BUILDS):
        fresh_gbm = loads(dumps(to_envelope(gbm)))
        t0 = time.perf_counter()
        tree_explainer = TreeShapExplainer(fresh_gbm)
        builds.append(time.perf_counter() - t0)
    precompute_s = float(np.median(builds))

    t0 = time.perf_counter()
    tree_batch = tree_explainer.explain_batch(X_tree, backend="serial")
    wall_tree_batch = time.perf_counter() - t0

    # The same kernel one row per call: numpy's per-call cost is paid
    # per row instead of per row block.
    t0 = time.perf_counter()
    tree_serial = [tree_explainer.explain(x) for x in X_tree]
    wall_tree_serial = time.perf_counter() - t0

    batch_values = np.stack([a.values for a in tree_batch])
    serial_values = np.stack([a.values for a in tree_serial])
    # One kernel: a row's values do not depend on the rows beside it.
    assert np.array_equal(batch_values, serial_values)
    rerun = tree_explainer.explain_batch(X_tree, backend="thread")
    assert np.array_equal(
        batch_values, np.stack([a.values for a in rerun])
    )
    # The copy explains exactly as the original model does.
    original = TreeShapExplainer(gbm).explain_batch(X_tree, backend="serial")
    assert np.array_equal(
        batch_values, np.stack([a.values for a in original])
    )
    tree_speedup = wall_tree_serial / wall_tree_batch

    rows = [
        fmt_row("path", "wall s", "per row ms", "speedup"),
        fmt_row("sampling per-row", wall_per_row,
                wall_per_row / BATCH_SAMPLING * 1e3, 1.0),
        fmt_row("sampling batch", wall_batch,
                wall_batch / BATCH_SAMPLING * 1e3, sampling_speedup),
        fmt_row("tree per-row", wall_tree_serial,
                wall_tree_serial / BATCH_TREE * 1e3, 1.0),
        fmt_row("tree precompute", precompute_s, "(once)", "-"),
        fmt_row("tree batch", wall_tree_batch,
                wall_tree_batch / BATCH_TREE * 1e3, tree_speedup),
        fmt_row("batch walks", batch_walks, "budget", N_PERMUTATIONS),
    ]
    emit(
        "E42_amortized_batch",
        rows,
        data={
            "n_permutations": N_PERMUTATIONS,
            "batch_sampling": BATCH_SAMPLING,
            "batch_tree": BATCH_TREE,
            "sampling": {
                "wall_s_per_row": wall_per_row,
                "wall_s_batch": wall_batch,
                "speedup": sampling_speedup,
            },
            "tree": {
                "wall_s_per_row": wall_tree_serial,
                "wall_s_batch": wall_tree_batch,
                "precompute_s": precompute_s,
                "speedup": tree_speedup,
            },
            "batch_walks": int(batch_walks),
        },
        summary={
            "sampling_speedup": round(sampling_speedup, 3),
            "tree_speedup": round(tree_speedup, 3),
        },
    )

    # Headline floors: the batch drew its walks once (the walk budget,
    # not budget × rows); batch sampling ≥5× the per-row loop, batch
    # TreeSHAP ≥10× per-row explain.
    assert batch_walks == N_PERMUTATIONS
    assert sampling_speedup >= 5.0
    assert tree_speedup >= 10.0
