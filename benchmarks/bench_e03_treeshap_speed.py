"""E3 — TreeSHAP is polynomial where exact enumeration is exponential (§2.1.2).

Claim [46]: exact Shapley needs 2^d coalition evaluations; TreeSHAP
computes the same values in polynomial time (here EXTEND and UNWOUND-SUM
over the tree's leaf-path table, one row through ``explain``). The
wall-clock gap must widen rapidly with the number of features.
"""

import time

import numpy as np

from repro.datasets import make_classification
from repro.models import DecisionTreeClassifier
from repro.shapley import TreeShapExplainer, exact_shapley

from conftest import emit, fmt_row


def test_e03_treeshap_speed(benchmark):
    rows = [fmt_row("n_features", "exact (s)", "treeshap (s)", "speedup",
                    "max |diff|")]
    speedups = []
    for n_features in (6, 9, 12):
        data = make_classification(400, n_features=n_features, seed=3)
        tree = DecisionTreeClassifier(max_depth=6, seed=0).fit(data.X, data.y)
        explainer = TreeShapExplainer(tree)
        x = data.X[0]

        t0 = time.perf_counter()
        reference = exact_shapley(explainer.value_function(x), n_features)
        t_exact = time.perf_counter() - t0

        t0 = time.perf_counter()
        for __ in range(10):
            fast = explainer.explain(x).values
        t_fast = (time.perf_counter() - t0) / 10

        speedup = t_exact / max(t_fast, 1e-9)
        speedups.append(speedup)
        rows.append(fmt_row(n_features, t_exact, t_fast, speedup,
                            float(np.abs(fast - reference).max())))
        assert np.allclose(fast, reference, atol=1e-9)
    emit("E3_treeshap_speed", rows)

    # Shape: the speedup grows with dimensionality (exponential vs poly).
    assert speedups[-1] > speedups[0] * 4

    data = make_classification(400, n_features=12, seed=3)
    tree = DecisionTreeClassifier(max_depth=6, seed=0).fit(data.X, data.y)
    explainer = TreeShapExplainer(tree)
    benchmark(lambda: explainer.explain(data.X[0]))
