"""E33 — Path-dependent vs interventional TreeSHAP (§2.1.2 ablation).

Claims [Lundberg et al. 2020; the value-function discussion of Kumar et
al.]: (1) the interventional estimator computes the *same game* Kernel
SHAP approximates — the marginal expectation over an explicit background
— exactly and in polynomial time; (2) the two TreeSHAP variants answer
*different games* (cover-weighted conditional vs marginal) and their
attributions genuinely differ on dependent data, so the choice between
them is semantic, not numerical.
"""

import time

import numpy as np

from repro.core.coalition_engine import CoalitionEngine
from repro.datasets import make_classification, make_correlated_gaussian
from repro.models import DecisionTreeClassifier
from repro.shapley import (
    InterventionalTreeShapExplainer,
    TreeShapExplainer,
    exact_shapley,
)

from conftest import emit, fmt_row


def test_e33_treeshap_variants(benchmark):
    rows = []

    # Part 1: exactness + speed vs brute-force marginal SHAP.
    rows.append(fmt_row("n_features", "enum (s)", "interv (s)", "max |diff|"))
    for n_features in (8, 12):
        data = make_classification(400, n_features=n_features, seed=9)
        tree = DecisionTreeClassifier(max_depth=6, seed=0).fit(data.X, data.y)
        background = data.X[:12]
        x = data.X[0]
        explainer = InterventionalTreeShapExplainer(tree, background)
        t0 = time.perf_counter()
        fast = explainer.explain(x).values
        t_fast = time.perf_counter() - t0
        sampler = CoalitionEngine(background, max_background=12)
        v = sampler.value_function(
            lambda X: tree.predict_proba(X)[:, 1], x
        )
        t0 = time.perf_counter()
        reference = exact_shapley(v, n_features)
        t_enum = time.perf_counter() - t0
        diff = float(np.abs(fast - reference).max())
        rows.append(fmt_row(n_features, t_enum, t_fast, diff))
        assert diff < 1e-10
        assert t_fast < t_enum

    # Part 2: the variants answer different games on dependent data.
    rows.append(fmt_row("rho", "mean L1 disagreement", ""))
    disagreements = []
    for rho in (0.0, 0.95):
        X = make_correlated_gaussian(800, n_features=3, rho=rho, seed=7)
        y = ((X[:, 0] + X[:, 1]) > 0).astype(int)
        tree = DecisionTreeClassifier(max_depth=6, seed=0).fit(X, y)
        path_dep = TreeShapExplainer(tree)
        interventional = InterventionalTreeShapExplainer(tree, X[:40], seed=0)
        diffs = [
            float(np.abs(
                path_dep.explain(x).values - interventional.explain(x).values
            ).sum())
            for x in X[:10]
        ]
        disagreements.append(float(np.mean(diffs)))
        rows.append(fmt_row(rho, disagreements[-1], ""))
    emit("E33_treeshap_variants", rows)

    # Both variants satisfy their own efficiency axioms (tested in the
    # unit suite) yet produce different attributions — the semantic gap.
    assert all(d > 0.01 for d in disagreements)

    data = make_classification(400, n_features=12, seed=9)
    tree = DecisionTreeClassifier(max_depth=6, seed=0).fit(data.X, data.y)
    explainer = InterventionalTreeShapExplainer(tree, data.X[:12])
    benchmark(lambda: explainer.explain(data.X[0]))
