"""Statistical stability indices for LIME [Visani et al. 2020].

The tutorial's central criticism of surrogate explainability (§2.1.1) is
that LIME's neighborhood sampling is unreliable: re-running the explainer
on the same instance can return different explanations. Visani et al.
quantify this with two indices computed over repeated LIME runs:

* **VSI** (Variables Stability Index): how consistently the same feature
  set is selected across runs — mean Jaccard similarity over run pairs.
* **CSI** (Coefficients Stability Index): how consistent the coefficient
  values are for features that do recur — the fraction of features whose
  across-run coefficient confidence intervals overlap pairwise.

Both lie in [0, 1]; 1 is perfectly stable. E4 sweeps the LIME sampling
budget and shows both indices rising toward 1, reproducing the paper's
"more samples → more reliable" curve.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..core.explanation import FeatureAttribution

__all__ = ["vsi", "csi", "stability_report"]


def _selected_sets(runs: list[FeatureAttribution], top_k: int) -> list[frozenset[int]]:
    return [frozenset(run.ranking()[:top_k]) for run in runs]


def vsi(runs: list[FeatureAttribution], top_k: int = 5) -> float:
    """Variables Stability Index: mean pairwise Jaccard of top-k sets."""
    if len(runs) < 2:
        raise ValueError("stability needs at least two LIME runs")
    sets = _selected_sets(runs, top_k)
    scores = [
        len(a & b) / len(a | b) if a | b else 1.0
        for a, b in combinations(sets, 2)
    ]
    return float(np.mean(scores))


def csi(runs: list[FeatureAttribution], top_k: int = 5,
        z: float = 1.96) -> float:
    """Coefficients Stability Index.

    For each feature appearing in any run's top-k, build the normal
    confidence interval of its coefficient across runs and check, for
    every pair of runs, whether both coefficients fall within ``z``
    standard deviations of the across-run mean. CSI is the mean agreement
    rate over features.
    """
    if len(runs) < 2:
        raise ValueError("stability needs at least two LIME runs")
    considered = sorted(set().union(*_selected_sets(runs, top_k)))
    if not considered:
        return 1.0
    agreements = []
    for j in considered:
        coefs = np.array([run.values[j] for run in runs])
        center, spread = coefs.mean(), coefs.std(ddof=1)
        if spread == 0.0:
            agreements.append(1.0)
            continue
        inside = np.abs(coefs - center) <= z * spread
        pair_scores = [
            1.0 if inside[a] and inside[b] else 0.0
            for a, b in combinations(range(len(runs)), 2)
        ]
        agreements.append(float(np.mean(pair_scores)))
    return float(np.mean(agreements))


def stability_report(
    explainer, x: np.ndarray, n_runs: int = 10, top_k: int = 5, seed: int = 0
) -> dict[str, float]:
    """Run an explainer ``n_runs`` times with different seeds and score it.

    Works with any explainer whose ``explain`` accepts a ``seed`` keyword
    (both LIME variants do). Returns VSI, CSI and the mean surrogate
    fidelity when the explainer reports one.
    """
    # Deliberately varied seeds — one shared estimate would defeat the point.
    runs = [explainer.explain(x, seed=seed + r) for r in range(n_runs)]  # batch: allow
    fidelities = [
        run.meta["fidelity_r2"] for run in runs if "fidelity_r2" in run.meta
    ]
    report = {
        "vsi": vsi(runs, top_k=top_k),
        "csi": csi(runs, top_k=top_k),
    }
    if fidelities:
        report["mean_fidelity"] = float(np.mean(fidelities))
    return report
