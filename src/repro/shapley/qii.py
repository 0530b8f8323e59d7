"""Quantitative Input Influence (Datta, Sen & Zick 2016).

QII measures the influence of inputs on a *quantity of interest* by
randomized interventions: replace the feature(s) of interest with draws
from their marginal distribution while holding the rest of the instance
fixed, and record how much the quantity changes.

Three estimators from the paper:

* :func:`unary_qii` — ι(i) = E|f(x) − f(x with X_i resampled)| for one
  feature (the paper's unary influence for an individual outcome).
* :func:`set_qii` — the same with a *set* of features resampled jointly,
  which captures joint influence that unary QII misses.
* :func:`shapley_qii` — the Shapley value of the set-influence game,
  the paper's "marginal influence averaged across coalitions".
"""

from __future__ import annotations

import numpy as np

from ..core.base import AttributionExplainer
from ..core.coalition_engine import block_predict
from ..core.explanation import FeatureAttribution
from ..robust.guard import check_instance
from .sampling import _per_row, permutation_shapley

__all__ = ["unary_qii", "set_qii", "shapley_qii", "QIIExplainer"]


def _resample_features(
    x: np.ndarray,
    background: np.ndarray,
    features: list[int],
    n_samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Rows equal to ``x`` with ``features`` replaced by background draws.

    Each feature is drawn independently (the paper's fully factorized
    intervention distribution).
    """
    rows = np.tile(x, (n_samples, 1))
    for j in features:
        rows[:, j] = background[rng.integers(0, background.shape[0], n_samples), j]
    return rows


def set_qii(
    predict_fn,
    x: np.ndarray,
    background: np.ndarray,
    features: list[int],
    n_samples: int = 300,
    seed: int = 0,
) -> float:
    """Influence of jointly resampling a feature set on the prediction.

    Defined as E[f(x)] − E[f(x with S resampled)] for the explained
    output, so positive influence means the features support the current
    prediction.
    """
    x = np.asarray(x, dtype=float).ravel()
    if not features:
        return 0.0
    rng = np.random.default_rng(seed)
    rows = _resample_features(x, np.atleast_2d(background), list(features),
                              n_samples, rng)
    original = float(predict_fn(x[None, :])[0])
    return original - float(np.mean(predict_fn(rows)))


def unary_qii(
    predict_fn,
    x: np.ndarray,
    background: np.ndarray,
    n_samples: int = 300,
    seed: int = 0,
) -> np.ndarray:
    """Unary QII of every feature (one-at-a-time resampling)."""
    x = np.asarray(x, dtype=float).ravel()
    return np.array([
        set_qii(predict_fn, x, background, [j], n_samples, seed + j)
        for j in range(x.shape[0])
    ])


def shapley_qii(
    predict_fn,
    x: np.ndarray,
    background: np.ndarray,
    n_permutations: int = 60,
    n_samples: int = 100,
    seed: int = 0,
    max_batch_rows: int | None = None,
    return_diagnostics: bool = False,
) -> np.ndarray | tuple[np.ndarray, dict]:
    """Shapley value of the set-QII game, by permutation sampling.

    The game value of coalition S is the *negative* set influence of the
    complement (equivalently, the expected output with only S fixed),
    which makes the grand-coalition value f(x) and recovers the
    Datta et al. aggregate marginal influence.

    The value function is *stochastic* — every evaluation consumes fresh
    draws from the shared generator — so the coalition engine's value
    cache must be bypassed, and each walk gets its own call.
    Intervention rows are still generated mask-by-mask in the historical
    order, so seeded results are identical to the pre-engine loop.

    ``x`` may be a matrix of instances: each row then draws from its own
    ``default_rng(seed)`` in that same mask order, all rows' blocks share
    the model calls, and ``phi`` gains a trailing axis whose column r is
    the one-row result for ``x[r]``.

    With ``return_diagnostics=True`` the sampler's convergence record is
    returned alongside ``phi`` (see :func:`permutation_shapley`): a
    budget exhausted mid-estimate yields the partial estimate with
    ``converged=False`` instead of raising.
    """
    x = np.asarray(x, dtype=float)
    instances = x if x.ndim == 2 else x.ravel()[None, :]
    n = instances.shape[1]
    background = np.atleast_2d(background)
    rngs = [np.random.default_rng(seed) for __ in instances]

    def value_fn(masks: np.ndarray) -> np.ndarray:
        masks = np.atleast_2d(masks)
        out = np.zeros((masks.shape[0], len(instances)))
        blocks: list[np.ndarray] = []
        block_rows: list[int] = []
        for row, mask in enumerate(masks):
            absent = [j for j in range(n) if not mask[j]]
            if not absent:
                out[row] = [float(predict_fn(inst[None, :])[0])
                            for inst in instances]
                continue
            blocks.extend(
                _resample_features(inst, background, absent, n_samples, rng)
                for inst, rng in zip(instances, rngs)
            )
            block_rows.append(row)
        if blocks:
            preds = block_predict(
                predict_fn, np.concatenate(blocks), n_samples, max_batch_rows
            )
            out[block_rows] = preds.reshape(
                len(block_rows), len(instances), n_samples
            ).mean(axis=2)
        return out if x.ndim == 2 else out[:, 0]

    phi, __, diagnostics = permutation_shapley(
        value_fn, n, n_permutations=n_permutations, seed=seed,
        return_diagnostics=True,
    )
    return (phi, diagnostics) if return_diagnostics else phi


class QIIExplainer(AttributionExplainer):
    """Feature attribution via Shapley QII.

    Numerically this coincides with sampling SHAP under a factorized
    background; it is kept as a distinct explainer because QII predates
    SHAP and the tutorial lists it separately (§2.1.2).
    """

    method_name = "shapley_qii"

    def __init__(self, model, background: np.ndarray,
                 n_permutations: int = 60, n_samples: int = 100,
                 output: str = "auto", seed: int = 0,
                 max_batch_rows: int | None = None, guard=None) -> None:
        super().__init__(model, output, guard=guard)
        self.background = np.atleast_2d(np.asarray(background, dtype=float))
        self.n_permutations = n_permutations
        self.n_samples = n_samples
        self.seed = seed
        self.max_batch_rows = max_batch_rows

    def explain(self, x: np.ndarray, feature_names: list[str] | None = None
                ) -> FeatureAttribution:
        x = check_instance(x, self.background.shape[1])
        return self._explain_rows(x[None, :], feature_names)[0]

    def _explain_rows(self, X, feature_names=None, backend=None,
                      n_procs=None) -> list[FeatureAttribution]:
        """Explain every row of ``X`` with one walk schedule.

        The walks are drawn once; the value function draws each row's
        interventions from that row's own generator, so each row gets
        the bits of its one-row run. QII's stochastic game never
        shards, so ``backend`` and ``n_procs`` are unused.
        """
        n = X.shape[1]
        predictions = [float(self.predict_fn(x[None, :])[0]) for x in X]
        phi, convergence = shapley_qii(
            self.predict_fn, X[0] if len(X) == 1 else X, self.background,
            n_permutations=self.n_permutations,
            n_samples=self.n_samples,
            seed=self.seed,
            max_batch_rows=self.max_batch_rows,
            return_diagnostics=True,
        )
        names = feature_names or [f"x{i}" for i in range(n)]
        phi = _per_row(phi, len(X))
        return [
            FeatureAttribution(
                values=phi[r],
                feature_names=names,
                base_value=predictions[r] - float(phi[r].sum()),
                prediction=predictions[r],
                method=self.method_name,
                meta={"convergence": dict(convergence)},
            )
            for r in range(len(X))
        ]
