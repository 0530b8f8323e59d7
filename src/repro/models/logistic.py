"""Binary logistic regression fitted by Newton's method (IRLS).

Minimizes the L2-regularized negative log-likelihood

    L(θ) = Σ_i ℓ(x_i, y_i; θ) + λ/2 ||w||²,
    ℓ = −y log σ(z) − (1−y) log(1−σ(z)),   z = x·w + b.

Per-sample gradients and the exact Hessian are exposed for influence
functions, PrIU and gradient Shapley. The intercept is the last parameter
and is not regularized.

:meth:`LogisticRegression.predict_subsets` solves many training subsets
in one batched Newton iteration and certifies, row by row, that its
labels are the ones a separate ``fit`` + ``predict`` would return; Data
Shapley's utility uses it to fit all the prefixes of one walk step.
"""

from __future__ import annotations

import numpy as np

from ..persist.protocol import Serializable, register_serializable
from .base import ClassifierMixin, DifferentiableModel

__all__ = ["LogisticRegression", "sigmoid"]

# The certificate of LogisticRegression.predict_subsets (see there):
# the radius ρ of the ball around a batched solution on which it bounds
# the Hessian from below, and its relative rounding allowance. Rounding
# in a gradient norm, an eigenvalue or a margin over ~100 points is some
# 1e-14 of the magnitudes involved; the allowance is 1e5 times that.
_CERT_RADIUS = 0.01
_CERT_SLACK = 1e-9


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function.

    1/(1 + e^{-z}) for z ≥ 0 and e^{z}/(1 + e^{z}) below, so the
    exponential never overflows; one pass over any shape of ``z``.
    """
    z = np.asarray(z, dtype=float)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _solve_stack(H: np.ndarray, g: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` over a stack of systems; a singular system's
    row of the result is NaN instead of raising."""
    try:
        return np.linalg.solve(H, g[..., None])[..., 0]
    except np.linalg.LinAlgError:
        out = np.full(g.shape, np.nan)
        for r in range(g.shape[0]):
            try:
                out[r] = np.linalg.solve(H[r], g[r])
            except np.linalg.LinAlgError:
                continue
        return out


@register_serializable("models.LogisticRegression")
class LogisticRegression(Serializable, ClassifierMixin, DifferentiableModel):
    """Binary classifier with Newton/IRLS optimization.

    Parameters
    ----------
    alpha:
        L2 penalty strength λ. A strictly positive value keeps the Hessian
        positive definite, which influence functions require.
    max_iter, tol:
        Newton iteration budget and gradient-norm stopping tolerance.
    """

    __persist_init__ = ("alpha", "max_iter", "tol")
    __persist_state__ = ("classes_", "coef_", "intercept_", "_n_features")

    def __init__(self, alpha: float = 1.0, max_iter: int = 100, tol: float = 1e-8):
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        self.max_iter = max_iter
        self.tol = tol

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sample_weight: np.ndarray | None = None,
    ) -> "LogisticRegression":
        X, y = self._check_Xy(X, y)
        self.classes_, encoded = self._encode_labels(y)
        if len(self.classes_) != 2:
            raise ValueError(
                f"LogisticRegression is binary; got {len(self.classes_)} classes"
            )
        n, d = X.shape
        if sample_weight is None:
            sample_weight = np.ones(n)
        sw = np.asarray(sample_weight, dtype=float)
        Xb = np.hstack([X, np.ones((n, 1))])
        theta = np.zeros(d + 1)
        reg = self.alpha * np.eye(d + 1)
        reg[d, d] = 0.0
        t = encoded.astype(float)
        for _ in range(self.max_iter):
            p = sigmoid(Xb @ theta)
            g = Xb.T @ (sw * (p - t)) + reg @ theta
            if np.linalg.norm(g) < self.tol:
                break
            w_diag = sw * p * (1.0 - p)
            H = Xb.T @ (w_diag[:, None] * Xb) + reg
            # Damped Newton: a tiny jitter guards near-separable data.
            step = np.linalg.solve(H + 1e-10 * np.eye(d + 1), g)
            theta = theta - step
        self.coef_ = theta[:d]
        self.intercept_ = float(theta[d])
        self._n_features = d
        return self

    # -- prediction -----------------------------------------------------------

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        """Raw margin z = x·w + b."""
        self._check_fitted("coef_")
        X = self._check_X(X)
        return X @ self.coef_ + self.intercept_

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        p1 = sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - p1, p1])

    # -- many subsets at once ---------------------------------------------------

    def predict_subsets(
        self,
        X: np.ndarray,
        y: np.ndarray,
        masks: np.ndarray,
        X_eval: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Labels of ``X_eval`` from a model fitted on each subset of ``(X, y)``.

        Row r of the boolean ``(k, n)`` ``masks`` selects a training
        subset S. Returns ``(labels, certified)``: ``labels[r]`` holds
        one label per ``X_eval`` row, and where ``certified[r]`` is true
        it equals ``LogisticRegression(alpha, max_iter, tol).fit(X[S],
        y[S]).predict(X_eval)``. The labels of other rows are unspecified;
        the caller fits those subsets itself. ``self`` is not fitted. ``y``
        must hold exactly two classes, like ``fit``'s.

        **Solve.** Every row runs ``fit``'s Newton iteration from θ = 0
        with its stopping test ‖g‖ < ``tol`` and its ``1e-10·I`` jitter,
        all rows in one set of numpy calls: a gradient is a row of one
        ``(k×n)@(n×p)`` product, a Hessian a row of one product against
        the per-point outer products ``(n × p²)``, and one stacked
        ``np.linalg.solve`` takes every step. A row leaves once it
        converges. Starting at zero keeps the iterates ``fit``'s up to
        rounding, so ``fit`` too stops on its gradient test; a row still
        running after ``max_iter // 2`` steps is not certified, because
        the argument below needs that. A single-class subset, a
        singular step or a non-finite value leaves its row uncertified,
        and so does, at ``alpha == 0``, an iterate that separates the
        row's subset: the objective then has no minimum to certify, and
        the row leaves the iteration at once.

        **Certificate.** Let θ̂ be a row's solution with gradient norm ĝ,
        x̃ = [x, 1] and ρ = ``_CERT_RADIUS``. On the ball of radius ρ
        around θ̂, |x̃·θ| ≤ |x̃·θ̂| + ρ‖x̃‖ and σ' falls as |z| grows, so
        the Hessian there is at least

            μ = λ_min(Σ_{i∈S} σ'(|x̃_i·θ̂| + ρ‖x̃_i‖) x̃_i x̃_iᵀ + diag(α,…,α,0)).

        (The intercept is not regularized, so α alone bounds nothing.)
        If ĝ/μ < ρ, the objective has its minimum θ* within ĝ/μ of θ̂.
        Convexity makes ‖g‖ ≥ μ(ρ − ĝ/μ) everywhere outside the ball of
        radius ρ − ĝ/μ around θ*; if ``tol`` is below half that, the
        point where ``fit`` stopped lies inside it, within ``tol``/μ of
        θ*. Both margins x̃·θ̂ and ``fit``'s then differ by at most
        ((ĝ + ``tol``)/μ)·‖x̃‖, so where every ``X_eval`` margin of θ̂
        clears that bound plus a slack, ``fit``'s margins have the same
        signs and stay away from 0, and ``predict``'s argmax returns the
        same classes. The slack is the rounding allowance
        ``_CERT_SLACK``: it is added to ĝ and ``tol`` relative to the
        gradient's term sizes Σ‖x̃_i‖ + α(‖θ̂‖ + ρ), taken off μ relative
        to the trace of its matrix, and added to each margin bound
        relative to 1 + ‖x̃‖(‖θ̂‖ + ρ).
        """
        X, y = self._check_Xy(X, y)
        X_eval = self._check_X(X_eval)
        masks = np.atleast_2d(np.asarray(masks, dtype=bool))
        n, d = X.shape
        if masks.shape[1] != n or X_eval.shape[1] != d:
            raise ValueError(
                f"masks {masks.shape} and X_eval {X_eval.shape} do not fit "
                f"X {X.shape}"
            )
        classes, encoded = self._encode_labels(y)
        if len(classes) != 2:
            raise ValueError(
                f"LogisticRegression is binary; got {len(classes)} classes"
            )
        t = encoded.astype(float)
        p = d + 1
        reg = np.full(p, float(self.alpha))
        reg[d] = 0.0
        jitter = np.diag(reg + 1e-10)
        theta = np.zeros((masks.shape[0], p))
        gnorm = np.full(masks.shape[0], np.inf)
        weights = masks.astype(float)
        members, positives = weights.sum(axis=1), weights @ t
        rows = np.flatnonzero((positives > 0) & (positives < members))
        # Overflow and invalid values only arise on rows whose gradient
        # norm or bound then comes out non-finite, which leaves them
        # uncertified.
        with np.errstate(over="ignore", invalid="ignore"):
            Xb = np.hstack([X, np.ones((n, 1))])
            outer = (Xb[:, :, None] * Xb[:, None, :]).reshape(n, p * p)
            w, th = weights[rows], theta[rows]
            for _ in range(self.max_iter // 2):
                if rows.size == 0:
                    break
                z = th @ Xb.T
                prob = sigmoid(z)
                g = (w * (prob - t)) @ Xb + reg * th
                norm = np.linalg.norm(g, axis=1)
                going = norm >= self.tol
                if self.alpha == 0:
                    # θ separates the row's subset: unpenalized, the
                    # objective then has no minimum, so no certificate
                    # can hold and the row leaves now, uncertified.
                    going &= ~np.all((w == 0) | np.where(t > 0, z > 0, z < 0),
                                     axis=1)
                if not going.all():
                    done = norm < self.tol
                    theta[rows[done]] = th[done]
                    gnorm[rows[done]] = norm[done]
                    rows, w, th = rows[going], w[going], th[going]
                    prob, g = prob[going], g[going]
                curv = w * prob * (1.0 - prob)
                H = (curv @ outer).reshape(-1, p, p) + jitter
                th = th - _solve_stack(H, g)
            Xe = np.hstack([X_eval, np.ones((X_eval.shape[0], 1))])
            certified = self._certify(Xb, outer, reg, weights, theta, gnorm,
                                      Xe)
            margins = theta @ Xe.T
        return classes[(margins > 0).astype(int)], certified

    def _certify(self, Xb, outer, reg, weights, theta, gnorm, Xe):
        """Which converged rows pass :meth:`predict_subsets`' certificate."""
        certified = np.zeros(theta.shape[0], dtype=bool)
        rows = np.flatnonzero(np.isfinite(gnorm)
                              & np.isfinite(theta).all(axis=1))
        if rows.size == 0:
            return certified
        p = Xb.shape[1]
        th, w = theta[rows], weights[rows]
        x_norm = np.linalg.norm(Xb, axis=1)
        # σ'(a) = e^{-a}/(1 + e^{-a})² for a ≥ 0, accurate to a few ulps.
        e = np.exp(-(np.abs(th @ Xb.T) + _CERT_RADIUS * x_norm))
        low = ((w * (e / (1.0 + e) ** 2)) @ outer).reshape(-1, p, p) \
            + np.diag(reg)
        low[~np.isfinite(low).all(axis=(1, 2))] = 0.0   # bounds nothing
        mu = np.linalg.eigvalsh(low)[:, 0] \
            - _CERT_SLACK * np.trace(low, axis1=1, axis2=2)
        mu = np.where(mu > 0, mu, np.nan)   # every test below fails on NaN
        th_norm = np.linalg.norm(th, axis=1) + _CERT_RADIUS
        scale = _CERT_SLACK * (w @ x_norm + self.alpha * th_norm)
        g_hat = gnorm[rows] + scale
        tol = self.tol + scale
        near = g_hat / mu
        bound = (g_hat + tol) / mu
        e_norm = np.linalg.norm(Xe, axis=1)
        need = bound[:, None] * e_norm \
            + _CERT_SLACK * (1.0 + th_norm[:, None] * e_norm)
        certified[rows] = (
            (near < _CERT_RADIUS)
            & (tol < mu * (_CERT_RADIUS - near) / 2.0)
            & np.all(np.abs(th @ Xe.T) > need, axis=1)
        )
        return certified

    # -- DifferentiableModel interface -----------------------------------------

    @property
    def params(self) -> np.ndarray:
        self._check_fitted("coef_")
        return np.append(self.coef_, self.intercept_)

    def set_params_vector(self, theta: np.ndarray) -> None:
        theta = np.asarray(theta, dtype=float).ravel()
        self.coef_ = theta[:-1].copy()
        self.intercept_ = float(theta[-1])
        self._n_features = theta.shape[0] - 1

    def _encode_targets(self, y: np.ndarray) -> np.ndarray:
        """Map labels to {0, 1} using the fitted class order."""
        y = np.asarray(y).ravel()
        t = np.zeros(y.shape[0])
        t[y == self.classes_[1]] = 1.0
        return t

    def grad(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Per-sample ∇_θ of the unregularized log-loss: (σ(z) − y)·[x, 1]."""
        X, y = self._check_Xy(X, y)
        t = self._encode_targets(y)
        p = sigmoid(self.decision_function(X))
        Xb = np.hstack([X, np.ones((X.shape[0], 1))])
        return (p - t)[:, None] * Xb

    def hessian(self, X: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Hessian of the full objective over ``(X, y)``."""
        X = self._check_X(X)
        n, d = X.shape
        Xb = np.hstack([X, np.ones((n, 1))])
        p = sigmoid(self.decision_function(X))
        w_diag = p * (1.0 - p)
        reg = self.alpha * np.eye(d + 1)
        reg[d, d] = 0.0
        return Xb.T @ (w_diag[:, None] * Xb) + reg

    def loss(self, X: np.ndarray, y: np.ndarray) -> float:
        """Mean unregularized log-loss over ``(X, y)``."""
        X, y = self._check_Xy(X, y)
        t = self._encode_targets(y)
        p = np.clip(sigmoid(self.decision_function(X)), 1e-12, 1 - 1e-12)
        return float(-np.mean(t * np.log(p) + (1 - t) * np.log(1 - p)))
