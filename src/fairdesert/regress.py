"""Direct regression estimators for the observed-data nuisances.

Per-stratum series logits estimate mu_sz(x) = f(Y=1 | S=s, Z=z, x), and a
four-class multinomial series logit estimates the stratum propensities
pi_sz(x) = f(S=s, Z=z | x).  Both maximize ridge-penalized log-likelihoods by
damped Newton (the likelihoods are concave).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import BasisConfig, SeriesFunction, expand_matrix, expit
from .data import Dataset, require_positivity
from .errors import PositivityError, SeparationError
from .identify import STRATA
from .optimize import newton_minimize

PI_FLOOR = 0.01  # propensity floor keeping 1/pi weights bounded


def _bernoulli_terms(gamma, phi, y, ridge, weights):
    """Value and gradient of `bernoulli_negloglik`, plus the fitted
    probabilities and weights its Hessian is built from."""
    gamma = np.asarray(gamma, dtype=np.float64)
    p = expit(phi @ gamma)
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    w = np.ones(len(y)) if weights is None else np.asarray(weights, dtype=np.float64)
    wsum = w.sum()
    ll = w @ (y * np.log(p) + (1 - y) * np.log1p(-p))
    value = -ll / wsum + 0.5 * ridge * gamma @ gamma
    resid = w * (p - y)
    grad = phi.T @ resid / wsum + ridge * gamma
    return value, grad, p, w, wsum


def bernoulli_value_grad(gamma, phi, y, ridge=0.0, weights=None):
    """(value, gradient) of `bernoulli_negloglik`, without building the
    Hessian: for first-order optimizers."""
    value, grad, _, _, _ = _bernoulli_terms(gamma, phi, y, ridge, weights)
    return value, grad


def bernoulli_negloglik(gamma, phi, y, ridge=0.0, weights=None):
    """Mean negative Bernoulli log-likelihood with optional ridge and weights.

    Returns (value, gradient, hessian); the analytic derivatives are exercised
    against finite differences in the test suite.
    """
    value, grad, p, w, wsum = _bernoulli_terms(gamma, phi, y, ridge, weights)
    curv = w * p * (1 - p)
    hess = (phi * curv[:, None]).T @ phi / wsum + ridge * np.eye(len(gamma))
    return value, grad, hess


@dataclass(frozen=True)
class LogitFit:
    gamma: np.ndarray
    converged: bool
    iterations: int
    grad_norm: float
    loglik: float


def fit_series_logit(features, labels, ridge=1e-8, weights=None, tol=1e-8, max_iter=200):
    """Fit a logistic regression on an explicit feature matrix.

    Requires at least one positive and one negative label unless ridge > 0;
    perfect separation surfaces as a non-convergence error advising ridge.
    """
    phi = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if phi.ndim != 2 or phi.shape[0] != y.shape[0]:
        raise ValueError("features must be (n, J) matching labels")
    if ridge <= 0 and (y.min() == y.max()):
        raise SeparationError(
            "labels are all equal and ridge is zero: the likelihood has no "
            "maximizer; set ridge > 0"
        )
    res = newton_minimize(
        lambda g: bernoulli_negloglik(g, phi, y, ridge, weights),
        np.zeros(phi.shape[1]),
        tol=tol,
        max_iter=max_iter,
    )
    if not res.converged and res.grad_norm > 1e-5:
        raise SeparationError(
            "series logit did not converge (gradient norm "
            f"{res.grad_norm:.2e}); data may be separable - increase ridge"
        )
    return LogitFit(res.x, res.converged, res.iterations, res.grad_norm, -res.fun)


@dataclass(frozen=True)
class MuModel:
    """Four per-stratum series logits for mu_sz(x), indexed by (s, z)."""

    functions: dict

    @property
    def config(self):
        return self.functions[(0, 0)].config

    def predict(self, s, z, x):
        return self.functions[(int(s), int(z))](x)

    def predict_all(self, x):
        """(n, 4) matrix of mu_hat in stratum order (0,0), (0,1), (1,0), (1,1)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        phi = expand_matrix(x, self.config)
        return np.column_stack([self.functions[sz].eval_features(phi) for sz in STRATA])


def fit_mu_models(data: Dataset, config: BasisConfig, ridge=1e-8) -> MuModel:
    require_positivity(data)
    phi = expand_matrix(data.x, config)
    y = np.asarray(data.y, dtype=np.float64)
    functions = {}
    for s, z in STRATA:
        mask = (data.s == s) & (data.z == z)
        fit = fit_series_logit(phi[mask], y[mask], ridge=ridge)
        functions[(s, z)] = SeriesFunction(config, fit.gamma)
    return MuModel(functions)


def multinomial_negloglik(coef_flat, phi, classes, ridge=0.0):
    """Mean negative multinomial log-likelihood, reference class 0.

    ``coef_flat`` packs a (3, J) matrix row-wise for classes 1..3.
    Returns (value, gradient, hessian).
    """
    n, j = phi.shape
    coef = coef_flat.reshape(3, j)
    eta = np.column_stack([np.zeros(n), phi @ coef.T])
    eta -= eta.max(axis=1, keepdims=True)
    num = np.exp(eta)
    probs = num / num.sum(axis=1, keepdims=True)
    ll = np.log(np.clip(probs[np.arange(n), classes], 1e-300, None)).sum()
    value = -ll / n + 0.5 * ridge * coef_flat @ coef_flat
    ind = np.zeros((n, 3))
    for k in range(1, 4):
        ind[:, k - 1] = classes == k
    resid = probs[:, 1:] - ind
    grad = (resid.T @ phi).ravel() / n + ridge * coef_flat
    hess = np.empty((3 * j, 3 * j))
    for a in range(3):
        for b in range(3):
            w = probs[:, a + 1] * ((a == b) - probs[:, b + 1])
            hess[a * j:(a + 1) * j, b * j:(b + 1) * j] = (phi * w[:, None]).T @ phi / n
    hess += ridge * np.eye(3 * j)
    return value, grad, hess


@dataclass(frozen=True)
class PropensityModel:
    """Multinomial series logit over the four (s, z) classes.

    ``coefficients`` is (3, J) for classes (0,1), (1,0), (1,1) against the
    reference class (0,0).  Predictions are floored at PI_FLOOR and
    renormalized so inverse-propensity terms stay bounded.
    """

    config: BasisConfig
    coefficients: np.ndarray
    floor: float = PI_FLOOR

    def predict_matrix(self, x, floored=True):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        phi = expand_matrix(x, self.config)
        eta = np.column_stack([np.zeros(phi.shape[0]), phi @ self.coefficients.T])
        eta -= eta.max(axis=1, keepdims=True)
        num = np.exp(eta)
        probs = num / num.sum(axis=1, keepdims=True)
        if floored:
            probs = floor_probabilities(probs, self.floor)
        return probs


def class_index(s, z):
    return 2 * np.asarray(s, dtype=int) + np.asarray(z, dtype=int)


def floor_probabilities(probs, eps):
    """Floor each class probability at eps, rescaling the rest to sum to one.

    Floored entries are pinned exactly at eps; the remaining mass is scaled.
    Iterates in case the rescaling pushes another entry below the floor
    (terminates because the floored set only grows).
    """
    p = np.array(probs, dtype=np.float64, copy=True)
    k = p.shape[-1]
    if eps <= 0 or eps * k >= 1:
        raise ValueError("floor must satisfy 0 < eps < 1/k")
    clipped = np.zeros(p.shape, dtype=bool)
    for _ in range(k):
        low = (p < eps) & ~clipped
        if not low.any():
            break
        clipped |= low
        p[clipped] = eps
        free_mass = 1.0 - eps * clipped.sum(axis=-1, keepdims=True)
        free_sum = np.where(~clipped, p, 0.0).sum(axis=-1, keepdims=True)
        scale = np.where(free_sum > 0, free_mass / np.where(free_sum > 0, free_sum, 1.0), 1.0)
        p = np.where(~clipped, p * scale, p)
    return p


def fit_multinomial(features, class_labels, ridge=1e-8, config=None, tol=1e-8, max_iter=200):
    """Fit the four-class stratum propensity model on explicit features."""
    phi = np.asarray(features, dtype=np.float64)
    classes = np.asarray(class_labels, dtype=int)
    if classes.size and not 0 <= classes.min() <= classes.max() <= 3:
        raise ValueError("class labels must lie in {0, 1, 2, 3}")
    missing = np.flatnonzero(np.bincount(classes, minlength=4) == 0).tolist()
    if missing:
        pretty = ", ".join(f"(s={m // 2}, z={m % 2})" for m in missing)
        raise PositivityError(f"propensity fit requires all four classes; missing {pretty}")
    res = newton_minimize(
        lambda c: multinomial_negloglik(c, phi, classes, ridge),
        np.zeros(3 * phi.shape[1]),
        tol=tol,
        max_iter=max_iter,
    )
    if not res.converged and res.grad_norm > 1e-5:
        raise SeparationError(
            f"multinomial fit did not converge (gradient norm {res.grad_norm:.2e})"
        )
    coef = res.x.reshape(3, phi.shape[1])
    return PropensityModel(config or BasisConfig(), coef)


def fit_propensity(data: Dataset, config: BasisConfig) -> PropensityModel:
    require_positivity(data)
    phi = expand_matrix(data.x, config)
    return fit_multinomial(phi, class_index(data.s, data.z), config=config)
