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
from .errors import FairdesertError, PositivityError, SeparationError
from .identify import STRATA
from .optimize import _dots, _newton_lockstep, newton_minimize

PI_FLOOR = 0.01  # propensity floor keeping 1/pi weights bounded


def _bernoulli_terms(gamma, phi, y, ridge, weights, hessian=False):
    """Value and gradient of `bernoulli_negloglik` and, with ``hessian``, its
    Hessian.  ``gamma`` may also be a (k, J) stack, with ``weights`` then
    None or (k, m): the terms come back stacked, row b with the bits of the
    1-d call on row b (`_stacked_dot`, `_stacked_matvec`)."""
    p = expit(_stacked_matvec(phi, gamma))
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    w = np.ones(p.shape) if weights is None else np.asarray(weights, dtype=np.float64)
    wsum = w.sum(axis=-1)
    ll = _stacked_dot(w, y * np.log(p) + (1 - y) * np.log1p(-p))
    value = -ll / wsum + _stacked_dot(0.5 * ridge * gamma, gamma)
    resid = w * (p - y)
    grad = _stacked_matvec(phi.T, resid) / wsum[..., None] + ridge * gamma
    if not hessian:
        return value, grad
    curv = w * p * (1 - p)
    hess = (np.swapaxes(phi * curv[..., None], -1, -2) @ phi / wsum[..., None, None]
            + ridge * np.eye(phi.shape[1]))
    return value, grad, hess


def _stacked_dot(a, b):
    """``a @ b`` of two vectors, or of each pair of rows of two (k, m) stacks."""
    return a @ b if a.ndim == 1 else _dots(a, b)


def _stacked_matvec(a, v):
    """``a @ v`` for a vector ``v``, or for each row of a (k, J) stack: a
    stacked matmul, which gives each row the bits of the 1-d product."""
    return a @ v if v.ndim == 1 else np.matmul(a, v[:, :, None])[:, :, 0]


def bernoulli_value_grad(gamma, phi, y, ridge=0.0, weights=None):
    """(value, gradient) of `bernoulli_negloglik`, without building the
    Hessian: for first-order optimizers."""
    return _bernoulli_terms(np.asarray(gamma, dtype=np.float64), phi, y, ridge, weights)


def bernoulli_negloglik(gamma, phi, y, ridge=0.0, weights=None):
    """Mean negative Bernoulli log-likelihood with optional ridge and weights.

    Returns (value, gradient, hessian); the analytic derivatives are exercised
    against finite differences in the test suite.
    """
    return _bernoulli_terms(np.asarray(gamma, dtype=np.float64), phi, y, ridge, weights,
                            hessian=True)


@dataclass(frozen=True)
class LogitFit:
    gamma: np.ndarray
    converged: bool
    iterations: int
    grad_norm: float
    loglik: float


def fit_series_logit(features, labels, ridge=1e-8, weights=None, tol=1e-8, max_iter=200,
                     start=None):
    """Fit a logistic regression on an explicit feature matrix.

    Requires at least one positive and one negative label unless ridge > 0;
    perfect separation surfaces as a non-convergence error advising ridge.
    Newton starts from ``start`` when it is given, else from zero.
    """
    phi = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if phi.ndim != 2 or phi.shape[0] != y.shape[0]:
        raise ValueError("features must be (n, J) matching labels")
    _require_both_labels(y, ridge)
    res = newton_minimize(
        lambda g: bernoulli_negloglik(g, phi, y, ridge, weights),
        np.zeros(phi.shape[1]) if start is None else start,
        tol=tol,
        max_iter=max_iter,
    )
    return _logit_fit(res)


def _require_both_labels(y, ridge):
    if ridge <= 0 and (y.min() == y.max()):
        raise SeparationError(
            "labels are all equal and ridge is zero: the likelihood has no "
            "maximizer; set ridge > 0"
        )


def _failed(res):
    """Whether a Newton result failed to converge: it stopped short of its
    tolerance with a gradient norm above 1e-5."""
    return not res.converged and res.grad_norm > 1e-5


def _logit_fit(res):
    """The `LogitFit` of a Newton result, or SeparationError when it did not converge."""
    if _failed(res):
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
        return self.predict_features(expand_matrix(x, self.config))

    def predict_features(self, phi):
        """`predict_all` at the rows of the design ``phi`` (`basis.expand_matrix`)."""
        return np.column_stack([self.functions[sz].eval_features(phi) for sz in STRATA])


def fit_mu_models(data: Dataset, config: BasisConfig, ridge=1e-8) -> MuModel:
    """Per-stratum series logits of Y on the basis; the one-resample case of
    `fit_mu_counts`."""
    (model,) = fit_mu_counts(data, config, [None], ridge)
    if isinstance(model, FairdesertError):
        raise model
    return model


def fit_mu_counts(data: Dataset, config: BasisConfig, counts, ridge=1e-8, phi=None):
    """`fit_mu_models` on resamples of ``data``: per entry of ``counts``, in
    order, the `MuModel` it fits or the `FairdesertError` it raises.

    An entry is a resample's count of each row of ``data``
    (``np.bincount(rows, minlength=data.n)``), or None for ``data`` itself;
    ``phi`` is ``expand_matrix(data.x, config)`` when the caller has it.  A
    resample with an empty stratum fails with PositivityError before any fit.
    The logits of each stratum are fitted on its rows of ``data``, each
    resample's weighted by its counts, all resamples at once in one lock-step
    damped Newton (`optimize._newton_lockstep`); a resample whose fit does
    not converge fails with SeparationError, alone.  The sums run over
    weighted rows rather than repeated ones, so a resample's coefficients
    match `fit_mu_models` on the materialised resample to rounding, not to
    the bit; they do not depend on which other resamples share the call.
    None runs `fit_mu_models`' own operations.
    """
    phi = expand_matrix(data.x, config) if phi is None else phi
    y = np.asarray(data.y, dtype=np.float64)
    outcomes = []
    for c in counts:
        try:
            require_positivity(data, c)
            outcomes.append({})
        except PositivityError as exc:
            outcomes.append(exc)
    for s, z in STRATA:
        mask = (data.s == s) & (data.z == z)
        phi_s, y_s = phi[mask], y[mask]
        live = []
        for b, functions in enumerate(outcomes):
            if isinstance(functions, FairdesertError):
                continue
            try:
                _require_both_labels(y_s if counts[b] is None else y_s[counts[b][mask] > 0], ridge)
                live.append(b)
            except SeparationError as exc:
                outcomes[b] = exc
        if not live:
            continue
        weights = np.array([np.ones(len(y_s)) if counts[b] is None else counts[b][mask]
                            for b in live], dtype=np.float64)
        results = _newton_lockstep(
            lambda ids, g: _bernoulli_terms(g, phi_s, y_s, ridge, weights[ids], hessian=True),
            np.zeros((len(live), phi.shape[1])),
        )
        for b, res in zip(live, results):
            try:
                outcomes[b][(s, z)] = SeriesFunction(config, _logit_fit(res).gamma)
            except SeparationError as exc:
                outcomes[b] = exc
    return [out if isinstance(out, FairdesertError) else MuModel(out) for out in outcomes]


def _class_probabilities(phi, coef):
    """The (n, 4) softmax of the linear predictors ``phi @ coef.T`` of classes
    1..3 against the reference class 0, whose predictor is 0."""
    eta = np.column_stack([np.zeros(phi.shape[0]), phi @ coef.T])
    eta -= eta.max(axis=1, keepdims=True)
    num = np.exp(eta)
    return num / num.sum(axis=1, keepdims=True)


def multinomial_negloglik(coef_flat, phi, classes, ridge=0.0):
    """Mean negative multinomial log-likelihood, reference class 0.

    ``coef_flat`` packs a (3, J) matrix row-wise for classes 1..3.
    Returns (value, gradient, hessian).
    """
    n, j = phi.shape
    probs = _class_probabilities(phi, coef_flat.reshape(3, j))
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
        probs = _class_probabilities(expand_matrix(x, self.config), self.coefficients)
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
    if _failed(res):
        raise SeparationError(
            f"multinomial fit did not converge (gradient norm {res.grad_norm:.2e})"
        )
    coef = res.x.reshape(3, phi.shape[1])
    return PropensityModel(config or BasisConfig(), coef)


def fit_propensity(data: Dataset, config: BasisConfig) -> PropensityModel:
    require_positivity(data)
    phi = expand_matrix(data.x, config)
    return fit_multinomial(phi, class_index(data.s, data.z), config=config)
