"""Deterministic smooth minimizers used by the fitting routines.

Two workhorses: a damped Newton method for the concave logit likelihoods
(fast, no tuning) and a BFGS quasi-Newton with backtracking line search for
the non-concave sieve criterion.  Both are dependency-free and bitwise
reproducible for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass
class OptResult:
    """Where a minimizer stopped; ``evaluations`` counts its objective calls."""

    x: np.ndarray
    fun: float
    grad_norm: float
    iterations: int
    converged: bool
    message: str = ""
    evaluations: int = 0


def _sup(g):
    return float(np.abs(g).max()) if g.size else 0.0


def newton_minimize(fgh, x0, tol=1e-8, max_iter=200):
    """Damped Newton on a smooth convex objective.

    ``fgh(x)`` returns (value, gradient, hessian).  Falls back to a gradient
    step whenever the Hessian solve fails; Armijo backtracking guarantees
    monotone decrease.
    """
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g, h = fgh(x)
    evals = 1
    for it in range(1, max_iter + 1):
        gnorm = _sup(g)
        if gnorm <= tol:
            return OptResult(x, f, gnorm, it - 1, True, evaluations=evals)
        try:
            step = np.linalg.solve(h, -g)
            if not np.isfinite(step).all() or g @ step >= 0:
                raise np.linalg.LinAlgError
        except np.linalg.LinAlgError:
            step = -g
        t = 1.0
        gdots = g @ step
        for _ in range(60):
            xn = x + t * step
            fn, gn, hn = fgh(xn)
            evals += 1
            if math.isfinite(fn) and fn <= f + 1e-4 * t * gdots:
                break
            t *= 0.5
        else:
            return OptResult(x, f, gnorm, it, False, "line search failed", evals)
        x, f, g, h = xn, fn, gn, hn
    gnorm = _sup(g)
    return OptResult(x, f, gnorm, max_iter, gnorm <= tol, "iteration limit", evals)


def bfgs_minimize(fg, x0, tol=1e-8, max_iter=500):
    """BFGS with Armijo backtracking; convergence on gradient sup-norm."""
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fg(x)
    evals = 1
    if not math.isfinite(f):
        return OptResult(x, f, _sup(g), 0, False, "non-finite start", evals)
    n = x.size
    eye = np.eye(n)
    hinv = eye.copy()
    first_update = True
    for it in range(1, max_iter + 1):
        gnorm = _sup(g)
        if gnorm <= tol:
            return OptResult(x, f, gnorm, it - 1, True, evaluations=evals)
        step = -(hinv @ g)
        gdots = g @ step
        if gdots >= 0:  # stale curvature; restart from steepest descent
            hinv = eye.copy()
            first_update = True
            step = -g
            gdots = g @ step
        t = 1.0
        for _ in range(60):
            xn = x + t * step
            fn, gn = fg(xn)
            evals += 1
            if math.isfinite(fn) and fn <= f + 1e-4 * t * gdots:
                break
            t *= 0.5
        else:
            return OptResult(x, f, gnorm, it, gnorm <= 100 * tol, "line search failed", evals)
        s = xn - x
        yv = gn - g
        sy = s @ yv
        # the norms as np.linalg.norm computes them, without its overhead
        if sy > 1e-12 * math.sqrt(s @ s) * math.sqrt(yv @ yv):
            if first_update:
                # scale the seed matrix to the problem's curvature before the
                # first update; standard and cuts iteration counts sharply
                hinv = (sy / (yv @ yv)) * eye
                first_update = False
            rho = 1.0 / sy
            v = eye - rho * (s[:, None] * yv)
            hinv = v @ hinv @ v.T + rho * (s[:, None] * s)
        x, f, g = xn, fn, gn
    gnorm = _sup(g)
    return OptResult(x, f, gnorm, max_iter, gnorm <= tol, "iteration limit", evals)
