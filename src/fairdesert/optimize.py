"""Deterministic smooth minimizers used by the fitting routines.

Two workhorses: a damped Newton method for the concave logit likelihoods
(fast, no tuning) and a BFGS quasi-Newton with backtracking line search for
the non-concave sieve criterion.  Each runs one of two loops: a plain loop on
1-d arrays for one start (`_one_start`: `newton_minimize`, `bfgs_minimize`
and a lock-step call with one start), and a loop that advances many starts
in lock-step, one objective call per round for all of them (`_lockstep`).
The loops share each formula (the Armijo test, the curvature test, the
seed scaling, the inverse-Hessian update and the Newton direction with its
fallbacks), so a start ends with the same bits in either.  Both methods are
dependency-free and bitwise reproducible for identical inputs.
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


def newton_minimize(fgh, x0, tol=1e-8, max_iter=200):
    """Damped Newton on a smooth convex objective.

    ``fgh(x)`` returns (value, gradient, hessian).  Falls back to a gradient
    step whenever the Hessian solve fails, gives a non-finite step or one
    that does not descend; Armijo backtracking, at most 60 halvings,
    guarantees monotone decrease.  Runs the one-start loop, bitwise what
    `_newton_lockstep` gives the same start in any group.
    """
    return _one_start(fgh, x0, tol, max_iter, newton=True)


def bfgs_minimize(fg, x0, tol=1e-8, max_iter=500):
    """BFGS with Armijo backtracking; convergence on gradient sup-norm.

    ``fg(x)`` returns (value, gradient).  Runs the one-start loop, bitwise
    what `_bfgs_lockstep` gives the same start in any group.
    """
    return _one_start(fg, x0, tol, max_iter, newton=False)


def _armijo(fn, f, t, slope):
    """Whether the trial value ``fn`` at step length ``t`` is finite and lies
    enough below ``f`` along a direction of slope ``slope``."""
    return math.isfinite(fn) and fn <= f + 1e-4 * t * slope


def _curved(sy, ss, yy):
    """Whether a BFGS step s with gradient change y (s . y, s . s, y . y)
    has the curvature to update the inverse-Hessian estimate."""
    # the norms as np.linalg.norm computes them, without its overhead
    return sy > 1e-12 * math.sqrt(ss) * math.sqrt(yy)


def _seed(sy, yy, eye):
    """The inverse-Hessian estimate at the first BFGS update: the identity
    scaled to the problem's curvature; standard and cuts iteration counts
    sharply."""
    return (sy / yy) * eye


def _inverse_update(hinv, s, yv, rho, eye):
    """The BFGS update v H v^T + rho s s^T, v = I - rho s y^T, of a (d, d)
    ``hinv`` (1-d ``s`` and ``yv``, scalar ``rho`` = 1 / s . y) or of a
    (k, d, d) stack ((k, d) ``s`` and ``yv``, (k, 1, 1) ``rho``)."""
    v = eye - rho * (s[..., :, None] * yv[..., None, :])
    return v @ hinv @ np.swapaxes(v, -1, -2) + rho * (s[..., :, None] * s[..., None, :])


def _newton_direction(g, h):
    """The Newton direction -H^-1 g of one start and its slope g . step;
    steepest descent -g where the Hessian solve fails, gives a non-finite
    step or one that does not descend."""
    try:
        step = np.linalg.solve(h, -g)
    except np.linalg.LinAlgError:
        step = None
    if step is not None and np.isfinite(step).all():
        slope = g @ step
        if not slope >= 0:
            return step, slope
    return -g, g @ -g


def _sup(g):
    """The sup-norm of the gradient ``g``; 0 when it is empty."""
    return float(np.abs(g).max(initial=0.0))


def _one_start(fg, x0, tol, max_iter, newton):
    """The loop of `newton_minimize` (``newton``: ``fg`` returns the Hessian
    too) and `bfgs_minimize` from the 1-d ``x0``.  The two differ as the
    lock-step ones do (`_lockstep`)."""
    x = np.array(x0, dtype=np.float64)
    f, g, *h = fg(x)
    f = float(f)
    evals = 1
    if not newton and not math.isfinite(f):
        return OptResult(x, f, _sup(g), 0, False, "non-finite start", evals)
    eye = None if newton else np.eye(x.size)
    hinv, first_update = eye, True
    for it in range(1, max_iter + 1):
        gnorm = _sup(g)
        if gnorm <= tol:
            return OptResult(x, f, gnorm, it - 1, True, evaluations=evals)
        if newton:
            step, slope = _newton_direction(g, h[0])
        else:
            step = -(hinv @ g)
            slope = g @ step
            if slope >= 0:  # stale curvature; restart from steepest descent
                hinv, first_update = eye, True
                step = -g
                slope = g @ step
        t = 1.0
        for _ in range(60):
            xn = x + t * step
            fn, gn, *hn = fg(xn)
            fn = float(fn)
            evals += 1
            if _armijo(fn, f, t, slope):
                break
            t *= 0.5
        else:
            return OptResult(x, f, gnorm, it, not newton and gnorm <= 100 * tol,
                             "line search failed", evals)
        if not newton:
            s = xn - x
            yv = gn - g
            sy, yy = s @ yv, yv @ yv
            if _curved(sy, s @ s, yy):
                if first_update:
                    hinv, first_update = _seed(sy, yy, eye), False
                hinv = _inverse_update(hinv, s, yv, 1.0 / sy, eye)
        x, f, g, h = xn, fn, gn, hn
    gnorm = _sup(g)
    return OptResult(x, f, gnorm, max_iter, gnorm <= tol, "iteration limit", evals)


def _alone(objective):
    """The lock-step ``objective(ids, x)`` of a group of one start as the
    1-d objective of `_one_start`."""
    ids = np.arange(1)

    def one(x):
        return tuple(part[0] for part in objective(ids, x[None]))
    return one


def _dots(a, b):
    """Row-wise dot products of two (k, d) arrays, each with the bits of the
    1-d ``a[i] @ b[i]`` (a stacked matmul; einsum sums in another order)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _index(rows, count):
    """An index for the listed ``rows`` of ``count``: a slice, which gives
    views, when it lists every row."""
    return slice(None) if len(rows) == count else np.array(rows)


class _Starts:
    """The unfinished starts of `_lockstep`, one row each: stacked arrays for
    the vectors and matrices, lists for the scalars.  ``curv`` holds each
    start's Hessian (Newton) or inverse-Hessian estimate (BFGS)."""

    ARRAYS = ("ids", "x", "g", "curv", "step")
    LISTS = ("f", "gnorm", "gdots", "t", "it", "evals", "tries", "first_update", "head")

    def __init__(self, x, f, g, curv):
        k, d = x.shape
        self.ids = np.arange(k)
        self.x, self.g, self.curv = x, g, curv
        self.step = np.empty((k, d))
        self.f = f
        # set at the head of each iteration
        self.gnorm = [0.0] * k
        self.gdots = [0.0] * k
        self.t = [1.0] * k
        self.it = [1] * k
        self.evals = [1] * k
        self.tries = [0] * k
        self.first_update = [True] * k
        # at the head of an iteration, rather than part-way through a line search
        self.head = [True] * k
        self.results = [None] * k
        self.stopped = []

    def stop(self, r, iterations, converged, message):
        """Record the result of row ``r``; `drop_stopped` removes the row."""
        self.results[self.ids[r]] = OptResult(
            self.x[r].copy(), self.f[r], self.gnorm[r], iterations, converged, message,
            self.evals[r])
        self.stopped.append(r)

    def drop_stopped(self):
        keep = [r for r in range(len(self.ids)) if r not in self.stopped]
        rows = np.array(keep, dtype=np.intp)
        for name in self.ARRAYS:
            setattr(self, name, getattr(self, name)[rows])
        for name in self.LISTS:
            values = getattr(self, name)
            setattr(self, name, [values[r] for r in keep])
        self.stopped = []


def _bfgs_lockstep(fg, x0, tol=1e-8, max_iter=500):
    """`bfgs_minimize` from each row of the (k, d) ``x0``, the starts advanced
    in lock-step: one OptResult per start, each bitwise the one that start
    gets alone.  A single start (k = 1) runs the one-start loop `_one_start`.

    ``fg(ids, x)`` evaluates the starts ``ids`` (an increasing array of
    indices into ``x0``) at the (len(ids), d) points ``x`` and returns their
    values, a sequence of len(ids) floats, and their (len(ids), d) gradients.
    Neither the points nor the gradients are written to afterwards, so ``fg``
    may keep them and return views.  Each round evaluates every unfinished start
    once, whether at a new iterate or at a trial step of its line search,
    and ``fg`` sees only those starts.  Each start does the arithmetic of the
    one-start loop: scalars as Python floats, vectors and matrices in stacked
    matmuls and elementwise ufuncs, which give every row the bits of the 1-d
    operations.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if len(x0) == 1:
        return [_one_start(_alone(fg), x0[0], tol, max_iter, newton=False)]
    return _lockstep(fg, x0, tol, max_iter, newton=False)


def _newton_lockstep(fgh, x0, tol=1e-8, max_iter=200):
    """`newton_minimize` from each row of the (k, d) ``x0``, the starts
    advanced in lock-step as `_bfgs_lockstep` advances its own: one OptResult
    per start, each bitwise the one that start gets alone; a single start
    runs `_one_start`.  ``fgh(ids, x)`` returns the values and gradients
    that `_bfgs_lockstep`'s ``fg`` returns, and the (len(ids), d, d)
    Hessians, which are not written to either."""
    x0 = np.asarray(x0, dtype=np.float64)
    if len(x0) == 1:
        return [_one_start(_alone(fgh), x0[0], tol, max_iter, newton=True)]
    return _lockstep(fgh, x0, tol, max_iter, newton=True)


def _lockstep(fg, x0, tol, max_iter, newton):
    """The loop of `_newton_lockstep` (``newton``) and `_bfgs_lockstep` for
    more than one start; a group whose live starts fall to one stays in it.
    The two differ in the direction a start takes (`_newton_steps`,
    `_bfgs_steps`), in what an accepted step updates, in the ``converged``
    flag of a failed line search (BFGS: gradient sup-norm within 100 tol) and
    in that BFGS stops at once a start whose value is not finite."""
    x = np.array(x0, dtype=np.float64)
    k, d = x.shape
    eye = None if newton else np.eye(d)
    f, g, *h = fg(np.arange(k), x.copy())
    st = _Starts(x, [float(v) for v in f], np.array(g, dtype=np.float64),
                 h[0] if newton else np.tile(eye, (k, 1, 1)))
    if not newton:
        for r in range(k):
            if not math.isfinite(st.f[r]):
                st.gnorm[r] = _sup(st.g[r])
                st.stop(r, 0, False, "non-finite start")
    while True:
        if st.stopped:
            if len(st.stopped) == st.ids.size:
                return st.results
            st.drop_stopped()
        count = st.ids.size
        if not count:
            return st.results
        heads = [r for r in range(count) if st.head[r]]
        if heads:
            rows = _index(heads, count)
            for r, gnorm in zip(heads, np.abs(st.g[rows]).max(axis=1, initial=0.0).tolist()):
                st.gnorm[r] = gnorm
                if st.it[r] > max_iter:
                    st.stop(r, max_iter, gnorm <= tol, "iteration limit")
                elif gnorm <= tol:
                    st.stop(r, st.it[r] - 1, True, "")
            if st.stopped:
                continue
            step, gdots = (_newton_steps if newton else _bfgs_steps)(st, heads, rows, eye)
            for r, gd in zip(heads, gdots):
                st.gdots[r] = gd
                st.t[r] = 1.0
                st.tries[r] = 0
            if len(heads) == count:
                st.step = step
            else:
                st.step[rows] = step

        xn = st.x + np.array(st.t)[:, None] * st.step
        fn, gn, *hn = fg(st.ids, xn)
        accepted = []
        for r, fr in enumerate(map(float, fn)):
            st.evals[r] += 1
            st.head[r] = _armijo(fr, st.f[r], st.t[r], st.gdots[r])
            if st.head[r]:
                accepted.append(r)
                st.f[r] = fr
                st.it[r] += 1
            else:
                st.t[r] *= 0.5
                st.tries[r] += 1
                if st.tries[r] == 60:
                    st.stop(r, st.it[r], not newton and st.gnorm[r] <= 100 * tol,
                            "line search failed")
        if not accepted:
            continue
        if not newton:
            _bfgs_update(st, accepted, count, xn, gn, eye)
        if len(accepted) == count:
            st.x, st.g = xn, gn
            if newton:
                st.curv = hn[0]
        else:
            moved = np.array(st.head)[:, None]
            st.x, st.g = np.where(moved, xn, st.x), np.where(moved, gn, st.g)
            if newton:
                st.curv = np.where(moved[:, :, None], hn[0], st.curv)


def _newton_steps(st, heads, rows, eye):
    """The directions of the starts at ``heads`` and their slopes, as
    `_newton_direction` gives each: one stacked solve, and each start whose
    stacked step falls back (or all of them, when one singular Hessian fails
    the stacked solve) on its own."""
    g, h = st.g[rows], st.curv[rows]
    try:
        step = np.linalg.solve(h, -g[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        step = np.full_like(g, np.nan)
    bad = ~np.isfinite(step).all(axis=1)
    step[bad] = 0.0  # no slope of a non-finite step: it would warn
    gdots = _dots(g, step)
    for i in np.flatnonzero(bad | (gdots >= 0)).tolist():
        step[i], gdots[i] = _newton_direction(g[i], h[i])
    return step, gdots.tolist()


def _bfgs_steps(st, heads, rows, eye):
    """The quasi-Newton directions -H g of the starts at ``heads`` and their
    slopes g . step; where a direction does not descend, the start restarts
    from steepest descent."""
    g = st.g[rows]
    step = -(st.curv[rows] @ g[:, :, None])[:, :, 0]
    gdots = _dots(g, step).tolist()
    for i, r in enumerate(heads):
        if gdots[i] >= 0:  # stale curvature; restart from steepest descent
            st.curv[r] = eye
            st.first_update[r] = True
            step[i] = -g[i]
            gdots[i] = float(g[i] @ step[i])
    return step, gdots


def _bfgs_update(st, accepted, count, xn, gn, eye):
    """The BFGS update of the inverse-Hessian estimates of the ``accepted``
    starts, from their steps to ``xn`` and gradient changes to ``gn``."""
    rows = _index(accepted, count)
    s = xn[rows] - st.x[rows]
    yv = gn[rows] - st.g[rows]
    sy, ss, yy = _dots(s, yv), _dots(s, s), _dots(yv, yv)
    curved = [i for i, a in enumerate(zip(sy.tolist(), ss.tolist(), yy.tolist()))
              if _curved(*a)]
    if not curved:
        return
    for i in curved:
        r = accepted[i]
        if st.first_update[r]:
            st.curv[r] = _seed(sy[i], yy[i], eye)
            st.first_update[r] = False
    pick = _index(curved, len(accepted))
    update = _index([accepted[i] for i in curved], count)
    hinv = _inverse_update(st.curv[update], s[pick], yv[pick],
                           (1.0 / sy[pick])[:, None, None], eye)
    if len(curved) == count:
        st.curv = hinv
    else:
        st.curv[update] = hinv
