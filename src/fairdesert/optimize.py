"""Deterministic smooth minimizers used by the fitting routines.

Two workhorses: a damped Newton method for the concave logit likelihoods
(fast, no tuning) and a BFGS quasi-Newton with backtracking line search for
the non-concave sieve criterion.  Both run in one loop that advances many
starts in lock-step, one objective call per round for all of them; a single
start is the case of one.  Both are dependency-free and bitwise reproducible
for identical inputs.
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
    guarantees monotone decrease.  The one-start case of `_newton_lockstep`.
    """
    def stacked(ids, x):
        f, g, h = fgh(x[0])
        return [f], np.asarray(g, dtype=np.float64)[None], np.asarray(h, dtype=np.float64)[None]

    (result,) = _newton_lockstep(stacked, np.asarray(x0, dtype=np.float64)[None], tol, max_iter)
    return result


def bfgs_minimize(fg, x0, tol=1e-8, max_iter=500):
    """BFGS with Armijo backtracking; convergence on gradient sup-norm.

    ``fg(x)`` returns (value, gradient).  The one-start case of
    `_bfgs_lockstep`.
    """
    def stacked(ids, x):
        f, g = fg(x[0])
        return [f], np.asarray(g, dtype=np.float64)[None]

    (result,) = _bfgs_lockstep(stacked, np.asarray(x0, dtype=np.float64)[None], tol, max_iter)
    return result


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
    gets alone.

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
    return _lockstep(fg, x0, tol, max_iter, newton=False)


def _newton_lockstep(fgh, x0, tol=1e-8, max_iter=200):
    """`newton_minimize` from each row of the (k, d) ``x0``, the starts
    advanced in lock-step as `_bfgs_lockstep` advances its own: one OptResult
    per start, each bitwise the one that start gets alone.  ``fgh(ids, x)``
    returns the values and gradients that `_bfgs_lockstep`'s ``fg`` returns,
    and the (len(ids), d, d) Hessians, which are not written to either."""
    return _lockstep(fgh, x0, tol, max_iter, newton=True)


def _lockstep(fg, x0, tol, max_iter, newton):
    """The loop of `_newton_lockstep` (``newton``) and `_bfgs_lockstep`.  The
    two differ in the direction a start takes (`_newton_steps`,
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
                st.gnorm[r] = float(np.abs(st.g[r]).max(initial=0.0))
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
            st.head[r] = math.isfinite(fr) and fr <= st.f[r] + 1e-4 * st.t[r] * st.gdots[r]
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
    """The directions -H^-1 g of the starts at ``heads`` and their slopes
    g . step; steepest descent -g where the Hessian solve fails, gives a
    non-finite step or one that does not descend."""
    g, h = st.g[rows], st.curv[rows]
    try:
        step = np.linalg.solve(h, -g[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        # one singular Hessian fails the stacked solve: solve each on its own
        step = np.empty_like(g)
        for i in range(len(heads)):
            try:
                step[i] = np.linalg.solve(h[i], -g[i])
            except np.linalg.LinAlgError:
                step[i] = np.nan
    if not np.isfinite(step).all():
        bad = ~np.isfinite(step).all(axis=1)
        step[bad] = -g[bad]
    gdots = _dots(g, step).tolist()
    for i, gd in enumerate(gdots):
        if gd >= 0:
            step[i] = -g[i]
            gdots[i] = float(g[i] @ step[i])
    return step, gdots


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
    # the norms as np.linalg.norm computes them, without its overhead
    curved = [i for i, (a, b, c) in enumerate(zip(sy.tolist(), ss.tolist(), yy.tolist()))
              if a > 1e-12 * math.sqrt(b) * math.sqrt(c)]
    if not curved:
        return
    for i in curved:
        r = accepted[i]
        if st.first_update[r]:
            # scale the seed matrix to the problem's curvature before
            # the first update; standard and cuts iteration counts sharply
            st.curv[r] = (sy[i] / yy[i]) * eye
            st.first_update[r] = False
    pick = _index(curved, len(accepted))
    s, yv, rho = s[pick], yv[pick], (1.0 / sy[pick])[:, None, None]
    update = _index([accepted[i] for i in curved], count)
    v = eye - rho * (s[:, :, None] * yv[:, None, :])
    hinv = (v @ st.curv[update] @ v.transpose(0, 2, 1)
            + rho * (s[:, :, None] * s[:, None, :]))
    if len(curved) == count:
        st.curv = hinv
    else:
        st.curv[update] = hinv
