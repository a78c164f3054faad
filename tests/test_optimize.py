import math

import numpy as np
import pytest

from fairdesert.basis import BasisConfig
from fairdesert.optimize import OptResult, _bfgs_lockstep, bfgs_minimize, newton_minimize
from fairdesert.sievemle import FitOptions, SensitivityParams, SieveProblem
from fairdesert.simulate import DgpConfig, gen_dataset


def _old_sup(g):
    return float(np.max(np.abs(g))) if g.size else 0.0


def old_bfgs_minimize(fg, x0, tol=1e-8, max_iter=500):
    """Oracle: BFGS as written before its bookkeeping was trimmed, verbatim."""
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g = fg(x)
    if not np.isfinite(f):
        return OptResult(x, f, _old_sup(g), 0, False, "non-finite start")
    n = x.size
    eye = np.eye(n)
    hinv = eye.copy()
    first_update = True
    for it in range(1, max_iter + 1):
        gnorm = _old_sup(g)
        if gnorm <= tol:
            return OptResult(x, f, gnorm, it - 1, True)
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
            if np.isfinite(fn) and fn <= f + 1e-4 * t * gdots:
                break
            t *= 0.5
        else:
            return OptResult(x, f, gnorm, it, gnorm <= 100 * tol, "line search failed")
        s = xn - x
        yv = gn - g
        sy = s @ yv
        if sy > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(yv)):
            if first_update:
                # scale the seed matrix to the problem's curvature before the
                # first update; standard and cuts iteration counts sharply
                hinv = (sy / (yv @ yv)) * eye
                first_update = False
            rho = 1.0 / sy
            v = eye - rho * np.outer(s, yv)
            hinv = v @ hinv @ v.T + rho * np.outer(s, s)
        x, f, g = xn, fn, gn
    return OptResult(x, f, _old_sup(g), max_iter, _old_sup(g) <= tol, "iteration limit")


def counted(fg):
    """``fg`` plus a list that grows by one entry per call."""
    calls = []

    def wrapped(x):
        calls.append(1)
        return fg(x)
    return wrapped, calls


def quadratic(center, scale):
    def fgh(x):
        diff = (x - center) * scale
        return 0.5 * diff @ (diff / scale) * 1.0, diff, np.diag(scale)
    def fg(x):
        f, g, _ = fgh(x)
        return f, g
    return fgh, fg


def test_newton_solves_quadratic_in_one_step():
    fgh, _ = quadratic(np.array([1.0, -2.0, 3.0]), np.array([4.0, 1.0, 0.25]))
    res = newton_minimize(fgh, np.zeros(3))
    assert res.converged and res.iterations <= 2
    assert np.allclose(res.x, [1.0, -2.0, 3.0], atol=1e-8)


def test_bfgs_on_ill_conditioned_quadratic():
    scale = np.array([1000.0, 1.0, 0.001])
    _, fg = quadratic(np.array([0.5, -0.5, 2.0]), scale)
    res = bfgs_minimize(fg, np.zeros(3), tol=1e-10, max_iter=500)
    assert res.converged
    assert np.allclose(res.x, [0.5, -0.5, 2.0], atol=1e-5)


def rosenbrock(x):
    f = (1 - x[0]) ** 2 + 5 * (x[1] - x[0] ** 2) ** 2
    g = np.array([
        -2 * (1 - x[0]) - 20 * (x[1] - x[0] ** 2) * x[0],
        10 * (x[1] - x[0] ** 2),
    ])
    return f, g


def test_bfgs_on_nonconvex_smooth():
    res = bfgs_minimize(rosenbrock, np.array([-1.0, 1.0]), tol=1e-9, max_iter=2000)
    assert res.converged
    assert np.allclose(res.x, [1.0, 1.0], atol=1e-5)


def test_optimizers_deterministic():
    _, fg = quadratic(np.array([0.3, 0.7]), np.array([2.0, 5.0]))
    a = bfgs_minimize(fg, np.array([5.0, -5.0]))
    b = bfgs_minimize(fg, np.array([5.0, -5.0]))
    assert np.array_equal(a.x, b.x) and a.fun == b.fun


def test_bfgs_reports_nonconvergence():
    res = bfgs_minimize(rosenbrock, np.array([-1.2, 0.7]), tol=1e-12, max_iter=2)
    assert not res.converged


def sieve_objective(variant, precondition):
    data, _, _ = gen_dataset(DgpConfig(n=500, seed=13))
    sens = SensitivityParams() if variant == "baseline" else SensitivityParams(variant, 0.04, 0.06)
    problem = SieveProblem(data, BasisConfig(interaction_order=1), FitOptions(),
                           sensitivity=sens, precondition=precondition)
    start = np.zeros(problem.dim)
    start[::problem.j] = (-0.4, 0.5, -1.5, -1.2)
    return problem.value_grad, start


CASES = {
    "ill-conditioned-quadratic": lambda: (
        quadratic(np.array([0.5, -0.5, 2.0]), np.array([1000.0, 1.0, 0.001]))[1],
        np.zeros(3), dict(tol=1e-10, max_iter=500)),
    "rosenbrock": lambda: (rosenbrock, np.array([-1.0, 1.0]), dict(tol=1e-9, max_iter=2000)),
    "rosenbrock-classic-start": lambda: (
        rosenbrock, np.array([-1.2, 1.0]), dict(tol=1e-9, max_iter=2000)),
    "rosenbrock-iteration-limit": lambda: (
        rosenbrock, np.array([-1.2, 0.7]), dict(tol=1e-12, max_iter=2)),
    "sieve-baseline": lambda: (*sieve_objective("baseline", True), {}),
    "sieve-delta-raw": lambda: (*sieve_objective("delta", False), dict(max_iter=60)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_bfgs_bitwise_old_bookkeeping(case):
    fg, x0, kwargs = CASES[case]()
    counting, calls = counted(fg)
    got = bfgs_minimize(counting, x0, **kwargs)
    want = old_bfgs_minimize(fg, x0, **kwargs)
    assert np.array_equal(got.x, want.x)
    assert (got.fun, got.grad_norm, got.iterations, got.converged, got.message) == (
        want.fun, want.grad_norm, want.iterations, want.converged, want.message)
    assert got.evaluations == len(calls) > got.iterations


def test_newton_counts_evaluations():
    fgh, _ = quadratic(np.array([1.0, -2.0, 3.0]), np.array([4.0, 1.0, 0.25]))
    counting, calls = counted(fgh)
    res = newton_minimize(counting, np.zeros(3))
    assert res.evaluations == len(calls) == res.iterations + 1


def tiny_quadratic(x):
    # g @ -g underflows to -0.0, so every iteration takes the steepest-descent
    # reset of `gdots >= 0`
    return 0.5e-300 * float(x @ x), 1e-300 * x


def wrong_gradient(x):
    # the gradient points uphill: no step passes the Armijo test
    return float(x.sum()), -np.ones_like(x)


def finite_left_of_five(x):
    return (0.5 * float(x @ x) if x[0] < 5 else math.inf), x.copy()


ROTATION = np.array([[-0.590824915541825, 0.8067998011743653],
                     [0.8067998011743653, 0.5908249155418249]])
SKEWED = ROTATION @ np.diag([2.0176316308720963e-07, 482649.19768569805]) @ ROTATION.T


def skewed_quadratic(x):
    # with tol=0 BFGS runs into rounding: it takes the steepest-descent reset
    # at iterations 7 and 17, after curvature updates and before more, and
    # backtracks 95 times in 20 iterations, at most 18 times in one
    g = SKEWED @ x
    return 0.5 * float(x @ g), g


# (objective, start), run with tol=0 and max_iter=20: converges (its first
# step lands on the minimum), hits the iteration limit, fails its line search,
# starts where the value is not finite, takes the steepest-descent reset
MIXED_STARTS = [
    (quadratic(np.zeros(2), np.ones(2))[1], np.array([1.0, 2.0])),
    (rosenbrock, np.array([-1.2, 1.0])),
    (wrong_gradient, np.zeros(2)),
    (finite_left_of_five, np.array([10.0, 0.0])),
    (tiny_quadratic, np.array([1.0, -1.0])),
    (rosenbrock, np.array([0.5, 0.5])),
    (skewed_quadratic, np.array([1.128942594006272, 5.692288181782531])),
    (quadratic(np.array([0.3, 0.7]), np.array([2.0, 5.0]))[1], np.array([5.0, -5.0])),
]


def stacked(objectives):
    """The lock-step objective of one 1-d objective per start."""
    def fg(ids, x):
        values, grads = zip(*(objectives[i](row) for i, row in zip(ids, x)))
        return np.array(values), np.array(grads)
    return fg


@pytest.mark.parametrize("size", [1, 3, len(MIXED_STARTS)])
def test_lockstep_groups_match_one_start_at_a_time(size):
    g0 = tiny_quadratic(MIXED_STARTS[4][1])[1]
    assert g0 @ -g0 >= 0
    kwargs = dict(tol=0.0, max_iter=20)
    got = []
    for first in range(0, len(MIXED_STARTS), size):
        group = MIXED_STARTS[first:first + size]
        objectives = [fg for fg, _ in group]
        got += _bfgs_lockstep(stacked(objectives), np.stack([x0 for _, x0 in group]), **kwargs)
    assert {r.message for r in got} == {"", "iteration limit", "line search failed",
                                        "non-finite start"}
    # the starts end in different rounds
    assert len({r.evaluations for r in got}) > 3
    for (fg, x0), result in zip(MIXED_STARTS, got, strict=True):
        counting, calls = counted(fg)
        alone = bfgs_minimize(counting, x0, **kwargs)
        old_counting, old_calls = counted(fg)
        old = old_bfgs_minimize(old_counting, x0, **kwargs)
        assert result.x.tobytes() == alone.x.tobytes() == old.x.tobytes()
        fields = ("fun", "grad_norm", "iterations", "converged", "message")
        assert [getattr(result, f) for f in fields] == [getattr(alone, f) for f in fields] == [
            getattr(old, f) for f in fields]
        assert result.evaluations == alone.evaluations == len(calls) == len(old_calls)
