import math

import numpy as np
import pytest

from fairdesert.basis import BasisConfig
from fairdesert.optimize import (
    OptResult,
    _bfgs_lockstep,
    _lockstep,
    _newton_lockstep,
    bfgs_minimize,
    newton_minimize,
)
from fairdesert.regress import bernoulli_negloglik, multinomial_negloglik
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


def old_newton_minimize(fgh, x0, tol=1e-8, max_iter=200):
    """Oracle: damped Newton as written before it became the one-start case
    of the lock-step loop, verbatim but for the gradient sup-norm, which
    `_old_sup` computes the same way."""
    x = np.asarray(x0, dtype=np.float64).copy()
    f, g, h = fgh(x)
    evals = 1
    for it in range(1, max_iter + 1):
        gnorm = _old_sup(g)
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
    gnorm = _old_sup(g)
    return OptResult(x, f, gnorm, max_iter, gnorm <= tol, "iteration limit", evals)


def logit_draw(n, j, seed):
    rng = np.random.default_rng(seed)
    phi = np.column_stack([np.ones(n), rng.uniform(size=(n, j - 1))])
    y = (rng.uniform(size=n) < 1 / (1 + np.exp(-(phi @ rng.normal(0, 1.5, j))))).astype(float)
    return rng, phi, y


def logistic_case(weighted):
    rng, phi, y = logit_draw(600, 4, 3)
    weights = rng.integers(0, 4, 600).astype(float) if weighted else None
    return (lambda g: bernoulli_negloglik(g, phi, y, 1e-8, weights)), np.zeros(4), {}


def multinomial_case():
    rng, phi, _ = logit_draw(800, 3, 4)
    classes = rng.integers(0, 4, 800)
    return (lambda c: multinomial_negloglik(c, phi, classes, 1e-8)), np.zeros(9), {}


NEWTON_CASES = {
    "quadratic": lambda: (
        quadratic(np.array([1.0, -2.0, 3.0]), np.array([4.0, 1.0, 0.25]))[0], np.zeros(3), {}),
    "logistic": lambda: logistic_case(False),
    "weighted-logistic": lambda: logistic_case(True),
    "multinomial": multinomial_case,
    "logistic-iteration-limit": lambda: (*logistic_case(False)[:2], dict(tol=0.0, max_iter=3)),
    # the line search fails with the gradient within 100 tol: not converged
    "line-search-fails-near-tol": lambda: (
        lambda x: (float(x.sum()), np.full_like(x, -1e-9), np.eye(x.size)), np.zeros(2),
        dict(tol=1e-10)),
}


@pytest.mark.parametrize("case", list(NEWTON_CASES))
def test_newton_bitwise_old_body(case):
    fgh, x0, kwargs = NEWTON_CASES[case]()
    counting, calls = counted(fgh)
    got = newton_minimize(counting, x0, **kwargs)
    want = old_newton_minimize(fgh, x0, **kwargs)
    assert got.x.tobytes() == want.x.tobytes()
    assert (got.fun, got.grad_norm, got.iterations, got.converged, got.message) == (
        want.fun, want.grad_norm, want.iterations, want.converged, want.message)
    assert got.evaluations == want.evaluations == len(calls)


def with_hessian(fg, hessian):
    def fgh(x):
        f, g = fg(x)
        return f, g, hessian(x)
    return fgh


def quartic(x):
    # Newton shrinks x by a third per step: it never meets tol=0
    return float((x ** 4).sum()), 4 * x ** 3, np.diag(12 * x ** 2)


def flat_direction(x):
    # a singular Hessian: the solve raises LinAlgError and the start steps along -g
    u = x[0] + x[1]
    return 0.5 * u * u, np.array([u, u]), np.ones((2, 2))


def concave_model(x):
    # the Hessian points uphill, g @ step > 0: steepest descent instead
    return 0.5 * float(x @ x), x.copy(), -np.eye(2)


def huge_step(x):
    # the solve overflows to inf: steepest descent instead
    return 0.5 * float(x @ x), x.copy(), np.diag([1e-320, 1.0])


def nan_start(x):
    return math.nan, x.copy(), np.eye(2)


def tiny_hessian(x):
    # each Newton step overshoots by 1e12: 39 halvings in every iteration
    return 0.5 * float(x @ x), x.copy(), 1e-12 * np.eye(2)


# (objective, start), run with tol=0 and max_iter=20: converges (its first
# step lands on the minimum), hits the iteration limit, fails its line
# search, takes the gradient fallback on a singular Hessian, on an uphill and
# on a non-finite Newton step, starts where the value is infinite (and
# recovers) or NaN (and fails its line search), backtracks in every
# iteration, converges in many steps
MIXED_NEWTON_STARTS = [
    (quadratic(np.zeros(2), np.ones(2))[0], np.array([1.0, 2.0])),
    (quartic, np.array([1.0, -0.5])),
    (with_hessian(wrong_gradient, lambda x: np.eye(2)), np.zeros(2)),
    (flat_direction, np.array([1.0, 2.0])),
    (concave_model, np.array([0.5, -1.5])),
    (huge_step, np.array([2.0, 1.0])),
    (with_hessian(finite_left_of_five, lambda x: np.eye(2)), np.array([10.0, 0.0])),
    (nan_start, np.array([1.0, 1.0])),
    (tiny_hessian, np.array([1.0, -2.0])),
    (with_hessian(rosenbrock, lambda x: np.array([
        [2 - 20 * (x[1] - 3 * x[0] ** 2), -20 * x[0]], [-20 * x[0], 10.0]])),
     np.array([-1.2, 1.0])),
]


@pytest.mark.parametrize("size", [1, 4, len(MIXED_NEWTON_STARTS)])
def test_newton_lockstep_matches_one_start_at_a_time(size):
    kwargs = dict(tol=0.0, max_iter=20)
    got = []
    for first in range(0, len(MIXED_NEWTON_STARTS), size):
        group = MIXED_NEWTON_STARTS[first:first + size]
        objectives = [fgh for fgh, _ in group]

        def fgh(ids, x):
            values, grads, hessians = zip(*(objectives[i](row) for i, row in zip(ids, x)))
            return np.array(values), np.array(grads), np.array(hessians)
        got += _newton_lockstep(fgh, np.stack([x0 for _, x0 in group]), **kwargs)
    assert {r.message for r in got} == {"", "iteration limit", "line search failed"}
    # the starts end in different rounds
    assert len({r.evaluations for r in got}) > 4
    for (fgh, x0), result in zip(MIXED_NEWTON_STARTS, got, strict=True):
        counting, calls = counted(fgh)
        alone = newton_minimize(counting, x0, **kwargs)
        old = old_newton_minimize(fgh, x0, **kwargs)
        assert result.x.tobytes() == alone.x.tobytes() == old.x.tobytes()
        assert stop_fields(result) == stop_fields(alone) == stop_fields(old)
        assert result.evaluations == alone.evaluations == len(calls) == old.evaluations


def stop_fields(result):
    """How a start stopped, with its value and gradient norm as bits (a NaN
    start keeps a NaN value)."""
    return (np.float64(result.fun).tobytes(), np.float64(result.grad_norm).tobytes(),
            result.iterations, result.converged, result.message)


def one_start(fn):
    """The lock-step objective of the 1-d objective ``fn`` for one start."""
    def stacked_fn(ids, x):
        assert ids.tolist() == [0] and x.shape[0] == 1
        return tuple(np.asarray(part)[None] for part in fn(x[0]))
    return stacked_fn


def result_fields(result):
    return (result.x.tobytes(), *stop_fields(result), result.evaluations)


def logistic_fg():
    fgh, x0, _ = logistic_case(False)
    return (lambda g: fgh(g)[:2]), x0


# (objective, start, keyword arguments) of one start: a sieve objective, a
# logistic one, the iteration limit, a failed line search, a non-finite start
ONE_START_BFGS = {
    "sieve": lambda: (*sieve_objective("delta", True), dict(max_iter=80)),
    "logistic": lambda: (*logistic_fg(), {}),
    "iteration-limit": lambda: (rosenbrock, np.array([-1.2, 0.7]), dict(tol=1e-12, max_iter=2)),
    "line-search-fails": lambda: (wrong_gradient, np.zeros(2), {}),
    "non-finite-start": lambda: (finite_left_of_five, np.array([10.0, 0.0]), {}),
}


@pytest.mark.parametrize("case", list(ONE_START_BFGS))
def test_one_bfgs_start_gets_the_same_bits_from_both_drivers(case):
    fg, x0, kwargs = ONE_START_BFGS[case]()
    options = dict(tol=1e-8, max_iter=500) | kwargs
    alone = bfgs_minimize(fg, x0, **options)
    (loop,) = _lockstep(one_start(fg), x0[None], **options, newton=False)
    (group,) = _bfgs_lockstep(one_start(fg), x0[None], **options)
    assert result_fields(loop) == result_fields(alone) == result_fields(group)
    assert loop.converged == alone.converged == group.converged


ONE_START_NEWTON = {
    "logistic": lambda: logistic_case(False),
    "multinomial": multinomial_case,
    "iteration-limit": lambda: (quartic, np.array([1.0, -0.5]), dict(tol=0.0, max_iter=20)),
    "line-search-fails": lambda: (
        with_hessian(wrong_gradient, lambda x: np.eye(2)), np.zeros(2), {}),
    "non-finite-start": lambda: (nan_start, np.array([1.0, 1.0]), {}),
    "singular-hessian": lambda: (flat_direction, np.array([1.0, 2.0]), dict(tol=0.0, max_iter=20)),
    "uphill-step": lambda: (concave_model, np.array([0.5, -1.5]), dict(tol=0.0, max_iter=20)),
    "overflowing-step": lambda: (huge_step, np.array([2.0, 1.0]), dict(tol=0.0, max_iter=20)),
}


@pytest.mark.parametrize("case", list(ONE_START_NEWTON))
def test_one_newton_start_gets_the_same_bits_from_both_drivers(case):
    fgh, x0, kwargs = ONE_START_NEWTON[case]()
    options = dict(tol=1e-8, max_iter=200) | kwargs
    alone = newton_minimize(fgh, x0, **options)
    (loop,) = _lockstep(one_start(fgh), x0[None], **options, newton=True)
    (group,) = _newton_lockstep(one_start(fgh), x0[None], **options)
    assert result_fields(loop) == result_fields(alone) == result_fields(group)
    assert loop.converged == alone.converged == group.converged
