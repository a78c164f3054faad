import json
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdesert.basis import MONOMIAL_BLOCK_ROWS, BasisConfig, expit, orthonormal_design
from fairdesert.errors import SeparationError, UndefinedAUCError
from fairdesert.data import Dataset
from fairdesert.optimize import bfgs_minimize
from fairdesert.regress import bernoulli_value_grad
from fairdesert.simulate import (
    DgpConfig,
    FeatureMap,
    MonteCarloSettings,
    _test_scores,
    auc,
    fit_ftu,
    fit_ld,
    fit_mlc,
    fit_uml,
    gen_dataset,
    monte_carlo,
    oracle_theta,
    run_replication,
)


def test_dgp_one_sided_exact_at_delta_zero():
    data, ystar, _ = gen_dataset(DgpConfig(n=50_000, delta=0.0, seed=1))
    adv_deserving = (data.s == 1) & (ystar == 1)
    assert np.all(data.y[adv_deserving] == 1)
    dis_undeserving = (data.s == 0) & (ystar == 0)
    assert np.all(data.y[dis_undeserving] == 0)


def test_dgp_delta_upgrade_rate():
    data, ystar, _ = gen_dataset(DgpConfig(n=1_000_000, delta=0.1, seed=2))
    mask = (data.s == 0) & (ystar == 0)
    assert abs(float(np.mean(data.y[mask])) - 0.1) < 0.01


def quadrature_discrimination_rate():
    """E[Y=0 | Y*=1, S=0] by midpoint quadrature over the unit square,
    weighting by the conditional density of X given (S=0, Y*=1)."""
    from fairdesert.simulate import _alpha, _p_s1, _p_z1, _tau0, _tau1

    grid = np.linspace(0.5 / 2000, 1 - 0.5 / 2000, 2000)
    xx, yy = np.meshgrid(grid, grid, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    weight = (1 - _p_s1(pts)) * (
        _p_z1(pts) * _tau1(pts) + (1 - _p_z1(pts)) * _tau0(pts)
    )
    return float(np.sum(_alpha(pts) * weight) / np.sum(weight))


def test_dgp_discrimination_rate_matches_quadrature():
    expected = quadrature_discrimination_rate()
    data, ystar, _ = gen_dataset(DgpConfig(n=1_000_000, delta=0.0, seed=3))
    mask = (data.s == 0) & (ystar == 1)
    observed = float(np.mean(data.y[mask] == 0))
    assert abs(observed - expected) < 0.005


def reference_flip_rates(delta, s, x):
    """Oracle: the generator's mechanism written out on its own."""
    from fairdesert.simulate import _alpha, _beta

    down = np.where(s == 1, delta, _alpha(x))
    up = np.where(s == 1, _beta(x), delta)
    return down, up


def reference_gen_dataset(config, seed):
    """Oracle: the generator with its own mechanism (draws as gen_dataset)."""
    from fairdesert.simulate import _p_s1, _p_z1, _tau0, _tau1

    rng = np.random.default_rng(seed)
    n = config.n
    x = rng.uniform(size=(n, 2))
    s = (rng.random(n) < _p_s1(x)).astype(np.int8)
    z = (rng.random(n) < _p_z1(x)).astype(np.int8)
    tau = np.where(z == 1, _tau1(x), _tau0(x))
    ystar = (rng.random(n) < tau).astype(np.int8)
    down, up = reference_flip_rates(config.delta, s, x)
    flip_to_0 = rng.random(n) < down
    flip_to_1 = rng.random(n) < up
    y = np.where(ystar == 1, np.where(flip_to_0, 0, 1), np.where(flip_to_1, 1, 0))
    return s, z, y.astype(np.int8), x, ystar


def reference_oracle_integrand(config, x):
    """Oracle: f(Y != Y* | X = x), evaluating the truth once per stratum."""
    from fairdesert.simulate import _p_s1, _p_z1, _tau0, _tau1

    m = x.shape[0]
    ps, pz = _p_s1(x), _p_z1(x)
    acc = np.zeros(m)
    for s_val in (0, 1):
        for z_val in (0, 1):
            w = (ps if s_val else 1 - ps) * (pz if z_val else 1 - pz)
            tau = _tau1(x) if z_val else _tau0(x)
            down, up = reference_flip_rates(config.delta, np.full(m, s_val), x)
            acc += w * (tau * down + (1 - tau) * up)
    return acc


def reference_oracle_theta(config, draws, seed=20_240_501):
    """Oracle: plain Monte Carlo over X of the reference integrand; returns
    the mean and its standard error."""
    rng = np.random.default_rng(seed)
    total = total_sq = 0.0
    done = 0
    while done < draws:
        m = min(1_000_000, draws - done)
        acc = reference_oracle_integrand(config, rng.uniform(size=(m, 2)))
        total += float(acc.sum())
        total_sq += float(acc @ acc)
        done += m
    mean = total / draws
    return mean, np.sqrt((total_sq / draws - mean**2) / (draws - 1))


@pytest.mark.parametrize("delta", [0.0, 0.1])
def test_generator_matches_reference_mechanism(delta):
    for seed in (0, 1, 2):
        config = DgpConfig(n=20_000, delta=delta, seed=seed)
        data, ystar, _ = gen_dataset(config)
        s, z, y, x, ystar_ref = reference_gen_dataset(config, seed)
        for got, want in ((data.s, s), (data.z, z), (data.y, y), (data.x, x),
                          (ystar, ystar_ref)):
            assert np.array_equal(got, want)
    config = DgpConfig(delta=delta)
    value = oracle_theta(config)
    # the reference integrand on the default 64 x 64 Gauss-Legendre nodes
    t, w = np.polynomial.legendre.leggauss(64)
    t, w = (t + 1) / 2, w / 2
    xx, yy = np.meshgrid(t, t, indexing="ij")
    nodes = np.column_stack([xx.ravel(), yy.ravel()])
    quadrature = float(np.outer(w, w).ravel() @ reference_oracle_integrand(config, nodes))
    assert abs(value - quadrature) <= 1e-15
    mean, se = reference_oracle_theta(config, 2_000_000)
    assert abs(value - mean) <= 4 * se


@pytest.mark.parametrize("delta", [0.0, 0.05, 0.1, 0.45])
def test_oracle_theta_quadrature_converged(delta):
    config = DgpConfig(delta=delta)
    assert abs(oracle_theta(config, draws=32**2) - oracle_theta(config, draws=128**2)) <= 1e-13


@pytest.mark.parametrize("delta, monte_carlo_value", [
    (0.0, 0.2604663834066517),
    (0.05, 0.28161802635624583),
    (0.1, 0.3027696693058401),
])
def test_oracle_theta_within_old_monte_carlo_error(delta, monte_carlo_value):
    """The quadrature agrees with the 10^7-draw Monte Carlo oracle it replaced
    (seed 20240501, about +-1e-4) within that estimate's accuracy."""
    assert abs(oracle_theta(DgpConfig(delta=delta)) - monte_carlo_value) < 1e-4


def test_gen_dataset_deterministic():
    a, ystar_a, _ = gen_dataset(DgpConfig(n=500, seed=9))
    b, ystar_b, _ = gen_dataset(DgpConfig(n=500, seed=9))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    assert np.array_equal(ystar_a, ystar_b)


def test_dgp_config_validation():
    with pytest.raises(ValueError):
        DgpConfig(n=50)
    with pytest.raises(ValueError):
        DgpConfig(n=1000, delta=0.6)


def test_oracle_theta_matches_binary_simulation():
    config = DgpConfig(n=2000, delta=0.0, seed=0)
    value = oracle_theta(config)
    data, ystar, _ = gen_dataset(DgpConfig(n=2_000_000, seed=77))
    assert abs(value - float(np.mean(data.y != ystar))) < 0.002
    assert oracle_theta(config) == value  # deterministic


def test_auc_worked_example():
    assert auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)


def test_auc_perfect_and_random():
    labels = np.repeat([0, 1], 500)
    scores = np.concatenate([np.linspace(0, 0.4, 500), np.linspace(0.6, 1.0, 500)])
    assert auc(scores, labels) == 1.0
    rng = np.random.default_rng(0)
    assert abs(auc(rng.uniform(size=100_000), rng.integers(0, 2, 100_000)) - 0.5) < 0.01


def test_auc_ties_half_credit():
    assert auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == pytest.approx(0.5)


def test_auc_single_class_error():
    with pytest.raises(UndefinedAUCError):
        auc([0.1, 0.9], [1, 1])


@pytest.mark.parametrize("scores, labels", [
    ([0.1, 0.2, 0.3, 0.4], [0, 2, 1, 1]),
    ([0.1, 0.2, 0.3, 0.4], [0, -1, 1, 1]),
    ([0.1, 0.2, 0.3, 0.4], [0, 0.5, 1, 1]),
    ([0.1, 0.2, 0.3, 0.4], [[0, 1, 1, 0], [0, 1, 2, 0]]),
    ([0.1, 0.2, 0.3], [0, 1, 1, 0]),
    ([0.1, 0.2, 0.3, 0.4], [0, 1, 1]),
    ([[0.1, 0.2], [0.3, 0.4]], [0, 1]),
    ([[0.1, 0.2], [0.3, 0.4]], [[0, 1], [1, 0]]),
    (0.5, 1),
], ids=["label-2", "label-minus-1", "label-half", "label-2-in-stack", "more-labels",
        "fewer-labels", "2d-scores", "2d-scores-2d-labels", "scalars"])
def test_auc_rejects_bad_input(scores, labels):
    with pytest.raises(ValueError, match="AUC"):
        auc(scores, labels)


def test_auc_label_stack_matches_per_label_calls():
    rng = np.random.default_rng(11)
    scores = np.round(rng.uniform(size=5000), 2)  # many ties
    stack = rng.integers(0, 2, (3, 5000))
    assert auc(scores, stack) == tuple(auc(scores, labels) for labels in stack)
    stack[1] = 1
    with pytest.raises(UndefinedAUCError):
        auc(scores, stack)


def reference_auc(scores, labels):
    """Oracle: the Mann-Whitney AUC from scipy.stats.rankdata's average ranks."""
    from scipy.stats import rankdata

    ranks = rankdata(scores)
    pos = np.asarray(labels) == 1
    n, n1 = pos.size, int(pos.sum())
    return float((ranks[pos].sum() - n1 * (n1 + 1) / 2) / (n1 * (n - n1)))


@pytest.mark.parametrize("decimals", [None, 0, 1, 3])
def test_auc_matches_rankdata(decimals):
    rng = np.random.default_rng(23)
    for n in (2, 3, 17, 1000, 100_000):
        scores = rng.normal(size=n)
        if decimals is not None:  # ties
            scores = np.round(scores, decimals)
        labels = np.r_[0, 1, rng.integers(0, 2, n - 2)]
        rng.shuffle(labels)
        assert auc(scores, labels) == reference_auc(scores, labels)
    scores[n // 2] = np.nan
    assert np.isnan(auc(scores, labels)) and np.isnan(reference_auc(scores, labels))


@pytest.mark.parametrize("kind", ["random", "tied", "saturated", "signed-zeros"])
def test_auc_key_sort_and_argsort_give_the_same_bits(kind):
    # scores in [0, 2) take the packed-key sort; four times them (exact, so
    # every order and tie is kept) fall outside and take the argsort path
    rng = np.random.default_rng(31)
    n = 20_000
    scores = {
        "random": rng.uniform(size=n),
        "tied": np.round(rng.uniform(size=n), 2),
        "saturated": rng.integers(0, 2, n).astype(float),
        "signed-zeros": np.where(rng.random(n) < 0.5, -0.0, 0.0) + (rng.random(n) < 0.3),
    }[kind]
    assert scores.max() >= 0.5
    labels = rng.integers(0, 2, (2, n))
    packed = auc(scores, labels)
    assert np.array(packed).tobytes() == np.array(auc(4 * scores, labels)).tobytes()
    for row, value in zip(labels, packed):
        assert np.float64(auc(scores, row)).tobytes() == np.float64(value).tobytes()
        assert value == reference_auc(scores, row)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_auc_monotone_invariance(seed):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(size=60)
    labels = np.r_[rng.integers(0, 2, 58), 0, 1]
    base = auc(scores, labels)
    assert auc(np.exp(3 * scores), labels) == pytest.approx(base, abs=1e-12)


def uninformative_dataset(n=20_000, seed=4):
    rng = np.random.default_rng(seed)
    return Dataset(
        s=rng.integers(0, 2, n), z=rng.integers(0, 2, n),
        y=(rng.random(n) < 0.3).astype(int), x=rng.uniform(size=(n, 2)),
        covariate_names=("x1", "x2"), scaling=((0.0, 1.0), (0.0, 1.0)), scaled=True,
    )


def test_uml_ftu_flat_when_outcome_independent():
    data = uninformative_dataset()
    for fitter in (fit_uml, fit_ftu):
        model = fitter(data)
        scores = model.scores(data)
        assert abs(scores.mean() - 0.3) < 0.02
        assert scores.std() < 0.03


def test_uml_separates_when_y_equals_s():
    rng = np.random.default_rng(5)
    n = 2000
    s = rng.integers(0, 2, n)
    data = Dataset(
        s=s, z=rng.integers(0, 2, n), y=s, x=rng.uniform(size=(n, 2)),
        covariate_names=("x1", "x2"), scaling=((0.0, 1.0), (0.0, 1.0)), scaled=True,
    )
    try:
        model = fit_uml(data)
        scores = model.scores(data)
        assert np.mean(np.abs(scores - s) < 0.05) > 0.95  # near-perfect fit
    except SeparationError:
        pass  # acceptable: reported separation
    ftu = fit_ftu(data)
    assert abs(ftu.scores(data).mean() - s.mean()) < 0.05


def raw_coordinate_mlc(data, ridge=1e-8, constraint_tol=1e-4, max_outer=30):
    """Reference: `fit_mlc`'s augmented Lagrangian with BFGS on the raw
    polynomial design; returns (gamma, total BFGS iterations)."""
    fm = FeatureMap.build(data.d, use_s=True)
    psi = fm.matrix(data.s, data.z, data.x)
    psi1 = fm.matrix(np.ones(data.n), data.z, data.x)
    psi0 = fm.matrix(np.zeros(data.n), data.z, data.x)
    y = np.asarray(data.y, dtype=np.float64)

    def constraint(gamma):
        d1 = expit(psi1 @ gamma)
        d0 = expit(psi0 @ gamma)
        dg = (psi1.T @ (d1 * (1 - d1)) - psi0.T @ (d0 * (1 - d0))) / data.n
        return float(np.mean(d1 - d0)), dg

    lam, rho, gval, iterations = 0.0, 10.0, np.inf, 0
    gamma = np.zeros(psi.shape[1])
    for _ in range(max_outer):
        def objective(gm, lam=lam, rho=rho):
            f, grad = bernoulli_value_grad(gm, psi, y, ridge)
            g, dg = constraint(gm)
            return f + lam * g + 0.5 * rho * g * g, grad + (lam + rho * g) * dg

        res = bfgs_minimize(objective, gamma, tol=1e-8, max_iter=400)
        gamma, iterations = res.x, iterations + res.iterations
        prev = abs(gval)
        gval, _ = constraint(gamma)
        if abs(gval) <= constraint_tol:
            break
        lam += rho * gval
        if abs(gval) > 0.5 * prev:
            rho *= 5.0
    return gamma, iterations


def mlc_constraint(model, data):
    """Average causal effect of S on a fitted score over the data's rows."""
    psi1 = model.feature_map.matrix(np.ones(data.n), data.z, data.x)
    psi0 = model.feature_map.matrix(np.zeros(data.n), data.z, data.x)
    return float(np.mean(expit(psi1 @ model.gamma) - expit(psi0 @ model.gamma)))


def test_mlc_constraint_enforced(small_dgp):
    data, _, _ = small_dgp
    model = fit_mlc(data)
    assert abs(mlc_constraint(model, data)) <= 1e-4
    assert model.note == "indicative reconstruction"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mlc_preconditioned_matches_raw_coordinate_fit(seed, monkeypatch):
    from fairdesert import simulate

    iterations = []

    def counting_bfgs(*args, **kwargs):
        res = bfgs_minimize(*args, **kwargs)
        iterations.append(res.iterations)
        return res

    monkeypatch.setattr(simulate, "bfgs_minimize", counting_bfgs)
    data, _, _ = gen_dataset(DgpConfig(n=2000, seed=seed))
    model = fit_mlc(data)
    raw_gamma, raw_iterations = raw_coordinate_mlc(data)
    assert abs(mlc_constraint(model, data)) <= 1e-4
    raw_scores = expit(model.feature_map.matrix(data.s, data.z, data.x) @ raw_gamma)
    assert np.max(np.abs(model.scores(data) - raw_scores)) <= 1e-4
    assert sum(iterations) <= raw_iterations / 2


def test_mlc_near_singular_design_fits_in_raw_coordinates(monkeypatch):
    from fairdesert import simulate

    data, _, _ = gen_dataset(DgpConfig(n=2000, seed=3))
    twin = Dataset(data.s, data.z, data.y, data.x[:, [0, 0]],
                   covariate_names=("x1", "x1_copy"), scaling=data.scaling, scaled=True)
    preconditioners = []

    def recording(phi):
        out = orthonormal_design(phi)
        preconditioners.append(out)
        return out

    monkeypatch.setattr(simulate, "orthonormal_design", recording)
    model = fit_mlc(twin)
    assert preconditioners == [None]
    assert np.isfinite(model.gamma).all()
    assert abs(mlc_constraint(model, twin)) <= 1e-4
    raw_gamma, _ = raw_coordinate_mlc(twin)
    np.testing.assert_allclose(model.gamma, raw_gamma, rtol=0, atol=1e-12)


def test_mlc_matches_uml_when_constraint_inactive():
    data = uninformative_dataset(n=8000, seed=6)
    uml = fit_uml(data)
    mlc = fit_mlc(data)
    assert np.max(np.abs(uml.scores(data) - mlc.scores(data))) < 0.05


def test_ld_converges_first_round_on_parity_data():
    data = uninformative_dataset(n=30_000, seed=7)
    ld = fit_ld(data)
    ftu = fit_ftu(data)
    assert np.max(np.abs(ld.scores(data) - ftu.scores(data))) < 1e-6


def test_ld_reduces_disparity(small_dgp):
    data, _, _ = small_dgp
    ld = fit_ld(data)
    scores = ld.scores(data)
    disparity = scores[data.s == 1].mean() - scores[data.s == 0].mean()
    assert abs(disparity) <= 1e-3 + 5e-4


def test_ld_warm_rounds_match_cold_rounds_in_fewer_iterations(monkeypatch):
    from fairdesert import simulate
    from fairdesert.regress import fit_series_logit

    iterations = {True: 0, False: 0}

    def counting(cold):
        def fit(*args, start=None, **kwargs):
            res = fit_series_logit(*args, start=None if cold else start, **kwargs)
            iterations[cold] += res.iterations
            return res
        return fit

    for seed in (0, 1, 2):
        data, _, _ = gen_dataset(DgpConfig(n=2000, seed=seed))
        gammas = {}
        for cold in (True, False):
            monkeypatch.setattr(simulate, "fit_series_logit", counting(cold))
            gammas[cold] = fit_ld(data).gamma
        assert np.max(np.abs(gammas[True] - gammas[False])) <= 1e-7
    assert iterations[False] < iterations[True]


def test_monte_carlo_settings_reject_a_test_draw_below_the_generator_minimum():
    for size in (-1, 0, 50, 99):
        with pytest.raises(ValueError, match=f"test_size must be at least 100, got {size}"):
            MonteCarloSettings(test_size=size)
    assert MonteCarloSettings(test_size=100).test_size == 100


def test_monte_carlo_settings_reject_an_unknown_or_empty_method_list():
    for methods in (("dsd", "foo"), ("DSD",), ()):
        with pytest.raises(ValueError, match="methods must name one or more of "
                                             "dsd, uml, ftu, mlc, ld, got"):
            MonteCarloSettings(methods=methods)
    assert MonteCarloSettings(methods=("ld", "dsd")).methods == ("ld", "dsd")


def test_test_scores_match_each_models_own_scores(monkeypatch):
    from fairdesert import simulate
    from fairdesert.sievemle import FitOptions, fit, predict_tau

    train, _, _ = gen_dataset(DgpConfig(n=400, seed=5))
    models = {name: fitter(train) for name, fitter in (
        ("uml", fit_uml), ("ftu", fit_ftu), ("mlc", fit_mlc), ("ld", fit_ld))}
    options = FitOptions(restarts=1, floor=0.05, relevance_margin=1e-3, ridge=3e-3)
    for name, config in (("dsd-additive", BasisConfig(interaction_order=1)),
                         ("dsd-pairwise", BasisConfig())):
        models[name] = fit(train, config, options)
    # 3 blocks and 5 rows
    test, ystar, _ = gen_dataset(DgpConfig(n=3 * MONOMIAL_BLOCK_ROWS + 5, seed=6))
    labels = np.stack([ystar, test.y])
    want = {name: predict_tau(model, test.z, test.x) if name.startswith("dsd")
            else model.scores(test) for name, model in models.items()}
    for names in (list(models), ["dsd-pairwise"], ["ftu", "dsd-additive", "uml"]):
        scores = _test_scores({name: models[name] for name in names}, test)
        assert list(scores) == names
        for name in names:
            assert np.max(np.abs(scores[name] - want[name])) <= 1e-13
            assert auc(scores[name], labels) == auc(want[name], labels)
    # a row's scores do not depend on its block: one block of all rows gives
    # the same bits
    blocked = _test_scores(models, test)
    monkeypatch.setattr(simulate, "MONOMIAL_BLOCK_ROWS", test.n)
    whole = _test_scores(models, test)
    assert all(np.array_equal(blocked[name], whole[name]) for name in models)


def test_run_replication_keys():
    settings_obj = MonteCarloSettings(methods=("dsd", "uml"), test_size=5000)
    row = run_replication(DgpConfig(n=800, seed=1), 0, settings_obj, theta_true=0.25)
    for key in ("theta_hat", "ci_low", "ci_high", "covered", "tau_error",
                "auc_ystar_dsd", "auc_y_uml"):
        assert key in row


# run_replication(DgpConfig(n=400, seed=7), rep, MonteCarloSettings(test_size=2_000),
# theta_true=0.25) as computed before the test draw shared its design matrices
# and rankings across methods; excluded_fraction is the one-step estimate's
# flags["excluded_fraction"] of the same runs.  The MLC AUCs are those of the
# QR-preconditioned fit, which stops at a slightly different point of the
# augmented Lagrangian than the raw-coordinate fit did (AUCs within 7.1e-6).
# Rep 1's tau_error is that of the scores of the one shared test design, which
# round the desert-decision scores otherwise (it moved in its last digit).
# All with scipy.special's expit and normal quantile
PINNED_REPLICATIONS = [
    {"rep": 0, "theta_hat": 0.3477001335219466, "ci_low": 0.2487749002969398,
     "ci_high": 0.4466253667469534, "covered": True,
     "auc_ystar_dsd": 0.799652099456743, "auc_y_dsd": 0.5887327981651376,
     "auc_ystar_uml": 0.6345093732088574, "auc_y_uml": 0.7564079884833106,
     "auc_ystar_ftu": 0.7230329565244356, "auc_y_ftu": 0.5860051076842996,
     "auc_ystar_mlc": 0.7037253766338472, "auc_y_mlc": 0.585137899342833,
     "auc_ystar_ld": 0.7025980508366918, "auc_y_ld": 0.581756498470948,
     "tau_error": 0.1258463310115083, "excluded_fraction": 0.135},
    {"rep": 1, "theta_hat": 0.23273633251482326, "ci_low": 0.0940276588593846,
     "ci_high": 0.3714450061702619, "covered": True,
     "auc_ystar_dsd": 0.7866239038779076, "auc_y_dsd": 0.5835690768926984,
     "auc_ystar_uml": 0.620020359415829, "auc_y_uml": 0.7618637442524915,
     "auc_ystar_ftu": 0.7546239519710158, "auc_y_ftu": 0.6209042075188091,
     "auc_ystar_mlc": 0.7166364080860546, "auc_y_mlc": 0.6135266430520127,
     "auc_ystar_ld": 0.6993799996793792, "auc_y_ld": 0.6132435492905529,
     "tau_error": 0.1429373065942659, "excluded_fraction": 0.1475},
]


# the same runs with the package's numpy expit and statistics.NormalDist
# quantile: the sieve fit lands elsewhere in its multimodal criterion, so theta
# moves by up to 1.9e-3 and the dsd AUCs by up to 4.6e-4; the other methods'
# AUCs are unchanged
SHIPPED_REPLICATIONS = [
    {"rep": 0, "theta_hat": 0.3457745899994686, "ci_low": 0.24514502498922247,
     "ci_high": 0.4464041550097147, "covered": True,
     "auc_ystar_dsd": 0.8000622179809965, "auc_y_dsd": 0.5888232806298392,
     "auc_ystar_uml": 0.6345093732088574, "auc_y_uml": 0.7564079884833106,
     "auc_ystar_ftu": 0.7230329565244356, "auc_y_ftu": 0.5860051076842996,
     "auc_ystar_mlc": 0.7037253766338472, "auc_y_mlc": 0.585137899342833,
     "auc_ystar_ld": 0.7025980508366918, "auc_y_ld": 0.581756498470948,
     "tau_error": 0.12541491480394043, "excluded_fraction": 0.135},
    {"rep": 1, "theta_hat": 0.23375364791302108, "ci_low": 0.09704293490935825,
     "ci_high": 0.3704643609166839, "covered": True,
     "auc_ystar_dsd": 0.7861610077109283, "auc_y_dsd": 0.583509637277303,
     "auc_ystar_uml": 0.620020359415829, "auc_y_uml": 0.7618637442524915,
     "auc_ystar_ftu": 0.7546239519710158, "auc_y_ftu": 0.6209042075188091,
     "auc_ystar_mlc": 0.7166364080860546, "auc_y_mlc": 0.6135266430520127,
     "auc_ystar_ld": 0.6993799996793792, "auc_y_ld": 0.6132435492905529,
     "tau_error": 0.14313682710239162, "excluded_fraction": 0.1525},
]


# run_replication(DgpConfig(n=400, seed=7), 0, MonteCarloSettings(test_size=12_293))
# with the package's own primitives, as computed before the test draw was
# scored in row blocks; 12 293 rows are 3 blocks and 5 rows
PINNED_BLOCKED_REPLICATION = {
    "rep": 0, "theta_hat": 0.3457745899994686, "ci_low": 0.24514502498922247,
    "ci_high": 0.4464041550097147, "excluded_fraction": 0.135,
    "auc_ystar_dsd": 0.7956002806223288, "auc_y_dsd": 0.6016938078519163,
    "auc_ystar_uml": 0.6217605765898664, "auc_y_uml": 0.7508758887006163,
    "auc_ystar_ftu": 0.7352344224404604, "auc_y_ftu": 0.6049014920974813,
    "auc_ystar_mlc": 0.7095880002161894, "auc_y_mlc": 0.6014811273625414,
    "auc_ystar_ld": 0.7175952743538957, "auc_y_ld": 0.602020410873969,
    "tau_error": 0.125119782487648,
}


def _assert_replications(pinned):
    settings_obj = MonteCarloSettings(test_size=2_000)
    for expected in pinned:
        row = run_replication(DgpConfig(n=400, seed=7), expected["rep"], settings_obj,
                              theta_true=0.25)
        assert row == expected


def test_run_replication_bitwise_pinned(scipy_primitives):
    _assert_replications(PINNED_REPLICATIONS)


def test_run_replication_bitwise_pinned_shipped_primitives():
    _assert_replications(SHIPPED_REPLICATIONS)


def test_run_replication_bitwise_pinned_multi_block():
    row = run_replication(DgpConfig(n=400, seed=7), 0, MonteCarloSettings(test_size=12_293))
    assert row == PINNED_BLOCKED_REPLICATION


def test_monte_carlo_parallel_parity():
    settings_obj = MonteCarloSettings(methods=("dsd",), test_size=4000)
    serial = monte_carlo(DgpConfig(n=600, seed=2), reps=3, settings=settings_obj, jobs=1)
    parallel = monte_carlo(DgpConfig(n=600, seed=2), reps=3, settings=settings_obj, jobs=2)
    assert serial.method_auc == parallel.method_auc
    assert serial.theta_mean == parallel.theta_mean
    assert serial.coverage == parallel.coverage
    assert serial.replications == parallel.replications


def test_monte_carlo_counts_ld_parity_misses(monkeypatch):
    from fairdesert import simulate
    from fairdesert.errors import ParityWarning

    settings_obj = MonteCarloSettings(methods=("uml", "ld"), test_size=1000,
                                      compute_theta=False)
    reached = monte_carlo(DgpConfig(n=600, seed=2), reps=3, settings=settings_obj, jobs=1)
    assert reached.ld_parity_misses == 0
    # no reweighting meets a target of zero disparity
    monkeypatch.setattr(simulate, "LD_PARITY_TOL", 0.0)
    summaries = []
    for jobs in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ParityWarning)
            summaries.append(monte_carlo(DgpConfig(n=600, seed=2), reps=3,
                                         settings=settings_obj, jobs=jobs))
        if jobs == 1:
            # the replications' warnings are still shown
            assert sum(issubclass(w.category, ParityWarning) for w in caught) == 3
    serial, parallel = summaries
    assert serial.ld_parity_misses == parallel.ld_parity_misses == 3
    assert serial.replications == parallel.replications


def test_monte_carlo_stage_seconds_within_replication_wall_time(monkeypatch):
    from fairdesert import simulate

    real, walls = simulate.run_replication, []

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return real(*args, **kwargs)
        finally:
            walls.append(time.perf_counter() - start)

    monkeypatch.setattr(simulate, "run_replication", timed)
    settings_obj = MonteCarloSettings(test_size=4000)
    summary = monte_carlo(DgpConfig(n=600, seed=2), reps=2, settings=settings_obj, jobs=1)
    assert len(walls) == 2
    assert list(summary.stage_seconds) == [
        "train_draw", "dsd", "theta", "uml", "ftu", "mlc", "ld", "test_draw", "scoring"]
    assert all(v > 0 for v in summary.stage_seconds.values())
    assert sum(summary.stage_seconds.values()) <= sum(walls)
    assert not any("seconds" in key for row in summary.replications for key in row)


@pytest.mark.parametrize("jobs", [0, -1])
def test_monte_carlo_rejects_jobs_below_one(jobs):
    settings_obj = MonteCarloSettings(methods=("uml",), test_size=1000, compute_theta=False)
    with pytest.raises(ValueError, match="jobs must be at least 1"):
        monte_carlo(DgpConfig(n=600, seed=2), reps=2, settings=settings_obj, jobs=jobs)


def test_monte_carlo_records_a_failing_replication(monkeypatch):
    from fairdesert import simulate

    real_fit = simulate.fit
    calls = []

    def flaky_fit(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("singular matrix")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(simulate, "fit", flaky_fit)
    settings_obj = MonteCarloSettings(methods=("dsd", "uml"), test_size=2000,
                                      compute_theta=False)
    summary = monte_carlo(DgpConfig(n=600, seed=2), reps=3, settings=settings_obj, jobs=1)
    assert summary.failures == 1
    failed = [r for r in summary.replications if "failed" in r]
    assert [r["failed"] for r in failed] == ["LinAlgError: singular matrix"]
    good = [r for r in summary.replications if "failed" not in r]
    assert len(good) == 2
    assert summary.method_auc["dsd"]["auc_ystar_mean"] == pytest.approx(
        np.mean([r["auc_ystar_dsd"] for r in good]), abs=1e-12
    )


def test_monte_carlo_counts_exclusions_and_failure_types(monkeypatch, tmp_path):
    import csv

    from fairdesert import simulate

    real_fit = simulate.fit
    calls = []

    def flaky_fit(*args, **kwargs):
        calls.append(1)
        if len(calls) in (2, 4):
            raise np.linalg.LinAlgError("singular matrix")
        if len(calls) == 3:
            raise FloatingPointError("overflow")
        return real_fit(*args, **kwargs)

    monkeypatch.setattr(simulate, "fit", flaky_fit)
    settings_obj = MonteCarloSettings(methods=("dsd",), test_size=2000)
    summary = monte_carlo(DgpConfig(n=600, seed=2), reps=5, settings=settings_obj, jobs=1)
    assert summary.failure_types == {"FloatingPointError": 1, "LinAlgError": 2}
    assert sum(summary.failure_types.values()) == summary.failures == 3
    fractions = [r["excluded_fraction"] for r in summary.replications if "failed" not in r]
    assert len(fractions) == 2 and all(0.0 <= f < 1.0 for f in fractions)
    assert summary.excluded_fraction_mean == pytest.approx(np.mean(fractions), abs=1e-15)

    simulate.write_coverage_summary_csv([summary], tmp_path / "cov.csv")
    simulate.write_replications_csv([summary], tmp_path / "reps.csv")
    with (tmp_path / "cov.csv").open() as fh:
        (cov,) = list(csv.DictReader(fh))
    assert float(cov["excluded_fraction_mean"]) == summary.excluded_fraction_mean
    assert json.loads(cov["failure_types"]) == summary.failure_types
    with (tmp_path / "reps.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["excluded_fraction"]) for r in rows if not r["failed"]] == fractions


def test_monte_carlo_summary_csvs(tmp_path):
    from fairdesert.simulate import (
        write_auc_summary_csv,
        write_coverage_summary_csv,
        write_replications_csv,
    )

    settings_obj = MonteCarloSettings(methods=("dsd", "uml"), test_size=4000)
    summary = monte_carlo(DgpConfig(n=600, seed=3), reps=2, settings=settings_obj)
    write_auc_summary_csv([summary], tmp_path / "auc.csv")
    write_coverage_summary_csv([summary], tmp_path / "cov.csv")
    write_replications_csv([summary], tmp_path / "reps.csv")
    auc_lines = (tmp_path / "auc.csv").read_text().splitlines()
    assert auc_lines[0].startswith("delta,n,method")
    assert len(auc_lines) == 3
    assert len((tmp_path / "reps.csv").read_text().splitlines()) == 3


def test_dsd_beats_uml_for_latent_target():
    settings_obj = MonteCarloSettings(methods=("dsd", "uml"), test_size=30_000)
    summary = monte_carlo(DgpConfig(n=1500, seed=4), reps=2, settings=settings_obj)
    gap = (summary.method_auc["dsd"]["auc_ystar_mean"]
           - summary.method_auc["uml"]["auc_ystar_mean"])
    assert gap > 0.1
