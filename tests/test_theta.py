import warnings

import numpy as np
import pytest

from fairdesert.basis import BasisConfig, SeriesFunction, basis_dimension, intercept_only
from fairdesert.data import Dataset
from fairdesert.errors import BootstrapError, RelevanceWarning, VariantMismatchError
from fairdesert.identify import (
    PointwiseMu,
    PointwiseParams,
    forward_mu,
    invert_tau,
    recover_mechanism,
)
from fairdesert.regress import fit_propensity
from fairdesert.sievemle import FitOptions, NuisanceEstimates, SensitivityParams, fit
from fairdesert.sensitivity import VariantFitter
from fairdesert.simulate import DgpConfig, gen_dataset, oracle_theta
from fairdesert.theta import (
    ThetaEstimate,
    _normal_estimate,
    _phi_values,
    influence_coefficients,
    theta_bootstrap,
    theta_onestep,
    theta_onestep_crossfit,
    theta_plugin,
    unfairness_integrand,
)

CONFIG = BasisConfig(interaction_order=1)
MC_OPTS = FitOptions(restarts=2, floor=0.05, relevance_margin=1e-3, ridge=3e-3, seed=0)


def constant_estimates(tau0, tau1, alpha, beta, variant="baseline", sensitivity=None):
    cfg = BasisConfig(degree=1, interaction_order=0)
    return NuisanceEstimates(
        tau0=intercept_only(cfg, tau0, d=2),
        tau1=intercept_only(cfg, tau1, d=2),
        alpha=intercept_only(cfg, alpha, d=2),
        beta=intercept_only(cfg, beta, d=2),
        variant=variant,
        sensitivity=sensitivity or SensitivityParams.baseline(),
    )


def half_split_dataset(n=400):
    rng = np.random.default_rng(0)
    return Dataset(
        s=np.repeat([0, 1], n // 2),
        z=rng.integers(0, 2, n),
        y=rng.integers(0, 2, n),
        x=rng.uniform(size=(n, 2)),
        covariate_names=("x1", "x2"),
        scaling=((0.0, 1.0), (0.0, 1.0)),
        scaled=True,
    )


def test_plugin_zero_when_no_unfairness():
    est = constant_estimates(0.4, 0.7, 1e-12, 1e-12)
    result = theta_plugin(est, half_split_dataset())
    assert result.point == pytest.approx(0.0, abs=1e-9)
    assert result.method == "plugin" and result.stderr is None


def test_plugin_worked_arithmetic():
    est = constant_estimates(0.5, 0.5, 0.2, 0.1)
    result = theta_plugin(est, half_split_dataset())
    assert result.point == pytest.approx(0.075, abs=1e-9)


def test_plugin_rejects_variants():
    est = constant_estimates(0.5, 0.5, 0.2, 0.1, variant="delta",
                             sensitivity=SensitivityParams("delta", 0.05, 0.05))
    with pytest.raises(VariantMismatchError, match="bootstrap"):
        theta_plugin(est, half_split_dataset())


def test_plugin_with_true_nuisances_matches_simulated_mismatch():
    config = DgpConfig(n=100_000, seed=33)
    data, ystar, truth = gen_dataset(config)
    t0 = truth.tau0(data.x)
    t1 = truth.tau1(data.x)
    tz = np.where(data.z == 1, t1, t0)
    integrand = np.where(data.s == 1, (1 - tz) * truth.beta(data.x), tz * truth.alpha(data.x))
    simulated = float(np.mean(data.y != ystar))
    assert abs(float(np.mean(integrand)) - simulated) < 0.005


def test_influence_coefficients_match_fd_gateaux():
    rng = np.random.default_rng(5)

    def composite(mu_vec, pis):
        m = PointwiseMu(*mu_vec)
        t0, t1 = invert_tau(m)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rec = recover_mechanism(m, t0, t1)
        return (pis[0] * t0 * rec.alpha + pis[1] * t1 * rec.alpha
                + pis[2] * (1 - t0) * rec.beta + pis[3] * (1 - t1) * rec.beta)

    worst = 0.0
    for _ in range(25):
        t0, t1 = rng.uniform(0.1, 0.9, 2)
        if abs(t1 - t0) < 0.1:
            continue
        a, b = rng.uniform(0.05, 0.6, 2)
        raw = np.maximum(rng.uniform(0.05, 1.0, 4), 0.05)
        pis = raw / raw.sum()
        mu = np.array(forward_mu(PointwiseParams(t0, t1, a, b)).as_tuple())
        C = np.array(influence_coefficients(t0, t1, a, b, *pis)).ravel()
        fd = np.empty(4)
        for k in range(4):
            up = mu.copy(); up[k] += 1e-6
            dn = mu.copy(); dn[k] -= 1e-6
            fd[k] = (composite(up, pis) - composite(dn, pis)) / 2e-6
        fd /= pis
        worst = max(worst, float(np.max(np.abs(C - fd) / np.maximum(np.abs(fd), 1e-6))))
    assert worst < 1e-5


def test_influence_coefficients_nan_at_degenerate():
    C = influence_coefficients(0.4, 0.4, 0.2, 0.1, 0.25, 0.25, 0.25, 0.25)
    assert all(np.isnan(np.asarray(c)).all() for c in C)


def test_augmentation_mean_zero_with_true_nuisances():
    data, _, truth = gen_dataset(DgpConfig(n=30_000, seed=44))
    t0 = truth.tau0(data.x)
    t1 = truth.tau1(data.x)
    a = truth.alpha(data.x)
    b = truth.beta(data.x)
    pis = truth.pi_matrix(data.x)
    C = np.stack(
        influence_coefficients(t0, t1, a, b, pis[:, 0], pis[:, 1], pis[:, 2], pis[:, 3]),
        axis=1,
    )
    tz = np.where(data.z == 1, t1, t0)
    mu_own = np.where(data.s == 1, b + tz * (1 - b), tz * (1 - a))
    cls = 2 * data.s.astype(int) + data.z.astype(int)
    own = C[np.arange(data.n), cls]
    keep = np.abs(t1 - t0) >= 0.05
    aug = np.where(keep, own * (data.y - mu_own), 0.0)
    se = aug.std(ddof=1) / np.sqrt(data.n)
    assert abs(aug.mean()) <= 3 * se


def fitted_pair(n=2000, seed=7):
    data, _, _ = gen_dataset(DgpConfig(n=n, seed=seed))
    est = fit(data, CONFIG, MC_OPTS)
    prop = fit_propensity(data, CONFIG)
    return data, est, prop


def test_onestep_is_plugin_plus_mean_augmentation():
    data, est, prop = fitted_pair()
    result = theta_onestep(est, prop, data)
    phi, plug, augmentation, excluded = _phi_values(est, prop, data)
    assert result.point == pytest.approx(
        float(np.mean(plug)) + float(np.mean(augmentation)), abs=1e-12
    )
    assert result.flags["excluded_fraction"] == pytest.approx(float(np.mean(excluded)))
    assert result.ci_low <= result.point <= result.ci_high
    assert result.stderr >= 0


def test_onestep_rejects_variants():
    data, est, prop = fitted_pair()
    bad = constant_estimates(0.5, 0.6, 0.2, 0.1, variant="zeta",
                             sensitivity=SensitivityParams("zeta", 0.1, 0.1))
    with pytest.raises(VariantMismatchError):
        theta_onestep(bad, prop, data)


def test_ci_width_shrinks_at_root_n_rate():
    widths = {}
    for n in (2000, 8000, 32000):
        per = []
        for rep in range(2):
            data, _, _ = gen_dataset(DgpConfig(n=n, seed=0),
                                     seed=np.random.SeedSequence(entropy=3, spawn_key=(n, rep)))
            est = fit(data, CONFIG, FitOptions(restarts=1, floor=0.05,
                                               relevance_margin=1e-3, ridge=3e-3, seed=rep))
            prop = fit_propensity(data, CONFIG)
            t = theta_onestep(est, prop, data)
            per.append(t.ci_high - t.ci_low)
        widths[n] = np.mean(per)
    assert 1.5 <= widths[2000] / widths[8000] <= 2.5
    assert 1.5 <= widths[8000] / widths[32000] <= 2.5


def test_crossfit_runs_and_brackets():
    data, _, _ = gen_dataset(DgpConfig(n=1500, seed=10))
    result = theta_onestep_crossfit(
        data, CONFIG, FitOptions(restarts=1, floor=0.05, relevance_margin=1e-3,
                                 ridge=3e-3, seed=0),
        folds=2, seed=0,
    )
    assert result.flags["crossfit_folds"] == 2
    assert result.ci_low <= result.point <= result.ci_high
    with pytest.raises(ValueError):
        theta_onestep_crossfit(data, CONFIG, folds=1)


def test_crossfit_pinned():
    # the folds' fits share one fit_many call; the estimate is the one that
    # fitting the folds one by one gave, to the bit, for every jobs
    data, _, _ = gen_dataset(DgpConfig(n=2000, seed=11))
    options = FitOptions(restarts=3, floor=0.05, relevance_margin=1e-3, ridge=3e-3, seed=2)
    pinned = ThetaEstimate(
        point=0.30263179022805536, stderr=0.07317551199913697,
        ci_low=0.15921042215946837, ci_high=0.4460531582966424, method="onestep",
        level=0.95, n_used=2000, flags={"excluded_fraction": 0.0935, "crossfit_folds": 3},
    )
    for jobs in (1, 2):
        assert theta_onestep_crossfit(data, CONFIG, options, folds=3, seed=1,
                                      jobs=jobs) == pinned


def test_bootstrap_zero_width_when_integrand_constant():
    # tau * alpha == (1 - tau) * beta, so the integrand is 0.1 for every unit
    est = constant_estimates(0.5, 0.5, 0.2, 0.2)
    data = half_split_dataset(300)
    result = theta_bootstrap(lambda ds: est, data, replicates=200, seed=1)
    assert result.point == pytest.approx(0.1, abs=1e-12)
    assert result.ci_low == pytest.approx(0.1, abs=1e-12)
    assert result.ci_high == pytest.approx(0.1, abs=1e-12)
    assert result.stderr == pytest.approx(0.0, abs=1e-12)


def test_bootstrap_requires_200_replicates():
    est = constant_estimates(0.5, 0.5, 0.2, 0.2)
    with pytest.raises(ValueError):
        theta_bootstrap(lambda ds: est, half_split_dataset(100), replicates=50)


def test_bootstrap_error_on_failures():
    from fairdesert.errors import FitError

    def failing_fitter(ds):
        raise FitError("nope")

    with pytest.raises(BootstrapError, match=r"200/200 .* \(FitError x200\)"):
        theta_bootstrap(failing_fitter, half_split_dataset(100), replicates=200,
                        full_fit=constant_estimates(0.5, 0.5, 0.2, 0.2))


class FlakyFitter:
    """Constant estimates, but a replicate whose outcome total is 0 mod 37
    fails with FitError, and 1 mod 37 with PositivityError (about 5% in all);
    ``crash`` instead raises a non-package error on those replicates."""

    def __init__(self, crash=False):
        self.est = constant_estimates(0.5, 0.6, 0.2, 0.1)
        self.crash = crash

    def __call__(self, ds):
        from fairdesert.errors import FitError, PositivityError

        residue = int(ds.y.sum()) % 37
        if residue < 2 and self.crash:
            raise RuntimeError("not a fitting failure")
        if residue == 0:
            raise FitError("replicate did not converge")
        if residue == 1:
            raise PositivityError("replicate lost a stratum")
        return self.est


def test_bootstrap_same_result_for_every_jobs():
    data, _, _ = gen_dataset(DgpConfig(n=400, seed=3))
    fitter = VariantFitter(BasisConfig(degree=1, interaction_order=1),
                           FitOptions(restarts=1, floor=0.05, relevance_margin=1e-3, seed=0),
                           "delta", SensitivityParams("delta", 0.05, 0.05))
    emitted = []
    for jobs in (1, 2):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            emitted.append(theta_bootstrap(fitter, data, replicates=200, seed=1, jobs=jobs))
        # the replicates' relevance warnings are counted, with one summary warning
        assert sum(issubclass(w.category, RelevanceWarning) for w in caught) == 1
    serial, parallel = emitted
    assert serial.to_json_dict() == parallel.to_json_dict()
    assert serial.flags["failures"] == 0 and serial.flags["failure_types"] == {}
    assert serial.flags["relevance_warnings"] == parallel.flags["relevance_warnings"] > 0


def test_bootstrap_failure_counts_same_for_every_jobs():
    data = half_split_dataset(300)
    full = constant_estimates(0.5, 0.6, 0.2, 0.1)
    serial = theta_bootstrap(FlakyFitter(), data, replicates=200, seed=2, full_fit=full)
    parallel = theta_bootstrap(FlakyFitter(), data, replicates=200, seed=2, full_fit=full,
                               jobs=2)
    assert serial.to_json_dict() == parallel.to_json_dict()
    types = serial.flags["failure_types"]
    assert set(types) == {"FitError", "PositivityError"}
    assert sum(types.values()) == serial.flags["failures"] == 200 - serial.flags["replicates"]


def test_bootstrap_propagates_other_errors_from_workers():
    with pytest.raises(RuntimeError, match="not a fitting failure"):
        theta_bootstrap(FlakyFitter(crash=True), half_split_dataset(300), replicates=200,
                        seed=2, full_fit=constant_estimates(0.5, 0.6, 0.2, 0.1), jobs=2)


def test_bootstrap_variant_integrand():
    sens = SensitivityParams("delta", 0.05, 0.05)
    est = constant_estimates(0.5, 0.5, 0.2, 0.1, variant="delta", sensitivity=sens)
    data = half_split_dataset(200)
    vals = unfairness_integrand(est, data)
    # s=0: tau alpha + (1-tau) delta0; s=1: (1-tau) beta + tau delta1
    expected = np.where(data.s == 1, 0.5 * 0.1 + 0.5 * 0.05, 0.5 * 0.2 + 0.5 * 0.05)
    assert np.allclose(vals, expected)


def reference_unfairness_integrand(est, data):
    """Oracle: the integrand written out one variant at a time."""
    t0, t1, a, b = est.values(data.x)
    z1 = data.z == 1
    s1 = data.s == 1
    tz = np.where(z1, t1, t0)
    if est.variant == "baseline":
        return np.where(s1, (1 - tz) * b, tz * a)
    sv0, sv1 = est.sensitivity.evaluate(data.x)
    if est.variant == "kappa":
        kz = np.where(z1, sv1, sv0)
        tz_adv = np.clip(tz + kz, 0.0, 1.0)
        return np.where(s1, (1 - tz_adv) * b, tz * a)
    if est.variant == "delta":
        return np.where(s1, (1 - tz) * b + tz * sv1, tz * a + (1 - tz) * sv0)
    az = np.where(z1, 1 - (1 + sv0) * (1 - a), a)
    bz = np.where(z1, 1 - (1 + sv1) * (1 - b), b)
    return np.where(s1, (1 - tz) * bz, tz * az)


@pytest.mark.parametrize("variant, constant, x_dependent", [
    ("baseline", (0.0, 0.0), (lambda x: 0.0 * x[:, 0], lambda x: 0.0 * x[:, 1])),
    ("kappa", (0.03, -0.02), (lambda x: 0.05 * x[:, 0] - 0.02, lambda x: -0.03 * x[:, 1])),
    ("delta", (0.04, 0.06), (lambda x: 0.02 + 0.05 * x[:, 0], lambda x: 0.1 * x[:, 1])),
    ("zeta", (0.1, -0.08), (lambda x: 0.2 * x[:, 0] - 0.1, lambda x: 0.15 - 0.3 * x[:, 1])),
])
def test_unfairness_integrand_matches_per_variant_reference(variant, constant, x_dependent):
    data, _, _ = gen_dataset(DgpConfig(n=3000, seed=4))
    rng = np.random.default_rng(5)
    # x-dependent nuisances over the full floor range, so the kappa clip binds
    funcs = [SeriesFunction(CONFIG, rng.normal(0, 10, basis_dimension(CONFIG, 2)), 1e-3, 1 - 1e-3)
             for _ in range(4)]
    for v0, v1 in (constant, x_dependent):
        est = NuisanceEstimates(*funcs, variant=variant,
                                sensitivity=SensitivityParams(variant, v0, v1))
        got = unfairness_integrand(est, data)
        want = reference_unfairness_integrand(est, data)
        if variant == "zeta":
            assert np.max(np.abs(got - want)) <= 1e-15
        else:
            assert np.array_equal(got, want)


def test_onestep_covers_on_one_easy_draw():
    truth = oracle_theta(DgpConfig(n=2000, seed=0))
    data, est, prop = fitted_pair(n=4000, seed=3)
    result = theta_onestep(est, prop, data)
    assert result.ci_low <= truth <= result.ci_high


def test_normal_estimate_warns_above_five_percent_excluded():
    phi = np.linspace(0.1, 0.3, 100)
    excluded = np.arange(100) < 6
    with pytest.warns(UserWarning, match="6.0% of observations excluded"):
        est = _normal_estimate(phi, excluded, 0.95, crossfit_folds=5)
    assert est.flags == {"excluded_fraction": 0.06, "crossfit_folds": 5}
    assert est.n_used == 100 and est.ci_low < est.point < est.ci_high
