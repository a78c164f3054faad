import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdesert import sievemle
from fairdesert.basis import BasisConfig, expit, intercept_only, logit
from fairdesert.data import Dataset
from fairdesert.errors import FitError, RelevanceWarning
from fairdesert.identify import (
    PointwiseMu,
    PointwiseParams,
    _bilinear,
    forward_mu,
    stratum_table,
)
from fairdesert.sievemle import (
    RIDGE_INIT,
    FitOptions,
    NuisanceEstimates,
    SensitivityParams,
    SieveProblem,
    _plugin_start,
    decision_scores,
    fit,
    fit_many,
    predict_tau,
    predict_tau_sz,
    rate_threshold,
    stratum_probability,
)
from fairdesert.simulate import DgpConfig, gen_dataset

VARIANTS = ("baseline", "kappa", "delta", "zeta")
VARIANT_SENS = {
    "baseline": None,
    "kappa": SensitivityParams("kappa", 0.03, -0.02),
    "delta": SensitivityParams("delta", 0.04, 0.06),
    "zeta": SensitivityParams("zeta", 0.1, -0.08),
}


def constant_dataset(n, tau0, tau1, alpha, beta, seed=0):
    """Draws from the four-equation model with constant parameters."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=(n, 2))
    s = rng.integers(0, 2, n)
    z = rng.integers(0, 2, n)
    tau = np.where(z == 1, tau1, tau0)
    ystar = rng.random(n) < tau
    down = np.where(s == 0, alpha, 0.0)
    up = np.where(s == 1, beta, 0.0)
    y = np.where(ystar, rng.random(n) >= down, rng.random(n) < up).astype(int)
    return Dataset(
        s, z, y, x, ("x1", "x2"), ((0.0, 1.0), (0.0, 1.0)), scaled=True
    )


def test_sensitivity_params_validation():
    with pytest.raises(ValueError):
        SensitivityParams("delta", 1.0, 0.0)
    with pytest.raises(ValueError):
        SensitivityParams("zeta", -1.0, 0.0)
    with pytest.raises(ValueError):
        SensitivityParams("nonsense", 0.0, 0.0)
    table = SensitivityParams("delta", lambda x: 0.02 + 0.01 * x[:, 0], 0.05)
    v0, v1 = table.evaluate(np.array([[0.0, 0.5], [1.0, 0.5]]))
    assert v0.tolist() == [0.02, 0.03]
    assert v1.tolist() == [0.05, 0.05]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("level", [math.nan, math.inf, -math.inf])
def test_sensitivity_params_reject_non_finite_levels(variant, level):
    with pytest.raises(ValueError, match="finite"):
        SensitivityParams(variant, level, 0.0)
    x = np.array([[0.0, 0.5], [1.0, 0.5]])
    per_row = SensitivityParams(variant, 0.0, lambda x: np.where(x[:, 0] > 0.5, level, 0.0))
    with pytest.raises(ValueError, match="finite"):
        per_row.evaluate(x)


def test_model_prob_baseline_worked():
    # (tau0, tau1, alpha, beta) = (0.5, 0.7, 0.2, 0.1) at s = z = 0
    p = stratum_probability(0.5, 0.7, 0.2, 0.1, 0, 0)
    assert p == pytest.approx(0.5 * 0.8, abs=1e-12)


def test_model_prob_delta_worked():
    p = stratum_probability(0.4, 0.6, 0.2, 0.15, 1, 1, "delta", 0.0, 0.05)
    assert p == pytest.approx(0.15 + 0.6 * 0.80, abs=1e-12)


def test_model_prob_kappa_zero_reduces_to_baseline():
    rng = np.random.default_rng(3)
    config = BasisConfig(interaction_order=1)
    est = NuisanceEstimates(*(intercept_only(config, c, d=2) for c in (0.3, 0.55, 0.2, 0.12)))
    x = rng.uniform(size=(50, 2))
    s = rng.integers(0, 2, 50)
    z = rng.integers(0, 2, 50)
    base = stratum_probability(*est.values(x), s, z)
    kap = stratum_probability(*est.values(x), s, z, "kappa", 0.0, 0.0)
    assert np.array_equal(base, kap)


def test_negloglik_single_record_hand_value():
    data = Dataset([0], [0], [1], np.array([[0.5, 0.5]]),
                   ("x1", "x2"), ((0.0, 1.0), (0.0, 1.0)), scaled=True)
    config = BasisConfig(degree=1, interaction_order=0)
    options = FitOptions(floor=0.0, relevance_penalty=0.0)
    # intercept-only: tau0 = 0.5, alpha = 0.2 -> p = 0.4
    stack = np.array([0.0, 0.0, logit(0.2), 0.0])
    value, grad = SieveProblem(data, config, options).value_grad(stack)
    assert value == pytest.approx(-np.log(0.4), abs=1e-12)
    assert grad.shape == (4,)


def smooth_random_stack(problem, rng, h=1e-5):
    """Keep the FD window away from the relevance-hinge kink and the clamp."""
    from fairdesert.sievemle import stratum_probability

    while True:
        stack = rng.normal(0, 0.8, problem.dim)
        (t0, t1, a, b), _, _ = problem.functions(stack)
        gap = np.abs(t1 - t0)
        # stay clear of the hinge kink at zero and its activation boundary
        if np.min(gap) < 5 * h or np.min(np.abs(gap - problem.margin)) < 5 * h:
            continue
        p = stratum_probability(t0, t1, a, b, problem.s, problem.z,
                                problem.variant, problem.sv0, problem.sv1)
        if np.min(p) < 1e-6 or np.max(p) > 1 - 1e-6:
            continue
        return stack


@pytest.mark.parametrize("variant", list(VARIANT_SENS))
def test_gradients_match_finite_differences(variant):
    data, _, _ = gen_dataset(DgpConfig(n=300, seed=5))
    config = BasisConfig(degree=1, interaction_order=1)
    options = FitOptions()
    problem = SieveProblem(data, config, options, variant, VARIANT_SENS[variant])
    rng = np.random.default_rng(11)
    h = 1e-5
    for _ in range(20):
        stack = smooth_random_stack(problem, rng, h)
        _, grad = problem.value_grad(stack)
        fd = np.empty_like(grad)
        for i in range(stack.size):
            up = stack.copy(); up[i] += h
            dn = stack.copy(); dn[i] -= h
            fd[i] = (problem.value_grad(up)[0] - problem.value_grad(dn)[0]) / (2 * h)
        # normwise relative error: per-component ratios amplify FD roundoff
        # on near-zero components
        rel = np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-8)
        assert rel < 1e-6


def closed_form_stratum_probability(t0, t1, a, b, s, z, variant, sv0, sv1):
    """Oracle: each variant's stratum model written out on its own."""
    tz = np.where(z == 1, t1, t0)
    s1 = s == 1
    p = np.empty_like(tz)
    if variant == "baseline":
        p[~s1] = (tz * (1 - a))[~s1]
        p[s1] = (b + tz * (1 - b))[s1]
    elif variant == "kappa":
        kz = np.where(z == 1, sv1, sv0)
        p[~s1] = (tz * (1 - a))[~s1]
        p[s1] = (b + (tz + kz) * (1 - b))[s1]
    elif variant == "delta":
        p[~s1] = (sv0 + tz * (1 - sv0 - a))[~s1]
        p[s1] = (b + tz * (1 - sv1 - b))[s1]
    else:
        f0 = np.where(z == 1, 1 + sv0, 1.0)
        f1 = np.where(z == 1, 1 + sv1, 1.0)
        p[~s1] = (f0 * tz * (1 - a))[~s1]
        p[s1] = (1 - f1 * (1 - tz) * (1 - b))[s1]
    return np.clip(p, 1e-12, 1 - 1e-12)


def reference_value_grad(problem, stack):
    """Oracle: the objective evaluated one function and one variant at a time."""
    c = problem.c
    logits = [problem.phi @ g for g in problem.unpack(stack)]
    sigs = [expit(u) for u in logits]
    t0, t1, a, b = (c + (1 - 2 * c) * sig for sig in sigs)
    slopes = [(1 - 2 * c) * sig * (1 - sig) for sig in sigs]
    s1 = problem.s == 1
    z1 = problem.z == 1
    sv0, sv1 = problem.sv0, problem.sv1
    tz = np.where(z1, t1, t0)
    dp_da = np.zeros(problem.n)
    dp_db = np.zeros(problem.n)
    f0 = f1 = np.ones(problem.n)
    kz = np.zeros(problem.n)
    if problem.variant == "zeta":
        f0 = np.where(z1, 1 + sv0, 1.0)
        f1 = np.where(z1, 1 + sv1, 1.0)
    if problem.variant == "kappa":
        kz = np.where(z1, sv1, sv0)
    if problem.variant == "delta":
        dp_dt = np.where(s1, 1 - sv1 - b, 1 - sv0 - a)
    else:
        dp_dt = np.where(s1, f1 * (1 - b), f0 * (1 - a))
    dp_da[~s1] = (-f0 * tz)[~s1]
    dp_db[s1] = (f1 * (1 - tz - kz))[s1]
    p = closed_form_stratum_probability(t0, t1, a, b, problem.s, problem.z,
                                        problem.variant, sv0, sv1)
    y, n = problem.y, problem.n
    value = -np.mean(y * np.log(p) + (1 - y) * np.log1p(-p))
    dneg_dp = (p - y) / (p * (1 - p)) / n
    diff = t1 - t0
    hinge = np.maximum(0.0, problem.margin - np.abs(diff))
    value += problem.lam * np.mean(hinge ** 2)
    dpen = problem.lam * 2 * hinge * (-np.sign(diff)) / n
    w_t = dneg_dp * dp_dt
    weights = [np.where(z1, 0.0, w_t) - dpen, np.where(z1, w_t, 0.0) + dpen,
               dneg_dp * dp_da, dneg_dp * dp_db]
    grad = np.concatenate([problem.phi.T @ (w * sl) for w, sl in zip(weights, slopes)])
    j = problem.j
    for k, u in enumerate(logits):
        centered = u - u.mean()
        value += 0.5 * problem.ridge * float(centered @ centered) / n
        grad[k * j:(k + 1) * j] += problem.ridge * (problem.phi.T @ centered) / n
    return float(value), grad


X_DEPENDENT_SENS = {
    "baseline": None,
    "kappa": SensitivityParams("kappa", lambda x: 0.05 * x[:, 0] - 0.02,
                               lambda x: -0.03 * x[:, 1]),
    "delta": SensitivityParams("delta", lambda x: 0.02 + 0.05 * x[:, 0],
                               lambda x: 0.1 * x[:, 1]),
    "zeta": SensitivityParams("zeta", lambda x: 0.2 * x[:, 0] - 0.1,
                              lambda x: 0.15 - 0.3 * x[:, 1]),
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_stratum_table_reproduces_closed_forms(variant):
    rng = np.random.default_rng(21)
    n = 5000
    x = rng.uniform(size=(n, 2))
    t0, t1, a, b = rng.uniform(0.001, 0.999, size=(4, n))
    s = rng.integers(0, 2, n).astype(float)
    z = rng.integers(0, 2, n).astype(float)
    for sens in (VARIANT_SENS[variant], X_DEPENDENT_SENS[variant]):
        sv0, sv1 = (sens or SensitivityParams(variant)).evaluate(x)
        got = stratum_probability(t0, t1, a, b, s, z, variant, sv0, sv1)
        want = closed_form_stratum_probability(t0, t1, a, b, s, z, variant, sv0, sv1)
        assert np.max(np.abs(got - want)) <= 1e-15
        # the forward map is the same table, one stratum at a time
        mu = forward_mu(PointwiseParams(t0, t1, a, b), variant, sv0, sv1).as_tuple()
        for k, (s_val, z_val) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
            want = closed_form_stratum_probability(
                t0, t1, a, b, np.full(n, s_val), np.full(n, z_val), variant, sv0, sv1)
            assert np.max(np.abs(np.clip(mu[k], 1e-12, 1 - 1e-12) - want)) <= 1e-15
    assert stratum_table(s, z, variant, sv0, sv1).shape == (4, n)


def test_zero_sensitivity_value_grad_bitwise_baseline():
    data, _, _ = gen_dataset(DgpConfig(n=500, seed=8))
    config = BasisConfig(interaction_order=1)
    options = FitOptions(floor=0.05, relevance_margin=1e-3, ridge=3e-3)
    base = SieveProblem(data, config, options, precondition=True)
    rng = np.random.default_rng(4)
    stacks = [rng.normal(0, 0.8, base.dim) for _ in range(10)]
    for variant in ("kappa", "delta", "zeta"):
        zero = SieveProblem(data, config, options, variant,
                            SensitivityParams(variant, 0.0, 0.0), precondition=True)
        assert np.array_equal(zero.table, base.table)
        for stack in stacks:
            value, grad = zero.value_grad(stack)
            base_value, base_grad = base.value_grad(stack)
            assert value == base_value
            assert np.array_equal(grad, base_grad)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("options", [
    FitOptions(),
    FitOptions(floor=0.05, relevance_margin=1e-3, ridge=3e-3),
], ids=["cli", "mc"])
def test_fused_value_grad_matches_reference(variant, options):
    data, _, _ = gen_dataset(DgpConfig(n=400, seed=6))
    for sens in (VARIANT_SENS[variant], X_DEPENDENT_SENS[variant]):
        problem = SieveProblem(data, BasisConfig(interaction_order=1), options,
                               variant, sens, precondition=True)
        rng = np.random.default_rng(9)
        for _ in range(100):
            stack = rng.normal(0, 0.8, problem.dim)
            value, grad = problem.value_grad(stack)
            ref_value, ref_grad = reference_value_grad(problem, stack)
            assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
            assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


class WhereStackSieveProblem(SieveProblem):
    """Oracle: the objective as it was before the gather/scatter rewrite, which
    selected each row's values with np.where and stacked the weight columns.

    `_blocks`, `_likelihood` and `value_grad` are the earlier bodies verbatim;
    the rewrite must reproduce them bit for bit, since a last-ulp change can
    send a fit to another mode.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.s1 = self.s == 1
        self.z1 = self.z == 1

    def _blocks(self, stack):
        """(n, 4) logits, function values and expit derivative factors."""
        logits = self.phi @ np.reshape(stack, (4, self.j)).T
        sig = expit(logits)
        scale = 1 - 2 * self.c
        return logits, self.c + scale * sig, scale * sig * (1 - sig)

    def _likelihood(self, vals):
        """Per-row probability of the observed outcome, and the partials of
        f(Y=1 | s, z, x) in tz and m."""
        t0, t1, a, b = vals.T
        p, dp_dt, dp_dm = _bilinear(self.table, np.where(self.z1, t1, t0),
                                    np.where(self.s1, b, a))
        p = np.clip(p, 1e-12, 1 - 1e-12)
        return np.where(self.y1, p, 1 - p), dp_dt, dp_dm

    def value_grad(self, stack):
        logits, vals, slopes = self._blocks(stack)
        lik, dp_dt, dp_dm = self._likelihood(vals)
        value = -np.mean(np.log(lik))
        dneg_dp = self.dneg_sign / lik

        diff = vals[:, 1] - vals[:, 0]
        hinge = np.maximum(0.0, self.margin - np.abs(diff))
        value += self.lam * np.mean(hinge ** 2)
        dpen_ddiff = self.lam * 2 * hinge * (-np.sign(diff)) / self.n

        z1, s1 = self.z1, self.s1
        w_t = dneg_dp * dp_dt
        w_m = dneg_dp * dp_dm
        weights = np.stack([
            np.where(z1, 0.0, w_t) - dpen_ddiff,
            np.where(z1, w_t, 0.0) + dpen_ddiff,
            np.where(s1, 0.0, w_m),
            np.where(s1, w_m, 0.0),
        ], axis=1)
        weights *= slopes
        if self.ridge > 0:
            # coordinate-free shrinkage of the demeaned logit functions;
            # stabilizes the decomposition into (tau, alpha, beta) at small n
            centered = logits - logits.mean(axis=0)
            value += 0.5 * self.ridge * float(np.sum(centered * centered)) / self.n
            weights += (self.ridge / self.n) * centered
        return float(value), (self.phi.T @ weights).T.ravel()


def hinge_rows(problem, stack):
    """Rows on which the relevance hinge is active at the packed point."""
    (t0, t1, _, _), _, _ = problem.functions(stack)
    return int(np.sum(np.abs(t1 - t0) < problem.margin))


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("options", [
    FitOptions(),
    FitOptions(floor=0.05, relevance_margin=1e-3, ridge=3e-3),
], ids=["cli", "mc"])
def test_value_grad_bitwise_where_stack_objective(variant, options):
    data, _, _ = gen_dataset(DgpConfig(n=400, seed=6))
    config = BasisConfig(interaction_order=1)
    for sens in (VARIANT_SENS[variant], X_DEPENDENT_SENS[variant]):
        for precondition in (False, True):
            args = (data, config, options, variant, sens)
            problem = SieveProblem(*args, precondition=precondition)
            oracle = WhereStackSieveProblem(*args, precondition=precondition)
            rng = np.random.default_rng(12)
            j = problem.j
            active = []
            for k in range(30):
                stack = rng.normal(0, 0.8, problem.dim)
                if k % 3 == 1:
                    # tau1 a small perturbation of tau0: the hinge binds on some rows
                    stack[j:2 * j] = stack[:j] + rng.normal(0, 1e-2, j)
                elif k % 3 == 2:
                    # tau1 far above tau0 everywhere: the hinge binds nowhere
                    stack[:j] = 0.0
                    stack[j:2 * j] = 0.0
                    stack[j] = 3.0
                active.append(hinge_rows(problem, stack))
                value, grad = problem.value_grad(stack)
                want_value, want_grad = oracle.value_grad(stack)
                assert value == want_value
                assert np.array_equal(grad, want_grad)
                assert problem.criterion(stack) == oracle.criterion(stack)
            assert any(0 < a < problem.n for a in active[1::3])
            assert all(a == 0 for a in active[2::3])


# fit(DgpConfig(n=600, seed=4) draw, BasisConfig(interaction_order=1),
# FitOptions(restarts=3)) per variant at the VARIANT_SENS levels, as the
# objective and BFGS computed them before the gather/scatter rewrite, with
# scipy.special's expit: (diagnostics.criterion, coefficient_stack())
PINNED_FITS = {
    "baseline": (-0.515425217363901, [
        2.2522111506056706, -8.768270137894593, -24.677415469456527,
        46.280590785275095, 40.94098926699988, -36.231039070702515,
        -20.52846048154517, 2.6627281118231254, -11.556799260428093,
        -14.907872975618984, 34.79160678868291, 34.810674472550936,
        -26.614495248621893, -20.001043607981767, 6.633969775086742,
        -10.410383768426609, -30.4649096188054, 28.125631060902585,
        51.215449846348605, -21.827729564343468, -29.02691121816057,
        -15.104005520142945, 56.187126377925736, 51.34189861376758,
        -159.88307625076453, -78.45496315591105, 113.03149401582735,
        36.524828746740496,
    ]),
    "kappa": (-0.514308231868971, [
        -0.9089616658808782, 0.5454251393390305, -6.787950584366667,
        21.850634977034137, 8.29121492166947, -20.57132937678705,
        -2.185829125495334, 1.2819077387050188, -9.178617451426168,
        -4.491105604454731, 30.227759118270132, 13.342139167878797,
        -24.520977858876677, -6.651143899082041, 5.6695960578639175,
        -5.814860702266506, -23.104114420781947, 16.327558973439668,
        35.32335578581533, -14.423381708019539, -18.95618903634097,
        2.2100818542457046, 52.78165840212381, -106.03006325720737,
        -175.627993576643, 342.3235630814279, 131.92764865955584,
        -298.95689884175334,
    ]),
    "delta": (-0.5079157183627317, [
        30.403548627067472, 338.85062914832247, -739.1087216368721,
        -406.7449900333781, 1344.648746690098, 164.45090214600896,
        -738.2222679351605, 3.097179342442196, -7.140225633429785,
        -18.762886107759602, 18.058117566685517, 28.29502815491453,
        -12.15989251961514, -3.7026993635709413, 10.531481353408505,
        0.8057968555724891, -69.36892577517426, -6.315650600891163,
        128.01380615482796, 5.200124733214156, -71.66201108982403,
        -13.538035470141136, 12.244128625744738, 67.31240316285073,
        -24.440469242978807, -109.06985957544813, 12.565421617963096,
        54.118134920065295,
    ]),
    "zeta": (-0.5169422698666946, [
        -5.26516233627383, 28.13584238789136, -20.23983428560796,
        -35.26315304086955, 33.26747394156099, 18.095385519318565,
        -12.659365601697074, -0.1086051909076621, 3.616716092604049,
        -7.788276530282438, -15.025266873935667, 22.56124949034241,
        12.197189416699034, -12.227495056105566, 5.531069643531627,
        4.5482799130825855, -34.85748556878278, -21.880716370240254,
        61.418976820577015, 18.044063888231783, -33.21778359972447,
        1.3960851547688817, -2.4647783786633015, -22.782225180216454,
        18.4765809184712, 71.39654561282865, -19.903392682506336,
        -60.5619993607179,
    ]),
}


# the same fits with the package's numpy expit, which differs from scipy's in
# the last few bits of some values; the fit is multimodal, so the criterion
# moves by up to 7.3e-6 (kappa)
SHIPPED_FITS = {
    "baseline": (-0.5154259587953156, [
        2.250703858174536, -8.565924054439343, -24.641139389084216,
        45.87422877748539, 40.67815988468355, -36.003572439426186,
        -20.307388675643253, 2.681623737406021, -11.743317158908358,
        -15.0338084191848, 35.1963946034936, 35.17719390900526,
        -26.84829997145177, -20.263583015860817, 6.6329149571425345,
        -10.399302168667244, -30.452004170443495, 28.083273756491515,
        51.18490523759399, -21.788669397133013, -29.009586253301233,
        -15.140307544044429, 56.07579518078965, 51.616817695411484,
        -159.6063028628806, -78.909803831706, 112.84472505309859,
        36.75499103060414,
    ]),
    "kappa": (-0.514300906689657, [
        -0.8874449114030597, 0.38596746414587907, -6.926925128772015,
        22.154844432874153, 8.630996201921105, -20.732277257073967,
        -2.393858502935483, 1.2598345354410556, -9.044979615516846,
        -4.3836741187428165, 30.01354904685153, 13.106245068257257,
        -24.43026210149442, -6.512570545210744, 5.6695127587789935,
        -5.843507601162731, -23.105298464695988, 16.412023227778104,
        35.33430953673223, -14.484491104016417, -18.965424047842482,
        2.195328631017496, 52.742182596737706, -105.7714980293946,
        -175.40954362480412, 341.50091745322675, 131.74199966210205,
        -298.2426359665755,
    ]),
    "delta": (-0.5079145434838892, [
        30.53162600941816, 350.1269877507366, -756.7070118735805,
        -421.2616778256249, 1376.6496730966019, 170.61191815575813,
        -755.8391056176, 3.0907539512744235, -7.1239284590324745,
        -18.674149971728326, 17.992025305618302, 27.996698228314898,
        -12.104983029161138, -3.4297332649204466, 10.494465377986122,
        0.8223700798631375, -69.11159039175409, -6.3351296749528725,
        127.54556528051658, 5.204554373452007, -71.41223441706971,
        -13.521379232857708, 12.23001666285355, 67.24769814718174,
        -24.38579649326436, -108.99987953608614, 12.51702228118581,
        54.09928974372097,
    ]),
    "zeta": (-0.5169369153520894, [
        -5.5283411899236485, 28.55595087674366, -19.10383258263357,
        -36.04537147280783, 31.349909132120256, 18.549530517815707,
        -11.668807024336598, -0.2153456797641613, 3.84715667591055,
        -7.133511495818208, -15.880068803873415, 21.318099425199136,
        12.860495948741642, -11.505647993418572, 5.448322455064457,
        4.594571526277406, -34.34083743285612, -22.16870002583196,
        60.522507732454955, 18.298552973241886, -32.74052509110653,
        1.455582631366406, -2.4189299323997195, -23.14366861700117,
        18.34897389321757, 71.88216053538513, -19.73572641105374,
        -60.70072566997239,
    ]),
}


def _pinned_fit(variant, basis_config):
    data, _, _ = gen_dataset(DgpConfig(n=600, seed=4))
    est = fit(data, basis_config, FitOptions(restarts=3), variant, VARIANT_SENS[variant])
    return est.diagnostics.criterion, est.coefficient_stack().tolist()


@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_bitwise_pinned(variant, univariate_basis, scipy_primitives):
    assert _pinned_fit(variant, univariate_basis) == PINNED_FITS[variant]


@pytest.mark.parametrize("variant", VARIANTS)
def test_fit_bitwise_pinned_shipped_primitives(variant, univariate_basis):
    assert _pinned_fit(variant, univariate_basis) == SHIPPED_FITS[variant]


def test_restart_evaluations_count_value_grad_calls(univariate_basis, monkeypatch):
    data, _, _ = gen_dataset(DgpConfig(n=800, seed=9))
    calls = []
    value_grad = SieveProblem.value_grad

    def counting(self, stack):
        calls.append(1)
        return value_grad(self, stack)
    monkeypatch.setattr(SieveProblem, "value_grad", counting)
    cold = fit(data, univariate_basis, FitOptions(restarts=3, seed=2))
    assert sum(r.evaluations for r in cold.diagnostics.restarts) == len(calls)
    calls.clear()
    warm = fit(data, univariate_basis,
               FitOptions(restarts=2, seed=2, init_coefficients=cold.coefficient_stack()),
               variant="delta", sensitivity=SensitivityParams("delta", 0.05, 0.05))
    records = warm.diagnostics.restarts
    assert [r.start for r in records] == ["warm", "plugin"]
    assert sum(r.evaluations for r in records) == len(calls)
    assert all(r.evaluations > r.iterations for r in records)
    # documents written before evaluations were counted still load
    doc = warm.diagnostics.to_json_dict()
    for r in doc["restarts"]:
        del r["evaluations"]
    assert all(r.evaluations is None
               for r in type(warm.diagnostics).from_json_dict(doc).restarts)


def reference_plugin_start(problem, data):
    """Oracle: the plug-in start with the tau inversion written out inline."""
    from fairdesert.identify import recover_mechanism
    from fairdesert.regress import fit_mu_models
    from fairdesert.sievemle import _target_to_gamma

    mu_model = fit_mu_models(data, problem.config, ridge=RIDGE_INIT)
    mu = mu_model.predict_all(data.x)
    m = PointwiseMu(mu[:, 0], mu[:, 1], mu[:, 2], mu[:, 3])
    denom = m.mu01 * (1 - m.mu10) - m.mu00 * (1 - m.mu11)
    valid = np.abs(denom) > 1e-8
    spread = m.mu11 - m.mu10
    t0 = np.where(valid, m.mu00 * spread / np.where(valid, denom, 1.0), 0.5)
    t1 = np.where(valid, m.mu01 * spread / np.where(valid, denom, 1.0), 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rec = recover_mechanism(m, np.clip(t0, 0.02, 0.98), np.clip(t1, 0.02, 0.98))
    return np.concatenate([
        _target_to_gamma(problem, v, valid)
        for v in (t0, t1, np.asarray(rec.alpha), np.asarray(rec.beta))
    ])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_plugin_start_matches_inline_inversion(seed):
    data, _, _ = gen_dataset(DgpConfig(n=1000, seed=seed))
    problem = SieveProblem(data, BasisConfig(interaction_order=1), FitOptions(),
                           precondition=True)
    assert np.array_equal(_plugin_start(problem, data), reference_plugin_start(problem, data))


def test_truth_beats_perturbations_in_population_criterion():
    data = constant_dataset(50_000, 0.3, 0.6, 0.25, 0.15, seed=7)
    config = BasisConfig(degree=1, interaction_order=0)
    options = FitOptions(floor=0.0, relevance_penalty=0.0)
    truth = np.array([logit(0.3), logit(0.6), logit(0.25), logit(0.15)])
    problem = SieveProblem(data, config, options)
    base_value, _ = problem.value_grad(truth)
    rng = np.random.default_rng(2)
    for _ in range(5):
        value, _ = problem.value_grad(truth + rng.normal(0, 0.4, 4))
        assert base_value <= value


def test_fit_recovers_constant_parameters():
    data = constant_dataset(100_000, 0.3, 0.6, 0.25, 0.15, seed=3)
    config = BasisConfig(degree=1, interaction_order=0)
    est = fit(data, config, FitOptions(restarts=3, seed=0))
    t0, t1, a, b = (float(v[0]) for v in est.values(data.x[:1]))
    assert abs(t0 - 0.3) < 0.02
    assert abs(t1 - 0.6) < 0.02
    assert abs(a - 0.25) < 0.02
    assert abs(b - 0.15) < 0.02


def test_fit_deterministic(univariate_basis):
    data, _, _ = gen_dataset(DgpConfig(n=800, seed=9))
    options = FitOptions(restarts=3, seed=123)
    est1 = fit(data, univariate_basis, options)
    est2 = fit(data, univariate_basis, options)
    assert np.array_equal(est1.coefficient_stack(), est2.coefficient_stack())


def test_fit_same_for_every_jobs(univariate_basis):
    data, _, _ = gen_dataset(DgpConfig(n=800, seed=9))
    cold = {jobs: fit(data, univariate_basis, FitOptions(restarts=10, seed=4), jobs=jobs)
            for jobs in (1, 2)}
    warm_options = FitOptions(restarts=3, seed=4,
                              init_coefficients=cold[1].coefficient_stack())
    sens = SensitivityParams("delta", 0.05, 0.05)
    warm = {jobs: fit(data, univariate_basis, warm_options, variant="delta",
                      sensitivity=sens, jobs=jobs)
            for jobs in (1, 2)}
    for fits in (cold, warm):
        assert np.array_equal(fits[1].coefficient_stack(), fits[2].coefficient_stack())
        assert fits[1].diagnostics == fits[2].diagnostics
    assert [r.start for r in warm[1].diagnostics.restarts] == ["warm", "plugin", "random"]


def test_fit_records_every_restart(univariate_basis):
    data, _, _ = gen_dataset(DgpConfig(n=800, seed=9))
    diag = fit(data, univariate_basis, FitOptions(restarts=4, seed=123)).diagnostics
    assert len(diag.restarts) == diag.restarts_used == 4
    assert [r.start for r in diag.restarts] == ["plugin", "random", "random", "random"]
    winner = diag.restarts[diag.winner]
    # penalty = objective + criterion, so this holds up to one rounding
    assert winner.objective == pytest.approx(diag.penalty - diag.criterion, rel=1e-14, abs=1e-14)
    assert winner.objective == min(r.objective for r in diag.restarts if r.grad_norm <= 1e-4)
    assert (winner.iterations, winner.grad_norm, winner.converged) == (
        diag.iterations, diag.grad_norm, diag.converged)
    doc = diag.to_json_dict()
    assert doc["winner"] == diag.winner and len(doc["restarts"]) == 4
    assert type(diag).from_json_dict(doc) == diag


def _outcome(call):
    """What ``call()`` returns or the `FitError` it raises, and the messages
    of the `RelevanceWarning`s it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RelevanceWarning)
        try:
            out = call()
        except FitError as exc:
            out = exc
    return out, [str(w.message) for w in caught if w.category is RelevanceWarning]


def _same_fit(a, b):
    if isinstance(a, FitError):
        return type(b) is FitError and str(a) == str(b)
    return (a.coefficient_stack().tobytes() == b.coefficient_stack().tobytes()
            and a.diagnostics == b.diagnostics
            and (a.variant, a.sensitivity) == (b.variant, b.sensitivity))


def test_fit_many_equals_one_fit_per_request(univariate_basis):
    data, _, _ = gen_dataset(DgpConfig(n=800, seed=9))
    weak, _, _ = gen_dataset(DgpConfig(n=800, seed=16))
    opts = FitOptions(restarts=3, seed=4)
    requests = [
        (data, univariate_basis, opts),
        (data, univariate_basis, opts, "delta", SensitivityParams("delta", 0.05, 0.05)),
        # the baseline's objective and starts, under its own labels
        (data, univariate_basis, opts, "delta", SensitivityParams("delta", 0.0, 0.0)),
        (data, univariate_basis,
         FitOptions(restarts=1, max_iter=1, include_plugin_start=False, seed=0)),
        (weak, univariate_basis,
         FitOptions(restarts=1, seed=0, relevance_margin=0.5, relevance_penalty=0.0)),
    ]
    singles = [_outcome(lambda r=r: fit(*r)) for r in requests]
    expected_warnings = [m for _, caught in singles for m in caught]
    assert isinstance(singles[3][0], FitError) and len(expected_warnings) == 1
    for jobs in (1, 2):
        (outcomes, fits), caught = _outcome(lambda: fit_many(requests, jobs=jobs))
        assert all(_same_fit(o, f) for o, (f, _) in zip(outcomes, singles, strict=True))
        assert caught == expected_warnings
        # the zero-level request reused the baseline's restarts
        assert fits == 4
    assert outcomes[2].diagnostics == outcomes[0].diagnostics
    assert outcomes[2].variant == "delta"


def test_fit_many_runs_each_distinct_restart_once(univariate_basis, monkeypatch):
    data, _, _ = gen_dataset(DgpConfig(n=800, seed=9))
    runs = []
    bfgs = sievemle.bfgs_minimize

    def counting(fg, x0, **kwargs):
        runs.append(1)
        return bfgs(fg, x0, **kwargs)
    monkeypatch.setattr(sievemle, "bfgs_minimize", counting)
    opts = FitOptions(restarts=3, seed=0)
    (base, reseeded, zero, _), fits = fit_many([
        (data, univariate_basis, opts),
        # another seed changes the random starts only
        (data, univariate_basis, FitOptions(restarts=3, seed=1)),
        (data, univariate_basis, opts, "zeta", SensitivityParams("zeta", 0.0, 0.0)),
        # another iteration limit is another minimization
        (data, univariate_basis, FitOptions(restarts=3, seed=0, max_iter=400)),
    ])
    assert len(runs) == 3 + 2 + 0 + 3
    assert fits == 3
    assert [r.start for r in reseeded.diagnostics.restarts] == ["plugin", "random", "random"]
    assert reseeded.diagnostics.restarts[0] == base.diagnostics.restarts[0]
    assert zero.diagnostics == base.diagnostics


def test_restart_records_carry_the_stop_message(univariate_basis):
    # the zeta plug-in start is far from feasible and its line search fails
    data, _, _ = gen_dataset(DgpConfig(n=600, seed=4))
    diag = fit(data, univariate_basis, FitOptions(restarts=3), "zeta",
               VARIANT_SENS["zeta"]).diagnostics
    assert [r.message for r in diag.restarts] == ["line search failed", "", ""]
    doc = diag.to_json_dict()
    assert [r["message"] for r in doc["restarts"]] == ["line search failed", "", ""]
    assert type(diag).from_json_dict(doc) == diag
    # documents written before messages were recorded still load
    for r in doc["restarts"]:
        del r["message"]
    assert all(r.message is None for r in type(diag).from_json_dict(doc).restarts)


def test_fit_respects_floor(univariate_basis):
    data, _, _ = gen_dataset(DgpConfig(n=800, seed=10))
    est = fit(data, univariate_basis, FitOptions(restarts=2, floor=0.05, seed=0))
    for v in est.values(data.x):
        assert np.all(v >= 0.05 - 1e-12) and np.all(v <= 0.95 + 1e-12)


def test_variant_reductions_match_baseline(univariate_basis):
    data, _, _ = gen_dataset(DgpConfig(n=800, seed=12))
    base_opts = FitOptions(restarts=2, seed=4)
    base = fit(data, univariate_basis, base_opts)
    init = base.coefficient_stack()
    opts = FitOptions(restarts=1, seed=4, include_plugin_start=False,
                      init_coefficients=init)
    for variant, zero in [
        ("kappa", SensitivityParams("kappa", 0.0, 0.0)),
        ("delta", SensitivityParams("delta", 0.0, 0.0)),
        ("zeta", SensitivityParams("zeta", 0.0, 0.0)),
    ]:
        est = fit(data, univariate_basis, opts, variant=variant, sensitivity=zero)
        assert est.diagnostics.criterion == pytest.approx(
            base.diagnostics.criterion, abs=1e-8
        )


def test_fit_criterion_beats_truth_projection(univariate_basis):
    data, _, truth = gen_dataset(DgpConfig(n=4000, seed=14))
    options = FitOptions(restarts=2, seed=1, floor=0.05, relevance_margin=1e-3)
    est = fit(data, univariate_basis, options)
    problem = SieveProblem(data, univariate_basis, options, precondition=True)
    from fairdesert.sievemle import _target_to_gamma

    valid = np.ones(data.n, dtype=bool)
    proj = np.concatenate([
        _target_to_gamma(problem, v, valid)
        for v in (truth.tau0(data.x), truth.tau1(data.x),
                  truth.alpha(data.x), truth.beta(data.x))
    ])
    proj_criterion = problem.criterion(proj)
    assert est.diagnostics.criterion >= proj_criterion - 1e-6


def test_label_swap_symmetry():
    data = constant_dataset(20_000, 0.3, 0.6, 0.25, 0.15, seed=6)
    swapped = Dataset(
        s=1 - data.s, z=data.z, y=1 - data.y, x=data.x,
        covariate_names=data.covariate_names, scaling=data.scaling, scaled=True,
    )
    config = BasisConfig(degree=1, interaction_order=0)
    options = FitOptions(restarts=3, seed=0)
    est = fit(data, config, options)
    est_sw = fit(swapped, config, options)
    point = data.x[:1]
    t0, t1, a, b = (float(v[0]) for v in est.values(point))
    t0s, t1s, a_s, b_s = (float(v[0]) for v in est_sw.values(point))
    assert t0s == pytest.approx(1 - t0, abs=0.02)
    assert t1s == pytest.approx(1 - t1, abs=0.02)
    assert a_s == pytest.approx(b, abs=0.02)
    assert b_s == pytest.approx(a, abs=0.02)


def test_relevance_warning_when_margin_unattainable(univariate_basis):
    data, _, _ = gen_dataset(DgpConfig(n=800, seed=16))
    with pytest.warns(UserWarning, match="relevance"):
        fit(data, univariate_basis,
            FitOptions(restarts=1, seed=0, relevance_margin=0.5, relevance_penalty=0.0))


def test_fit_error_when_nothing_converges(univariate_basis):
    data, _, _ = gen_dataset(DgpConfig(n=800, seed=17))
    with pytest.raises(FitError):
        fit(data, univariate_basis,
            FitOptions(restarts=1, max_iter=1, include_plugin_start=False, seed=0))


def test_predict_tau_selector(univariate_basis):
    data, _, _ = gen_dataset(DgpConfig(n=800, seed=19))
    est = fit(data, univariate_basis, FitOptions(restarts=2, seed=0))
    x = data.x[:5]
    t0 = est.tau0(x)
    t1 = est.tau1(x)
    assert np.allclose(predict_tau(est, np.zeros(5, dtype=int), x), t0)
    assert np.allclose(predict_tau(est, np.ones(5, dtype=int), x), t1)


def test_predict_tau_sz_kappa_shift(univariate_basis):
    data, _, _ = gen_dataset(DgpConfig(n=800, seed=20))
    sens = SensitivityParams("kappa", 0.05, 0.05)
    est = fit(data, univariate_basis, FitOptions(restarts=2, seed=0),
              variant="kappa", sensitivity=sens)
    x = data.x[:5]
    z = np.zeros(5, dtype=int)
    base = predict_tau_sz(est, np.zeros(5, dtype=int), z, x)
    adv = predict_tau_sz(est, np.ones(5, dtype=int), z, x)
    assert np.allclose(np.asarray(adv) - np.asarray(base), 0.05, atol=1e-12)
    scores = decision_scores(est, data)
    assert scores.shape == (data.n,)


def test_one_row_scores_are_one_dimensional(univariate_basis):
    data, _, _ = gen_dataset(DgpConfig(n=800, seed=20))
    est = fit(data, univariate_basis, FitOptions(restarts=2, seed=0))
    row = data.subset(np.array([3]))
    scores = decision_scores(est, row)
    assert scores.shape == (1,)
    assert rate_threshold(scores, 0.5) == scores[0]
    assert predict_tau(est, row.z, row.x).shape == (1,)
    # one point x (1-d) still gives a float
    assert predict_tau_sz(est, 1, 0, data.x[3]) == predict_tau_sz(est, 1, 0, data.x[3:4])[0]


def test_rate_threshold_order_statistics():
    scores = np.array([0.1, 0.2, 0.9])
    assert rate_threshold(scores, 1 / 3) == 0.9
    assert rate_threshold(scores, 1.0) == 0.1
    with pytest.raises(ValueError):
        rate_threshold(scores, 0.0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=60),
    st.floats(0.01, 1.0),
)
def test_rate_threshold_properties(raw_scores, target):
    scores = np.asarray(raw_scores)
    t = rate_threshold(scores, target)
    rate = np.mean(scores >= t)
    assert rate >= target - 1e-12
    higher = scores[scores > t]
    if higher.size:
        # the next-larger achievable threshold misses the target
        assert np.mean(scores >= higher.min()) < target + 1e-12


def test_threshold_preserving_rate_end_to_end(univariate_basis):
    data, _, _ = gen_dataset(DgpConfig(n=800, seed=22))
    est = fit(data, univariate_basis, FitOptions(restarts=2, seed=0))
    target = 0.25
    scores = decision_scores(est, data)
    t_star = rate_threshold(scores, target)
    assert np.mean(scores >= t_star) >= target
