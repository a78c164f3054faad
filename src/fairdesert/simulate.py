"""Synthetic data-generating process, comparison predictors, AUC evaluation,
and the Monte Carlo replication harness.

The generative model draws two uniform covariates, a sensitive attribute and
an auxiliary variable from logistic models (independent given X), the latent
deserved decision from tau_Z(X), and the observed decision by passing the
latent one through the group-specific unfairness mechanism.  A scalar knob
``delta`` turns on two-sided misclassification (upgrades for the disadvantaged
group and downgrades for the advantaged group at rate delta), violating the
one-sided assumption the baseline estimator relies on: the generator's
mechanism is the delta variant of `identify.mechanism` at (delta, delta).
The true theta = f(Y != Y*) that coverage and bias are measured against
(`oracle_theta`) integrates S, Z and both outcomes out analytically and X by
Gauss-Legendre quadrature, accurate to about 1e-15.

Comparison methods: an unconstrained series logit of Y (UML), the same without
the sensitive attribute (FTU), a constrained fit forcing a zero average causal
effect of S on the score (MLC), and a label-debiasing reweighting loop (LD).
MLC and LD follow standard constructions from the fairness literature and are
flagged as indicative in all outputs.

Each replication scores every method on one large independent test draw, in
row blocks of `basis.MONOMIAL_BLOCK_ROWS`, so no design matrix of the whole
draw is built.  The work is shared across methods: every method's logit is a
linear predictor per (S, Z) stratum over monomials of X alone, so within a
block one design of the union of those monomials and one matrix product give
all five methods' logits (`_test_scores`); the desert-decision scores serve
both its AUCs and its tau error; and one sort per score vector, against which
both label vectors (Y* and Y) are scored.  The AUC is the Mann-Whitney
statistic from exact integer rank sums: the sorted positions of the
positives, plus a correction at tied positions only.  The sort is numpy's
default, which is not stable: tied scores all get their tie's average rank,
so the order within a tie cannot change an AUC, and the stable sort would
only cost more.
"""

from __future__ import annotations

import json
import math
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial.legendre import leggauss
from numpy.random import SeedSequence, default_rng

from .basis import (
    MONOMIAL_BLOCK_ROWS,
    BasisConfig,
    basis_exponents,
    expit,
    monomial_exponents,
    monomials_matrix,
    orthonormal_design,
)
from .data import Dataset
from .errors import ParityWarning, UndefinedAUCError
from .identify import flip_rates, unfairness_rate
from .optimize import bfgs_minimize
from .parallel import map_jobs
from .regress import bernoulli_value_grad, fit_propensity, fit_series_logit
from .sievemle import FitOptions, NuisanceEstimates, fit
from .theta import theta_onestep

BASELINE_METHODS = ("uml", "ftu", "mlc", "ld")
ALL_METHODS = ("dsd",) + BASELINE_METHODS
# fewest rows the generator draws, for training and test draws alike
MIN_ROWS = 100
# the baselines' logit ridge, MLC's target |average causal effect of S| and
# LD's target |mean score gap|
BASELINE_RIDGE = 1e-8
MLC_CONSTRAINT_TOL = 1e-4
LD_PARITY_TOL = 1e-3


@dataclass(frozen=True)
class DgpConfig:
    """Generative-model settings.

    ``delta`` in [0, 0.5) violates the one-sided unfairness assumption
    (default off).
    """

    n: int = 2000
    delta: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n < MIN_ROWS:
            raise ValueError(f"n must be at least {MIN_ROWS}")
        if not 0.0 <= self.delta < 0.5:
            raise ValueError("delta must lie in [0, 0.5)")


def _tau0(x):
    return expit(-3 + 5 * x[:, 0] + np.sin(x[:, 1]))


def _tau1(x):
    return expit(-3 + x[:, 0] + 6 * np.sin(x[:, 1]))


def _alpha(x):
    return expit(-1 - np.sin(x[:, 0]) + 2 * np.exp(-x[:, 1]))


def _beta(x):
    return expit(-1 + 2 * np.exp(-x[:, 0]) - x[:, 1])


def _p_s1(x):
    return expit(2 - 2 * np.sin(x[:, 0]) - 2 * x[:, 1])


def _p_z1(x):
    return expit(1 - x[:, 0] - np.sin(x[:, 1]))


class TrueFunctions:
    """Handles to the generative-model truth for evaluation-only use."""

    tau0 = staticmethod(_tau0)
    tau1 = staticmethod(_tau1)
    alpha = staticmethod(_alpha)
    beta = staticmethod(_beta)
    p_s1 = staticmethod(_p_s1)
    p_z1 = staticmethod(_p_z1)

    def tau(self, z, x):
        z = np.asarray(z)
        return np.where(z == 1, self.tau1(x), self.tau0(x))

    def pi_matrix(self, x):
        ps = self.p_s1(x)
        pz = self.p_z1(x)
        return np.column_stack([
            (1 - ps) * (1 - pz), (1 - ps) * pz, ps * (1 - pz), ps * pz,
        ])


def gen_dataset(config: DgpConfig, seed=None):
    """Draw one dataset; returns (Dataset, latent decisions, truth handles).

    The latent vector is for evaluation only and is never part of the Dataset.
    """
    dataset, ystar, _ = _draw(config, seed)
    return dataset, ystar, TrueFunctions()


def _draw(config: DgpConfig, seed=None):
    """`gen_dataset`'s draw as (Dataset, latent decisions, each row's true
    tau_Z(x)), the last bitwise ``TrueFunctions().tau(data.z, data.x)``."""
    rng = default_rng(config.seed if seed is None else seed)
    n = config.n
    x = rng.uniform(size=(n, 2))
    s = (rng.random(n) < _p_s1(x)).astype(np.int8)
    z = (rng.random(n) < _p_z1(x)).astype(np.int8)
    tz = np.where(z == 1, _tau1(x), _tau0(x))
    q, down, up = flip_rates(tz, _alpha(x), _beta(x), s, z, "delta", config.delta, config.delta)
    ystar = (rng.random(n) < q).astype(np.int8)
    flip_to_0 = rng.random(n) < down
    flip_to_1 = rng.random(n) < up
    y = np.where(ystar == 1, np.where(flip_to_0, 0, 1), np.where(flip_to_1, 1, 0)).astype(np.int8)
    dataset = Dataset(
        s, z, y, x,
        covariate_names=("x1", "x2"),
        scaling=((0.0, 1.0), (0.0, 1.0)),
        scaled=True,
    )
    return dataset, ystar, tz


def oracle_theta(config: DgpConfig, draws=4096):
    """Value of theta = f(Y != Y*) for a config, by quadrature over X.

    S, Z and both binary outcomes are integrated out analytically given X,
    which leaves a smooth (analytic) integrand over X ~ U[0, 1]^2.  It is
    integrated by a tensor-product Gauss-Legendre rule: ``draws`` is the
    number of integrand evaluations, with round(sqrt(draws)) nodes per axis.
    The default 64^2 is accurate to about 1e-15 (16 nodes per axis already
    agree with 128 to that level), and the result is deterministic.
    """
    k = max(1, round(math.sqrt(draws)))
    t, w1 = leggauss(k)
    t, w1 = (t + 1) / 2, w1 / 2
    x = np.column_stack([np.repeat(t, k), np.tile(t, k)])
    weights = np.outer(w1, w1).ravel()
    ps = _p_s1(x)
    pz = _p_z1(x)
    taus = (_tau0(x), _tau1(x))
    a = _alpha(x)
    b = _beta(x)
    acc = np.zeros(x.shape[0])
    for s_val in (0, 1):
        for z_val in (0, 1):
            w = (ps if s_val else 1 - ps) * (pz if z_val else 1 - pz)
            acc += w * unfairness_rate(taus[z_val], a, b, s_val, z_val,
                                       "delta", config.delta, config.delta)
    return float(weights @ acc)


def auc(scores, labels):
    """Mann-Whitney AUC with half credit for ties.

    ``scores`` is a 1-d vector and ``labels`` one vector of 0/1 labels of the
    same length, or a (k, n) stack of them that are all scored against one
    sort of ``scores``; a stack returns a tuple of k AUCs.  Any other shape or
    label value raises ValueError.  A NaN score makes the AUC NaN.  Scores in
    [0, 2) with at most two label vectors (probabilities, say) are ranked by
    one sort of integer keys, any others by `np.argsort`; both give the same
    bits.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.ndim not in (1, 2) or labels.shape[-1] != scores.size:
        raise ValueError(
            f"AUC needs 1-d scores and labels of the same length, got shapes "
            f"{scores.shape} and {labels.shape}"
        )
    positives = np.atleast_2d(labels == 1)
    if not (positives | (labels == 0)).all():
        raise ValueError("AUC labels must be 0 or 1")
    n = scores.size
    counts = [int(pos.sum()) for pos in positives]
    if any(n1 == 0 or n1 == n for n1 in counts):
        raise UndefinedAUCError("AUC needs both label classes present")
    if len(positives) <= 2 and scores.min() >= 0 and scores.max() < 2:
        # Below 2 a non-negative double's top two bits are zero and its bits
        # sort as it does (+ 0.0 turns -0.0 into +0.0), so one integer sort
        # of the score bits shifted up, with the labels in the freed low
        # bits, orders the scores and carries each label along.  A NaN fails
        # the range test.
        shift = len(positives)
        keys = (scores + 0.0).view(np.uint64) << np.uint64(shift)
        bits = [np.uint64(1 << (shift - 1 - i)) for i in range(shift)]
        for pos, bit in zip(positives, bits):
            keys |= pos * bit
        keys.sort()
        ordered = keys >> np.uint64(shift)
        ranked = [(keys & bit) != 0 for bit in bits]
    else:
        order = np.argsort(scores)
        ordered = scores[order]
        if np.isnan(ordered[-1]):  # NaN sorts last
            values = (math.nan,) * len(counts)
            return values if labels.ndim > 1 else values[0]
        ranked = [pos[order] for pos in positives]
    # Twice the rank sum of the positives, in integers.  Untied, the rank of
    # sorted position i is i + 1; a tie spanning positions a..b gives each
    # member the average rank (a + b) / 2 + 1 (as scipy.stats.rankdata), so
    # a tied position i adds a + b - 2i to twice its rank.  The order within
    # a tie cannot change the sum, so neither sort needs to be stable.
    differs = ordered[1:] != ordered[:-1]
    first = np.append(True, differs)  # a run of equal scores starts here
    last = np.append(differs, True)  # and ends here
    tied = np.flatnonzero(~(first & last))  # empty when no score repeats
    group = np.cumsum(first[tied]) - 1
    gain = tied[first[tied]][group] + tied[last[tied]][group] - 2 * tied
    values = []
    for pos, n1 in zip(ranked, counts):
        twice = 2 * (int(np.flatnonzero(pos).sum()) + n1) + int(gain[pos[tied]].sum())
        # each rank is a half-integer and the sum is below 2^53, so this is
        # the exact rank sum, as any float summation of the ranks gives
        values.append(float((twice / 2 - n1 * (n1 + 1) / 2) / (n1 * (n - n1))))
    return tuple(values) if labels.ndim > 1 else values[0]


@dataclass(frozen=True)
class FeatureMap:
    """Design matrix builder over (S?, Z, X) with binary-aware monomials.

    Binary columns are capped at power one so the expansion stays full rank.
    """

    use_s: bool
    d: int
    degree: int = 3
    exponents: tuple = ()

    @classmethod
    def build(cls, d, use_s, degree=3):
        n_bin = 2 if use_s else 1
        total = d + n_bin
        exps = monomial_exponents(
            total, degree, 2 if total <= 4 else 1, per_dim_degree=[1] * n_bin + [degree] * d
        )
        return cls(use_s=use_s, d=d, degree=degree, exponents=exps)

    def matrix(self, s, z, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        n = x.shape[0]
        cols = [np.broadcast_to(np.asarray(z, dtype=np.float64), (n,))]
        if self.use_s:
            cols = [np.broadcast_to(np.asarray(s, dtype=np.float64), (n,))] + cols
        combined = np.column_stack(cols + [x])
        return monomials_matrix(combined, self.exponents)


@dataclass(frozen=True)
class ScoreModel:
    """A fitted score function of (S?, Z, X)."""

    feature_map: FeatureMap
    gamma: np.ndarray
    label: str
    note: str = ""

    def scores(self, data: Dataset):
        """Scores on the rows of ``data``."""
        return expit(self.feature_map.matrix(data.s, data.z, data.x) @ self.gamma)


def fit_uml(data: Dataset, degree=3) -> ScoreModel:
    """Unconstrained series logit of Y on (S, Z, X)."""
    fm = FeatureMap.build(data.d, use_s=True, degree=degree)
    fit_res = fit_series_logit(fm.matrix(data.s, data.z, data.x), data.y,
                               ridge=BASELINE_RIDGE)
    return ScoreModel(fm, fit_res.gamma, "uml")


def fit_ftu(data: Dataset, degree=3) -> ScoreModel:
    """Fairness through unawareness: series logit of Y on (Z, X) only."""
    fm = FeatureMap.build(data.d, use_s=False, degree=degree)
    fit_res = fit_series_logit(fm.matrix(None, data.z, data.x), data.y,
                               ridge=BASELINE_RIDGE)
    return ScoreModel(fm, fit_res.gamma, "ftu")


def fit_mlc(data: Dataset, degree=3) -> ScoreModel:
    """Series logit of Y on (S, Z, X) constrained to a zero average causal
    effect of S on the score, via an augmented Lagrangian: at most 30 rounds,
    until |constraint| <= MLC_CONSTRAINT_TOL.

    BFGS runs in the coordinates u of the QR preconditioner
    `basis.orthonormal_design` of the design, gamma = (R / sqrt(n))^-1 u, as
    `sievemle.SieveProblem` does: on the raw polynomial design each round
    takes several times as many iterations.  The ridge stays on gamma, so the
    objective is the same function of gamma; a near-singular design is fitted
    in its raw coordinates.  The returned gamma is in the raw basis.
    """
    fm = FeatureMap.build(data.d, use_s=True, degree=degree)
    psi = fm.matrix(data.s, data.z, data.x)
    psi1 = fm.matrix(np.ones(data.n), data.z, data.x)
    psi0 = fm.matrix(np.zeros(data.n), data.z, data.x)
    # gamma = to_raw @ u
    to_raw = np.eye(psi.shape[1])
    pre = orthonormal_design(psi)
    if pre is not None:
        psi, r = pre
        to_raw = np.linalg.inv(r)
        psi1 = psi1 @ to_raw
        psi0 = psi0 @ to_raw
    y = np.asarray(data.y, dtype=np.float64)

    def constraint(u):
        d1 = expit(psi1 @ u)
        d0 = expit(psi0 @ u)
        g = float(np.mean(d1 - d0))
        dg = (psi1.T @ (d1 * (1 - d1)) - psi0.T @ (d0 * (1 - d0))) / data.n
        return g, dg

    lam = 0.0
    rho = 10.0
    u = np.zeros(psi.shape[1])
    gval = math.inf
    for _ in range(30):
        def objective(v, lam=lam, rho=rho):
            f, grad = bernoulli_value_grad(v, psi, y)
            gamma = to_raw @ v
            g, dg = constraint(v)
            return (f + 0.5 * BASELINE_RIDGE * gamma @ gamma + lam * g + 0.5 * rho * g * g,
                    grad + BASELINE_RIDGE * (to_raw.T @ gamma) + (lam + rho * g) * dg)

        res = bfgs_minimize(objective, u, tol=1e-8, max_iter=400)
        u = res.x
        prev = abs(gval)
        gval, _ = constraint(u)
        if abs(gval) <= MLC_CONSTRAINT_TOL:
            break
        lam += rho * gval
        if abs(gval) > 0.5 * prev:
            rho *= 5.0
    else:
        warnings.warn(
            f"constrained fit stopped with |constraint| = {abs(gval):.2e} "
            f"(target {MLC_CONSTRAINT_TOL:g})",
            stacklevel=2,
        )
    return ScoreModel(fm, to_raw @ u, "mlc", note="indicative reconstruction")


def fit_ld(data: Dataset, degree=3) -> ScoreModel:
    """Label-debiasing reweighting: refit Y ~ (Z, X) with multiplicative
    per-group weights until the mean score gap across S is at most
    LD_PARITY_TOL, for at most 50 rounds; each round moves the weights'
    exponent by twice the gap.  Each round's Newton fit starts from the
    previous round's gamma: the logit is convex, so its optimum stays where it
    is to within the Newton tolerance, and the fit takes fewer iterations.
    Warns with `ParityWarning` when the rounds run out first."""
    fm = FeatureMap.build(data.d, use_s=False, degree=degree)
    psi = fm.matrix(None, data.z, data.x)
    y = np.asarray(data.y, dtype=np.float64)
    s1 = data.s == 1
    lam = 0.0
    gamma = None
    for _ in range(50):
        weights = np.exp(lam * y * (1 - 2 * data.s.astype(np.float64)))
        weights = weights / weights.mean()
        assert (weights > 0).all()
        gamma = fit_series_logit(psi, y, ridge=BASELINE_RIDGE, weights=weights,
                                 start=gamma).gamma
        scores = expit(psi @ gamma)
        disparity = float(scores[s1].mean() - scores[~s1].mean())
        if abs(disparity) <= LD_PARITY_TOL:
            break
        lam += 2.0 * disparity
    else:
        warnings.warn(
            f"reweighting stopped with score disparity {disparity:.2e} "
            f"(target {LD_PARITY_TOL:g})",
            ParityWarning,
            stacklevel=2,
        )
    return ScoreModel(fm, gamma, "ld", note="indicative reconstruction")


@dataclass(frozen=True)
class MonteCarloSettings:
    """What each replication fits and evaluates.

    The default basis is the univariate degree-3 polynomial family (no cross
    terms): with two covariates this is the configuration the acceptance
    suite pins its replication targets to, and the leaner nuisance fits keep
    the influence-function inference stable at n in the thousands.
    """

    methods: tuple = ALL_METHODS
    test_size: int = 100_000
    basis: BasisConfig = BasisConfig(interaction_order=1)
    # floor/margin/ridge tuned once against the replication targets and
    # frozen: the floor keeps the decomposition interior, the small logit
    # ridge suppresses the spurious high-likelihood decompositions that
    # otherwise scramble tau on a few percent of n=2000 draws
    fit_options: FitOptions = FitOptions(
        restarts=4, floor=0.05, relevance_margin=1e-3, ridge=3e-3
    )
    level: float = 0.95
    compute_theta: bool = True

    def __post_init__(self):
        unknown = [m for m in self.methods if m not in ALL_METHODS]
        if unknown or not self.methods:
            raise ValueError(
                f"methods must name one or more of {', '.join(ALL_METHODS)}, "
                f"got {', '.join(map(repr, self.methods)) or 'none'}"
            )
        if len(set(self.methods)) < len(self.methods):
            raise ValueError(f"methods must name each method once, got {', '.join(self.methods)}")
        if self.test_size < MIN_ROWS:
            raise ValueError(f"test_size must be at least {MIN_ROWS}, got {self.test_size}")


@dataclass
class MonteCarloSummary:
    """Aggregated replication metrics for one configuration."""

    config: DgpConfig
    reps: int
    failures: int
    theta_true: float | None
    method_auc: dict
    tau_error_mean: float | None
    tau_error_sd: float | None
    theta_mean: float | None
    theta_bias: float | None
    coverage: float | None
    ci_width_mean: float | None
    excluded_fraction_mean: float | None
    failure_types: dict
    runtime_s: float
    # wall seconds per stage of `run_replication`, summed over replications
    # (failed ones included, up to their failure); timings stay out of
    # ``replications`` so the rows are deterministic
    stage_seconds: dict = field(default_factory=dict)
    replications: list = field(default_factory=list)
    # replications whose LD reweighting stopped short of LD_PARITY_TOL
    # (`ParityWarning`); their LD scores are those of the last round
    ld_parity_misses: int = 0


def run_replication(config: DgpConfig, rep: int, settings: MonteCarloSettings,
                    theta_true=None, stage_seconds=None):
    """One training draw, all fits, one independent test draw of metrics.

    When ``stage_seconds`` is a dict, each stage's wall time is added to it
    under the stage's name: "train_draw", "dsd" (the sieve fit), "theta", one
    key per baseline method, "test_draw" and "scoring" (predictions, AUCs and
    the tau error).  The returned row holds no timings, so it is a
    deterministic function of the arguments.
    """
    last = time.perf_counter()

    def lap(stage):
        nonlocal last
        now = time.perf_counter()
        if stage_seconds is not None:
            stage_seconds[stage] = stage_seconds.get(stage, 0.0) + (now - last)
        last = now

    ss = SeedSequence(entropy=config.seed, spawn_key=(101, rep))
    seed_train, seed_test, seed_fit = ss.spawn(3)
    train, _, _ = gen_dataset(config, seed=seed_train)
    lap("train_draw")
    out = {"rep": rep}
    options = replace(settings.fit_options, seed=int(seed_fit.generate_state(1)[0]))

    models = {}
    if "dsd" in settings.methods:
        est = fit(train, settings.basis, options)
        models["dsd"] = est
        lap("dsd")
        if settings.compute_theta:
            prop = fit_propensity(train, settings.basis)
            estimate = theta_onestep(est, prop, train, level=settings.level)
            out["theta_hat"] = estimate.point
            out["ci_low"] = estimate.ci_low
            out["ci_high"] = estimate.ci_high
            out["excluded_fraction"] = estimate.flags["excluded_fraction"]
            if theta_true is not None:
                out["covered"] = bool(estimate.ci_low <= theta_true <= estimate.ci_high)
            lap("theta")
    for name in settings.methods:
        if name == "dsd":
            continue
        fitter = {"uml": fit_uml, "ftu": fit_ftu, "mlc": fit_mlc, "ld": fit_ld}[name]
        models[name] = fitter(train, degree=settings.basis.degree)
        lap(name)

    test_cfg = replace(config, n=settings.test_size)
    test, ystar, tau_true = _draw(test_cfg, seed=seed_test)
    lap("test_draw")
    scores = _test_scores(models, test)
    labels = np.stack([ystar, test.y])
    for name in models:
        out[f"auc_ystar_{name}"], out[f"auc_y_{name}"] = auc(scores[name], labels)
    if "dsd" in models:
        out["tau_error"] = float(np.sqrt(np.mean((scores["dsd"] - tau_true) ** 2)))
    lap("scoring")
    return out


def _stratum_columns(model, d):
    """``model``'s logit on d covariates as one coefficient column per stratum
    over monomials of x alone: (the x exponents, their (len, C) coefficients,
    whether the strata are (s, z), C = 4 in the order 2 s + z, or z alone,
    C = 2).

    A baseline's monomial s^a z^b m(x), with S and Z at power at most one, is
    m(x) on rows with s >= a and z >= b and 0 elsewhere, so stratum (s, z)
    gives m(x) the sum of the gammas with a <= s and b <= z.  The
    desert-decision fit's columns are tau0's and tau1's.
    """
    if isinstance(model, NuisanceEstimates):
        columns = np.column_stack([model.tau0.gamma, model.tau1.gamma])
        return basis_exponents(model.config, d), columns, False
    fm = model.feature_map
    n_bin = 2 if fm.use_s else 1
    strata = [(s, z) for s in (0, 1) for z in (0, 1)] if fm.use_s else [(z,) for z in (0, 1)]
    place = {e: i for i, e in enumerate(dict.fromkeys(e[n_bin:] for e in fm.exponents))}
    columns = np.zeros((len(place), len(strata)))
    for e, g in zip(fm.exponents, model.gamma):
        for c, stratum in enumerate(strata):
            if all(p <= v for p, v in zip(e[:n_bin], stratum)):
                columns[place[e[n_bin:]], c] += g
    return tuple(place), columns, fm.use_s


def _test_scores(models, data: Dataset):
    """Each model's scores on ``data``: a `ScoreModel`'s ``scores(data)`` and
    the desert-decision fit's `sievemle.predict_tau`, to rounding.

    Per row block of `basis.MONOMIAL_BLOCK_ROWS`: one `monomials_matrix` of
    the union of the x monomials of every model's `_stratum_columns`, one
    product with all their stratum columns, each row's own stratum's logit
    per model and one expit.  The desert-decision fit's tau0 and tau1 share
    their range, as `sievemle.fit` makes them, so tau0's clip and map serve
    both strata.
    """
    parts = [_stratum_columns(model, data.d) for model in models.values()]
    union = list(dict.fromkeys(e for exponents, _, _ in parts for e in exponents))
    place = {e: i for i, e in enumerate(union)}
    coefficients = np.zeros((len(union), sum(columns.shape[1] for _, columns, _ in parts)))
    # pick[2 s + z, i] is the column of model i's stratum (s, z)
    codes = np.arange(4)
    pick = np.empty((4, len(parts)), dtype=np.intp)
    offset = 0
    for i, (exponents, columns, by_s) in enumerate(parts):
        coefficients[[place[e] for e in exponents], offset:offset + columns.shape[1]] = columns
        pick[:, i] = offset + (codes if by_s else codes % 2)
        offset += columns.shape[1]
    # the flat position of each row of a block's logits
    row_starts = np.arange(MONOMIAL_BLOCK_ROWS)[:, None] * offset
    scores = np.empty((len(models), data.n))
    for start in range(0, data.n, MONOMIAL_BLOCK_ROWS):
        rows = slice(start, start + MONOMIAL_BLOCK_ROWS)
        logits = monomials_matrix(data.x[rows], union) @ coefficients
        stratum = 2 * data.s[rows] + data.z[rows]
        scores[:, rows] = expit(logits.take(row_starts[:stratum.size] + pick[stratum])).T
    for i, model in enumerate(models.values()):
        if isinstance(model, NuisanceEstimates):
            scores[i] = model.tau0.from_unit(scores[i])
    return dict(zip(models, scores))


def _mc_worker(config, settings, theta_true, rep):
    """(row, stage seconds, whether LD missed its parity target) of one
    replication; a failed one keeps the times of the stages it finished.
    Every warning is still shown."""
    seconds = {}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ParityWarning)
        try:
            row = run_replication(config, rep, settings, theta_true, seconds)
        except Exception as exc:  # one bad draw must not end the whole study
            row = {"rep": rep, "failed": f"{type(exc).__name__}: {exc}"}
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return row, seconds, any(issubclass(w.category, ParityWarning) for w in caught)


def monte_carlo(config: DgpConfig, reps, settings: MonteCarloSettings | None = None,
                jobs=1) -> MonteCarloSummary:
    """Replicate the experiment on ``jobs`` processes (`parallel.map_jobs`);
    deterministic per-replication sub-seeding makes the result invariant to
    the parallelism level."""
    if reps < 1:
        raise ValueError("reps must be at least 1")
    settings = settings or MonteCarloSettings()
    started = time.perf_counter()
    theta_true = oracle_theta(config) if settings.compute_theta else None
    results = map_jobs(_mc_worker, range(reps), jobs, shared=(config, settings, theta_true))
    rows = [row for row, _, _ in results]
    stage_seconds = Counter()
    for _, seconds, _ in results:
        stage_seconds.update(seconds)
    good = [r for r in rows if "failed" not in r]
    failures = reps - len(good)
    # _mc_worker records a failure as "<exception type>: <message>"
    failure_types = dict(sorted(
        Counter(r["failed"].partition(":")[0] for r in rows if "failed" in r).items()
    ))

    def agg(key):
        vals = [r[key] for r in good if key in r and r[key] is not None]
        if not vals:
            return None, None
        mean = math.fsum(vals) / len(vals)
        var = math.fsum((v - mean) ** 2 for v in vals) / max(len(vals) - 1, 1)
        return mean, math.sqrt(var)

    method_auc = {}
    for name in settings.methods:
        ystar_mean, ystar_sd = agg(f"auc_ystar_{name}")
        y_mean, y_sd = agg(f"auc_y_{name}")
        if ystar_mean is not None:
            method_auc[name] = {
                "auc_ystar_mean": ystar_mean,
                "auc_ystar_sd": ystar_sd,
                "auc_y_mean": y_mean,
                "auc_y_sd": y_sd,
            }
    tau_mean, tau_sd = agg("tau_error")
    theta_mean, _ = agg("theta_hat")
    excluded_mean, _ = agg("excluded_fraction")
    coverage = None
    width_mean = None
    if settings.compute_theta:
        covered = [r.get("covered") for r in good if r.get("covered") is not None]
        if covered:
            coverage = math.fsum(1.0 for c in covered if c) / len(covered)
        widths = [
            r["ci_high"] - r["ci_low"]
            for r in good
            if r.get("ci_high") is not None and r.get("ci_low") is not None
        ]
        if widths:
            width_mean = math.fsum(widths) / len(widths)
    return MonteCarloSummary(
        config=config,
        reps=reps,
        failures=failures,
        theta_true=theta_true,
        method_auc=method_auc,
        tau_error_mean=tau_mean,
        tau_error_sd=tau_sd,
        theta_mean=theta_mean,
        theta_bias=None if (theta_mean is None or theta_true is None)
        else theta_mean - theta_true,
        coverage=coverage,
        ci_width_mean=width_mean,
        excluded_fraction_mean=excluded_mean,
        failure_types=failure_types,
        runtime_s=time.perf_counter() - started,
        stage_seconds=dict(stage_seconds),
        replications=rows,
        ld_parity_misses=sum(missed for _, _, missed in results),
    )


def write_auc_summary_csv(summaries, path):
    """Method-comparison table: one row per (delta, n, method) with AUC
    means and sds for both prediction targets."""
    import csv as _csv
    from pathlib import Path as _Path

    with _Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh)
        writer.writerow([
            "delta", "n", "method",
            "auc_ystar_mean", "auc_ystar_sd", "auc_y_mean", "auc_y_sd", "note",
        ])
        for summary in summaries:
            for name, metrics in summary.method_auc.items():
                note = "indicative reconstruction" if name in ("mlc", "ld") else ""
                writer.writerow([
                    summary.config.delta, summary.config.n, name,
                    metrics["auc_ystar_mean"], metrics["auc_ystar_sd"],
                    metrics["auc_y_mean"], metrics["auc_y_sd"], note,
                ])


def write_coverage_summary_csv(summaries, path):
    import csv as _csv
    from pathlib import Path as _Path

    with _Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh)
        writer.writerow([
            "delta", "n", "reps", "failures", "theta_true", "theta_mean",
            "theta_bias", "coverage", "ci_width_mean",
            "tau_error_mean", "tau_error_sd", "excluded_fraction_mean", "failure_types",
        ])
        for s in summaries:
            writer.writerow([
                s.config.delta, s.config.n, s.reps, s.failures, s.theta_true,
                s.theta_mean, s.theta_bias, s.coverage, s.ci_width_mean,
                s.tau_error_mean, s.tau_error_sd, s.excluded_fraction_mean,
                json.dumps(s.failure_types, sort_keys=True),
            ])


def write_replications_csv(summaries, path):
    """Long-format per-replication metrics (plot-ready for boxplots)."""
    import csv as _csv
    from pathlib import Path as _Path

    keys = ["delta", "n", "rep", "failed", "tau_error", "theta_hat",
            "ci_low", "ci_high", "covered", "excluded_fraction"]
    method_keys = sorted({
        k for s in summaries for r in s.replications for k in r if k.startswith("auc_")
    })
    with _Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = _csv.writer(fh)
        writer.writerow(keys + method_keys)
        for s in summaries:
            for r in s.replications:
                row = [s.config.delta, s.config.n, r.get("rep"), r.get("failed", "")]
                row += [r.get(k) for k in keys[4:]]
                row += [r.get(k) for k in method_keys]
                writer.writerow(row)
