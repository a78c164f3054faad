"""Estimation and inference for the degree of unfairness theta = f(Y != Y*).

Three routes: the plug-in sample mean of the identified integrand, a one-step
estimator that adds the mean-zero augmentation I(S=s, Z=z) C_sz (Y - mu_sz)
with an analytic normal confidence interval, and a nonparametric bootstrap
used for the sensitivity variants.

The augmentation coefficients C_sz are obtained by differentiating the
closed-form identification map: with m(mu) the integrand expressed through the
inversion mu -> (tau, alpha, beta), C_sz = (dm / dmu_sz) / pi_sz.  The
derivative is evaluated by solving the 4x4 linear system given by the Jacobian
of the forward map, which equals exact chain-rule differentiation through the
inversion at model-consistent points; the test suite checks it against central
finite differences of the composite map.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

from .basis import BasisConfig
from .data import Dataset
from .errors import BootstrapError, FairdesertError, VariantMismatchError
from .identify import unfairness_rate
from .parallel import map_jobs
from .regress import PropensityModel, fit_propensity
from .sievemle import FitOptions, NuisanceEstimates, fit, stratum_probability

DEGENERATE_TOL = 1e-12
# Observations where the fitted decision rules nearly coincide carry
# augmentation coefficients of order 1/|tau1 - tau0|; their squared influence
# is not integrable near the degeneracy, so they are excluded from the
# augmentation (the plug-in term is kept - the augmentation is conditionally
# mean zero, so dropping it costs efficiency, not consistency).
GAP_TOL = 0.05


@dataclass(frozen=True)
class ThetaEstimate:
    """Point estimate, uncertainty, and bookkeeping for theta."""

    point: float
    stderr: float | None = None
    ci_low: float | None = None
    ci_high: float | None = None
    method: str = "plugin"
    level: float = 0.95
    n_used: int = 0
    flags: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.ci_low is not None and self.ci_high is not None:
            if not self.ci_low <= self.point <= self.ci_high:
                raise ValueError("confidence interval must bracket the point estimate")
        if self.stderr is not None and self.stderr < 0:
            raise ValueError("stderr must be non-negative")

    def to_json_dict(self):
        return {
            "point": self.point,
            "stderr": self.stderr,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "method": self.method,
            "level": self.level,
            "n_used": self.n_used,
            "flags": dict(self.flags),
        }


def unfairness_integrand(est: NuisanceEstimates, data: Dataset):
    """Per-row identified integrand of theta, f(Y != Y* | S, Z, X), under the
    estimate's variant (`identify.unfairness_rate`).

    Baseline: (1-S) tau(Z,X) alpha + S {1 - tau(Z,X)} beta.
    """
    t0, t1, a, b = est.values(data.x)
    v0, v1 = est.sensitivity.evaluate(data.x)
    return unfairness_rate(np.where(data.z == 1, t1, t0), a, b, data.s, data.z,
                           est.variant, v0, v1)


def theta_plugin(est: NuisanceEstimates, data: Dataset) -> ThetaEstimate:
    """Sample mean of the identified integrand (baseline variant only)."""
    if est.variant != "baseline":
        raise VariantMismatchError(
            "theta_plugin requires baseline-variant estimates; use theta_bootstrap "
            "for sensitivity variants"
        )
    point = float(np.mean(unfairness_integrand(est, data)))
    return ThetaEstimate(point=point, method="plugin", n_used=data.n)


def influence_coefficients(tau0, tau1, alpha, beta, pi00, pi01, pi10, pi11):
    """Augmentation coefficients (C00, C01, C10, C11) at given nuisance values.

    Solves F' v = dm/dxi where F is the Jacobian of the forward map
    mu(tau0, tau1, alpha, beta) and m is the theta integrand aggregated over
    strata with the propensities as weights; C_sz = v_sz / pi_sz.  Points with
    a numerically singular Jacobian come back as NaN for the caller to
    exclude.
    """
    t0, t1, a, b, p00, p01, p10, p11 = np.atleast_1d(
        *np.broadcast_arrays(
            *(np.asarray(v, dtype=np.float64)
              for v in (tau0, tau1, alpha, beta, pi00, pi01, pi10, pi11))
        )
    )
    n = t0.shape[0]
    F = np.zeros((n, 4, 4))
    F[:, 0, 0] = 1 - a
    F[:, 0, 2] = -t0
    F[:, 1, 1] = 1 - a
    F[:, 1, 2] = -t1
    F[:, 2, 0] = 1 - b
    F[:, 2, 3] = 1 - t0
    F[:, 3, 1] = 1 - b
    F[:, 3, 3] = 1 - t1
    w = np.stack(
        [
            p00 * a - p10 * b,
            p01 * a - p11 * b,
            p00 * t0 + p01 * t1,
            p10 * (1 - t0) + p11 * (1 - t1),
        ],
        axis=1,
    )
    dets = np.linalg.det(F)
    good = np.abs(dets) > DEGENERATE_TOL
    dm_dmu = np.full((n, 4), np.nan)
    if good.any():
        dm_dmu[good] = np.linalg.solve(
            F[good].transpose(0, 2, 1), w[good][:, :, None]
        )[:, :, 0]
    pis = np.stack([p00, p01, p10, p11], axis=1)
    C = dm_dmu / pis
    return C[:, 0], C[:, 1], C[:, 2], C[:, 3]


def _phi_values(est: NuisanceEstimates, prop: PropensityModel, data: Dataset,
                gap_tol=GAP_TOL):
    """Per-row influence-function values phi(O; eta_hat) and exclusion mask."""
    t0, t1, a, b = est.values(data.x)
    pis = prop.predict_matrix(data.x)
    C = np.stack(
        influence_coefficients(t0, t1, a, b, pis[:, 0], pis[:, 1], pis[:, 2], pis[:, 3]),
        axis=1,
    )
    mu_own = stratum_probability(t0, t1, a, b, data.s, data.z)
    cls = 2 * data.s.astype(int) + data.z.astype(int)
    c_own = C[np.arange(data.n), cls]
    excluded = ~np.isfinite(c_own) | (np.abs(t1 - t0) < gap_tol)
    augmentation = np.where(excluded, 0.0, c_own * (data.y - mu_own))
    plug = unfairness_integrand(est, data)
    return plug + augmentation, plug, augmentation, excluded


def theta_onestep(est: NuisanceEstimates, prop: PropensityModel, data: Dataset,
                  level=0.95, gap_tol=GAP_TOL) -> ThetaEstimate:
    """One-step estimator theta_hat = mean{phi(O; eta_hat)} with a normal CI.

    Point estimates may leave [0, 1] in finite samples; they are reported
    unclipped with a range flag so coverage checks stay honest.
    """
    if est.variant != "baseline":
        raise VariantMismatchError(
            "theta_onestep requires baseline-variant estimates; use theta_bootstrap "
            "for sensitivity variants"
        )
    phi, _, _, excluded = _phi_values(est, prop, data, gap_tol)
    point = float(np.mean(phi))
    sigma = float(np.sqrt(np.mean((phi - point) ** 2)))
    half = norm.ppf(0.5 + level / 2) * sigma / np.sqrt(data.n)
    excl_frac = float(np.mean(excluded))
    flags = {"excluded_fraction": excl_frac}
    if excl_frac > 0.05:
        warnings.warn(
            f"{excl_frac:.1%} of observations excluded from the augmentation "
            "(degenerate identification Jacobian)",
            stacklevel=2,
        )
    if not 0.0 <= point <= 1.0:
        flags["outside_unit_interval"] = True
    return ThetaEstimate(
        point=point,
        stderr=sigma / np.sqrt(data.n),
        ci_low=point - half,
        ci_high=point + half,
        method="onestep",
        level=level,
        n_used=data.n,
        flags=flags,
    )


def theta_onestep_crossfit(data: Dataset, config: BasisConfig,
                           options: FitOptions | None = None, folds=5, seed=0,
                           level=0.95, pi_ridge=1e-8) -> ThetaEstimate:
    """K-fold cross-fitted one-step estimator: nuisances fit on fold complements."""
    if folds < 2:
        raise ValueError("cross-fitting requires at least 2 folds")
    options = options or FitOptions()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(29,)))
    perm = rng.permutation(data.n)
    assignments = np.empty(data.n, dtype=int)
    for k in range(folds):
        assignments[perm[k::folds]] = k
    phi = np.empty(data.n)
    excluded = np.zeros(data.n, dtype=bool)
    for k in range(folds):
        hold = assignments == k
        train = data.subset(np.flatnonzero(~hold))
        est_k = fit(train, config, options)
        prop_k = fit_propensity(train, config, ridge=pi_ridge)
        fold_data = data.subset(np.flatnonzero(hold))
        phi_k, _, _, excl_k = _phi_values(est_k, prop_k, fold_data)
        phi[hold] = phi_k
        excluded[hold] = excl_k
    point = float(np.mean(phi))
    sigma = float(np.sqrt(np.mean((phi - point) ** 2)))
    half = norm.ppf(0.5 + level / 2) * sigma / np.sqrt(data.n)
    flags = {"excluded_fraction": float(np.mean(excluded)), "crossfit_folds": folds}
    if not 0.0 <= point <= 1.0:
        flags["outside_unit_interval"] = True
    return ThetaEstimate(
        point=point,
        stderr=sigma / np.sqrt(data.n),
        ci_low=point - half,
        ci_high=point + half,
        method="onestep",
        level=level,
        n_used=data.n,
        flags=flags,
    )


def _bootstrap_replicate(est_fitter, data: Dataset, child):
    """Integrand mean of the replicate drawn with seed ``child``, or the type
    name of the `FairdesertError` its fit raised."""
    rng = np.random.default_rng(child)
    resampled = data.subset(rng.integers(0, data.n, size=data.n))
    try:
        est_b = est_fitter(resampled)
        return float(np.mean(unfairness_integrand(est_b, resampled)))
    except FairdesertError as exc:
        return type(exc).__name__


def theta_bootstrap(est_fitter, data: Dataset, replicates=200, seed=0, level=0.95,
                    full_fit: NuisanceEstimates | None = None, jobs=1) -> ThetaEstimate:
    """Nonparametric bootstrap over records with a percentile CI.

    ``est_fitter`` maps a Dataset to NuisanceEstimates (any variant); the point
    estimate is the plug-in integrand mean on the full data.  The replicates
    run on ``jobs`` processes (`parallel.map_jobs`), each from its own seed, so
    the result does not depend on ``jobs``; with ``jobs > 1`` ``est_fitter``
    must be picklable.  A replicate fails when its fit raises a
    `FairdesertError`; ``flags["failure_types"]`` counts the failures by
    exception type.  Errors out when more than 10% of replicate fits fail.
    """
    if replicates < 200:
        raise ValueError("bootstrap requires at least 200 replicates")
    est = full_fit if full_fit is not None else est_fitter(data)
    point = float(np.mean(unfairness_integrand(est, data)))
    seq = np.random.SeedSequence(entropy=seed, spawn_key=(31,))
    results = map_jobs(_bootstrap_replicate, seq.spawn(replicates), jobs,
                       shared=(est_fitter, data))
    draws = np.array([r for r in results if isinstance(r, float)])
    failure_types = dict(sorted(Counter(r for r in results if isinstance(r, str)).items()))
    failures = replicates - len(draws)
    if failures > 0.10 * replicates:
        kinds = ", ".join(f"{name} x{count}" for name, count in failure_types.items())
        raise BootstrapError(
            f"{failures}/{replicates} bootstrap replicates failed to fit ({kinds})"
        )
    lo, hi = np.quantile(draws, [0.5 - level / 2, 0.5 + level / 2])
    return ThetaEstimate(
        point=point,
        stderr=float(np.std(draws, ddof=1)),
        ci_low=float(min(lo, point)),
        ci_high=float(max(hi, point)),
        method="bootstrap",
        level=level,
        n_used=data.n,
        flags={"replicates": int(len(draws)), "failures": failures,
               "failure_types": failure_types},
    )
