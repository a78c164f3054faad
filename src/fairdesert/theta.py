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
from statistics import NormalDist

import numpy as np
from numpy.random import SeedSequence, default_rng

from .basis import BasisConfig
from .data import Dataset
from .errors import BootstrapError, FairdesertError, RelevanceWarning, VariantMismatchError
from .identify import STRATA, _bilinear, stratum_table, unfairness_rate, unfairness_rate_partials
from .parallel import chunk_size, map_jobs
from .regress import PropensityModel, class_index, fit_propensity
from .sievemle import GROUP_ROWS, FitOptions, NuisanceEstimates, fit_many, stratum_probability

DEGENERATE_TOL = 1e-12
# Observations where the fitted decision rules nearly coincide carry
# augmentation coefficients of order 1/|tau1 - tau0|; their squared influence
# is not integrable near the degeneracy, so they are excluded from the
# augmentation (the plug-in term is kept - the augmentation is conditionally
# mean zero, so dropping it costs efficiency, not consistency).
GAP_TOL = 0.05
# fewest replicates `theta_bootstrap` accepts
MIN_REPLICATES = 200


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
    return _integrand(est, data, est.values(data.x))


def _integrand(est: NuisanceEstimates, data: Dataset, values):
    """`unfairness_integrand` from the series values (tau0, tau1, alpha, beta)."""
    t0, t1, a, b = values
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
    strata with the propensities as weights, both at the baseline: F from the
    partials of the stratum model (`identify._bilinear`), dm/dxi from those of
    the unfairness rate (`identify.unfairness_rate_partials`).  C_sz =
    v_sz / pi_sz.  Points with a numerically singular Jacobian come back as NaN
    for the caller to exclude.
    """
    t0, t1, a, b, *pis = np.atleast_1d(
        *np.broadcast_arrays(
            *(np.asarray(v, dtype=np.float64)
              for v in (tau0, tau1, alpha, beta, pi00, pi01, pi10, pi11))
        )
    )
    n = t0.shape[0]
    F = np.zeros((n, 4, 4))
    w = np.zeros((n, 4))
    for k, (s, z) in enumerate(STRATA):
        tz, m = (t1 if z else t0), (b if s else a)
        _, F[:, k, z], F[:, k, 2 + s] = _bilinear(stratum_table(s, z), tz, m)
        dr_dt, dr_dm = unfairness_rate_partials(tz, a, b, s, z)
        w[:, z] += pis[k] * dr_dt
        w[:, 2 + s] += pis[k] * dr_dm
    dets = np.linalg.det(F)
    good = np.abs(dets) > DEGENERATE_TOL
    dm_dmu = np.full((n, 4), np.nan)
    if good.any():
        dm_dmu[good] = np.linalg.solve(
            F[good].transpose(0, 2, 1), w[good][:, :, None]
        )[:, :, 0]
    C = dm_dmu / np.stack(pis, axis=1)
    return C[:, 0], C[:, 1], C[:, 2], C[:, 3]


def _phi_values(est: NuisanceEstimates, prop: PropensityModel, data: Dataset):
    """Per-row influence-function values phi(O; eta_hat) and exclusion mask."""
    values = est.values(data.x)
    t0, t1, a, b = values
    pis = prop.predict_matrix(data.x)
    C = np.stack(
        influence_coefficients(t0, t1, a, b, pis[:, 0], pis[:, 1], pis[:, 2], pis[:, 3]),
        axis=1,
    )
    mu_own = stratum_probability(t0, t1, a, b, data.s, data.z)
    c_own = C[np.arange(data.n), class_index(data.s, data.z)]
    excluded = ~np.isfinite(c_own) | (np.abs(t1 - t0) < GAP_TOL)
    augmentation = np.where(excluded, 0.0, c_own * (data.y - mu_own))
    plug = _integrand(est, data, values)
    return plug + augmentation, plug, augmentation, excluded


def theta_onestep(est: NuisanceEstimates, prop: PropensityModel, data: Dataset,
                  level=0.95) -> ThetaEstimate:
    """One-step estimator theta_hat = mean{phi(O; eta_hat)} with a normal CI.

    Point estimates may leave [0, 1] in finite samples; they are reported
    unclipped with a range flag so coverage checks stay honest.
    """
    if est.variant != "baseline":
        raise VariantMismatchError(
            "theta_onestep requires baseline-variant estimates; use theta_bootstrap "
            "for sensitivity variants"
        )
    phi, _, _, excluded = _phi_values(est, prop, data)
    return _normal_estimate(phi, excluded, level)


def _normal_estimate(phi, excluded, level, **flags):
    """One-step estimate mean(phi) with its normal CI; warns when more than 5%
    of the rows were excluded from the augmentation."""
    n = phi.shape[0]
    point = float(np.mean(phi))
    sigma = float(np.sqrt(np.mean((phi - point) ** 2)))
    half = NormalDist().inv_cdf(0.5 + level / 2) * sigma / np.sqrt(n)
    excl_frac = float(np.mean(excluded))
    flags = {"excluded_fraction": excl_frac, **flags}
    if excl_frac > 0.05:
        warnings.warn(
            f"{excl_frac:.1%} of observations excluded from the augmentation "
            "(degenerate identification Jacobian)",
            stacklevel=3,
        )
    if not 0.0 <= point <= 1.0:
        flags["outside_unit_interval"] = True
    return ThetaEstimate(
        point=point,
        stderr=sigma / np.sqrt(n),
        ci_low=point - half,
        ci_high=point + half,
        method="onestep",
        level=level,
        n_used=n,
        flags=flags,
    )


def theta_onestep_crossfit(data: Dataset, config: BasisConfig,
                           options: FitOptions | None = None, folds=5, seed=0,
                           level=0.95, jobs=1) -> ThetaEstimate:
    """K-fold cross-fitted one-step estimator: nuisances fit on fold complements.

    The folds' sieve fits are one `sievemle.fit_many` call, so their restarts
    share one pool of ``jobs`` processes.
    """
    if folds < 2:
        raise ValueError("cross-fitting requires at least 2 folds")
    options = options or FitOptions()
    rng = default_rng(SeedSequence(entropy=seed, spawn_key=(29,)))
    perm = rng.permutation(data.n)
    assignments = np.empty(data.n, dtype=int)
    for k in range(folds):
        assignments[perm[k::folds]] = k
    trains = [data.subset(np.flatnonzero(assignments != k)) for k in range(folds)]
    fold_fits, _ = fit_many([(train, config, options) for train in trains], jobs)
    phi = np.empty(data.n)
    excluded = np.zeros(data.n, dtype=bool)
    for k, (train, est_k) in enumerate(zip(trains, fold_fits)):
        if isinstance(est_k, FairdesertError):
            raise est_k
        hold = assignments == k
        prop_k = fit_propensity(train, config)
        fold_data = data.subset(np.flatnonzero(hold))
        phi_k, _, _, excl_k = _phi_values(est_k, prop_k, fold_data)
        phi[hold] = phi_k
        excluded[hold] = excl_k
    return _normal_estimate(phi, excluded, level, crossfit_folds=folds)


def _bootstrap_chunk(est_fitter, data: Dataset, children):
    """Per seed of ``children``, the integrand mean of the replicate drawn with
    it, or the type name of the `FairdesertError` its fit gave; and the number
    of `RelevanceWarning`s the fits emitted, which are counted instead of
    shown.  A replicate is its count of each row of ``data``; ``est_fitter``
    fits the whole chunk in one call.  A replicate's mean is
    sum(count * integrand) / n over its distinct rows: the integrand works
    row by row, so the resample is never materialised."""
    draws = [np.bincount(default_rng(child).integers(0, data.n, size=data.n), minlength=data.n)
             for child in children]
    results = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", RelevanceWarning)
        for est_b, counts in zip(est_fitter(data, draws), draws, strict=True):
            try:
                if isinstance(est_b, FairdesertError):
                    raise est_b
                distinct = np.flatnonzero(counts)
                values = unfairness_integrand(est_b, data.subset(distinct))
                results.append(float(np.sum(counts[distinct] * values) / data.n))
            except FairdesertError as exc:
                results.append(type(exc).__name__)
    relevance = 0
    for w in caught:
        if issubclass(w.category, RelevanceWarning):
            relevance += 1
        else:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return results, relevance


def theta_bootstrap(est_fitter, data: Dataset, replicates=200, seed=0, level=0.95, jobs=1, *,
                    full_fit: NuisanceEstimates) -> ThetaEstimate:
    """Nonparametric bootstrap over records with a percentile CI.

    ``est_fitter(data, draws)`` fits resamples of ``data``, as
    `sensitivity.VariantFitter` does: ``draws`` lists each resample's count
    of each row of ``data`` (``np.bincount`` of n rows drawn with
    replacement) or None for ``data`` itself, and it returns one outcome per
    draw, in order: its NuisanceEstimates (any variant) or the
    `FairdesertError` its fit gave.  The point estimate is the plug-in
    integrand mean of ``full_fit``, the fit on ``data`` itself.
    The replicates go to ``jobs`` processes (`parallel.map_jobs`) in chunks
    of seeds, each chunk holding at most `sievemle.GROUP_ROWS` resampled rows
    (at least one replicate) and no more than `parallel.chunk_size` hands a
    worker at once; a worker draws its chunk's counts, fits them with one
    ``est_fitter`` call and takes each replicate's integrand mean over its
    resample, as sum(count * integrand) / n over the draw's distinct rows.
    Each replicate draws from its own seed, so the result does not depend on
    ``jobs`` as long as a draw's fit does not depend on the other draws of
    its call (true of `VariantFitter`); with ``jobs > 1`` ``est_fitter`` must
    be picklable.  A replicate fails when its fit gives a `FairdesertError`;
    ``flags["failure_types"]`` counts the failures by exception type.
    ``flags["relevance_warnings"]`` counts the replicate fits that emitted a
    `RelevanceWarning`; one summary warning replaces theirs.  Errors out when
    more than 10% of replicate fits fail.
    """
    if replicates < MIN_REPLICATES:
        raise ValueError(f"bootstrap requires at least {MIN_REPLICATES} replicates")
    point = float(np.mean(unfairness_integrand(full_fit, data)))
    children = SeedSequence(entropy=seed, spawn_key=(31,)).spawn(replicates)
    size = min(chunk_size(replicates, jobs), max(1, GROUP_ROWS // data.n))
    chunks = map_jobs(_bootstrap_chunk, [children[i:i + size] for i in range(0, replicates, size)],
                      jobs, shared=(est_fitter, data))
    results = [r for chunk_results, _ in chunks for r in chunk_results]
    relevance_warnings = sum(relevance for _, relevance in chunks)
    if relevance_warnings:
        warnings.warn(
            f"relevance constraint failed in {relevance_warnings}/{replicates} bootstrap "
            "replicate fits: the auxiliary variable may be irrelevant",
            RelevanceWarning,
            stacklevel=2,
        )
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
               "failure_types": failure_types, "relevance_warnings": relevance_warnings},
    )
