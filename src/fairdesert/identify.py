"""Closed-form identification algebra.

The observed stratum probabilities mu_sz(x) = f(Y=1 | S=s, Z=z, x) relate to
the latent quantities (tau_0, tau_1, alpha, beta) through the forward system

    mu_0z = tau_z (1 - alpha),      mu_1z = beta + tau_z (1 - beta),

which is invertible in closed form.  This module owns the unfairness mechanism
of every model variant (`mechanism`) and what is derived from it - the forward
map, the per-row stratum model and the per-row unfairness rate - plus the
inversions (including the three sensitivity-extended variants), the testable
sign/monotonicity implications, and a small-perturbation bias approximation.
Plug-in inversions of noisy mu-hat may leave [0, 1]; values are reported
unclipped - the sieve estimator is the range-respecting alternative.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import InvalidIdentificationError, WeakAuxiliaryError

DENOM_TOL = 1e-10


@dataclass(frozen=True)
class PointwiseParams:
    """Latent quantities (tau0, tau1, alpha, beta) at a point (or arrays)."""

    tau0: float | np.ndarray
    tau1: float | np.ndarray
    alpha: float | np.ndarray
    beta: float | np.ndarray

    def validate(self, c=0.0):
        for name in ("tau0", "tau1", "alpha", "beta"):
            v = np.asarray(getattr(self, name))
            if np.any(v < c) or np.any(v > 1 - c):
                raise InvalidIdentificationError(f"{name} outside [{c}, {1 - c}]")
        if c > 0 and np.any(np.abs(np.asarray(self.tau1) - np.asarray(self.tau0)) < c):
            raise InvalidIdentificationError(f"|tau1 - tau0| below relevance margin {c}")
        return self


@dataclass(frozen=True)
class PointwiseMu:
    """Observed stratum probabilities (mu00, mu01, mu10, mu11) at a point."""

    mu00: float | np.ndarray
    mu01: float | np.ndarray
    mu10: float | np.ndarray
    mu11: float | np.ndarray

    def as_tuple(self):
        return (self.mu00, self.mu01, self.mu10, self.mu11)


def mechanism(s, z, variant="baseline", v0=0.0, v1=0.0):
    """Per-row unfairness mechanism (shift, c, f) of a model variant.

    The deserved decision is Y* ~ Bernoulli(q) with q = tau_Z(x) + shift.  The
    flip driven by m - the wrongful denial Y*=1 -> Y=0 at m = alpha(x) on S=0
    rows, the wrongful favour Y*=0 -> Y=1 at m = beta(x) on S=1 rows - has rate
    m + (1 - f)(1 - m); the opposite flip has rate c:

        variant    shift          c          f
        baseline   0              0          1
        kappa      S kappa_Z      0          1
        delta      0              delta_S    1
        zeta       0              0          1 + Z zeta_S

    ``v0``/``v1`` are the variant's two levels, constants or per-row arrays.
    The forward map, the sieve likelihood (`stratum_table`), the theta
    integrand (`unfairness_rate`) and the data generator are all derived from
    this table.
    """
    s = np.asarray(s, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if variant == "baseline":
        return 0.0, 0.0, 1.0
    if variant == "kappa":
        return s * np.where(z == 1, v1, v0), 0.0, 1.0
    if variant == "delta":
        return 0.0, np.where(s == 1, v1, v0), 1.0
    if variant == "zeta":
        return 0.0, 0.0, 1 + z * np.where(s == 1, v1, v0)
    raise ValueError(f"unknown variant {variant!r}")


def stratum_table(s, z, variant="baseline", v0=0.0, v1=0.0):
    """Per-row constants (e, g, u, w) of the stratum model; shape (4, n).

    f(Y=1 | s, z, x) = e + g (tz - u)(m - w), with tz = tau_z(x), m as in
    `mechanism` and (e, g, u, w) = (c on S=0 / 1 - c on S=1, -f, s - shift,
    1 - c/f) (derivation in `sievemle.SieveProblem`).
    """
    s, z, v0, v1 = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.float64) for v in (s, z, v0, v1))
    )
    shift, c, f = mechanism(s, z, variant, v0, v1)
    e = np.where(s == 1, 1 - c, c)
    return np.stack(np.broadcast_arrays(e, -f, s - shift, 1 - c / f))


def _bilinear(table, tz, m):
    """Stratum probability and its partial derivatives in tz and m."""
    e, g, u, w = table
    dtz = tz - u
    dp_dt = g * (m - w)
    return e + dtz * dp_dt, dp_dt, g * dtz


def forward_mu(p: PointwiseParams, variant="baseline", v0=0.0, v1=0.0) -> PointwiseMu:
    """Map latent parameters to observed stratum probabilities under a variant.

    Under kappa ``p.tau0``/``p.tau1`` are the S=0 rules tau_{0z}; under zeta
    ``p.alpha``/``p.beta`` are the Z=0 mechanism.
    """
    return PointwiseMu(*(
        _bilinear(stratum_table(s, z, variant, v0, v1),
                  p.tau1 if z else p.tau0, p.beta if s else p.alpha)[0]
        for s in (0, 1) for z in (0, 1)
    ))


def flip_rates(tz, a, b, s, z, variant="baseline", v0=0.0, v1=0.0):
    """Per-row deserved rate q = tau_Z + shift, clipped into [0, 1], and the
    flip rates down (Y*=1 -> Y=0) and up (Y*=0 -> Y=1) of `mechanism`."""
    shift, c, f = mechanism(s, z, variant, v0, v1)
    s1 = np.asarray(s) == 1
    m = np.where(s1, b, a)
    r = m + (1 - f) * (1 - m)
    return np.clip(tz + shift, 0.0, 1.0), np.where(s1, c, r), np.where(s1, r, c)


def unfairness_rate(tz, a, b, s, z, variant="baseline", v0=0.0, v1=0.0):
    """Per-row f(Y != Y* | s, z, x) = q down + (1 - q) up (see `flip_rates`)."""
    q, down, up = flip_rates(tz, a, b, s, z, variant, v0, v1)
    return q * down + (1 - q) * up


def identification_denominator(m: PointwiseMu):
    """mu_01 (1 - mu_10) - mu_00 (1 - mu_11); zero where Z carries no
    information about the decision rule."""
    return m.mu01 * (1 - m.mu10) - m.mu00 * (1 - m.mu11)


def _check_denominator(denom, tol):
    denom = np.asarray(denom)
    if np.any(np.abs(denom) < tol):
        bad = int(np.sum(np.abs(denom) < tol))
        raise WeakAuxiliaryError(
            f"identification denominator within {tol:g} of zero at {bad} point(s); "
            "the auxiliary variable appears irrelevant there"
        )


def invert_tau(m: PointwiseMu, tol=DENOM_TOL):
    """Recover (tau0, tau1) from observed stratum probabilities.

    T_z = mu_0z (mu_11 - mu_10) / {mu_01 (1 - mu_10) - mu_00 (1 - mu_11)};
    exact round trip of `forward_mu` on valid parameters.
    """
    denom = identification_denominator(m)
    _check_denominator(denom, tol)
    spread = m.mu11 - m.mu10
    return m.mu00 * spread / denom, m.mu01 * spread / denom


def recover_mechanism(m: PointwiseMu, t0, t1):
    """Recover (alpha, beta) given mu and the decision rules.

    Solves the forward system separately with the z=0 and the z=1 equations
    and averages; on exact inputs the two solutions coincide (the gap fields
    report the discrepancy).  Out-of-range values signal assumption violations
    and are reported with a warning, not clipped.
    """
    t0 = np.asarray(t0, dtype=np.float64)
    t1 = np.asarray(t1, dtype=np.float64)
    if np.any(t0 <= 0) or np.any(t0 >= 1) or np.any(t1 <= 0) or np.any(t1 >= 1):
        raise InvalidIdentificationError("decision rules must lie strictly inside (0, 1)")
    alpha_z0 = 1 - m.mu00 / t0
    alpha_z1 = 1 - m.mu01 / t1
    beta_z0 = (m.mu10 - t0) / (1 - t0)
    beta_z1 = (m.mu11 - t1) / (1 - t1)
    alpha = 0.5 * (alpha_z0 + alpha_z1)
    beta = 0.5 * (beta_z0 + beta_z1)
    out_of_range = (alpha < 0) | (alpha > 1) | (beta < 0) | (beta > 1)
    if np.any(out_of_range):
        warnings.warn(
            "recovered mechanism outside [0, 1] at "
            f"{int(np.sum(out_of_range))} point(s): assumption-violation signal",
            stacklevel=2,
        )
    return MechanismRecovery(
        alpha=alpha if alpha.ndim else float(alpha),
        beta=beta if beta.ndim else float(beta),
        alpha_gap=np.max(np.abs(alpha_z0 - alpha_z1)),
        beta_gap=np.max(np.abs(beta_z0 - beta_z1)),
        out_of_range=out_of_range if out_of_range.ndim else bool(out_of_range),
    )


@dataclass(frozen=True)
class MechanismRecovery:
    alpha: float | np.ndarray
    beta: float | np.ndarray
    alpha_gap: float
    beta_gap: float
    out_of_range: bool | np.ndarray


@dataclass(frozen=True)
class KappaTaus:
    """Decision rules tau_sz under prescribed legitimate support."""

    tau00: float | np.ndarray
    tau01: float | np.ndarray
    tau10: float | np.ndarray
    tau11: float | np.ndarray


def invert_tau_kappa(m: PointwiseMu, kappa0, kappa1, tol=DENOM_TOL, validate=True):
    """Recover tau_sz given the legitimate-support levels (kappa0, kappa1).

    Reduces exactly to `invert_tau` at kappa0 = kappa1 = 0.
    """
    denom = identification_denominator(m)
    _check_denominator(denom, tol)
    spread = m.mu11 - m.mu10
    num0 = m.mu00 * spread + kappa0 * m.mu00 * (1 - m.mu11) - kappa1 * m.mu00 * (1 - m.mu10)
    num1 = m.mu01 * spread + kappa0 * m.mu01 * (1 - m.mu11) - kappa1 * m.mu01 * (1 - m.mu10)
    tau00 = num0 / denom
    tau01 = num1 / denom
    tau10 = tau00 + kappa0
    tau11 = tau01 + kappa1
    if validate:
        for name, base, shifted in (("z=0", tau00, tau10), ("z=1", tau01, tau11)):
            base = np.asarray(base)
            shifted = np.asarray(shifted)
            ok = (base >= 0) & (base <= 1)
            if np.any(ok & ((shifted < 0) | (shifted > 1))):
                raise InvalidIdentificationError(
                    f"kappa at {name} pushes the advantaged-group rule outside [0, 1]"
                )
    return KappaTaus(tau00, tau01, tau10, tau11)


def invert_tau_delta(m: PointwiseMu, delta0, delta1, tol=DENOM_TOL, validate=True):
    """Recover (tau0, tau1) under two-sided unfairness levels (delta0, delta1)."""
    if validate and (np.any(np.asarray(m.mu00) < np.asarray(delta0))
                     or np.any(np.asarray(m.mu01) < np.asarray(delta0))):
        raise InvalidIdentificationError(
            "mu_0z below delta0: upgrade probability exceeds the observed rate"
        )
    spread = m.mu11 - m.mu10
    denom = (
        m.mu01 * (1 - m.mu10)
        - m.mu00 * (1 - m.mu11)
        - delta0 * spread
        - delta1 * (m.mu01 - m.mu00)
    )
    _check_denominator(denom, tol)
    return (m.mu00 - delta0) * spread / denom, (m.mu01 - delta0) * spread / denom


def invert_tau_zeta(m: PointwiseMu, zeta0, zeta1, tol=DENOM_TOL, validate=True):
    """Recover (tau0, tau1) under z-differential mechanism levels (zeta0, zeta1)."""
    zeta0 = np.asarray(zeta0, dtype=np.float64)
    zeta1 = np.asarray(zeta1, dtype=np.float64)
    if np.any(zeta0 <= -1) or np.any(zeta1 <= -1):
        raise InvalidIdentificationError("zeta must exceed -1")
    denom = (1 + zeta1) * m.mu01 * (1 - m.mu10) - (1 + zeta0) * m.mu00 * (1 - m.mu11)
    _check_denominator(denom, tol)
    core = m.mu11 - m.mu10 + zeta1 * (1 - m.mu10)
    t0 = (1 + zeta0) * m.mu00 * core / denom
    t1 = m.mu01 * core / denom
    if validate:
        for name, t in (("tau0", t0), ("tau1", t1)):
            t = np.asarray(t)
            if np.any(t < -1e-12) or np.any(t > 1 + 1e-12):
                raise InvalidIdentificationError(f"{name} outside [0, 1] under given zeta")
    return t0, t1


def bias_linearization(tau_z, alpha, beta, delta0, delta1):
    """First-order bias of the baseline inversion under small (delta0, delta1):
    delta0 (1 - tau_z) / (1 - alpha) - delta1 tau_z / (1 - beta)."""
    return delta0 * (1 - tau_z) / (1 - alpha) - delta1 * tau_z / (1 - beta)


@dataclass(frozen=True)
class ImplicationReport:
    """Sample-level check of the observable implications of the assumptions.

    Condition keys: ``monotone_s`` (mu_1z >= mu_0z), ``z_relevance``
    (|mu_s1 - mu_s0| > tol), ``sign_agreement`` (the z-spreads of the two
    s-strata share a sign).
    """

    n: int
    tol: float
    flag_threshold: float
    violation_fractions: dict = field(default_factory=dict)
    flagged: bool = False

    def to_json_dict(self):
        return {
            "n": self.n,
            "tol": self.tol,
            "flag_threshold": self.flag_threshold,
            "violation_fractions": dict(self.violation_fractions),
            "flagged": self.flagged,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def to_text(self):
        lines = [f"testable implications on n={self.n} sample points (tol={self.tol:g})"]
        labels = {
            "monotone_s": "mu_1z >= mu_0z        ",
            "z_relevance": "|mu_s1 - mu_s0| > tol ",
            "sign_agreement": "z-spreads share a sign",
        }
        for key, frac in self.violation_fractions.items():
            mark = "FLAG" if frac > self.flag_threshold else "ok  "
            lines.append(f"  [{mark}] {labels.get(key, key)} violated on {frac:.4f} of sample")
        lines.append("flagged" if self.flagged else "consistent with the identifying assumptions")
        return "\n".join(lines)


def check_testable_implications(mu_hat, data: Dataset, tol=0.005, flag_threshold=0.1,
                                sign_gate=None):
    """Evaluate the testable implications of the fitted mu_hat on the sample.

    A sign disagreement only counts where both z-spreads clear ``sign_gate``
    (default 8 * tol): where a spread is within noise of zero its sign carries
    no evidence, and estimation error would otherwise flood condition (iii)
    with false violations.
    """
    sign_gate = 8 * tol if sign_gate is None else sign_gate
    mu = mu_hat.predict_all(data.x)
    mu00, mu01, mu10, mu11 = mu[:, 0], mu[:, 1], mu[:, 2], mu[:, 3]
    viol_monotone = (mu10 < mu00 - tol) | (mu11 < mu01 - tol)
    d0 = mu01 - mu00
    d1 = mu11 - mu10
    viol_relevance = (np.abs(d0) <= tol) | (np.abs(d1) <= tol)
    viol_sign = (d0 * d1 < 0) & (np.abs(d0) > sign_gate) & (np.abs(d1) > sign_gate)
    fractions = {
        "monotone_s": float(np.mean(viol_monotone)),
        "z_relevance": float(np.mean(viol_relevance)),
        "sign_agreement": float(np.mean(viol_sign)),
    }
    flagged = any(frac > flag_threshold for frac in fractions.values())
    return ImplicationReport(
        n=data.n,
        tol=tol,
        flag_threshold=flag_threshold,
        violation_fractions=fractions,
        flagged=flagged,
    )
