"""Closed-form identification algebra.

The observed stratum probabilities mu_sz(x) = f(Y=1 | S=s, Z=z, x) relate to
the latent quantities (tau_0, tau_1, alpha, beta) through the forward system

    mu_0z = tau_z (1 - alpha),      mu_1z = beta + tau_z (1 - beta),

which is invertible in closed form.  This module owns the unfairness mechanism
of every model variant (`mechanism`) and what is derived from it - the forward
map, the per-row stratum model, the per-row unfairness rate and its partials,
and the inversion (`invert_tau`, `recover_mechanism`), one closed form for all
four variants - plus the testable sign/monotonicity implications and a
small-perturbation bias approximation.  Plug-in inversions of noisy mu-hat may
leave [0, 1]; values are reported unclipped unless validation is asked for -
the sieve estimator is the range-respecting alternative.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import InvalidIdentificationError, WeakAuxiliaryError

DENOM_TOL = 1e-10
# the (s, z) strata in the order of PointwiseMu
STRATA = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class PointwiseParams:
    """Latent quantities (tau0, tau1, alpha, beta) at a point (or arrays)."""

    tau0: float | np.ndarray
    tau1: float | np.ndarray
    alpha: float | np.ndarray
    beta: float | np.ndarray


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


def _bilinear(table, tz, m, out=None):
    """Stratum probability and its partial derivatives in tz and m.

    With ``out``, three arrays of the result shape, (p, dp_dt, dp_dm) are
    written into them; the first may be ``m`` and the last ``tz``.
    """
    e, g, u, w = table
    p, dp_dt, dp_dm = out or (None, None, None)
    dtz = np.subtract(tz, u, out=dp_dm)
    dp_dt = np.multiply(g, np.subtract(m, w, out=p), out=dp_dt)
    p = np.add(e, np.multiply(dtz, dp_dt, out=p), out=p)
    return p, dp_dt, np.multiply(g, dtz, out=dp_dm)


def forward_mu(p: PointwiseParams, variant="baseline", v0=0.0, v1=0.0) -> PointwiseMu:
    """Map latent parameters to observed stratum probabilities under a variant.

    Under kappa ``p.tau0``/``p.tau1`` are the S=0 rules tau_{0z}; under zeta
    ``p.alpha``/``p.beta`` are the Z=0 mechanism.
    """
    return PointwiseMu(*(
        _bilinear(stratum_table(s, z, variant, v0, v1),
                  p.tau1 if z else p.tau0, p.beta if s else p.alpha)[0]
        for s, z in STRATA
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


def unfairness_rate_partials(tz, a, b, s, z, variant="baseline", v0=0.0, v1=0.0):
    """Partials of `unfairness_rate` in tz and in m (alpha on S=0 rows, beta on
    S=1 rows) where q is inside [0, 1]: down - up, and f q on S=0 rows or
    f (1 - q) on S=1 rows (the m-driven flip has slope f in m)."""
    q, down, up = flip_rates(tz, a, b, s, z, variant, v0, v1)
    f = mechanism(s, z, variant, v0, v1)[2]
    return down - up, f * np.where(np.asarray(s) == 1, 1 - q, q)


def check_levels(variant, *levels):
    """Raise ValueError unless every sensitivity level (a constant or per-row
    array) is finite and inside its variant's range: kappa in [-1, 1], delta
    in [0, 1), zeta > -1."""
    for v in levels:
        v = np.asarray(v, dtype=np.float64)
        lo, hi = float(v.min()), float(v.max())
        for bound in (lo, hi):
            if not math.isfinite(bound):
                raise ValueError(f"{variant} parameters must be finite, got {bound}")
        if variant == "delta" and not (lo >= 0 and hi < 1):
            raise ValueError("delta parameters must lie in [0, 1)")
        if variant == "zeta" and lo <= -1:
            raise ValueError("zeta parameters must exceed -1")
        if variant == "kappa" and not (lo >= -1 and hi <= 1):
            raise ValueError("kappa parameters must lie in [-1, 1]")


def _tables(variant, v0, v1):
    """`stratum_table` of each stratum, in `STRATA` order, at checked levels."""
    check_levels(variant, v0, v1)
    # strata on a leading axis, so that per-row levels broadcast along the rows
    shape = (4,) + (1,) * max(np.ndim(v0), np.ndim(v1))
    s, z = (np.reshape(column, shape) for column in zip(*STRATA))
    return np.moveaxis(stratum_table(s, z, variant, v0, v1), 1, 0)


def _denominator(tables, m: PointwiseMu):
    a00, a01, a10, a11 = ((mu - e) / g for (e, g, _, _), mu in zip(tables, m.as_tuple()))
    return a00 * a11 - a01 * a10


def identification_denominator(m: PointwiseMu, variant="baseline", v0=0.0, v1=0.0):
    """D = A_00 A_11 - A_01 A_10 (see `invert_tau`); zero where Z carries no
    information about the decision rule.  At the baseline it is
    mu_01 (1 - mu_10) - mu_00 (1 - mu_11)."""
    return _denominator(_tables(variant, v0, v1), m)


def invert_tau(m: PointwiseMu, variant="baseline", v0=0.0, v1=0.0, tol=DENOM_TOL,
               validate=False):
    """Recover the decision rules (tau0, tau1) from observed stratum
    probabilities under a variant; exact round trip of `forward_mu`.

    Every stratum model is p = e + g (tz - u)(m - w) (`stratum_table`), so
    A_sz = (mu_sz - e_sz) / g_sz = (tau_z - u_sz)(m_s - w_s) and

        tau_z = u_0z + A_0z {A_10 (u_01 - u_11) - A_11 (u_00 - u_10)} / D,
        D = A_00 A_11 - A_01 A_10   (`identification_denominator`).

    At the baseline tau_z = mu_0z (mu_11 - mu_10) / D.  Under kappa the result
    is the S=0 rules tau_0z, as in `forward_mu`; the S=1 rules are
    tau_0z + kappa_z.  Raises WeakAuxiliaryError where |D| < ``tol``; with
    ``validate``, raises InvalidIdentificationError when a recovered rule or
    shifted rule leaves [0, 1] by more than 1e-12.
    """
    tables = _tables(variant, v0, v1)
    (e00, g00, u00, _), (e01, g01, u01, _), (e10, g10, u10, _), (e11, g11, u11, _) = tables
    denom = _denominator(tables, m)
    weak = np.abs(denom) < tol
    if np.any(weak):
        raise WeakAuxiliaryError(
            f"identification denominator within {tol:g} of zero at {int(np.sum(weak))} "
            "point(s); the auxiliary variable appears irrelevant there"
        )
    # the braces, r1 (mu_10 - e_10) - r0 (mu_11 - e_11), rearranged around
    # mu_10 - mu_11: at the baseline (r1 = r0 = 1, e = 1) that difference is
    # all there is, without the two roundings of (1 - mu_11) - (1 - mu_10)
    r1, r0 = (u01 - u11) / g10, (u00 - u10) / g11
    spread = r1 * (m.mu10 - m.mu11) + (r1 - r0) * m.mu11 + (r0 * e11 - r1 * e10)
    t0 = u00 + (m.mu00 - e00) / g00 * spread / denom
    t1 = u01 + (m.mu01 - e01) / g01 * spread / denom
    if validate:
        for s, z in STRATA:
            rule = (t1 if z else t0) + mechanism(s, z, variant, v0, v1)[0]
            if np.any((rule < -1e-12) | (rule > 1 + 1e-12)):
                raise InvalidIdentificationError(
                    f"recovered decision rule outside [0, 1] under {variant}"
                )
    return t0, t1


def recover_mechanism(m: PointwiseMu, t0, t1, variant="baseline", v0=0.0, v1=0.0):
    """Recover (alpha, beta) given mu and the decision rules (the S=0 rules
    under kappa, as `invert_tau` returns them).

    In each stratum mu = q (1 - down) + (1 - q) up (`flip_rates`) is solved for
    the m-driven flip r (down on S=0 rows, up on S=1 rows), and
    r = m + (1 - f)(1 - m) for m.  At the baseline alpha = 1 - mu_0z / tau_z
    and beta = (mu_1z - tau_z) / (1 - tau_z).  The z = 0 and z = 1 solutions
    are averaged; on exact inputs they coincide (the gap fields report the
    discrepancy).  Out-of-range values signal assumption violations and are
    reported with a warning, not clipped.
    """
    t0 = np.asarray(t0, dtype=np.float64)
    t1 = np.asarray(t1, dtype=np.float64)
    check_levels(variant, v0, v1)
    solutions = []
    for (s, z), mu in zip(STRATA, m.as_tuple()):
        shift, c, f = mechanism(s, z, variant, v0, v1)
        q = (t1 if z else t0) + shift
        if np.any((q <= 0) | (q >= 1)):
            raise InvalidIdentificationError("decision rules must lie strictly inside (0, 1)")
        r = (mu - q * (1 - c)) / (1 - q) if s else 1 - (mu - (1 - q) * c) / q
        solutions.append((r - (1 - f)) / f)
    alpha_z0, alpha_z1, beta_z0, beta_z1 = solutions
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


def check_testable_implications(mu_hat, data: Dataset, tol=0.005, flag_threshold=0.1):
    """Evaluate the testable implications of the fitted mu_hat on the sample.

    A sign disagreement only counts where both z-spreads exceed 8 * tol: where
    a spread is within noise of zero its sign carries no evidence, and
    estimation error would otherwise flood condition (iii) with false
    violations.
    """
    sign_gate = 8 * tol
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
