import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdesert.basis import BasisConfig, intercept_only
from fairdesert.data import Dataset
from fairdesert.errors import InvalidIdentificationError, WeakAuxiliaryError
from fairdesert.identify import (
    PointwiseMu,
    PointwiseParams,
    bias_linearization,
    check_testable_implications,
    forward_mu,
    identification_denominator,
    invert_tau,
    recover_mechanism,
)
from fairdesert.regress import MuModel
from fairdesert.sievemle import VARIANTS

valid_params = st.tuples(
    st.floats(0.05, 0.95), st.floats(0.05, 0.95),
    st.floats(0.05, 0.95), st.floats(0.05, 0.95),
).filter(lambda t: abs(t[1] - t[0]) >= 0.05)


def test_forward_worked_example():
    m = forward_mu(PointwiseParams(0.3, 0.6, 0.25, 0.15))
    assert m.mu00 == pytest.approx(0.225, abs=1e-15)
    assert m.mu01 == pytest.approx(0.45, abs=1e-15)
    assert m.mu10 == pytest.approx(0.405, abs=1e-15)
    assert m.mu11 == pytest.approx(0.66, abs=1e-15)


def test_invert_worked_example_hand_check():
    m = PointwiseMu(0.225, 0.45, 0.405, 0.66)
    t0, t1 = invert_tau(m)
    # hand arithmetic: T0 = 0.225 * 0.255 / 0.19125
    assert t0 == pytest.approx(0.225 * 0.255 / 0.19125, abs=1e-12)
    assert (t0, t1) == (pytest.approx(0.3, abs=1e-12), pytest.approx(0.6, abs=1e-12))
    rec = recover_mechanism(m, t0, t1)
    assert rec.alpha == pytest.approx(0.25, abs=1e-12)
    assert rec.beta == pytest.approx(0.15, abs=1e-12)
    assert rec.alpha_gap < 1e-12 and rec.beta_gap < 1e-12


def test_no_unfairness_identity():
    m = forward_mu(PointwiseParams(0.3, 0.6, 0.0, 0.0))
    t0, t1 = invert_tau(m)
    assert t0 == pytest.approx(m.mu00, abs=1e-12)
    assert t1 == pytest.approx(m.mu01, abs=1e-12)


def test_boundary_alpha():
    m = forward_mu(PointwiseParams(0.5, 0.7, 0.95, 0.1))
    assert m.mu00 == pytest.approx(0.5 * 0.05, abs=1e-15)


# per variant: the range of both sensitivity levels, and the round-trip
# tolerance where the inversion is well conditioned
ROUND_TRIP = {
    "baseline": ((0.0, 0.0), 1e-12),
    "kappa": ((-0.04, 0.04), 1e-12),
    "delta": ((0.0, 0.08), 1e-12),
    "zeta": ((-0.2, 0.3), 1e-11),
}
# invert_tau divides by D = A_00 A_11 - A_01 A_10 with every |A_sz| <= 1, so a
# rounding of a few eps in D moves the recovered rules by about eps / |D|.  D
# nears 0 inside the kappa ranges, where D = (1-a)(1-b)[(t1-t0) + t0 k1 - t1 k0]
# and the levels can cancel the rules' gap.  On 8.9e6 uniform kappa draws the
# largest error * |D| / eps was 2.8; the bound allows 8.
CONDITIONING = 8 * np.finfo(float).eps


def check_round_trip(variant, t0, t1, a, b, v0, v1):
    m = forward_mu(PointwiseParams(t0, t1, a, b), variant, v0, v1)
    tol = max(ROUND_TRIP[variant][1],
              CONDITIONING / abs(identification_denominator(m, variant, v0, v1)))
    r0, r1 = invert_tau(m, variant, v0, v1, validate=True)
    assert abs(r0 - t0) < tol and abs(r1 - t1) < tol
    rec = recover_mechanism(m, r0, r1, variant, v0, v1)
    assert abs(rec.alpha - a) < tol and abs(rec.beta - b) < tol


@pytest.mark.parametrize("variant", VARIANTS)
@settings(max_examples=150, deadline=None)
@given(params=valid_params, draw=st.data())
def test_round_trip(variant, params, draw):
    lo, hi = ROUND_TRIP[variant][0]
    v0, v1 = (draw.draw(st.floats(lo, hi)) for _ in range(2))
    t0, t1, a, b = params
    if variant == "kappa":  # room for the shift
        t0, t1 = 0.05 + 0.85 * (t0 - 0.05), 0.05 + 0.85 * (t1 - 0.05)
    if variant == "delta":
        a, b = min(a, 0.9 - v0), min(b, 0.9 - v1)
    check_round_trip(variant, t0, t1, a, b, v0, v1)


def test_round_trip_kappa_ill_conditioned():
    """A kappa point where the levels nearly cancel the rules' gap (|D| 5.5e-7):
    the round trip errs by 2.1e-11, inside the conditioning bound."""
    t0, t1 = (0.05 + 0.85 * (t - 0.05) for t in (0.9034221877992149, 0.8498775876235733))
    check_round_trip("kappa", t0, t1, 0.15790308420471066, 0.881926766133446,
                     -0.023451216525170206, 0.036613555556179685)


def test_weak_auxiliary_error():
    with pytest.raises(WeakAuxiliaryError):
        invert_tau(PointwiseMu(0.3, 0.3, 0.6, 0.6))


def test_recover_requires_interior_rules():
    m = forward_mu(PointwiseParams(0.3, 0.6, 0.2, 0.1))
    with pytest.raises(InvalidIdentificationError):
        recover_mechanism(m, 1.2, 0.6)


def test_recover_out_of_range_warns():
    m = PointwiseMu(0.4, 0.5, 0.6, 0.7)  # mu00 > plausible tau -> alpha < 0
    with pytest.warns(UserWarning, match="assumption-violation"):
        rec = recover_mechanism(m, 0.35, 0.55)
    assert np.any(np.asarray(rec.out_of_range))


def test_kappa_zero_is_exactly_baseline():
    p = PointwiseParams(0.31, 0.62, 0.22, 0.13)
    m = forward_mu(p)
    assert invert_tau(m, "kappa", 0.0, 0.0, validate=True) == invert_tau(m)


def test_kappa_range_error():
    # with these inputs the z=0 base rule inverts to 0.58, so a 0.7 shift
    # puts the advantaged-group rule at 1.28
    m = forward_mu(PointwiseParams(0.3, 0.6, 0.2, 0.1))
    with pytest.raises(InvalidIdentificationError):
        invert_tau(m, "kappa", 0.7, 0.0, validate=True)


def test_delta_worked_example():
    p = PointwiseParams(0.3, 0.6, 0.25, 0.15)
    m = forward_mu(p, "delta", 0.05, 0.05)
    r0, r1 = invert_tau(m, "delta", 0.05, 0.05, validate=True)
    assert r0 == pytest.approx(0.3, abs=1e-12)
    assert r1 == pytest.approx(0.6, abs=1e-12)


def test_delta_zero_is_exactly_baseline():
    m = forward_mu(PointwiseParams(0.31, 0.62, 0.22, 0.13))
    assert invert_tau(m, "delta", 0.0, 0.0, validate=True) == invert_tau(m)


def test_delta_negative_numerator_error():
    m = PointwiseMu(0.04, 0.3, 0.5, 0.7)
    with pytest.raises(InvalidIdentificationError):
        invert_tau(m, "delta", 0.05, 0.0, validate=True)


def test_zeta_worked_example():
    p = PointwiseParams(0.3, 0.6, 0.25, 0.15)
    m = forward_mu(p, "zeta", 0.1, -0.05)
    r0, r1 = invert_tau(m, "zeta", 0.1, -0.05, validate=True)
    assert r0 == pytest.approx(0.3, abs=1e-12)
    assert r1 == pytest.approx(0.6, abs=1e-12)


def test_zeta_zero_is_exactly_baseline():
    m = forward_mu(PointwiseParams(0.31, 0.62, 0.22, 0.13))
    assert invert_tau(m, "zeta", 0.0, 0.0, validate=True) == invert_tau(m)


def test_zeta_range_error():
    m = forward_mu(PointwiseParams(0.3, 0.6, 0.25, 0.15))
    with pytest.raises(InvalidIdentificationError):
        invert_tau(m, "zeta", 4.0, 0.0, validate=True)


@pytest.mark.parametrize("variant,v0", [("zeta", -1.0), ("zeta", -2.0), ("delta", 1.0),
                                        ("kappa", 1.5), ("kappa", np.nan)])
def test_inversion_rejects_levels_out_of_range(variant, v0):
    m = forward_mu(PointwiseParams(0.3, 0.6, 0.25, 0.15))
    with pytest.raises(ValueError):
        invert_tau(m, variant, v0, 0.0)


def test_bias_linearization_values():
    assert bias_linearization(0.3, 0.25, 0.15, 0.0, 0.0) == 0.0
    assert bias_linearization(0.3, 0.25, 0.15, 0.05, 0.0) == pytest.approx(
        0.05 * 0.7 / 0.75, abs=1e-12
    )


@settings(max_examples=60, deadline=None)
@given(valid_params)
def test_bias_linearization_matches_exact(params):
    # the expansion is first order in delta / (1 - alpha); keep the mechanism
    # away from 1 so the quadratic remainder stays inside the tolerance
    t0, t1, a, b = params
    a, b = min(a, 0.7), min(b, 0.7)
    d0 = d1 = 0.02
    m = forward_mu(PointwiseParams(t0, t1, a, b), "delta", d0, d1)
    naive0, naive1 = invert_tau(m)
    for tz, naive in ((t0, naive0), (t1, naive1)):
        approx = bias_linearization(tz, a, b, d0, d1)
        assert abs((naive - tz) - approx) < 0.01


@settings(max_examples=60, deadline=None)
@given(valid_params)
def test_observable_implications_hold_on_model(params):
    m = forward_mu(PointwiseParams(*params))
    assert m.mu10 >= m.mu00 and m.mu11 >= m.mu01
    assert (m.mu01 - m.mu00) * (m.mu11 - m.mu10) > 0


def _mu_model_from_constants(mu00, mu01, mu10, mu11):
    cfg = BasisConfig(degree=1, interaction_order=1)
    return MuModel({
        (0, 0): intercept_only(cfg, mu00, d=2),
        (0, 1): intercept_only(cfg, mu01, d=2),
        (1, 0): intercept_only(cfg, mu10, d=2),
        (1, 1): intercept_only(cfg, mu11, d=2),
    })


def _check_data(n=200):
    rng = np.random.default_rng(1)
    return Dataset(
        s=rng.integers(0, 2, n), z=rng.integers(0, 2, n), y=rng.integers(0, 2, n),
        x=rng.uniform(size=(n, 2)), covariate_names=("x1", "x2"),
        scaling=((0.0, 1.0), (0.0, 1.0)), scaled=True,
    )


def test_checker_zero_violations_on_model_consistent_mu():
    m = forward_mu(PointwiseParams(0.3, 0.6, 0.25, 0.15))
    model = _mu_model_from_constants(m.mu00, m.mu01, m.mu10, m.mu11)
    report = check_testable_implications(model, _check_data())
    assert all(v == 0.0 for v in report.violation_fractions.values())
    assert not report.flagged


@pytest.mark.parametrize(
    "mu,condition",
    [
        ((0.5, 0.6, 0.4, 0.7), "monotone_s"),
        ((0.4, 0.4, 0.6, 0.6), "z_relevance"),
        ((0.3, 0.2, 0.5, 0.6), "sign_agreement"),
    ],
)
def test_checker_detects_constructed_violations(mu, condition):
    model = _mu_model_from_constants(*mu)
    report = check_testable_implications(model, _check_data())
    assert report.violation_fractions[condition] >= 0.99
    assert report.flagged


def test_checker_report_serialization():
    m = forward_mu(PointwiseParams(0.3, 0.6, 0.25, 0.15))
    model = _mu_model_from_constants(m.mu00, m.mu01, m.mu10, m.mu11)
    report = check_testable_implications(model, _check_data())
    doc = report.to_json_dict()
    assert set(doc) == {"n", "tol", "flag_threshold", "violation_fractions", "flagged"}
    text = report.to_text()
    assert "consistent" in text
