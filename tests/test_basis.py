import math
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fairdesert.basis import (
    BasisConfig,
    SeriesFunction,
    basis_dimension,
    expand_matrix,
    expit,
    intercept_only,
    logit,
    monomial_exponents,
    monomials_matrix,
    orthonormal_design,
)
from fairdesert.simulate import FeatureMap


def enumerate_exponents(d, degree, io):
    """Brute-force oracle for the retained monomial set."""
    keep = []
    for e in product(range(degree + 1), repeat=d):
        nnz = sum(1 for p in e if p)
        if nnz > io:
            continue
        if max(e) > degree:
            continue
        if sum(e) > max(degree, nnz):
            continue
        keep.append(e)
    return set(keep)


def test_univariate_cubic_at_half():
    phi = expand_matrix(np.array([[0.5]]), BasisConfig(degree=3, interaction_order=1))[0]
    assert phi.tolist() == [1.0, 0.5, 0.25, 0.125]


def test_pairwise_degree_one():
    a, b = 0.3, 0.7
    phi = expand_matrix(np.array([[a, b]]), BasisConfig(degree=1, interaction_order=2))[0]
    assert phi.tolist() == [1.0, a, b, a * b]


def test_dimension_counts_match_enumeration():
    for d, degree, io in [(1, 3, 1), (2, 3, 1), (2, 3, 2), (3, 2, 2), (2, 1, 2), (4, 3, 2)]:
        exps = monomial_exponents(d, degree, io)
        oracle = enumerate_exponents(d, degree, io)
        assert set(exps) == oracle
        assert basis_dimension(BasisConfig(degree=degree, interaction_order=io), d) == len(oracle)


def test_univariate_count_formula():
    # no cross terms: 1 + degree * d functions
    assert basis_dimension(BasisConfig(degree=3, interaction_order=1), 2) == 7


def test_default_interaction_resolution():
    cfg = BasisConfig()
    assert cfg.resolved_interaction_order(2) == 2
    assert cfg.resolved_interaction_order(4) == 2
    assert cfg.resolved_interaction_order(5) == 1
    assert cfg.resolved_interaction_order(12) == 1


def test_graded_lex_ordering_stable():
    cfg = BasisConfig(degree=3, interaction_order=2)
    exps = monomial_exponents(2, 3, 2)
    grades = [sum(e) for e in exps]
    assert grades == sorted(grades)
    assert exps[0] == (0, 0)
    assert monomial_exponents(2, 3, 2) == exps


def test_per_dim_caps_for_binary_columns():
    exps = monomial_exponents(3, 3, 2, per_dim_degree=[1, 1, 3])
    assert all(e[0] <= 1 and e[1] <= 1 for e in exps)
    assert (0, 0, 3) in exps


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10**6),
)
def test_expand_values_are_monomials(d, degree, io, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(size=d)
    cfg = BasisConfig(degree=degree, interaction_order=min(io, d))
    exps = monomial_exponents(d, degree, min(io, d))
    phi = expand_matrix(x[None, :], cfg)[0]
    expected = [float(np.prod([x[j] ** p for j, p in enumerate(e)])) for e in exps]
    assert np.allclose(phi, expected, rtol=0, atol=1e-14)
    assert phi[0] == 1.0


def test_expand_dimension_mismatch():
    fn = intercept_only(BasisConfig(interaction_order=1), 0.4, d=2)
    with pytest.raises(ValueError):
        fn(np.zeros(5))


def test_eval_series_constants():
    cfg = BasisConfig(degree=3, interaction_order=1)
    half = intercept_only(cfg, 0.5, d=2)
    x = np.random.default_rng(1).uniform(size=(20, 2))
    assert np.allclose(half(x), 0.5)
    p3 = intercept_only(cfg, 0.3, d=2)
    assert np.allclose(p3(x), 0.3)


def test_eval_series_expit_two():
    cfg = BasisConfig(degree=1, interaction_order=1)
    fn = SeriesFunction(cfg, np.array([2.0, 0.0]))
    value = fn(np.array([0.5]))
    assert value == pytest.approx(0.8807970779778823, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_eval_series_open_interval_and_monotone(seed):
    rng = np.random.default_rng(seed)
    cfg = BasisConfig(degree=2, interaction_order=1)
    gamma = rng.normal(0, 50, size=basis_dimension(cfg, 1))
    fn = SeriesFunction(cfg, gamma)
    x = np.linspace(0, 1, 50)[:, None]
    vals = fn(x)
    assert np.all(vals > 0) and np.all(vals < 1)
    index = expand_matrix(x, cfg) @ gamma
    order = np.argsort(index)
    assert np.all(np.diff(vals[order]) >= 0)


def test_range_mapped_series():
    cfg = BasisConfig(degree=1, interaction_order=1)
    fn = SeriesFunction(cfg, np.array([0.0, 0.0]), lo=0.05, hi=0.95)
    assert fn(np.array([0.3])) == pytest.approx(0.5)
    big = SeriesFunction(cfg, np.array([100.0, 0.0]), lo=0.05, hi=0.95)
    assert big(np.array([0.3])) <= 0.95


def test_expit_logit_stability():
    assert expit(800.0) < 1.0 or expit(800.0) == 1.0  # no overflow
    assert expit(-800.0) >= 0.0
    assert logit(expit(3.7)) == pytest.approx(3.7, abs=1e-9)


def test_expit_matches_scipy():
    """scipy.special.expit as the oracle; its exp and numpy's differ in the
    last few bits, and in the subnormal range by less than 1e-300."""
    from scipy import special

    rng = np.random.default_rng(5)
    u = np.concatenate([rng.normal(0, 30, 100_000), np.linspace(-760, 760, 20_001),
                        [0.0, -0.0, 745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, 1e308,
                         -1e308, 5e-324]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expit(u)
        edge = [expit(v) for v in (745.0, -745.0, 800.0, -800.0, np.inf, -np.inf, np.nan)]
    want = special.expit(u)
    assert got.dtype == np.float64 and got.shape == u.shape
    assert np.all(np.abs(got - want) <= 1e-300 + 1e-15 * np.abs(want))
    assert edge[:6] == [1.0, 0.0, 1.0, 0.0, 1.0, 0.0]
    assert all(type(v) is float for v in edge)
    assert math.isnan(edge[6])
    assert type(expit(np.float64(0.3))) is float
    assert expit(np.array(0.3)) == pytest.approx(special.expit(0.3), rel=1e-15)
    assert np.isnan(expit(np.array([np.nan, 1.0]))[0])


def test_invalid_configs():
    with pytest.raises(ValueError):
        BasisConfig(degree=0)
    with pytest.raises(ValueError):
        BasisConfig(interaction_order=-1)


def per_column_monomials(x, exponents):
    """Reference: each monomial column as the left-to-right product of its
    powers, one full-length column at a time."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    n = x.shape[0]
    cols = np.empty((n, len(exponents)))
    for j, e in enumerate(exponents):
        col = np.ones(n)
        for dim, p in enumerate(e):
            if p:
                col = col * x[:, dim] ** p
        cols[:, j] = col
    return cols


# the Monte Carlo feature maps' exponent sets (two covariates, with and
# without S); the sieve basis is checked through expand_matrix
FEATURE_MAP_EXPONENTS = [FeatureMap.build(2, use_s=use_s).exponents for use_s in (True, False)]


@pytest.mark.parametrize("n", [1, 7, 4095, 4096, 4097, 100_000])
def test_monomials_matrix_matches_per_column_reference(n):
    rng = np.random.default_rng(n)
    for exps in FEATURE_MAP_EXPONENTS:
        x = rng.uniform(-1.5, 1.5, size=(n, len(exps[0])))
        got = monomials_matrix(x, exps)
        assert got.flags.c_contiguous
        assert np.array_equal(got, per_column_monomials(x, exps))
    for d, io in product(range(2, 6), (1, 2)):
        x = rng.uniform(-1.5, 1.5, size=(n, d))
        got = expand_matrix(x, BasisConfig(interaction_order=io))
        assert got.flags.c_contiguous
        assert np.array_equal(got, per_column_monomials(x, monomial_exponents(d, 3, io)))


def test_orthonormal_design_round_trip_and_fallback():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=(500, 2))
    phi = expand_matrix(x, BasisConfig())
    q, r = orthonormal_design(phi)
    np.testing.assert_allclose(q.T @ q / len(x), np.eye(phi.shape[1]), atol=1e-12)
    np.testing.assert_allclose(q @ r, phi, atol=1e-12)
    # a duplicated covariate duplicates columns: R is singular
    assert orthonormal_design(expand_matrix(x[:, [0, 0]], BasisConfig())) is None


def test_orthonormal_design_of_unit_counts_is_the_scaled_qr():
    # counts of one are the design itself, to the bit: (Q sqrt(n), R / sqrt(n))
    x = np.random.default_rng(4).uniform(size=(2000, 2))
    phi = expand_matrix(x, BasisConfig(interaction_order=1))
    q, r = np.linalg.qr(phi)
    scale = math.sqrt(len(phi))
    for got_q, got_r in (orthonormal_design(phi), orthonormal_design(phi, np.ones(len(phi), int))):
        assert got_q.tobytes() == (q * scale).tobytes()
        assert got_r.tobytes() == (r / scale).tobytes()


def test_orthonormal_design_maps_rows_of_count_zero_back():
    x = np.random.default_rng(5).uniform(size=(300, 2))
    phi = expand_matrix(x, BasisConfig(interaction_order=1))
    counts = np.bincount(np.random.default_rng(6).integers(0, 300, 300), minlength=300)
    q, r = orthonormal_design(phi, counts)
    np.testing.assert_allclose(q @ r, phi, atol=1e-12)
    np.testing.assert_allclose(q.T @ (counts[:, None] * q) / 300, np.eye(phi.shape[1]),
                               atol=1e-12)
