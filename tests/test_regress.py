import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fairdesert.basis import BasisConfig, expit
from fairdesert.errors import PositivityError, SeparationError
from fairdesert.regress import (
    bernoulli_negloglik,
    bernoulli_value_grad,
    class_index,
    fit_multinomial,
    fit_mu_models,
    fit_propensity,
    fit_series_logit,
    floor_probabilities,
    multinomial_negloglik,
)
from fairdesert.simulate import DgpConfig, gen_dataset


def central_diff(fun, x, h=1e-5):
    grad = np.empty_like(x)
    for i in range(x.size):
        up = x.copy(); up[i] += h
        dn = x.copy(); dn[i] -= h
        grad[i] = (fun(up) - fun(dn)) / (2 * h)
    return grad


def fd_error(grad, fd):
    """Largest gradient error relative to the largest component (acceptance
    criterion 3's measure): a per-component ratio would read the central
    difference's truncation error on a near-zero component as a fault."""
    return np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-8)


def test_intercept_only_matches_mean():
    phi = np.ones((200, 1))
    y = np.zeros(200)
    y[:50] = 1.0
    fit = fit_series_logit(phi, y, ridge=0.0)
    assert expit(fit.gamma[0]) == pytest.approx(0.25, abs=1e-9)


def test_all_equal_labels_without_ridge_errors():
    phi = np.ones((50, 1))
    with pytest.raises(SeparationError, match="ridge"):
        fit_series_logit(phi, np.ones(50), ridge=0.0)


def test_known_coefficients_recovered():
    rng = np.random.default_rng(8)
    n = 100_000
    x = rng.uniform(size=(n, 2))
    phi = np.column_stack([np.ones(n), x])
    gamma_star = np.array([-0.5, 1.2, -2.0])
    y = (rng.random(n) < expit(phi @ gamma_star)).astype(float)
    fit = fit_series_logit(phi, y, ridge=1e-10)
    assert np.max(np.abs(fit.gamma - gamma_star)) < 0.05


def test_loglik_not_below_null_fit():
    rng = np.random.default_rng(4)
    phi = np.column_stack([np.ones(300), rng.uniform(size=(300, 2))])
    y = (rng.random(300) < 0.4).astype(float)
    fit = fit_series_logit(phi, y)
    null_value, _, _ = bernoulli_negloglik(np.zeros(3), phi, y)
    assert -fit.loglik <= null_value + 1e-12


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
@example(5944)  # a component of 1.6e-6 failed the old per-component bound
def test_bernoulli_gradient_matches_fd(seed):
    rng = np.random.default_rng(seed)
    n, j = 150, 4
    phi = np.column_stack([np.ones(n), rng.uniform(size=(n, j - 1))])
    y = rng.integers(0, 2, n).astype(float)
    w = rng.uniform(0.5, 2.0, n)
    gamma = rng.normal(0, 1, j)
    _, grad, _ = bernoulli_negloglik(gamma, phi, y, ridge=0.01, weights=w)
    fd = central_diff(lambda g: bernoulli_negloglik(g, phi, y, ridge=0.01, weights=w)[0], gamma)
    assert fd_error(grad, fd) < 1e-6


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_bernoulli_value_grad_matches_fd(seed):
    rng = np.random.default_rng(seed)
    n, j = 150, 4
    phi = np.column_stack([np.ones(n), rng.uniform(size=(n, j - 1))])
    y = rng.integers(0, 2, n).astype(float)
    w = rng.uniform(0.5, 2.0, n)
    gamma = rng.normal(0, 1, j)
    value, grad = bernoulli_value_grad(gamma, phi, y, ridge=0.01, weights=w)
    fd = central_diff(lambda g: bernoulli_value_grad(g, phi, y, ridge=0.01, weights=w)[0], gamma)
    assert fd_error(grad, fd) < 1e-6
    # the Newton path's value and gradient are the same arithmetic
    full_value, full_grad, _ = bernoulli_negloglik(gamma, phi, y, ridge=0.01, weights=w)
    assert value == full_value and np.array_equal(grad, full_grad)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
@example(283)  # a component of 6.2e-6 failed the old per-component bound
def test_multinomial_gradient_matches_fd(seed):
    rng = np.random.default_rng(seed)
    n, j = 150, 3
    phi = np.column_stack([np.ones(n), rng.uniform(size=(n, j - 1))])
    classes = rng.integers(0, 4, n)
    coef = rng.normal(0, 1, 3 * j)
    _, grad, _ = multinomial_negloglik(coef, phi, classes, ridge=0.01)
    fd = central_diff(lambda c: multinomial_negloglik(c, phi, classes, ridge=0.01)[0], coef)
    assert fd_error(grad, fd) < 1e-6
    for i in range(coef.size):  # the bound still sees one component 1e-4 off
        bad = grad.copy()
        bad[i] += 1e-4 * np.max(np.abs(grad))
        assert fd_error(bad, fd) > 1e-6


INTERCEPT_CONFIG = BasisConfig(degree=1, interaction_order=0)


def test_multinomial_uniform_and_saturated_shares():
    phi = np.ones((1000, 1))
    classes = np.repeat([0, 1, 2, 3], 250)
    model = fit_multinomial(phi, classes, ridge=0.0, config=INTERCEPT_CONFIG)
    probs = model.predict_matrix(np.array([[0.5]]), floored=False)
    assert np.allclose(probs, 0.25, atol=1e-8)

    classes = np.repeat([0, 1, 2, 3], [400, 100, 300, 200])
    model = fit_multinomial(np.ones((1000, 1)), classes, ridge=0.0, config=INTERCEPT_CONFIG)
    probs = model.predict_matrix(np.array([[0.5]]), floored=False)
    assert np.allclose(probs[0], [0.4, 0.1, 0.3, 0.2], atol=1e-7)


def test_multinomial_missing_class_errors():
    phi = np.ones((30, 1))
    classes = np.repeat([0, 1, 2], 10)
    with pytest.raises(PositivityError, match=r"\(s=1, z=1\)"):
        fit_multinomial(phi, classes)


def test_propensity_matches_product_structure():
    # S and Z are drawn independently given X, so pi_sz should factor
    config = BasisConfig(interaction_order=1)
    data, _, truth = gen_dataset(DgpConfig(n=100_000, seed=21))
    model = fit_propensity(data, config)
    probs = model.predict_matrix(data.x, floored=False)
    assert np.max(np.abs(probs - truth.pi_matrix(data.x))) < 0.03


def test_floor_probabilities_exact_floor():
    floored = floor_probabilities(np.array([0.001, 0.333, 0.333, 0.333]), 0.01)
    assert floored[0] == pytest.approx(0.01, abs=1e-15)
    assert floored.sum() == pytest.approx(1.0, abs=1e-12)
    assert (floored >= 0.01 - 1e-15).all()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(1e-6, 1.0), min_size=4, max_size=4))
def test_floor_probabilities_properties(raw):
    p = np.asarray(raw) / np.sum(raw)
    floored = floor_probabilities(p, 0.01)
    assert floored.sum() == pytest.approx(1.0, abs=1e-9)
    assert (floored >= 0.01 - 1e-12).all()
    untouched = p >= 0.01
    if untouched.all():
        assert np.allclose(floored, p)


def test_predict_pi_uniform():
    model = fit_multinomial(
        np.ones((400, 1)), np.repeat([0, 1, 2, 3], 100), config=INTERCEPT_CONFIG
    )
    probs = model.predict_matrix(np.array([[0.3]]))
    assert probs[0, class_index(1, 0)] == pytest.approx(0.25, abs=1e-6)


def test_mu_models_intercept_only_hit_stratum_means(tiny_dataset):
    config = BasisConfig(degree=1, interaction_order=0)
    model = fit_mu_models(tiny_dataset, config, ridge=1e-10)
    for s in (0, 1):
        for z in (0, 1):
            mask = (tiny_dataset.s == s) & (tiny_dataset.z == z)
            mean = tiny_dataset.y[mask].mean()
            pred = model.predict(s, z, tiny_dataset.x[0])
            assert pred == pytest.approx(mean, abs=1e-6)


def test_mu_model_predict_all_matches_predict(small_dgp, univariate_basis):
    data, _, _ = small_dgp
    model = fit_mu_models(data.subset(np.arange(500)), univariate_basis)
    batch = model.predict_all(data.x[:10])
    for i, (s, z) in enumerate([(0, 0), (0, 1), (1, 0), (1, 1)]):
        single = model.predict(s, z, data.x[:10])
        assert np.allclose(batch[:, i], single)
    assert ((batch > 0) & (batch < 1)).all()


def test_class_index_layout():
    assert class_index(0, 0) == 0 and class_index(0, 1) == 1
    assert class_index(1, 0) == 2 and class_index(1, 1) == 3
