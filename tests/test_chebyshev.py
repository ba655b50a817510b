import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hedgehog.chebyshev import (
    cc_rule,
    chebyshev_interpolation_matrix,
    extrapolate,
    extrapolation_weights,
)
from hedgehog.errors import UsageError


def test_weights_sum_to_two():
    for q in (2, 3, 4, 5, 8, 13, 20, 33):
        rule = cc_rule(q)
        assert rule.weights.sum() == pytest.approx(2.0, abs=1e-14)
        assert np.all(np.diff(rule.nodes) > 0)
        assert rule.nodes[0] == -1.0 and rule.nodes[-1] == 1.0


def test_nodes_are_chebyshev_extrema():
    q = 9
    rule = cc_rule(q)
    expected = np.sort(np.cos(np.arange(q) * np.pi / (q - 1)))
    assert np.allclose(rule.nodes, expected, atol=1e-15)


def test_quadratic_exact_with_four_nodes():
    rule = cc_rule(4)
    val = np.sum(rule.weights * rule.nodes**2)
    assert val == pytest.approx(2.0 / 3.0, abs=1e-14)


@given(st.integers(min_value=2, max_value=16))
@settings(deadline=None, max_examples=20)
def test_polynomial_exactness(q):
    # exact for all polynomials of degree <= q - 1
    rule = cc_rule(q)
    rng = np.random.default_rng(q)
    coeffs = rng.uniform(-1, 1, q)
    vals = np.polynomial.polynomial.polyval(rule.nodes, coeffs)
    exact = sum(
        c * ((1.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1))
        for k, c in enumerate(coeffs)
    )
    assert np.sum(rule.weights * vals) == pytest.approx(exact, abs=1e-13)


def test_exponential_integrand_q20():
    rule = cc_rule(20)
    val = np.sum(rule.weights * np.exp(rule.nodes))
    assert abs(val - (np.e - 1.0 / np.e)) < 1e-14


def test_rule_rejects_tiny_q():
    with pytest.raises(UsageError):
        cc_rule(1)


def test_interpolation_matrix_polynomial_exact():
    q = 12
    t = np.linspace(-1, 1, 57)
    mat = chebyshev_interpolation_matrix(q, t)
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=q)  # degree q - 1
    vals = np.polynomial.polynomial.polyval(cc_rule(q).nodes, coeffs)
    exact = np.polynomial.polynomial.polyval(t, coeffs)
    assert np.abs(mat @ vals - exact).max() < 1e-12


def test_interpolation_matrix_hits_nodes_exactly():
    q = 8
    nodes = cc_rule(q).nodes
    mat = chebyshev_interpolation_matrix(q, nodes)
    assert np.allclose(mat, np.eye(q), atol=1e-12)


@given(st.integers(min_value=1, max_value=10), st.floats(-8.0, 8.0))
@settings(deadline=None, max_examples=60)
def test_extrapolation_exact_for_polynomials(p, t):
    # backward-stable exactness: error bounded by the cardinal-weight
    # conditioning times the data rounding
    rng = np.random.default_rng(p)
    coeffs = rng.uniform(-1, 1, p + 1)
    s = np.arange(p + 1, dtype=float)
    values = np.polynomial.polynomial.polyval(s, coeffs)
    exact = np.polynomial.polynomial.polyval(np.longdouble(t), coeffs.astype(np.longdouble))
    weights = extrapolation_weights(p, t)
    got = extrapolate(values, weights)[0]
    cond = np.abs(weights).sum()
    tol = 1e-12 * float(cond) * max(1.0, np.abs(values).max())
    assert abs(got - float(exact)) <= tol


def test_extrapolation_at_cubic_minus_six():
    # degree-3 data through nodes 0..6, evaluated far outside; dyadic
    # coefficients keep the sample values exactly representable
    coeffs = np.array([0.25, -1.5, 0.5, 0.125])
    s = np.arange(7, dtype=float)
    values = np.polynomial.polynomial.polyval(s, coeffs)
    exact = float(np.polynomial.polynomial.polyval(-6.0, coeffs))
    got = extrapolate(values, extrapolation_weights(6, -6.0))[0]
    assert abs(got - exact) < 1e-12 * max(1.0, abs(exact))


def test_extrapolation_returns_node_values():
    values = np.array([3.0, -1.0, 4.0, 1.0, -5.0, 9.0, 2.0])
    for s in range(7):
        assert extrapolate(values, extrapolation_weights(6, float(s)))[0] == values[s]


def test_extrapolation_weights_shape_and_vector_data():
    w = extrapolation_weights(6, [-6.0, -1.5])
    assert w.shape == (2, 7)
    vals = np.tile(np.arange(7.0)[:, None], (1, 3))  # linear data, 3 components
    out = extrapolate(vals, extrapolation_weights(6, np.array([-6.0])))
    assert np.allclose(out[0], -6.0, atol=1e-12)


def test_singular_function_extrapolation_accuracy():
    # line singularity at rho = -0.1; small R keeps the toy extrapolation
    # in its empirically accurate regime
    rho = -0.1
    p = 6
    ray = 0.1 * abs(rho)
    spacing = ray / p
    samples = 1.0 / (ray + spacing * np.arange(p + 1) - rho)
    got = extrapolate(samples, extrapolation_weights(p, -ray / spacing))[0]
    assert abs(got - 10.0) / 10.0 < 1e-6
