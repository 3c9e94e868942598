"""Tests for the non-Gaussian Askey families and the quadrature rules."""


import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.chaos.askey import (
    jacobi_norm_squared,
    jacobi_value,
    laguerre_norm_squared,
    laguerre_value,
    legendre_norm_squared,
    legendre_value,
)
from repro.chaos.quadrature import (
    gauss_hermite_rule,
    gauss_jacobi_rule,
    gauss_laguerre_rule,
    gauss_legendre_rule,
    tensor_grid,
)
from repro.errors import BasisError


class TestQuadratureRules:
    @pytest.mark.parametrize(
        "rule",
        [
            lambda n: gauss_hermite_rule(n),
            lambda n: gauss_legendre_rule(n),
            lambda n: gauss_laguerre_rule(n),
            lambda n: gauss_jacobi_rule(n, 1.0, 2.0),
        ],
    )
    def test_weights_sum_to_one(self, rule):
        _, weights = rule(12)
        assert np.sum(weights) == pytest.approx(1.0, rel=1e-10)

    def test_hermite_rule_integrates_moments(self):
        nodes, weights = gauss_hermite_rule(10)
        assert np.sum(weights * nodes) == pytest.approx(0.0, abs=1e-12)
        assert np.sum(weights * nodes**2) == pytest.approx(1.0, rel=1e-10)
        assert np.sum(weights * nodes**4) == pytest.approx(3.0, rel=1e-10)

    def test_legendre_rule_integrates_moments(self):
        nodes, weights = gauss_legendre_rule(8)
        assert np.sum(weights * nodes**2) == pytest.approx(1.0 / 3.0, rel=1e-10)
        assert np.sum(weights * nodes**3) == pytest.approx(0.0, abs=1e-12)

    def test_laguerre_rule_integrates_moments(self):
        nodes, weights = gauss_laguerre_rule(12)
        # E[X^k] = k! for a unit-rate exponential
        assert np.sum(weights * nodes) == pytest.approx(1.0, rel=1e-9)
        assert np.sum(weights * nodes**3) == pytest.approx(6.0, rel=1e-8)

    def test_jacobi_rule_matches_beta_mean(self):
        alpha, beta = 2.0, 1.0
        nodes, weights = gauss_jacobi_rule(10, alpha, beta)
        # germ x = 2B - 1 with B ~ Beta(beta+1, alpha+1)
        mean_b = (beta + 1.0) / (alpha + beta + 2.0)
        assert np.sum(weights * nodes) == pytest.approx(2 * mean_b - 1, rel=1e-9)

    def test_rejects_zero_points(self):
        with pytest.raises(BasisError):
            gauss_hermite_rule(0)

    def test_jacobi_rejects_bad_parameters(self):
        with pytest.raises(BasisError):
            gauss_jacobi_rule(5, -1.5, 0.0)

    def test_tensor_grid_shapes_and_weights(self):
        rule_a = gauss_hermite_rule(3)
        rule_b = gauss_legendre_rule(4)
        points, weights = tensor_grid([rule_a, rule_b])
        assert points.shape == (12, 2)
        assert weights.shape == (12,)
        assert np.sum(weights) == pytest.approx(1.0)

    def test_tensor_grid_integrates_separable_function(self):
        points, weights = tensor_grid([gauss_hermite_rule(6), gauss_hermite_rule(6)])
        # E[x^2 * y^2] = 1 for independent standard normals
        value = np.sum(weights * points[:, 0] ** 2 * points[:, 1] ** 2)
        assert value == pytest.approx(1.0, rel=1e-9)

    def test_tensor_grid_requires_rules(self):
        with pytest.raises(BasisError):
            tensor_grid([])


class TestLegendre:
    def test_first_polynomials(self):
        x = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(legendre_value(0, x), 1.0)
        np.testing.assert_allclose(legendre_value(1, x), x)
        np.testing.assert_allclose(legendre_value(2, x), 0.5 * (3 * x**2 - 1))
        np.testing.assert_allclose(legendre_value(3, x), 0.5 * (5 * x**3 - 3 * x))

    def test_norm_squared(self):
        nodes, weights = gauss_legendre_rule(20)
        for k in range(6):
            numeric = np.sum(weights * legendre_value(k, nodes) ** 2)
            assert numeric == pytest.approx(legendre_norm_squared(k), rel=1e-9)

    def test_orthogonality(self):
        nodes, weights = gauss_legendre_rule(20)
        for a in range(5):
            for b in range(a):
                inner = np.sum(weights * legendre_value(a, nodes) * legendre_value(b, nodes))
                assert inner == pytest.approx(0.0, abs=1e-12)

    def test_endpoint_value(self):
        for k in range(6):
            assert legendre_value(k, 1.0) == pytest.approx(1.0)


class TestLaguerre:
    def test_first_polynomials(self):
        x = np.linspace(0, 5, 6)
        np.testing.assert_allclose(laguerre_value(0, x), 1.0)
        np.testing.assert_allclose(laguerre_value(1, x), 1.0 - x)
        np.testing.assert_allclose(laguerre_value(2, x), 0.5 * (x**2 - 4 * x + 2))

    def test_orthonormality(self):
        nodes, weights = gauss_laguerre_rule(25)
        for a in range(5):
            for b in range(5):
                inner = np.sum(weights * laguerre_value(a, nodes) * laguerre_value(b, nodes))
                expected = 1.0 if a == b else 0.0
                assert inner == pytest.approx(expected, abs=1e-8)

    def test_norm_squared_is_one(self):
        for k in range(5):
            assert laguerre_norm_squared(k) == 1.0


class TestJacobi:
    def test_reduces_to_legendre_when_parameters_zero(self):
        x = np.linspace(-1, 1, 9)
        for k in range(5):
            np.testing.assert_allclose(
                jacobi_value(k, x, 0.0, 0.0), legendre_value(k, x), atol=1e-12
            )

    def test_orthogonality_under_beta_weight(self):
        alpha, beta = 1.5, 0.5
        nodes, weights = gauss_jacobi_rule(25, alpha, beta)
        for a in range(4):
            for b in range(a):
                inner = np.sum(
                    weights
                    * jacobi_value(a, nodes, alpha, beta)
                    * jacobi_value(b, nodes, alpha, beta)
                )
                assert inner == pytest.approx(0.0, abs=1e-10)

    def test_norm_squared_matches_quadrature(self):
        alpha, beta = 2.0, 1.0
        nodes, weights = gauss_jacobi_rule(30, alpha, beta)
        for k in range(5):
            numeric = np.sum(weights * jacobi_value(k, nodes, alpha, beta) ** 2)
            assert numeric == pytest.approx(jacobi_norm_squared(k, alpha, beta), rel=1e-8)

    def test_rejects_bad_parameters(self):
        with pytest.raises(BasisError):
            jacobi_value(2, 0.0, -2.0, 0.0)
        with pytest.raises(BasisError):
            jacobi_norm_squared(2, 0.0, -1.5)


class TestAskeyPropertyBased:
    @given(order=st.integers(min_value=1, max_value=8), x=st.floats(-1, 1))
    @settings(max_examples=50, deadline=None)
    def test_legendre_bounded_on_interval(self, order, x):
        assert abs(legendre_value(order, x)) <= 1.0 + 1e-12

    @given(order=st.integers(min_value=0, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_legendre_norm_positive_and_decreasing(self, order):
        assert legendre_norm_squared(order) > 0
        if order > 0:
            assert legendre_norm_squared(order) < legendre_norm_squared(order - 1)

    @given(
        order=st.integers(min_value=0, max_value=6),
        alpha=st.floats(min_value=-0.5, max_value=3.0),
        beta=st.floats(min_value=-0.5, max_value=3.0),
    )
    @settings(max_examples=40, deadline=None)
    @example(order=0, alpha=-0.5, beta=-0.5)  # a + b = -1: lgamma(0) in the general formula
    def test_jacobi_norms_positive(self, order, alpha, beta):
        assert jacobi_norm_squared(order, alpha, beta) > 0
