import math

import numpy as np
import pytest

from bartree.quadrature import QuadratureRule


def test_weights_sum_to_sqrt_pi():
    for order in (4, 32, 64, 96):
        q = QuadratureRule.gauss_hermite(order)
        assert q.order == order
        assert len(q.nodes) == order == len(q.weights)
        assert math.isclose(float(np.sum(q.weights)), math.sqrt(math.pi), rel_tol=1e-13)


def test_polynomial_exactness_up_to_degree_2m_minus_1():
    # int t^k e^{-t^2} dt = Gamma((k+1)/2) for even k, 0 for odd k
    q = QuadratureRule.gauss_hermite(4)
    for k in range(0, 8):  # 2*4 - 1 = 7 is the highest exact degree
        got = float(q.weights @ q.nodes**k)
        expected = math.gamma((k + 1) / 2.0) if k % 2 == 0 else 0.0
        assert abs(got - expected) < 1e-12 * max(1.0, abs(expected)), k


def test_expect_standard_normal_moments(quad64):
    assert math.isclose(quad64.expect(lambda z: z * z), 1.0, rel_tol=1e-13)
    assert math.isclose(quad64.expect(lambda z: z**4), 3.0, rel_tol=1e-13)
    assert abs(quad64.expect(lambda z: z**3)) < 1e-13


def test_expect_mean_std_shift(quad64):
    # E[(m + s Z)^2] = m^2 + s^2
    got = quad64.expect(lambda y: y * y, mean=1.5, std=0.7)
    assert math.isclose(got, 1.5**2 + 0.7**2, rel_tol=1e-12)


def test_expect_broadcasts_over_mean_array(quad64):
    means = np.array([-1.0, 0.0, 2.0])
    got = quad64.expect(lambda y: y * y, mean=means, std=2.0)
    assert got.shape == (3,)
    assert np.allclose(got, means**2 + 4.0, rtol=1e-12)
    assert isinstance(quad64.expect(lambda y: y, mean=0.3), float)


def test_half_rule():
    q = QuadratureRule.gauss_hermite(64)
    h = q.half()
    assert h.order == 32
    assert math.isclose(float(np.sum(h.weights)), math.sqrt(math.pi), rel_tol=1e-13)


def test_invalid_order():
    with pytest.raises(ValueError):
        QuadratureRule.gauss_hermite(0)


def test_each_rule_is_built_once_and_read_only():
    q = QuadratureRule.gauss_hermite(64)
    assert q is QuadratureRule.gauss_hermite(64)
    assert q.half() is QuadratureRule.gauss_hermite(32)
    for values in (q.nodes, q.weights):
        with pytest.raises(ValueError):
            values[0] = 0.0
