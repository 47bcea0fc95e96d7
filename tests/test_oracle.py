import math

import numpy as np
import pytest

from bartree.bar_model import BarModel
from bartree.harness import monte_carlo_generation_sums
from bartree.oracle import DEFAULT_CAP, cross_moment_MGn_MGm, mean_MGn, second_moment_MGn, verdict
from bartree.quadrature import QuadratureRule

IDENT = lambda y: y
SQUARE = lambda y: y**2
ONE = lambda y: np.ones_like(np.asarray(y, dtype=float))


# -- hand-checkable values ----------------------------------------------------

def test_mean_examples(quad64, model_half):
    # 2^n a^n x for f = id
    got = mean_MGn(IDENT, 2, 1.0, model_half, quad64)
    assert math.isclose(got.value, 1.0, rel_tol=1e-12)
    assert got.quadrature_error_estimate < 1e-10
    # counting measure: f = 1 gives |G_n|
    got = mean_MGn(ONE, 5, 0.3, model_half, quad64)
    assert math.isclose(got.value, 32.0, rel_tol=1e-12)
    # 2 (a^2 x^2 + sigma^2) at x = 0
    got = mean_MGn(SQUARE, 1, 0.0, model_half, quad64)
    assert math.isclose(got.value, 2.0, rel_tol=1e-12)


def test_mean_n_zero_is_point_evaluation(quad64, model_half):
    got = mean_MGn(lambda y: y**3, 0, 0.7, model_half, quad64)
    assert math.isclose(got.value, 0.343, rel_tol=1e-14)


def test_mean_negative_n(quad64, model_half):
    with pytest.raises(ValueError):
        mean_MGn(IDENT, -1, 0.0, model_half, quad64)


def test_second_moment_examples(quad64, model_half):
    # f = id, n = 1, a = 0.5, x = 1:
    #   2 Q(y^2)(1) + 2 (Q y (1))^2 = 2 (1/4 + 1) + 2 (1/2)^2 = 3
    got = second_moment_MGn(IDENT, 1, 1.0, model_half, quad64)
    assert math.isclose(got.value, 3.0, rel_tol=1e-12)
    # f = 1: M is the constant 2^n, so the second moment is 4^n
    got = second_moment_MGn(ONE, 3, -0.4, model_half, quad64)
    assert math.isclose(got.value, 64.0, rel_tol=1e-12)
    # independent case a = 0: children are iid N(0, sigma^2), so
    # E[(X_left + X_right)^2] = 2 sigma^2
    model0 = BarModel(0.0, 1.7)
    got = second_moment_MGn(IDENT, 1, 5.0, model0, quad64)
    assert math.isclose(got.value, 2 * 1.7**2, rel_tol=1e-12)


def test_cross_moment_hand_value(quad64, model_half):
    # n=1, m=0: E_x[M_{G_1}(f) g(x)] = 2 g(x) Qf(x) = 2 x a x = 1 at x=1
    got = cross_moment_MGn_MGm(IDENT, IDENT, 1, 0, 1.0, model_half, quad64)
    assert math.isclose(got.value, 1.0, rel_tol=1e-12)


def test_cross_moment_collapses_for_constant_g(quad64, model_half):
    # M_{G_m}(1) = 2^m a.s., so the cross moment is 2^m E[M_{G_n}(f)]
    for n, m in [(3, 0), (3, 1), (3, 3), (5, 2)]:
        cross = cross_moment_MGn_MGm(SQUARE, ONE, n, m, -1.3, model_half, quad64)
        mean = mean_MGn(SQUARE, n, -1.3, model_half, quad64)
        assert math.isclose(cross.value, 2.0**m * mean.value, rel_tol=1e-8)


def test_cross_moment_diagonal_is_second_moment(quad64, model_half):
    for f in (IDENT, SQUARE):
        for n in (1, 2, 4):
            for x in (0.0, 1.0, -1.3):
                cross = cross_moment_MGn_MGm(f, f, n, n, x, model_half, quad64)
                second = second_moment_MGn(f, n, x, model_half, quad64)
                assert math.isclose(cross.value, second.value, rel_tol=1e-8)


def test_cross_moment_order_validation(quad64, model_half):
    with pytest.raises(ValueError):
        cross_moment_MGn_MGm(IDENT, IDENT, 1, 2, 0.0, model_half, quad64)
    with pytest.raises(ValueError):
        cross_moment_MGn_MGm(IDENT, IDENT, 1, -1, 0.0, model_half, quad64)


# -- variance positivity over a parameter grid --------------------------------

def test_variance_nonnegative_on_grid(quad64):
    for a in (0.0, 0.5, 0.9):
        model = BarModel(a, 1.0)
        for f in (IDENT, SQUARE):
            for n in (1, 2, 3, 6):
                for x in (0.0, 1.0, -1.3):
                    m1 = mean_MGn(f, n, x, model, quad64).value
                    m2 = second_moment_MGn(f, n, x, model, quad64).value
                    assert m2 - m1**2 >= -1e-9 * max(1.0, m2)


# -- cost caps and numerical quality ------------------------------------------

def test_cost_caps(quad64, model_half):
    with pytest.raises(ValueError, match="cap"):
        second_moment_MGn(IDENT, 13, 0.0, model_half, quad64)
    with pytest.raises(ValueError, match="cap"):
        cross_moment_MGn_MGm(IDENT, IDENT, 13, 1, 0.0, model_half, quad64)
    # the cap itself is admitted
    got = second_moment_MGn(ONE, DEFAULT_CAP, 0.0, model_half, quad64)
    assert math.isclose(got.value, 4.0**DEFAULT_CAP, rel_tol=1e-10)


def test_order_convergence(model_half):
    q64 = QuadratureRule.gauss_hermite(64)
    q128 = QuadratureRule.gauss_hermite(128)
    f = lambda y: y**4
    for fn in (mean_MGn, second_moment_MGn):
        v64 = fn(f, 3, 1.0, model_half, q64).value
        v128 = fn(f, 3, 1.0, model_half, q128).value
        assert abs(v64 - v128) <= 1e-8 * abs(v128)


def test_error_estimate_tight_for_polynomials(quad64, model_half):
    got = second_moment_MGn(SQUARE, 4, 1.0, model_half, quad64)
    assert got.quadrature_error_estimate < 1e-10 * abs(got.value)


# -- Monte Carlo cross-check ---------------------------------------------------

def test_monte_carlo_agrees_with_oracle(quad64, model_half):
    n, x, reps = 3, 1.0, 400_000
    sums = monte_carlo_generation_sums({1: IDENT, 3: IDENT}, x, model_half, reps, master_seed=3)
    m3, m1 = sums[3], sums[1]
    for values, oracle in (
        (m3, mean_MGn(IDENT, 3, x, model_half, quad64)),
        (m3**2, second_moment_MGn(IDENT, 3, x, model_half, quad64)),
        (m3 * m1, cross_moment_MGn_MGm(IDENT, IDENT, 3, 1, x, model_half, quad64)),
    ):
        assert abs(verdict(values, oracle)[2]) < 4.0
