import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bartree.bar_model import BarModel, invariant_density
from bartree.smoothing import (
    BandwidthSchedule,
    admissible_bandwidth,
    bandwidth,
    density_estimate,
    gaussian_kernel,
)

H15_G0201 = 0.123707082051900862      # 2^{-15*0.201}
GAMMA_LB_A09 = 0.695993813109900030   # 1 + log2(0.81)
K2_GAUSS = 0.282094791773878143       # (2 sqrt(pi))^{-1}
MU_PP_HALF = 0.018389148659760431     # |mu''(-1.3)|/2 for a=0.5, sigma=1
CHUNK = 1 << 16                       # density_estimate's sample chunk


# -- kernels ------------------------------------------------------------------

def test_gaussian_kernel_constants(quad96):
    # the declared constants, checked once against a 96-node rule: a
    # density with vanishing first moment (order 2), ||K||_2^2 as
    # declared, and its maximum at 0. Each integral of g is taken as
    # E[g(Y) / phi_sqrt2(Y)] under Y ~ N(0, 2), wider than K itself.
    K = gaussian_kernel()
    assert K.order == 2.0
    assert math.isclose(K.l2_norm_sq, K2_GAUSS, rel_tol=1e-14)
    phi_sqrt2 = lambda u: np.exp(-0.25 * u * u) / math.sqrt(4.0 * math.pi)
    integral = lambda g: quad96.expect(lambda u: g(u) / phi_sqrt2(u), std=math.sqrt(2.0))
    assert abs(integral(K.evaluate) - 1.0) < 1e-12
    assert abs(integral(lambda u: u * K.evaluate(u))) < 1e-12
    assert math.isclose(integral(lambda u: u**2 * K.evaluate(u)), 1.0, rel_tol=1e-12)
    assert math.isclose(integral(lambda u: K.evaluate(u) ** 2), K.l2_norm_sq, rel_tol=1e-12)
    grid = np.linspace(-8.0, 8.0, 16001)
    assert np.max(K.evaluate(grid)) == K.evaluate(0.0)
    assert math.isclose(K.evaluate(0.0), 1.0 / math.sqrt(2 * math.pi), rel_tol=1e-14)


# -- bandwidths ---------------------------------------------------------------

def test_schedule_validation():
    for bad in (0.0, -0.1, 1.0, 1.7):
        with pytest.raises(ValueError):
            BandwidthSchedule(bad)


def test_bandwidth_values():
    sched = BandwidthSchedule(0.201)
    assert bandwidth(0, sched) == 1.0
    assert math.isclose(bandwidth(15, sched), H15_G0201, rel_tol=1e-15)
    assert bandwidth(4, BandwidthSchedule(0.5)) == 0.25
    with pytest.raises(ValueError):
        bandwidth(-1, sched)


def test_admissibility_three_parameterizations():
    # gamma=0.201 at alpha 0.5 and 0.7: admissible
    for alpha in (0.5, 0.7):
        rep = admissible_bandwidth(BandwidthSchedule(0.201), 2.0, alpha)
        assert rep.gamma_in_range and rep.bias_ok and rep.supercritical_ok
        assert rep.admissible
        assert rep.gamma_lower_bound_supercritical is None
    # alpha=0.9, gamma=0.696: admissible, with the right lower bound
    rep = admissible_bandwidth(BandwidthSchedule(0.696), 2.0, 0.9)
    assert rep.admissible
    assert abs(rep.gamma_lower_bound_supercritical - GAMMA_LB_A09) < 1e-5
    # alpha=0.9, gamma=0.201: the supercritical condition fails
    rep = admissible_bandwidth(BandwidthSchedule(0.201), 2.0, 0.9)
    assert rep.gamma_in_range and rep.bias_ok
    assert not rep.supercritical_ok
    assert not rep.admissible


def test_admissibility_bias_condition_is_strict():
    # gamma = 1/(2s+d) exactly does not satisfy the strict inequality
    rep = admissible_bandwidth(BandwidthSchedule(0.2), 2.0, 0.5)
    assert not rep.bias_ok and not rep.admissible
    assert admissible_bandwidth(BandwidthSchedule(0.2 + 1e-9), 2.0, 0.5).bias_ok


@pytest.mark.parametrize("alpha, bounded", [
    (0.7071067811865474, False), (0.7071067811865475, False),
    (0.7071067811865476, False), (0.7071067811865477, True),
])
def test_supercritical_bound_applies_above_the_critical_doubles(alpha, bounded):
    # at the two critical doubles next to 1/sqrt(2) the bound is vacuous, as below them
    rep = admissible_bandwidth(BandwidthSchedule(0.3), 2.0, alpha)
    assert rep.supercritical_ok and rep.admissible
    lb = rep.gamma_lower_bound_supercritical
    assert (lb is not None) is bounded
    if bounded:
        assert 0.0 < lb < 1e-15  # 1 + log2(alpha^2), a few ulps above 0


def test_admissibility_input_validation():
    with pytest.raises(ValueError):
        admissible_bandwidth(BandwidthSchedule(0.3), 0.0, 0.5)
    with pytest.raises(ValueError):
        admissible_bandwidth(BandwidthSchedule(0.3), 2.0, 1.0)
    assert admissible_bandwidth(BandwidthSchedule(0.3), 2.0, 0.0).admissible


# -- estimator ----------------------------------------------------------------

def test_density_estimate_refuses_non_finite_values():
    K = gaussian_kernel()
    with pytest.raises(ValueError, match="sample contains non-finite"):
        density_estimate(np.array([0.1, math.nan]), 0.0, 0.5, K)
    for xq in (math.nan, np.array([0.0, math.inf])):
        with pytest.raises(ValueError, match="query points contain non-finite"):
            density_estimate(np.array([0.1, 0.2]), xq, 0.5, K)


def test_density_estimate_single_point():
    K = gaussian_kernel()
    got = density_estimate(np.array([0.4]), 0.4, 0.5, K)
    assert isinstance(got, float)
    assert math.isclose(got, 2.0 / math.sqrt(2 * math.pi), rel_tol=1e-14)


def test_density_estimate_two_points():
    K = gaussian_kernel()
    x = -0.3
    got = density_estimate(np.array([x + 1.0, x - 1.0]), x, 1.0, K)
    expected = math.exp(-0.5) / math.sqrt(2 * math.pi)
    assert math.isclose(got, expected, rel_tol=1e-14)


def test_density_estimate_integrates_to_one():
    rng = np.random.default_rng(1)
    sample = rng.normal(size=400)
    grid = np.linspace(-8, 8, 1601)
    vals = density_estimate(sample, grid, 0.35, gaussian_kernel())
    assert abs(np.trapezoid(vals, grid) - 1.0) < 1e-3


def test_density_estimate_translation_equivariance():
    rng = np.random.default_rng(2)
    sample = rng.normal(size=257)
    K = gaussian_kernel()
    c = 17.5
    a = density_estimate(sample, 0.8, 0.3, K)
    b = density_estimate(sample + c, 0.8 + c, 0.3, K)
    assert abs(a - b) < 1e-12 * abs(a)


def test_density_estimate_chunking_is_invisible():
    # one query over a sample longer than the internal chunk
    rng = np.random.default_rng(3)
    sample = rng.normal(size=(1 << 16) + 1000)
    K = gaussian_kernel()
    whole = density_estimate(sample, 0.1, 0.2, K)
    assert math.isfinite(whole) and whole > 0


def _peak_bytes(sample, xs):
    tracemalloc.start()
    try:
        density_estimate(sample, xs, 0.3, gaussian_kernel())
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_density_estimate_memory_does_not_grow_with_query_points():
    # the working set is one chunk of the sample, whatever the number of points
    sample = np.random.default_rng(5).normal(size=CHUNK)
    one = _peak_bytes(sample, 0.0)
    many = _peak_bytes(sample, np.linspace(-3.0, 3.0, 64))
    assert many <= 2 * one


@settings(max_examples=25, deadline=None)
@given(
    size=st.integers(1, 40)
    | st.integers(CHUNK - 3, CHUNK + 3)
    | st.integers(2 * CHUNK - 1, 2 * CHUNK + 1),
    points=st.integers(1, 9),
    h=st.floats(0.05, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_density_estimate_vector_matches_scalar_bitwise(size, points, h, seed):
    rng = np.random.default_rng(seed)
    sample = rng.normal(size=size)
    xs = rng.normal(size=points)
    K = gaussian_kernel()
    vector = density_estimate(sample, xs, h, K)
    assert [float(v) for v in vector] == [density_estimate(sample, float(x), h, K) for x in xs]


def test_density_estimate_errors():
    K = gaussian_kernel()
    with pytest.raises(ValueError):
        density_estimate(np.array([]), 0.0, 0.5, K)
    with pytest.raises(ValueError):
        density_estimate(np.array([0.0, np.nan]), 0.0, 0.5, K)
    with pytest.raises(ValueError):
        density_estimate(np.array([0.0]), 0.0, 0.0, K)


def test_scaling_identity():
    # h^{-1} K((x-.)/h) average == h^{-1/2} * average of h^{-1/2} K((x-.)/h)
    rng = np.random.default_rng(4)
    sample = rng.normal(size=101)
    K = gaussian_kernel()
    x, h = 0.6, 0.37
    direct = density_estimate(sample, x, h, K)
    paper_form = h ** -0.5 * np.mean(h ** -0.5 * K.evaluate((x - sample) / h))
    assert abs(direct - paper_form) <= 1e-15 * abs(direct)


# -- bias ---------------------------------------------------------------------

def test_closed_form_bias_matches_quadrature(quad96, closed_form_bias):
    # the closed form's B_h(x) against E[mu(x - h G)] - mu(x), G ~ N(0, 1):
    # the Gaussian kernel's smoothing of mu by quadrature, sharing no code
    mu = lambda y: invariant_density(y, BarModel(0.5, 1.0))
    x = -1.3
    for k in range(1, 7):
        h = 2.0**-k
        quad = quad96.expect(lambda u: mu(x - h * u)) - mu(x)
        assert math.isclose(closed_form_bias(x, k), quad, rel_tol=1e-10), k


def test_bias_order_two_slope(closed_form_bias):
    hs = [2.0 ** -k for k in range(2, 7)]
    bs = [closed_form_bias(-1.3, k) for k in range(2, 7)]
    slope = np.polyfit(np.log(hs), np.log(np.abs(bs)), 1)[0]
    assert abs(slope - 2.0) <= 0.3
    # and the h^2 coefficient converges to |mu''(-1.3)|/2
    assert abs(abs(bs[-1]) / hs[-1] ** 2 - MU_PP_HALF) < 1e-4


def test_bochner_bias_vanishes(closed_form_bias):
    # h = 0.5, 0.25, 0.125, 0.0625
    bs = [abs(closed_form_bias(-1.3, k)) for k in range(1, 5)]
    assert all(b2 < b1 for b1, b2 in zip(bs, bs[1:]))
    assert bs[-1] < 1e-4
