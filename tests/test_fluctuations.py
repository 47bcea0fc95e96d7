import math
from types import SimpleNamespace

import numpy as np
import pytest

from bartree.bar_model import BarModel, invariant_density, stationary_initial
from bartree.fluctuations import cross_generation_pairs, theoretical_limit, zeta
from bartree.harness import ExperimentConfig, run_clt_experiment
from bartree.smoothing import BandwidthSchedule, bandwidth, density_estimate, gaussian_kernel
from bartree.tree_sim import ReplicateSeed, simulate_generations

ZETA_EXAMPLE = 0.636681526720909929       # sqrt(2^15) * 2^{-3.015/2} * 0.01
VAR_GEN_A05_X13 = 0.051713226787030620    # mu(-1.3) ||K||_2^2 at a=0.5
VAR_A07_X13 = 0.052231321603521160
VAR_A09_X13 = 0.041778799375095720
VAR_A0_X0 = 0.112539539519638259


def _simulate_tree(model, n, seed=0, rep=0):
    initial = stationary_initial(model)
    track = (model.a, model.sigma, initial.m0, initial.rho0)
    return list(simulate_generations(track, n, ReplicateSeed(seed, rep)))


# -- zeta ---------------------------------------------------------------------

def test_zeta_zero_when_estimate_is_exact():
    assert zeta(0.2, 0.2, 100, 0.5) == 0.0


def test_zeta_frozen_example():
    got = zeta(0.19, 0.18, 2**15, 2.0 ** -3.015)
    assert math.isclose(got, ZETA_EXAMPLE, rel_tol=1e-12)


def test_zeta_scaling():
    base = zeta(0.19, 0.18, 1024, 0.25)
    assert math.isclose(zeta(0.20, 0.18, 1024, 0.25), 2 * base, rel_tol=1e-12)
    assert math.isclose(zeta(0.19, 0.18, 4096, 0.25), 2 * base, rel_tol=1e-12)
    # an array of estimates gives the scalar value entry by entry
    got = zeta(np.array([0.19, 0.20]), 0.18, 1024, 0.25)
    np.testing.assert_array_equal(got, [base, zeta(0.20, 0.18, 1024, 0.25)])


def test_zeta_validation():
    with pytest.raises(ValueError):
        zeta(0.1, 0.1, 0, 0.5)
    with pytest.raises(ValueError):
        zeta(0.1, 0.1, 16, 0.0)


# -- the limit law ------------------------------------------------------------

def test_theoretical_limit_values():
    K = gaussian_kernel()
    cases = [
        (-1.3, BarModel(0.5, 1.0), VAR_GEN_A05_X13),
        (-1.3, BarModel(0.7, 1.0), VAR_A07_X13),
        (-1.3, BarModel(0.9, 1.0), VAR_A09_X13),
        (0.0, BarModel(0.0, 1.0), VAR_A0_X0),
    ]
    for x, model, want in cases:
        assert math.isclose(theoretical_limit(x, K, model), want, rel_tol=1e-14)


def test_theoretical_limit_tracks_density_ratio():
    K = gaussian_kernel()
    model = BarModel(0.6, 1.3)
    v0 = theoretical_limit(0.0, K, model)
    v1 = theoretical_limit(1.1, K, model)
    ratio = invariant_density(1.1, model) / invariant_density(0.0, model)
    assert math.isclose(v1 / v0, ratio, rel_tol=1e-14)


# -- cross-generation pairs ---------------------------------------------------

@pytest.fixture(scope="module")
def recorded_run():
    cfg = ExperimentConfig(
        a=0.5, sigma=1.0, n=5, gamma=0.201, x=-1.3, n0=8,
        master_seed=11, record_previous_generation=True,
    )
    return run_clt_experiment(cfg)


def test_cross_generation_pairs_shape(recorded_run):
    pairs = cross_generation_pairs(recorded_run)
    assert pairs.shape == (8, 2)
    np.testing.assert_array_equal(pairs[:, 0], [s.zeta for s in recorded_run.samples])
    np.testing.assert_array_equal(pairs[:, 1], [s.zeta for s in recorded_run.prev_samples])


def test_cross_generation_pairs_requires_recording():
    cfg = ExperimentConfig(a=0.5, sigma=1.0, n=5, gamma=0.201, x=-1.3, n0=4, master_seed=11)
    result = run_clt_experiment(cfg)
    with pytest.raises(ValueError, match="record"):
        cross_generation_pairs(result)


def test_cross_generation_pairs_length_mismatch(recorded_run):
    broken = SimpleNamespace(
        samples=recorded_run.samples, prev_samples=recorded_run.prev_samples[:-1]
    )
    with pytest.raises(ValueError):
        cross_generation_pairs(broken)


# -- zeta recomputed as a generation sum --------------------------------------

def test_zeta_equals_generation_sum_form(model_half):
    n = 8
    x, gamma = -1.3, 0.201
    K = gaussian_kernel()
    h = bandwidth(n, BandwidthSchedule(gamma))
    gens = _simulate_tree(model_half, n, seed=12)
    states = gens[-1].states
    mu_hat = density_estimate(states, x, h, K)
    mu_x = invariant_density(x, model_half)
    z1 = zeta(mu_hat, mu_x, 2**n, h)
    z2 = 2.0 ** (-n / 2.0) * (
        h ** -0.5 * float(np.sum(K.evaluate((x - states) / h))) - 2**n * h**0.5 * mu_x
    )
    assert math.isclose(z1, z2, rel_tol=1e-10)
