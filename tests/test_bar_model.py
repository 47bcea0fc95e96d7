import math

import numpy as np
import pytest

from bartree import tree_sim
from bartree.bar_model import (
    BarModel,
    GaussianInitial,
    bar_transition,
    check_assumptions,
    invariant_density,
    q_power_apply,
    stationary_initial,
)
from bartree.harness import independence_report, ks_distance
from bartree.tree_sim import NodeAddress, ReplicateSeed, node_randomness

# direct evaluations of the closed forms, frozen at high precision
MU_0_A05 = 0.345494149471335479
MU_M13_A05 = 0.183318615922845416
MU_0_A0 = 0.398942280401432678
C0_A05 = 0.744436429872768157


def test_model_validation():
    with pytest.raises(ValueError):
        BarModel(1.0, 1.0)
    with pytest.raises(ValueError):
        BarModel(-1.0, 1.0)
    with pytest.raises(ValueError):
        BarModel(0.5, -0.1)
    m = BarModel(0.5, 1.0)
    assert m.alpha == 0.5
    assert math.isclose(m.sigma_a, math.sqrt(4.0 / 3.0), rel_tol=1e-15)
    assert BarModel(-0.5, 1.0).alpha == 0.5


def test_degenerate_sigma_zero():
    m = BarModel(0.5, 0.0)  # allowed for simulation
    with pytest.raises(ValueError):
        invariant_density(0.0, m)
    with pytest.raises(ValueError):
        check_assumptions(m)


def test_gaussian_initial_validation():
    # exactly an int or a float, stored as a float: a bool is no number here
    for m0, rho0 in [(0.0, -1.0), (math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf),
                     (0.0, math.nan), (True, 1.0), (0.0, False), ("0", 1.0)]:
        with pytest.raises(ValueError):
            GaussianInitial(m0, rho0)
    assert GaussianInitial(2.0, 0.0).rho0 == 0.0  # point mass allowed
    initial = GaussianInitial(0, 1)
    assert (type(initial.m0), type(initial.rho0)) == (float, float)


# -- transitions --------------------------------------------------------------

def test_transition_noiseless_limit():
    stream = node_randomness(ReplicateSeed(0, 0), NodeAddress(2, 1))
    assert bar_transition(2.0, stream, BarModel(0.5, 0.0)) == (1.0, 1.0)


def test_transition_children_mean():
    # E[child | x=1] = a = 0.5; 2*10^5 children
    model = BarModel(0.5, 1.0)
    keys = np.array([ReplicateSeed(31, 0).key()], dtype=np.uint64)
    states = tree_sim.generation_states(keys, 17)[0][:100_000]
    e0, e1 = tree_sim.stream_normal_pairs(states[None, :], 0)
    children = np.concatenate([1.0 * model.a + e0[0], 1.0 * model.a + e1[0]])
    assert abs(children.mean() - 0.5) < 3.0 / math.sqrt(children.size)


def _first_generation(track, master_seed, reps):
    """(roots, first children, second children) of trees 0..reps-1 of
    `master_seed` for `track`, from one pass of the engine."""
    keys = tree_sim.replicate_keys(master_seed, 0, reps)
    (_, _, roots), (_, _, children) = tree_sim.generation_blocks([track], keys, 1)
    return roots[0, :, 0], children[0, :, 0], children[0, :, 1]


def test_transition_marginal_is_Q_kernel():
    # child 0 given x: N(a x, sigma^2); KS against the exact CDF, 1% level
    model = BarModel(0.7, 1.3)
    x = 0.9
    _, c0, _ = _first_generation((model.a, model.sigma, x, 0.0), 8, 100_000)
    assert ks_distance((c0 - model.a * x) / model.sigma, 1.0) < 1.6276 / math.sqrt(c0.size)


def test_sibling_conditional_independence():
    # corr(eps0, eps1) over 10^5 stationary parents, within +/- 3/sqrt(10^5)
    model = BarModel(0.5, 1.0)
    parents, c0, c1 = _first_generation((model.a, model.sigma, 0.0, model.sigma_a), 77, 100_000)
    assert independence_report(np.column_stack([c0, c1]) - model.a * parents[:, None]).passed


def test_kernel_block_matches_scalar(spec_tree):
    # every track of one engine pass, a point-mass root beside a random one,
    # is the tree the scalar spec grows node by node, bit for bit: equal
    # roots and equal generations are the per-step check by induction
    keys = tree_sim.replicate_keys(4, 9, 10)
    tracks = [(0.6, 0.8, -0.4, 0.0), (-0.3, 1.7, 0.2, 0.9)]
    n = 4
    trees = np.zeros((len(tracks), n + 1, 1 << n))
    for g, lo, states in tree_sim.generation_blocks(tracks, keys, n):
        trees[:, g, lo : lo + states.shape[-1]] = states[:, 0]
    for track, tree in zip(tracks, trees):
        for g, want in enumerate(spec_tree(track, n, ReplicateSeed(4, 9))):
            assert tree[g, : 1 << g].tobytes() == want.tobytes(), (track, g)


# -- closed forms -------------------------------------------------------------

def test_invariant_density_values():
    assert math.isclose(invariant_density(0.0, BarModel(0.5, 1.0)), MU_0_A05, rel_tol=1e-14)
    assert math.isclose(invariant_density(-1.3, BarModel(0.5, 1.0)), MU_M13_A05, rel_tol=1e-14)
    assert math.isclose(invariant_density(0.0, BarModel(0.0, 1.0)), MU_0_A0, rel_tol=1e-14)
    arr = invariant_density(np.array([-1.3, 0.0]), BarModel(0.5, 1.0))
    assert arr.shape == (2,)
    assert math.isclose(arr[0], MU_M13_A05, rel_tol=1e-14)


def test_q_power_apply_linear(quad64):
    # Q^n(id)(x) = a^n x
    got = q_power_apply(lambda y: y, 3, 2.0, BarModel(0.5, 1.0), quad64)
    assert math.isclose(got, 0.25, rel_tol=1e-10)


def test_q_power_apply_square(quad64):
    got = q_power_apply(lambda y: y * y, 1, 0.0, BarModel(0.5, 1.0), quad64)
    assert math.isclose(got, 1.0, rel_tol=1e-12)


def test_q_power_apply_markov(quad64):
    one = lambda y: np.ones_like(y)
    for n in (0, 1, 4, 9):
        assert math.isclose(
            q_power_apply(one, n, -1.7, BarModel(0.8, 2.0), quad64), 1.0, rel_tol=1e-13
        )


def test_q_power_apply_n0_is_identity(quad64):
    f = lambda y: y**3 - y
    assert q_power_apply(f, 0, 1.25, BarModel(0.5, 1.0), quad64) == f(1.25)


def test_q_power_apply_growth_guard(quad64):
    # the probe is operational: it fires when the integrand overflows on
    # the quadrature range (exp(y^2) stays under the float64 ceiling at
    # order 64, exp(y^4) does not)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="growth"):
        q_power_apply(lambda y: np.exp(y**4), 2, 0.0, BarModel(0.5, 1.0), quad64)


def test_q_power_apply_array_x(quad64):
    xs = np.array([-1.0, 0.0, 2.0])
    got = q_power_apply(lambda y: y, 2, xs, BarModel(0.5, 1.0), quad64)
    assert np.allclose(got, 0.25 * xs, rtol=1e-12)


# -- assumption checks --------------------------------------------------------

def test_k1_min_examples():
    assert check_assumptions(BarModel(0.5, 1.0)).k1_min == 2
    assert check_assumptions(BarModel(0.9, 1.0)).k1_min == 8
    assert check_assumptions(BarModel(0.0, 1.0)).k1_min == 1
    # boundary chain: a^{2k} < 1/5 <= a^{2(k-1)}
    for a in (0.3, 0.5, 0.7, 0.9, 0.99):
        k = check_assumptions(BarModel(a, 1.0)).k1_min
        assert a ** (2 * k) < 0.2
        if k > 1:
            assert a ** (2 * (k - 1)) >= 0.2


def test_initial_admissibility():
    m = BarModel(0.9, 1.0)
    assert math.isclose(m.sigma_a, 1.0 / math.sqrt(0.19), rel_tol=1e-15)
    assert check_assumptions(m, GaussianInitial(0.0, 1.0)).initial_ok  # 1 < 2.294
    assert check_assumptions(m, GaussianInitial(5.0, 1.0)).initial_ok
    assert check_assumptions(m, GaussianInitial(0.0, m.sigma_a)).initial_ok
    assert not check_assumptions(m, GaussianInitial(0.1, m.sigma_a)).initial_ok
    assert not check_assumptions(m, GaussianInitial(0.0, 3.0)).initial_ok
    # default initial is the stationary law, always admissible
    assert check_assumptions(m).initial_ok


def test_C0_closed_form():
    got = check_assumptions(BarModel(0.5, 1.0)).C0
    assert math.isclose(got, C0_A05, rel_tol=1e-14)


def test_h_sq_mu_norm_closed_form():
    # <mu, h^2> = 1/(1 - a^2) for the BAR weight function
    for a in (0.0, 0.3, 0.5, 0.7, 0.9, 0.99):
        got = check_assumptions(BarModel(a, 1.0)).h_sq_mu_norm
        assert math.isclose(got, 1.0 / (1.0 - a * a), rel_tol=1e-12), a
    # sigma does not enter
    got = check_assumptions(BarModel(0.7, 2.5)).h_sq_mu_norm
    assert math.isclose(got, 1.0 / 0.51, rel_tol=1e-12)


def test_alpha_regime():
    assert check_assumptions(BarModel(0.5, 1.0)).alpha_regime == "sub_critical"
    assert check_assumptions(BarModel(0.7, 1.0)).alpha_regime == "sub_critical"
    assert check_assumptions(BarModel(0.9, 1.0)).alpha_regime == "super_critical"
    assert check_assumptions(BarModel(-0.9, 1.0)).alpha_regime == "super_critical"


def test_stationary_initial_matches_sigma_a():
    for m in (BarModel(0.5, 1.0), BarModel(0.5, np.float64(1.0))):
        init = stationary_initial(m)
        assert init.m0 == 0.0 and init.rho0 == m.sigma_a


# -- analytic invariants ------------------------------------------------------

def test_invariance_of_mu_under_Q(quad64):
    # integral mu(x) q(x, y) dx = mu(y) on a grid of y, tol 1e-8
    model = BarModel(0.5, 1.0)
    s = model.sigma

    def q_density(x, y):
        return np.exp(-0.5 * ((y - model.a * x) / s) ** 2) / (s * math.sqrt(2 * math.pi))

    for y in np.linspace(-3.4, 3.4, 29):
        lhs = quad64.expect(lambda x: q_density(x, y), mean=0.0, std=model.sigma_a)
        assert abs(lhs - invariant_density(y, model)) < 1e-8


def test_semigroup_property(quad64):
    model = BarModel(0.6, 1.1)
    f = lambda y: y**4 - 2.0 * y**3 + y - 3.0
    for m_pow, n_pow in [(1, 1), (2, 1), (1, 3), (2, 4), (3, 3)]:
        direct = q_power_apply(f, m_pow + n_pow, 0.7, model, quad64)
        inner = lambda y: q_power_apply(f, n_pow, y, model, quad64)
        nested = q_power_apply(inner, m_pow, 0.7, model, quad64)
        assert abs(direct - nested) < 1e-8 * max(1.0, abs(direct)), (m_pow, n_pow)


def test_ergodic_decay_rates(quad64):
    # |Q^n f(x) - <mu, f>| decays like alpha^n (f=id) and alpha^{2n} (f=y^2)
    model = BarModel(0.5, 1.0)
    x = 1.7
    mu_id, mu_sq = 0.0, model.sigma_a**2
    for f, center, rate in [
        (lambda y: y, mu_id, 0.5),
        (lambda y: y * y, mu_sq, 0.25),
    ]:
        gaps = [abs(q_power_apply(f, n, x, model, quad64) - center) for n in range(1, 9)]
        slope = np.polyfit(np.arange(1, 9), np.log(gaps), 1)[0]
        assert abs(slope - math.log(rate)) < 0.05
