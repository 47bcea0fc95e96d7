"""Acceptance criteria for the BAR CLT toolkit.

The statistical criteria run the full experiment over the pre-registered
master seeds 0..19 at n=15, n0=500 and require at least 18 of the 20
runs to pass a 1% Kolmogorov-Smirnov gate (critical value
1.6276/sqrt(n0)). The remaining criteria are deterministic (quadrature
identities, classifier outputs, bit-level reproducibility) and must
always pass.

The paper's limit law N(0, mu(x) ||K||_2^2) is a statement about
n -> infinity; it says nothing about zeta_15. Where zeta_15 is close to
that limit (criterion 1 at a=0.5, criterion 2), the battery is gated
against the limit law; criterion 2's admissible battery also reports
its count against the exact n=15 law, since its variance ratio (1.23)
barely decays with n. Where it is not (criterion 1 at a=0.7, the
whole-tree scope of criterion 3, the cross-generation correlation of
criterion 7), the battery is gated against the exact n=15 law of zeta_n
from the closed form in scripts/exact_zeta_variance.py, and a second
assertion checks, in closed form, that the exact law tends to the limit
as n grows. Their failure messages quote the exact values and the pass
counts against both laws, so that a red explains itself. The closed
form is itself checked against the quadrature moment oracle in
test_exact_reference.py.
"""

import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr

from bartree import harness
from bartree.bar_model import (
    BarModel,
    invariant_density,
    q_power_apply,
)
from bartree.fluctuations import cross_generation_pairs
from bartree.harness import (
    ExperimentConfig,
    export,
    independence_report,
    ks_distance,
    monte_carlo_generation_sums,
    run_clt_experiment,
    run_clt_experiments,
)
from bartree.oracle import cross_moment_MGn_MGm, mean_MGn, second_moment_MGn, verdict
from bartree.smoothing import (
    BandwidthSchedule,
    admissible_bandwidth,
    density_estimate,
    gaussian_kernel,
)
from bartree.tree_sim import (
    GENERATION_SCOPE,
    SCOPE_ALIASES,
    TREE_SCOPE,
    ReplicateSeed,
    simulate_generations,
)

SEEDS = tuple(range(20))
N, X, N0 = 15, -1.3, 500
KS_CRIT = 1.6276 / math.sqrt(N0)  # asymptotic 1% critical value: 0.0728
NEED = 18

# Depths at which the closed form is checked to approach the limit law.
# The float form is accurate to 5e-8 up to n=30 (see the script's
# docstring); at n=30 every approach checked below is under LIMIT_TOL.
LIMIT_NS = (15, 18, 22, 26, 30)
LIMIT_TOL = 0.1


# name -> (a, gamma, scope, record_previous_generation, the law its gate
# scores it against): each battery's one declaration
BATTERIES = {
    "a05_gen": (0.5, 0.201, GENERATION_SCOPE, True, "limit"),
    "a07_gen": (0.7, 0.201, GENERATION_SCOPE, False, f"exact n={N}"),
    "a09_g696": (0.9, 0.696, GENERATION_SCOPE, False, "limit"),
    "a09_g201": (0.9, 0.201, GENERATION_SCOPE, False, "limit, must fail"),
    "a05_tree": (0.5, 0.201, TREE_SCOPE, False, f"exact n={N}"),
}


def _battery_configs(seed):
    """Every battery's config at one master seed, in BATTERIES order."""
    return [
        ExperimentConfig(
            a=a, sigma=1.0, n=N, gamma=gamma, x=X, n0=N0,
            scope=scope, master_seed=seed, record_previous_generation=record,
        )
        for a, gamma, scope, record, _ in BATTERIES.values()
    ]


@pytest.fixture(scope="module")
def batteries():
    """Each battery's runs over SEEDS, from one engine pass per seed: the
    batteries differ only in a, gamma and scope, so they share their noise."""
    per_seed = [run_clt_experiments(_battery_configs(seed)) for seed in SEEDS]
    return {name: [runs[k] for runs in per_seed] for k, name in enumerate(BATTERIES)}


@pytest.fixture(scope="module")
def exact_laws(batteries, exact_zeta):
    """Each battery's exact n=N law (var_n, var_inf, mean_n, rho_n) and the
    per-seed KS distances of its runs against N(mean_n, var_n)."""
    laws = {}
    for name, runs in batteries.items():
        law = _exact_law(exact_zeta, runs[0].config, N)
        var_n, _, mean_n, _ = law
        laws[name] = law, [
            ks_distance(np.array([s.zeta for s in r.samples]) - mean_n, var_n) for r in runs
        ]
    return laws


def _ks_list(runs):
    return _fmt([r.ks_distance for r in runs], ".4f")


def _fmt(values, spec):
    return "[" + ", ".join(format(v, spec) for v in values) + "]"


# the closed form's name of each scope: the command-line alias
SCRIPT_SCOPES = {scope: alias for alias, scope in SCOPE_ALIASES.items()}


def _exact_law(exact_zeta, cfg, n):
    """(var_n, limit variance, mean_n, corr(zeta_n, zeta_{n-1})) of zeta_n
    at cfg's a, sigma, gamma, x and scope, from the closed form."""
    return exact_zeta.analyze(cfg.a, cfg.sigma, n, cfg.gamma, cfg.x, SCRIPT_SCOPES[cfg.scope])


def _assert_exact_law_gate(runs, exact_law, exact_zeta, label):
    """(a) 18/20 seeds below KS_CRIT against N(mean_15, var_15), the exact
    n=15 law of zeta_n; (b) in closed form, var_n tends to the limit."""
    cfg = runs[0].config
    (var_n, var_inf, mean_n, _), exact_ks = exact_law
    assert math.isclose(runs[0].theoretical_variance, var_inf, rel_tol=1e-9), (
        f"{label}: the harness limit variance {runs[0].theoretical_variance!r} "
        f"disagrees with the closed form's {var_inf!r}"
    )
    passes = sum(d < KS_CRIT for d in exact_ks)
    limit_passes = sum(r.ks_distance < KS_CRIT for r in runs)
    assert passes >= NEED, (
        f"{label}: KS against the exact n={N} law N({mean_n:+.4f}, {var_n:.5f}) "
        f"was below {KS_CRIT:.4f} in only {passes}/20 seeds (need >= {NEED}); "
        f"against the limit law N(0, {var_inf:.5f}) it was {limit_passes}/20. "
        f"Per-seed KS against the exact law: {_fmt(exact_ks, '.4f')}. The exact "
        f"law (scripts/exact_zeta_variance.py) has variance ratio "
        f"{var_n / var_inf:.3f} and mean {mean_n:+.4f}, so n={N} does not explain "
        "this miss: it points at the sampler or the estimator."
    )
    excess = []
    for n in LIMIT_NS:
        var_k, var_inf, _, _ = _exact_law(exact_zeta, cfg, n)
        excess.append(abs(var_k / var_inf - 1.0))
    _assert_strictly_shrinking(excess, "excess |var_n / var_inf - 1|", label)


def _assert_strictly_shrinking(values, what, label):
    steps = ", ".join(f"n={n}: {v:.4f}" for n, v in zip(LIMIT_NS, values))
    assert all(later < earlier for earlier, later in zip(values, values[1:])), (
        f"{label}: the exact {what} should shrink at every step towards the "
        f"limit law, but it reads {steps}"
    )
    assert values[-1] < LIMIT_TOL, (
        f"{label}: the exact {what} at n={LIMIT_NS[-1]} should be below "
        f"{LIMIT_TOL}; it reads {steps}"
    )


# -- criterion 1: sub-critical CLT ---------------------------------------------


def test_criterion1_subcritical_clt_a05(batteries, exact_laws):
    runs = batteries["a05_gen"]
    slowest = max(r.wall_time_seconds for r in runs)
    assert slowest < 120.0, (
        f"a 500-replicate run took {slowest:.1f}s; the budget is 2 minutes each"
    )
    var_n, var_inf, _, _ = exact_laws["a05_gen"][0]
    passes = sum(r.ks_distance < KS_CRIT for r in runs)
    assert passes >= NEED, (
        f"a=0.5: KS against N(0, {runs[0].theoretical_variance:.6f}) was "
        f"below {KS_CRIT:.4f} in only {passes}/20 seeds (need >= {NEED}). "
        f"Per-seed KS: {_ks_list(runs)}. This case has essentially no "
        f"finite-n handicap: the exact variance of zeta_{N} is {var_n:.5f}, ratio "
        f"{var_n / var_inf:.3f} of the limit (scripts/exact_zeta_variance.py), so "
        f"a miss here points at the sampler or estimator, not at n={N}."
    )


def test_criterion1_subcritical_clt_a07(batteries, exact_laws, exact_zeta):
    runs = batteries["a07_gen"]
    slowest = max(r.wall_time_seconds for r in runs)
    assert slowest < 120.0, (
        f"a 500-replicate run took {slowest:.1f}s; the budget is 2 minutes each"
    )
    _assert_exact_law_gate(runs, exact_laws["a07_gen"], exact_zeta, "a=0.7, generation scope")


# -- criterion 2: super-critical pass/fail contrast ------------------------------


def _population_ks(mean, var, var_inf):
    """sup_t |P(N(mean, var) <= t) - P(N(0, var_inf) <= t)|, on a fine grid."""
    t = np.linspace(-12.0, 12.0, 48001) * math.sqrt(max(var, var_inf))
    return float(np.max(np.abs(ndtr((t - mean) / math.sqrt(var)) - ndtr(t / math.sqrt(var_inf)))))


def test_criterion2_admissible_supercritical(batteries, exact_laws, exact_zeta):
    runs = batteries["a09_g696"]
    assert all(r.admissibility.admissible for r in runs)
    (var_n, var_inf, mean_n, _), exact_ks = exact_laws["a09_g696"]
    var_far, _, _, _ = _exact_law(exact_zeta, runs[0].config, LIMIT_NS[-1])
    exact_passes = sum(d < KS_CRIT for d in exact_ks)
    passes = sum(r.ks_distance < KS_CRIT for r in runs)
    assert passes >= NEED, (
        f"a=0.9, gamma=0.696: KS against the limit law N(0, {var_inf:.5f}) was "
        f"below {KS_CRIT:.4f} in only {passes}/20 seeds (need >= {NEED}); against "
        f"the exact n={N} law N({mean_n:+.4f}, {var_n:.5f}) it was {exact_passes}/20. "
        f"Per-seed KS against the limit law: {_ks_list(runs)}. Exact "
        f"finite-n moments (scripts/exact_zeta_variance.py): Var(zeta_{N}) = "
        f"{var_n:.5f} = {var_n / var_inf:.3f}x the limit {var_inf:.5f}; the implied "
        f"population KS offset is {_population_ks(mean_n, var_n, var_inf):.3f} of the "
        f"{KS_CRIT:.4f} budget, leaving the per-seed pass probability high but not "
        "1. gamma=0.696 sits just above the super-critical bound 1 + log2(0.81), "
        "so the excess variance barely decays: the ratio is still "
        f"{var_far / var_inf:.3f} at n={LIMIT_NS[-1]}. If the exact-law count is "
        "also low, the miss points at the sampler or the estimator."
    )


def test_criterion2_supercritical_contrast(batteries, exact_laws):
    runs = batteries["a09_g201"]
    var_n, var_inf, _, _ = exact_laws["a09_g201"][0]
    exceed = sum(r.ks_distance > KS_CRIT for r in runs)
    inflated = sum(r.sample_variance / r.theoretical_variance >= 1.5 for r in runs)
    assert all(not r.admissibility.admissible for r in runs)
    assert exceed >= NEED, (
        f"a=0.9, gamma=0.201 (inadmissible bandwidth): KS exceeded {KS_CRIT:.4f} "
        f"in only {exceed}/20 seeds (need >= {NEED}). Per-seed KS: "
        f"{_ks_list(runs)}. The exact variance of zeta_{N} here is "
        f"{var_n:.3f} = {var_n / var_inf:.1f}x the limit; the gate should reject "
        "every seed by a wide margin, so a pass-through indicates the estimator "
        "is not actually being fed the inadmissible bandwidth."
    )
    assert inflated >= NEED, (
        f"a=0.9, gamma=0.201: sample variance exceeded 1.5x the theoretical "
        f"value in only {inflated}/20 seeds (need >= {NEED}); ratios: "
        + _fmt([r.sample_variance / r.theoretical_variance for r in runs], ".1f")
        + f". The exact finite-n ratio is {var_n / var_inf:.1f} "
        "(scripts/exact_zeta_variance.py)."
    )


# -- criterion 3: scope equivalence ----------------------------------------------


def test_criterion3_tree_scope(batteries, exact_laws, exact_zeta):
    # The limit is scope-invariant but the n=15 law is not: early
    # generations enter with the bandwidth h_15, mismatched to their size.
    _assert_exact_law_gate(batteries["a05_tree"], exact_laws["a05_tree"], exact_zeta,
                           "a=0.5, whole-tree scope")


# -- criterion 4: moment oracle vs Monte Carlo ------------------------------------


def test_criterion4_moment_oracle_agreement(quad64):
    t0 = time.perf_counter()
    reps = 100_000
    fs = {"id": lambda y: np.asarray(y, dtype=float),
          "square": lambda y: np.asarray(y, dtype=float) ** 2}
    gens = (1, 2, 3, 6)
    # one pass for all 9 cells: each is a track with its root pinned at x,
    # and its sums are those of monte_carlo_generation_sums bit for bit
    cells = [(a, x) for a in (0.0, 0.5, 0.9) for x in (0.0, 1.0, -1.3)]
    terms = {(t, f, g): (t, g, f) for t in range(len(cells)) for f in fs.values() for g in gens}
    tracks = [(a, 1.0, x, 0.0) for a, x in cells]
    rows = iter(harness._replicate_sums(tracks, reps, 7, None, terms).values())
    bad = []
    for a, x in cells:
        model = BarModel(a, 1.0)
        for fname, f in fs.items():
            for g in gens:
                vals = next(rows)
                for tag, emp, th in (
                    ("mean", vals, mean_MGn(f, g, x, model, quad64)),
                    ("second", vals**2, second_moment_MGn(f, g, x, model, quad64)),
                ):
                    est, _, z = verdict(emp, th)
                    if abs(z) > 4.0:
                        bad.append(f"a={a} f={fname} x={x} n={g} {tag}: "
                                   f"MC={est:.6g} oracle={th.value:.6g} z={z:.2f}")
    assert not bad, (
        "Monte Carlo moments disagreed with the quadrature oracle beyond 4 "
        "standard errors in these cells (100000 replicates, root pinned at x): "
        + "; ".join(bad)
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"moment comparison took {elapsed:.0f}s; budget is 5 minutes"


def test_criterion4_cross_moment_identities(quad64):
    f = lambda y: np.asarray(y, dtype=float)
    sq = lambda y: np.asarray(y, dtype=float) ** 2
    one = lambda y: np.ones_like(np.asarray(y, dtype=float))
    for a in (0.0, 0.5, 0.9):
        model = BarModel(a, 1.0)
        for x in (0.0, -1.3):
            for g in (f, sq):
                for n in (1, 3, 6):
                    diag = cross_moment_MGn_MGm(g, g, n, n, x, model, quad64).value
                    second = second_moment_MGn(g, n, x, model, quad64).value
                    assert abs(diag - second) <= 1e-8 * max(1.0, abs(second)), (
                        f"cross moment at n=m={n} (a={a}, x={x}) should equal the "
                        f"second moment: {diag!r} vs {second!r}"
                    )
                for n, m in ((2, 0), (3, 1), (6, 4)):
                    cross = cross_moment_MGn_MGm(g, one, n, m, x, model, quad64).value
                    mean = mean_MGn(g, n, x, model, quad64).value
                    assert abs(cross - 2.0**m * mean) <= 1e-8 * max(1.0, abs(mean)), (
                        f"cross moment against the constant 1 at (n={n}, m={m}, "
                        f"a={a}, x={x}) should collapse to 2^m E[M]: "
                        f"{cross!r} vs {2.0 ** m * mean!r}"
                    )


# -- criterion 5: bias order -------------------------------------------------------


def test_criterion5_bias_order(closed_form_bias):
    # B_h(X) at a=0.5 from the closed form, which test_smoothing.py checks
    # against quadrature
    hs = [2.0**-k for k in range(2, 7)]
    bs = [abs(closed_form_bias(X, k)) for k in range(2, 7)]
    slope = float(np.polyfit(np.log(hs), np.log(bs), 1)[0])
    assert abs(slope - 2.0) <= 0.3, (
        f"log-log slope of the smoothing bias over h in 2^-2..2^-6 is {slope:.4f}, "
        "expected 2.0 +/- 0.3 for a second-order kernel on a smooth density "
        f"(biases: {['%.3e' % b for b in bs]})"
    )


# -- criterion 6: bandwidth regime classifier ---------------------------------------


def test_criterion6_bandwidth_classifications():
    s = 2.0
    assert admissible_bandwidth(BandwidthSchedule(0.201), s, 0.5).admissible
    assert admissible_bandwidth(BandwidthSchedule(0.201), s, 0.7).admissible
    assert admissible_bandwidth(BandwidthSchedule(0.696), s, 0.9).admissible
    rep = admissible_bandwidth(BandwidthSchedule(0.201), s, 0.9)
    assert not rep.admissible and not rep.supercritical_ok
    lb = admissible_bandwidth(BandwidthSchedule(0.696), s, 0.9).gamma_lower_bound_supercritical
    assert abs(lb - 0.69599) <= 1e-5, (
        f"super-critical lower bound for alpha=0.9 is {lb!r}, expected "
        "1 + log2(0.81) = 0.695993813109900 within 1e-5"
    )


# -- criterion 7: asymptotic independence of zeta_n and zeta_{n-1} --------------------


def test_criterion7_cross_generation_independence(batteries, exact_laws, exact_zeta):
    runs = batteries["a05_gen"]
    reports = [independence_report(cross_generation_pairs(r)) for r in runs]
    rho = exact_laws["a05_gen"][0][3]
    passes = sum(abs(rep.correlation - rho) < rep.threshold for rep in reports)
    limit_passes = sum(rep.passed for rep in reports)
    corrs = _fmt([rep.correlation for rep in reports], "+.3f")
    mean_corr = float(np.mean([rep.correlation for rep in reports]))
    assert passes >= NEED, (
        f"|corr(zeta_{N}, zeta_{N - 1}) - rho_{N}| < 3/sqrt({N0}) = "
        f"{reports[0].threshold:.4f} in only {passes}/20 seeds (need >= {NEED}), "
        f"where rho_{N} = {rho:+.4f} is the exact correlation "
        f"(scripts/exact_zeta_variance.py); against the limit rho = 0 it was "
        f"{limit_passes}/20. Per-seed correlations: {corrs}, mean "
        f"{mean_corr:+.4f}. n={N} does not explain this miss: it points at "
        "the noise addressing or at the previous-generation tally."
    )
    rhos = [abs(_exact_law(exact_zeta, runs[0].config, n)[3]) for n in LIMIT_NS]
    _assert_strictly_shrinking(rhos, "|corr(zeta_n, zeta_{n-1})|", "a=0.5")


# -- criterion 8: invariant and property suite ----------------------------------------


def test_criterion8_q_invariance_of_mu(quad64):
    for a in (0.0, 0.5, 0.9):
        model = BarModel(a, 1.0)
        for y in np.linspace(-3.4, 3.4, 18):
            lhs = invariant_density(y, model)
            rhs = quad64.expect(
                lambda xx: np.exp(-((y - a * xx) ** 2) / 2.0) / math.sqrt(2 * math.pi),
                mean=0.0,
                std=model.sigma_a,
            )
            assert abs(lhs - rhs) <= 1e-8, (
                f"mu is not Q-invariant at y={y}, a={a}: {lhs!r} vs {rhs!r}"
            )


def test_criterion8_semigroup(quad64, model_half):
    f = lambda y: y**4 - 2.0 * y**3 + y - 3.0
    for m, k in ((1, 1), (2, 1), (1, 2), (3, 2), (2, 3)):
        direct = q_power_apply(f, m + k, 1.1, model_half, quad64)
        nested = q_power_apply(
            lambda y: q_power_apply(f, k, y, model_half, quad64),
            m,
            1.1,
            model_half,
            quad64,
        )
        assert abs(direct - nested) <= 1e-8 * max(1.0, abs(direct)), (
            f"Q^{m}(Q^{k} f) != Q^{m + k} f: {nested!r} vs {direct!r}"
        )


def test_criterion8_kernel_scaling_identity():
    rng = np.random.default_rng(5)
    sample = rng.normal(size=257)
    K = gaussian_kernel()
    x, h = -0.7, 0.23
    direct = density_estimate(sample, x, h, K)
    regrouped = h**-0.5 * float(np.mean(h**-0.5 * K.evaluate((x - sample) / h)))
    assert abs(direct - regrouped) <= 1e-15 * abs(direct)


def test_criterion8_chunking_determinism(tmp_path, forced_block_widths):
    # neither the replicate chunk nor the engine's column-block width may
    # change a byte: generation 10 is one block or up to eight
    cfg = ExperimentConfig(
        a=0.5, sigma=1.0, n=10, gamma=0.201, x=X, n0=100, master_seed=13
    )
    blobs = {}
    for width in itertools.chain(["default"], forced_block_widths()):
        for chunk in (13, 100, 125):
            res = run_clt_experiment(cfg, chunk_size=chunk)
            path = export(res, "csv", str(tmp_path / f"{width}_{chunk}"))
            blobs[width, chunk] = open(path, "rb").read()
    ref = blobs["default", 13]
    for key, blob in blobs.items():
        assert blob == ref, (
            f"samples.csv differs at (block width, chunk size) {key}; the "
            "partitioning of replicates or columns leaked into the draws"
        )


def test_criterion8_shared_pass_equals_solo_runs(batteries):
    # one pass per seed is invisible: at the first seed, every battery's
    # zeta_n (and zeta_{n-1} where recorded) equal its solo run bit for bit
    for name, config in zip(BATTERIES, _battery_configs(SEEDS[0])):
        shared, solo = batteries[name][0], run_clt_experiment(config)
        assert shared.config == config
        assert [s.zeta for s in shared.samples] == [s.zeta for s in solo.samples], name
        prev = [[s.zeta for s in r.prev_samples or []] for r in (shared, solo)]
        assert prev[0] == prev[1] and bool(prev[0]) == config.record_previous_generation, name
        assert shared.ks_distance == solo.ks_distance, name


def test_criterion8_stream_vs_stored(model_half, forced_split, forced_block_widths):
    # the moment Monte Carlo streams blocks of replicates and of columns
    # through the engine and keeps only per-replicate generation sums; at
    # every chunking and block width they must equal, bit for bit, the sums
    # over each tree stored whole
    f = lambda y: np.exp(-np.abs(y))
    x, reps, seed = -1.3, 5, 5
    track = (model_half.a, model_half.sigma, x, 0.0)
    for n in (3, 7, 10):
        stored = [
            list(simulate_generations(track, n, ReplicateSeed(seed, r)))
            for r in range(reps)
        ]
        f_by_gen = {g: f for g in range(n + 1)}
        for width in forced_block_widths():
            for chunk in (1, 3, None):
                forced_split(1, chunk)
                streamed = monte_carlo_generation_sums(
                    f_by_gen, x, model_half, reps, master_seed=seed
                )
                for g in range(n + 1):
                    want = np.array([np.sum(f(tree[g].states)) for tree in stored])
                    assert streamed[g].tobytes() == want.tobytes(), (n, width, chunk, g)


# -- the README's battery table ---------------------------------------------------

README = Path(__file__).resolve().parents[1] / "README.md"
TABLE_BEGIN = "<!-- battery table: rendered by test_readme_battery_table_comes_from_the_suite -->"
TABLE_END = "<!-- end of battery table -->"


def test_readme_battery_table_comes_from_the_suite(batteries, exact_laws):
    # every number in the README's table is rendered here from the batteries
    # and the closed form, with no extra simulation; editing any of them, or
    # a change in the runs, turns this red
    header = (f"battery (n={N}, x={X}, n0={N0})", "gated against",
              f"KS < {KS_CRIT:.4f}, limit law", f"KS < {KS_CRIT:.4f}, exact n={N} law",
              "median var ratio", f"exact ratio (n={N})")
    rows = []
    for name, (a, gamma, scope, _, law) in BATTERIES.items():
        runs = batteries[name]
        (var_n, var_inf, _, _), exact_ks = exact_laws[name]
        exact_passes = sum(d < KS_CRIT for d in exact_ks)
        rows.append((
            f"a={a}, gamma={gamma}, "
            + ("generation" if scope == GENERATION_SCOPE else "whole tree"),
            law,
            f"{sum(r.ks_distance < KS_CRIT for r in runs)}/{len(runs)}",
            f"{exact_passes}/{len(runs)}",
            f"{np.median([r.sample_variance / r.theoretical_variance for r in runs]):.3f}",
            f"{var_n / var_inf:.3f}",
        ))
    align = [str.ljust] * 2 + [str.rjust] * 4
    widths = [max(map(len, column)) for column in zip(header, *rows)]

    def line(cells):
        return "| " + " | ".join(pad(c, w) for pad, c, w in zip(align, cells, widths)) + " |"

    rule = "|" + "|".join("-" * (w + 2) if pad is str.ljust else "-" * (w + 1) + ":"
                          for pad, w in zip(align, widths)) + "|"
    table = "\n".join([line(header), rule] + [line(row) for row in rows])
    readme = README.read_text()
    assert readme.count(TABLE_BEGIN) == readme.count(TABLE_END) == 1
    block = readme.split(TABLE_BEGIN)[1].split(TABLE_END)[0].strip()
    assert block == table, f"README.md's battery table should read:\n{table}"
