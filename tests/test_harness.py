import dataclasses
import hashlib
import itertools
import json
import math
import os
import platform
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr, ndtri

from bartree.bar_model import (
    BarModel,
    GaussianInitial,
    invariant_density,
    stationary_initial,
)
from bartree.harness import (
    MAX_NODES,
    ExperimentConfig,
    config_from_dict,
    export,
    export_ecdf,
    export_histogram,
    histogram,
    independence_report,
    ks_distance,
    monte_carlo_generation_sums,
    run_clt_experiment,
)
from bartree import harness, tree_sim
from bartree.cli import main
from bartree.smoothing import BandwidthSchedule, bandwidth, gaussian_kernel, parzen_sum
from bartree.tree_sim import GENERATION_SCOPE, TREE_SCOPE, ReplicateSeed

VAR_GEN_A05_X13 = 0.051713226787030620


def _config(**kw):
    base = dict(a=0.5, sigma=1.0, n=6, gamma=0.201, x=-1.3, n0=17, master_seed=3)
    base.update(kw)
    return ExperimentConfig(**base)


# -- config validation ---------------------------------------------------------

def test_config_validation_errors():
    # the config refuses itself at construction; only the work waits for a run
    with pytest.raises(ValueError, match="kernel"):
        _config(kernel_name="epanechnikov")
    with pytest.raises(ValueError, match="scope"):
        _config(scope="forest")
    with pytest.raises(ValueError):
        run_clt_experiment(_config(n0=0))
    with pytest.raises(ValueError):
        _config(n=-1)
    with pytest.raises(ValueError):
        _config(n=63)
    with pytest.raises(ValueError):
        _config(gamma=1.0)
    with pytest.raises(ValueError):
        _config(sigma=0.0)
    with pytest.raises(ValueError, match="record"):
        _config(n=0, record_previous_generation=True)
    with pytest.raises(ValueError, match="initial"):
        _config(initial="point_mass")
    # field types are checked exactly, by the constructor and by replace alike
    for name, value, kind in [
        ("n", True, "int"), ("n", 3.0, "int"), ("n0", 2.5, "int"), ("master_seed", 1.5, "int"),
        ("record_previous_generation", "no", "bool"), ("a", "0.5", "float"),
        ("x", np.float64(-1.3), "float"), ("gamma", np.float64(0.201), "float"),
    ]:
        message = f"config field {name!r} must be {kind}, got {value!r}"
        for build in (_config, lambda **kw: dataclasses.replace(_config(), **kw)):
            with pytest.raises(ValueError) as exc:
                build(**{name: value})
            assert str(exc.value) == message


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_x_is_refused_at_construction(x):
    # every way of building a config passes the same gate
    with pytest.raises(ValueError, match="query point x must be finite"):
        _config(x=x)
    with pytest.raises(ValueError, match="query point x must be finite"):
        dataclasses.replace(_config(), x=x)
    with pytest.raises(ValueError, match="query point x must be finite"):
        config_from_dict(dict(dataclasses.asdict(_config()), x=x))


def test_work_is_refused_before_any_key(monkeypatch, model_half):
    # the chunk driver admits the run before it derives a single key: a
    # 2^41-node CLT run and a Monte Carlo of no replicates fail at once
    def no_keys(*args):
        raise AssertionError("a replicate key was derived")

    monkeypatch.setattr(tree_sim, "replicate_keys", no_keys)
    with pytest.raises(ValueError, match="work limit MAX_NODES"):
        run_clt_experiment(_config(n=40, n0=1))
    # a group of configs is as large as its largest member: at n = 30, five
    # trees exceed MAX_NODES and four do not, whatever the other members. An
    # n = 6 group comes first: every group is admitted before the first pass,
    # so a refused n = 30 group costs no key, and an admitted one lets the
    # n = 6 pass reach its keys
    assert 4 * (2**31 - 1) <= MAX_NODES < 5 * (2**31 - 1)
    for n0s, admitted in [((5,), False), ((4,), True), ((4, 4, 3), True),
                          ((4, 5, 1), False), ((5, 5), False)]:
        configs = [_config(n=6)] + [_config(n=30, n0=n0, a=0.1 * k) for k, n0 in enumerate(n0s)]
        error, match = (AssertionError, "a replicate key") if admitted else (
            ValueError, "work limit MAX_NODES")
        with pytest.raises(error, match=match):
            harness.run_clt_experiments(configs)
    with pytest.raises(ValueError, match="at least one replicate"):
        monte_carlo_generation_sums({2: np.sin}, 0.5, model_half, reps=0)
    with pytest.raises(ValueError, match=r"need generations >= 0, got \[-1, 2\]"):
        monte_carlo_generation_sums({-1: np.sin, 2: np.sin}, 0.5, model_half, reps=3)
    # the deepest recorded run, n=22 with n0=500, is 4.19e9 nodes
    assert 500 * (2**23 - 1) <= MAX_NODES


def test_hot_path_derives_keys_without_the_scalar_spec(monkeypatch, forced_split, model_half):
    # _replicate_sums takes its keys from one vector pass per chunk: with
    # the scalar ReplicateSeed.key broken, the Monte Carlo (in chunks of
    # 128) and the CLT run return the same numbers as before
    def zetas(res):
        return [s.zeta for s in res.samples], [s.zeta for s in res.prev_samples]

    def runs():
        sums = monte_carlo_generation_sums({1: np.cos, 3: np.sin}, 0.4, model_half, 300,
                                           master_seed=9)
        clt = run_clt_experiment(_config(record_previous_generation=True), chunk_size=5)
        return sums, zetas(clt)

    forced_split(1, 128)
    want_sums, want_zetas = runs()

    def no_scalar_key(self):
        raise AssertionError("ReplicateSeed.key on the hot path")

    monkeypatch.setattr(ReplicateSeed, "key", no_scalar_key)
    sums, got_zetas = runs()
    assert set(sums) == set(want_sums)
    for g in want_sums:
        np.testing.assert_array_equal(sums[g], want_sums[g])
    assert got_zetas == want_zetas


def test_single_replicate_run():
    res = run_clt_experiment(_config(n0=1))
    assert len(res.samples) == 1
    assert res.sample_variance == 0.0
    assert 0.0 <= res.ks_distance <= 1.0


# -- a standard run ------------------------------------------------------------

@pytest.fixture(scope="module")
def std_run():
    cfg = ExperimentConfig(a=0.5, sigma=1.0, n=12, gamma=0.201, x=-1.3, n0=300, master_seed=0)
    return run_clt_experiment(cfg)


def test_std_run_matches_limit(std_run):
    v = std_run.theoretical_variance
    assert math.isclose(v, VAR_GEN_A05_X13, rel_tol=1e-13)
    assert std_run.ks_distance < 1.6276 / math.sqrt(300)
    assert abs(std_run.sample_mean) <= 4 * math.sqrt(v / 300)
    assert 0.03 < std_run.sample_variance < 0.08
    assert std_run.admissibility.admissible
    assert std_run.wall_time_seconds > 0.0


def test_std_run_sample_metadata(std_run):
    assert [s.replicate_index for s in std_run.samples] == list(range(300))
    s = std_run.samples[17]
    assert s.scope == GENERATION_SCOPE
    assert s.n == 12 and s.gamma == 0.201 and s.x == -1.3 and s.seed == 0
    assert std_run.prev_samples is None


def test_ks_is_self_consistent(std_run):
    zetas = [s.zeta for s in std_run.samples]
    again = ks_distance(zetas, std_run.theoretical_variance)
    assert again == std_run.ks_distance


# -- determinism ---------------------------------------------------------------

def test_rerun_is_bit_identical():
    r1 = run_clt_experiment(_config())
    r2 = run_clt_experiment(_config())
    assert [s.zeta for s in r1.samples] == [s.zeta for s in r2.samples]
    assert r1.ks_distance == r2.ks_distance
    assert r1.sample_mean == r2.sample_mean


def test_chunk_size_is_invisible(forced_block_widths):
    # nor the engine's column-block width: generation 9 is one block or up
    # to four, and the tree scope merges the block sums of 10 generations
    config = _config(n=9, scope=TREE_SCOPE, record_previous_generation=True)

    def zetas(chunk):
        r = run_clt_experiment(config, chunk_size=chunk)
        return [s.zeta for s in r.samples], [s.zeta for s in r.prev_samples]

    ref = zetas(1)
    for width in itertools.chain(["default"], forced_block_widths()):
        for chunk in (1, 7, 125, 500):
            assert zetas(chunk) == ref, (width, chunk)


def _sin_sums(model, reduce=lambda s: np.sin(s).sum(axis=1)):
    """_replicate_sums over generation 3 of 12 replicates rooted at 0.4."""
    return harness._replicate_sums([(model.a, model.sigma, 0.4, 0.0)], 12, 5, None,
                                   {3: (0, 3, reduce)})[3]


def test_worker_count_is_invisible(forced_split, forced_block_widths, model_half):
    # nor the number of forked workers, down to one replicate each: a
    # replicate's sums depend on its key alone, on the CLT path (tree scope
    # and the previous generation) and on the moment path alike
    config = _config(n=9, scope=TREE_SCOPE, record_previous_generation=True)

    def outputs(workers, chunk):
        forced_split(workers, chunk)
        r = run_clt_experiment(config)
        sums = monte_carlo_generation_sums({1: np.cos, 9: np.sin}, 0.4, model_half,
                                           config.n0, master_seed=5)
        return [s.zeta for s in r.samples], [s.zeta for s in r.prev_samples], [
            sums[g].tobytes() for g in (1, 9)]

    ref = outputs(1, None)
    for width in itertools.chain(["default"], forced_block_widths()):
        for workers, chunk in itertools.product((1, 2, 3, config.n0 + 1), (None, 1, 7)):
            assert outputs(workers, chunk) == ref, (width, workers, chunk)


def test_forked_default_path_reproduces_the_pinned_outputs(monkeypatch, forced_split, tmp_path,
                                                           capsys):
    # with the threshold lowered and three CPUs reported, the default path
    # splits even the moment Monte Carlo three ways, and every pinned byte holds
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        forks.append(pid)
        return pid

    forced_split(3)
    monkeypatch.setattr(os, "fork", counted_fork)
    test_acceptance_config_outputs_are_pinned(tmp_path)
    assert len(forks) == 2
    test_single_tree_and_moments_outputs_are_pinned(tmp_path, capsys)
    assert len(forks) == 4


def test_small_runs_and_threaded_callers_stay_serial(monkeypatch, model_half):
    # a fork costs more than it saves below FORK_NODES, and is unsafe beside
    # another thread or impossible without os.fork; the moment workload and
    # the benchmark's 6-replicate determinism re-run stay below the threshold
    assert 100_000 * (2**4 - 1) < harness.FORK_NODES
    assert 6 * (2**16 - 1) < harness.FORK_NODES <= 500 * (2**16 - 1)

    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    want = _sin_sums(model_half)
    monkeypatch.setattr(harness, "FORK_NODES", 1)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        np.testing.assert_array_equal(_sin_sums(model_half), want)
    finally:
        stop.set()
        other.join()
    monkeypatch.delattr(os, "fork")
    np.testing.assert_array_equal(_sin_sums(model_half), want)


@pytest.mark.parametrize("failing, raised, error, message", [
    ("child", ArithmeticError, RuntimeError,
     r"worker for replicates 4\.\.7 exited with status 1: ArithmeticError: no sum here$"),
    ("parent", ArithmeticError, ArithmeticError, "no sum here"),
    ("parent", KeyboardInterrupt, KeyboardInterrupt, "no sum here"),
], ids=["child", "parent", "interrupt"])
def test_a_failed_range_raises_and_reaps_every_child(forced_split, model_half, capfd, failing,
                                                     raised, error, message):
    # replicates 0..3 run here and 4..7, 8..11 in two children: whichever
    # side fails, even by an interrupt in the caller's range, the call
    # raises, no child is left, and neither side wrote a byte
    parent = os.getpid()

    def reduce(states):
        if (os.getpid() != parent) == (failing == "child"):
            raise raised("no sum here")
        return states.sum(axis=1)

    forced_split(3)
    with pytest.raises(error, match=message):
        _sin_sums(model_half, reduce)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert capfd.readouterr() == ("", "")


def test_workers_leave_without_flushing_the_callers_buffers(forced_split, model_half, tmp_path):
    # a child leaves through os._exit: it runs no exit handler and does not
    # write out the caller's unflushed buffers a second time
    forced_split(3)
    log = open(tmp_path / "log", "a")
    log.write("once\n")
    try:
        _sin_sums(model_half)
    finally:
        log.close()
    assert (tmp_path / "log").read_text() == "once\n"


def test_chunk_rows_fit_the_block_budget():
    # the rows shrink as the tracks of a pass grow
    for n, tracks in itertools.product(range(tree_sim.MAX_GENERATION + 1), (1, 2, 3, 5)):
        rows = tree_sim.chunk_rows(n, tracks)
        assert rows >= 1
        assert tracks * rows * min(2**n, tree_sim.MIN_BLOCK_WIDTH) <= tree_sim.BLOCK_ELEMENTS


def test_default_chunk_keeps_blocks_in_budget(monkeypatch, model_half):
    # every block the engine draws stream states for, and every block it
    # yields, across all its tracks, holds at most BLOCK_ELEMENTS cells at
    # the default chunk, at shallow and deep n, however many replicates the
    # run asks for and however many tracks share the pass
    cells = []
    states, blocks = tree_sim.generation_states, tree_sim.generation_blocks

    def recording_states(keys, generation, lo, width):
        cells.append(len(keys) * width)
        return states(keys, generation, lo, width)

    def recording_blocks(tracks, keys, n):
        for g, lo, block in blocks(tracks, keys, n):
            cells.append(block.size)
            yield g, lo, block

    monkeypatch.setattr(tree_sim, "generation_states", recording_states)
    monkeypatch.setattr(tree_sim, "generation_blocks", recording_blocks)
    for n in (3, 10):
        monte_carlo_generation_sums({n: np.sin}, 0.4, model_half, 300, master_seed=2)
    for n, n0 in ((10, 300), (15, 130)):
        run_clt_experiment(_config(n=n, n0=n0))
    three_tracks = [_config(n=10, n0=300, a=a) for a in (0.2, 0.5, 0.9)]
    assert len(harness.run_clt_experiments(three_tracks)) == 3
    assert cells and max(cells) <= tree_sim.BLOCK_ELEMENTS, max(cells)


def test_block_steps_hold_a_small_heap(monkeypatch):
    # every stage of a block step writes into buffers the step owns, and a
    # pending child block is its own array, not a view that keeps its left
    # sibling alive: one serial 128-replicate n = 15 chunk peaks near 1.6 MB
    # of traced heap, against 3.2 MB with a fresh array per stage and views
    monkeypatch.setattr(harness, "FORK_NODES", 2**62)
    cfg = _config(n=15, n0=128, record_previous_generation=True)
    tracemalloc.start()
    try:
        run_clt_experiment(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.25e6, peak


def _fresh_python(code):
    """Standard output of `code`, run by a fresh interpreter that imports
    bartree from this checkout, so that no other test's state counts."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_deep_run_memory_is_bounded():
    # n = 22: a breadth-first engine holds generations of 2^22 columns and
    # peaks above 300 MB; in column blocks the run stays near the
    # interpreter's own footprint. The peak read is VmHWM, the child's own:
    # its ru_maxrss would also hold this test process's peak, which a
    # spawned child takes over at exec.
    code = (
        "from bartree import harness\n"
        "from bartree.harness import ExperimentConfig, run_clt_experiment\n"
        "harness.FORK_NODES = 2**62\n"  # serial: no forked worker's memory
        "run_clt_experiment(ExperimentConfig(a=0.5, sigma=1.0, n=22, gamma=0.201, x=-1.3,"
        " n0=2, scope='tree_n', record_previous_generation=True))\n"
        "print(next(line.split()[1] for line in open('/proc/self/status')"
        " if line.startswith('VmHWM:')))\n"
    )
    peak_mb = int(_fresh_python(code)) / 1024  # VmHWM is in kB
    assert peak_mb < 150, peak_mb


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator policy is glibc's")
def test_block_steps_do_not_fault_their_temporaries_back_in():
    # glibc returns the freed block temporaries to the kernel by default,
    # and the next step faults them back in: about 45,000 minor faults for
    # the second pass below. The driver keeps them, so once a warm-up pass
    # has grown the heap, another pass takes almost none.
    code = (
        "import resource\n"
        "import numpy as np\n"
        "from bartree import harness\n"
        "harness.FORK_NODES = 2**62\n"  # serial: ru_minflt counts this process only
        "def run():\n"
        "    harness._replicate_sums([(0.5, 1.0, 0.0, 1.0)], 256, 3,"
        " None, {15: (0, 15, lambda s: np.sin(s).sum(axis=1))})\n"
        "run()\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "run()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    faults = int(_fresh_python(code))
    assert faults < 1000, faults


def test_master_seed_changes_everything():
    r1 = run_clt_experiment(_config(master_seed=3))
    r2 = run_clt_experiment(_config(master_seed=4))
    z1 = np.array([s.zeta for s in r1.samples])
    z2 = np.array([s.zeta for s in r2.samples])
    assert not np.any(z1 == z2)


def _scalar_spec_zeta(gens, generations, h, x, mu_x):
    """zeta over the union of `generations`, one Parzen sum per generation."""
    K = gaussian_kernel()
    acc = np.float64(0.0)
    for g in generations:
        acc += K.evaluate((x - gens[g]) / h).sum()
    card = sum(gens[g].size for g in generations)
    return np.sqrt(card) * np.sqrt(h) * (acc / (card * h) - mu_x)


@pytest.mark.parametrize("scope", [GENERATION_SCOPE, TREE_SCOPE])
def test_clt_zetas_match_scalar_spec(scope, spec_tree):
    # every replicate rebuilt from its own streams; two chunks, the second
    # one short, so a swap of children or of key rows shows
    cfg = _config(n=4, n0=3, scope=scope, record_previous_generation=True)
    res = run_clt_experiment(cfg, chunk_size=2)
    schedule = BandwidthSchedule(cfg.gamma)
    h, h_prev = bandwidth(cfg.n, schedule), bandwidth(cfg.n - 1, schedule)
    model = BarModel(cfg.a, cfg.sigma)
    mu_x = invariant_density(cfg.x, model)
    root = stationary_initial(model)
    members = range(cfg.n + 1) if scope == TREE_SCOPE else [cfg.n]
    for r in range(cfg.n0):
        gens = spec_tree((cfg.a, cfg.sigma, root.m0, root.rho0), cfg.n,
                         ReplicateSeed(cfg.master_seed, r))
        assert res.samples[r].zeta == _scalar_spec_zeta(gens, members, h, cfg.x, mu_x)
        want_prev = _scalar_spec_zeta(gens, [cfg.n - 1], h_prev, cfg.x, mu_x)
        assert res.prev_samples[r].zeta == want_prev


def test_grouping_is_invisible(monkeypatch, forced_split, forced_block_widths):
    # one group holds two values of a, both scopes, the previous generation,
    # a point-mass root beside a stationary one, two configs on one track,
    # a tree-scope twin that shares its generation-7 tally with the first
    # config, and four values of n0; every result is its config's solo run
    # bit for bit (bar the wall time), at any worker count and block width.
    # Configs of another seed or another n make groups of their own.
    group = [
        _config(n=7, n0=9, record_previous_generation=True),
        _config(n=7, n0=5, a=0.7, scope=TREE_SCOPE),
        _config(n=7, n0=12, a=0.7, initial=GaussianInitial(0.4, 0.0),
                record_previous_generation=True),
        _config(n=7, n0=3, gamma=0.3, x=0.2),  # the first config's track
        _config(n=7, n0=9, scope=TREE_SCOPE, record_previous_generation=True),
    ]
    others = [_config(n=7, n0=4, master_seed=4), _config(n=6, n0=4)]
    configs = group[:2] + others[:1] + group[2:] + others[1:]
    timeless = lambda r: dataclasses.replace(r, wall_time_seconds=0.0)
    solo = [timeless(run_clt_experiment(c)) for c in configs]
    passes = []
    replicate_sums = harness._replicate_sums

    def recording(tracks, reps, master_seed, chunk_size, terms):
        n = max(g for _, g, _ in terms.values())
        passes.append((len(tracks), n, reps, master_seed))
        return replicate_sums(tracks, reps, master_seed, chunk_size, terms)

    monkeypatch.setattr(harness, "_replicate_sums", recording)
    for width in itertools.chain(["default"], forced_block_widths()):
        for workers in (1, 2, 3):
            forced_split(workers)
            passes.clear()
            results = harness.run_clt_experiments(configs)
            assert [timeless(r) for r in results] == solo, (width, workers)
            assert sorted(passes) == [(1, 6, 4, 3), (1, 7, 4, 4), (3, 7, 12, 3)]
            group_times = {results[i].wall_time_seconds for i in (0, 1, 3, 4, 5)}
            assert len(group_times) == 1


def test_each_distinct_tally_is_made_once(monkeypatch):
    # zeta_7 over G_7 and over T_7 both sum generation 7 at (x, h_7) on one
    # track: in one pass that tally is made once, so the pair makes as many
    # Parzen sums as the tree config alone, one per generation of its one
    # chunk and one-block generations
    monkeypatch.setattr(harness, "FORK_NODES", 2**62)  # serial: every call is in this process
    calls = []

    def counting(*args):
        calls.append(args)
        return parzen_sum(*args)

    monkeypatch.setattr(harness, "parzen_sum", counting)
    gen = _config(n=7)
    tree = dataclasses.replace(gen, scope=TREE_SCOPE)
    counts = []
    for configs in ([tree], [gen, tree]):
        calls.clear()
        harness.run_clt_experiments(configs)
        counts.append(len(calls))
    assert counts == [8, 8]


# -- previous-generation recording ----------------------------------------------

def test_record_previous_generation():
    res = run_clt_experiment(_config(record_previous_generation=True))
    assert res.prev_samples is not None and len(res.prev_samples) == 17
    for s in res.prev_samples:
        assert s.n == 5
        assert s.scope == GENERATION_SCOPE
        assert math.isfinite(s.zeta)
    # recording must not perturb the main samples
    plain = run_clt_experiment(_config())
    assert [s.zeta for s in res.samples] == [s.zeta for s in plain.samples]


# -- tree scope ------------------------------------------------------------------

def test_tree_scope_run():
    res = run_clt_experiment(_config(scope=TREE_SCOPE))
    assert all(s.scope == TREE_SCOPE for s in res.samples)
    assert all(math.isfinite(s.zeta) for s in res.samples)
    gen = run_clt_experiment(_config())
    assert [s.zeta for s in res.samples] != [s.zeta for s in gen.samples]


# -- KS distance -----------------------------------------------------------------

def test_ks_quantile_self_consistency():
    n0, v = 500, VAR_GEN_A05_X13
    quantiles = math.sqrt(v) * ndtri(np.arange(1, n0 + 1) / (n0 + 1))
    d = ks_distance(quantiles, v)
    assert abs(d - 1.0 / (n0 + 1)) < 1e-9
    assert d <= 1.0 / n0 + 1e-12


def test_ks_point_mass_is_half():
    assert ks_distance(np.zeros(10), 1.0) == 0.5


def test_ks_detects_wrong_scale():
    # N(0,4) against variance 1: the population distance is
    # sup_t |Phi(t/2) - Phi(t)| = 0.1613..., attained near t = 1.36
    rng = np.random.default_rng(7)
    d = ks_distance(rng.normal(0.0, 2.0, size=500), 1.0)
    assert 0.12 < d < 0.21


def test_ks_validation():
    with pytest.raises(ValueError):
        ks_distance([0.1, 0.2], 0.0)
    with pytest.raises(ValueError):
        ks_distance([0.1, 0.2], -1.0)
    with pytest.raises(ValueError):
        ks_distance([], 1.0)


def _ks_with_ndtr(samples, variance):
    """The KS distance with scipy's Phi: the reference for the package's erfc."""
    z = np.sort(np.asarray(samples, dtype=float))
    F = ndtr(z / math.sqrt(variance))
    i = np.arange(1, z.size + 1)
    return float(max(np.max(i / z.size - F), np.max(F - (i - 1) / z.size)))


def test_ks_agrees_with_ndtr_reference():
    # samples of variance scale^2 * variance: a good fit, a wide and a narrow one;
    # the two CDFs differ by at most 1 ulp of 1.0, and the distance by at most two
    rng = np.random.default_rng(11)
    for variance in (1e-3, VAR_GEN_A05_X13, 1.0, 9.0, 400.0):
        for scale in (0.5, 1.0, 3.0):
            for size in (1, 7, 500):
                z = rng.normal(0.0, scale * math.sqrt(variance), size=size)
                assert abs(ks_distance(z, variance) - _ks_with_ndtr(z, variance)) <= 4.5e-16


def test_acceptance_config_outputs_are_pinned(tmp_path):
    # the determinism contract at the headline config: these SHA-256 values
    # have held since the one-engine refactor, whatever the chunking
    cfg = ExperimentConfig(
        a=0.5, sigma=1.0, n=15, gamma=0.201, x=-1.3, n0=500,
        scope=GENERATION_SCOPE, record_previous_generation=True,
    )
    res = run_clt_experiment(cfg)
    csv = export(res, "csv", str(tmp_path))
    summary = json.load(open(export(res, "json", str(tmp_path))))
    summary.pop("wall_time_seconds")
    summary_bytes = (json.dumps(summary, indent=2, sort_keys=True) + "\n").encode()
    assert hashlib.sha256(open(csv, "rb").read()).hexdigest() == (
        "0dd7af1a0cf6f2111b18f1ee142b2c8fc6573cba6d8a508fd1ee543818b6ee1f"
    )
    assert hashlib.sha256(summary_bytes).hexdigest() == (
        "b582193b68438f2d740f646c6587dddcb09d9472a38f7bcd10042e63e72c3df9"
    )


def test_single_tree_and_moments_outputs_are_pinned(tmp_path, capsys):
    # the determinism contract on the CLI's other paths: one stored tree,
    # the density estimate on it and the moment Monte Carlo table; these
    # SHA-256 values have held since the one-engine refactor
    dump = tmp_path / "tree.csv"
    assert main(["simulate", "--a", "0.5", "--n", "15", "--seed", "7", "--dump", str(dump)]) == 0
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == (
        "cb718b629c7b8e56a357be8f65900c64588ee75414ed945e762e0e3816103fd4"
    )
    capsys.readouterr()
    runs = [
        (["estimate", "--a", "0.5", "--n", "15", "--gamma", "0.201", "--scope", "tree",
          "--x=-1.3,0.0,1.3", "--seed", "7"],
         "6453c6c7b4be7b4b38e0a3908d24e916280f5c882891dc1fee4873566109de78"),
        (["moments", "--f", "square", "--n", "3", "--m", "2", "--x", "0.4", "--a", "0.5",
          "--reps", "100000"],
         "6ea939515984c12f6eb1d6334ee82b697e1f9e67dd9b00df7fe003fd40577cdf"),
    ]
    for argv, digest in runs:
        assert main(argv) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# -- histogram -------------------------------------------------------------------

def test_histogram_known_answer():
    h = histogram([0.0, 0.0, 1.0, 1.0], 2)
    assert not h.degenerate
    np.testing.assert_allclose(h.edges, [0.0, 0.5, 1.0])
    np.testing.assert_allclose(h.densities, [1.0, 1.0])


def test_histogram_unit_area():
    rng = np.random.default_rng(8)
    h = histogram(rng.normal(size=1000), 31)
    area = np.sum(h.densities * np.diff(h.edges))
    assert abs(area - 1.0) < 1e-12


def test_histogram_degenerate():
    h = histogram([2.5, 2.5, 2.5], 4)
    assert h.degenerate
    assert h.densities.size == 0


def test_histogram_recovers_gaussian_shape():
    rng = np.random.default_rng(9)
    h = histogram(rng.normal(size=100_000), 50)
    mids = 0.5 * (h.edges[:-1] + h.edges[1:])
    phi = np.exp(-0.5 * mids**2) / math.sqrt(2 * math.pi)
    assert np.max(np.abs(h.densities - phi)) < 0.02


def test_histogram_validation():
    with pytest.raises(ValueError):
        histogram([], 4)
    with pytest.raises(ValueError):
        histogram([1.0], 0)


# -- independence report ----------------------------------------------------------

def test_independence_validation():
    with pytest.raises(ValueError):
        independence_report(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        independence_report(np.zeros((10, 3)))


def test_independence_degenerate():
    pairs = np.column_stack([np.ones(10), np.arange(10.0)])
    rep = independence_report(pairs)
    assert rep.degenerate and not rep.passed
    assert math.isnan(rep.correlation)


def test_independence_accepts_independent_columns():
    rng = np.random.default_rng(10)
    rep = independence_report(rng.normal(size=(1000, 2)))
    assert not rep.degenerate
    assert rep.threshold == pytest.approx(3.0 / math.sqrt(1000))
    assert rep.passed


def test_independence_rejects_perfect_correlation():
    z = np.linspace(-1, 1, 50)
    rep = independence_report(np.column_stack([z, 2 * z]))
    assert abs(rep.correlation - 1.0) < 1e-12
    assert not rep.passed


# -- export ----------------------------------------------------------------------

@pytest.fixture()
def tiny_run():
    return run_clt_experiment(_config(n=4, n0=2))


def test_export_csv_layout(tiny_run, tmp_path):
    out = export(tiny_run, "csv", str(tmp_path))
    raw = open(out, "rb").read()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "replicate,zeta,scope,n,gamma,x,seed"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "0" and first[2] == GENERATION_SCOPE and first[3] == "4"
    assert float(first[1]) == tiny_run.samples[0].zeta


def test_export_csv_is_byte_stable(tiny_run, tmp_path):
    p1 = export(tiny_run, "csv", str(tmp_path / "a"))
    rerun = run_clt_experiment(_config(n=4, n0=2))
    p2 = export(rerun, "csv", str(tmp_path / "b"))
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_export_json_roundtrip(tiny_run, tmp_path):
    out = export(tiny_run, "json", str(tmp_path))
    summary = json.load(open(out))
    assert config_from_dict(summary["config"]) == tiny_run.config
    assert summary["ks_distance"] == tiny_run.ks_distance
    assert summary["admissible"] is True

    rerun = run_clt_experiment(_config(n=4, n0=2))
    out2 = export(rerun, "json", str(tmp_path / "again"))
    s2 = json.load(open(out2))
    summary.pop("wall_time_seconds")
    s2.pop("wall_time_seconds")
    assert summary == s2


def test_export_json_is_strict(tiny_run, tmp_path):
    # a non-finite value raises instead of writing a NaN token
    bad = dataclasses.replace(tiny_run, ks_distance=float("nan"))
    with pytest.raises(ValueError, match="JSON compliant"):
        export(bad, "json", str(tmp_path))
    assert not (tmp_path / "summary.json").exists()


def test_export_unknown_format(tiny_run, tmp_path):
    with pytest.raises(ValueError, match="format"):
        export(tiny_run, "parquet", str(tmp_path))


def test_export_ecdf_file(tiny_run, tmp_path):
    out = export_ecdf(tiny_run, str(tmp_path))
    lines = open(out).read().splitlines()
    assert lines[0] == "zeta,ecdf"
    assert len(lines) == 3
    assert float(lines[2].split(",")[1]) == 1.0


def test_exports_create_their_directory(tiny_run, tmp_path):
    # as export does, the ECDF and histogram exports make a missing directory
    fresh = tmp_path / "new" / "x"
    assert export_ecdf(tiny_run, str(fresh)) == str(fresh / "ecdf.csv")
    assert export_histogram(tiny_run, str(fresh)) == str(fresh / "histogram.csv")
    assert sorted(p.name for p in fresh.iterdir()) == ["ecdf.csv", "histogram.csv"]


def test_export_histogram_default_bins(std_run, tmp_path):
    out = export_histogram(std_run, str(tmp_path))
    lines = open(out).read().splitlines()
    assert lines[0] == "bin_left,bin_right,density"
    assert len(lines) == 1 + math.ceil(math.sqrt(300))


def test_export_histogram_degenerate_writes_header_only(tmp_path):
    res = run_clt_experiment(_config(n=4, n0=1))
    out = export_histogram(res, str(tmp_path))
    lines = open(out).read().splitlines()
    assert lines == ["bin_left,bin_right,density"]


# -- config dict round trip --------------------------------------------------------

def test_config_dict_roundtrip():
    cfg = _config(initial=GaussianInitial(m0=0.4, rho0=0.9))
    d = dataclasses.asdict(cfg)
    assert d["initial"] == {"m0": 0.4, "rho0": 0.9}
    assert config_from_dict(d) == cfg
    assert json.loads(json.dumps(d)) == d

    cfg2 = _config()
    assert config_from_dict(dataclasses.asdict(cfg2)) == cfg2

    d["initial"] = {"m0": 0, "rho0": 1}  # an int is a float, as for the scalar fields
    assert config_from_dict(d).initial == GaussianInitial(m0=0, rho0=1)


def test_an_int_initial_writes_the_float_initials_bytes(tmp_path):
    # GaussianInitial stores an int as a float, so a config built in code
    # with GaussianInitial(0, 1) writes the bytes of GaussianInitial(0.0, 1.0)
    written = []
    for name, initial in (("int", GaussianInitial(0, 1)), ("float", GaussianInitial(0.0, 1.0))):
        res = run_clt_experiment(_config(n=4, n0=5, initial=initial))
        out = tmp_path / name
        export(res, "csv", str(out))
        export(res, "json", str(out))
        summary = (out / "summary.json").read_text().splitlines()
        summary = [line for line in summary if '"wall_time_seconds"' not in line]
        written.append(((out / "samples.csv").read_bytes(), summary))
    assert written[0] == written[1]
    assert {'      "m0": 0.0,', '      "rho0": 1.0'} <= set(written[0][1])


# the CLI's usage-error test covers a missing rho0, an unknown key and a word m0
@pytest.mark.parametrize(
    "initial, message",
    [
        ({"rho0": 1.0}, "config field 'initial' is missing key 'm0'"),
        ({"m0": 0.0, "rho0": True}, "config field 'initial.rho0' must be float, got True"),
        ({"m0": 0.0, "rho0": None}, "config field 'initial.rho0' must be float, got None"),
    ],
    ids=["no_m0", "bool_rho0", "null_rho0"],
)
def test_config_from_dict_refuses_bad_initial(initial, message):
    d = dataclasses.asdict(_config())
    d["initial"] = initial
    with pytest.raises(ValueError) as exc:
        config_from_dict(d)
    assert str(exc.value) == message


# -- Monte Carlo generation sums ----------------------------------------------------

def test_monte_carlo_sums_match_scalar_recursion(model_half, spec_tree):
    n, reps, ms = 3, 4, 21
    x = 0.8
    f0 = lambda y: np.asarray(y, dtype=float)
    f3 = lambda y: np.asarray(y, dtype=float) ** 2
    sums = monte_carlo_generation_sums({0: f0, 3: f3}, x, model_half, reps, master_seed=ms)
    assert set(sums.keys()) == {0, 3}
    assert sums[0].shape == (reps,) and sums[3].shape == (reps,)
    np.testing.assert_array_equal(sums[0], np.full(reps, x))

    track = (model_half.a, model_half.sigma, x, 0.0)  # the root pinned at x
    for r in range(reps):
        want = float(np.sum(f3(spec_tree(track, n, ReplicateSeed(ms, r))[n])))
        assert sums[3][r] == want


def test_narrow_monte_carlo_sums_match_the_spec_tree_bit_for_bit(model_half, spec_tree):
    # generations 1 and 2 are 2 and 4 columns wide, below numpy's 8-column
    # pairwise block, where the chunk driver sums them a column at a time
    reps, ms, x = 20, 9, -0.6
    fs = {1: lambda y: np.asarray(y, dtype=float), 2: lambda y: np.asarray(y, dtype=float) ** 2}
    sums = monte_carlo_generation_sums(fs, x, model_half, reps, master_seed=ms)
    track = (model_half.a, model_half.sigma, x, 0.0)
    for r in range(reps):
        tree = spec_tree(track, 2, ReplicateSeed(ms, r))
        for g, f in fs.items():
            want = float(np.sum(f(tree[g])))
            assert sums[g][r].tobytes() == np.float64(want).tobytes(), (g, r)
