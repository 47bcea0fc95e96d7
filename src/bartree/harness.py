"""Monte Carlo experiment runner: CLT replication, ECDF/KS, exports.

A run simulates n0 independent BAR trees (one replicate seed each),
evaluates the kernel density estimator at the query point over the
configured scope, turns each estimate into the fluctuation statistic
zeta, and compares the n0 zeta samples against the theoretical Gaussian
limit through the Kolmogorov-Smirnov distance. Runs of one master seed and
depth share one pass: each draw serves all their models and root laws. The
chunk driver adds generation sums by key, and the runner adds scopes and
makes each distinct (track, generation, kernel, x, h) tally once.

A large run splits its replicates into one range per usable CPU, all but the
first in forked workers, a range into vectorized chunks and a chunk's trees
into column blocks. Every random draw is a pure function of (master seed,
replicate index, node address), and block sums are merged in numpy's
pairwise order, so the worker count, chunk size, block width and execution
order cannot change a bit of the output for a given config.

A process that runs the chunk driver keeps the memory it frees. Each block
step allocates and frees a dozen or so 128 KiB block arrays; glibc's malloc
would hand them back to the kernel (trim threshold) or map them afresh (mmap
threshold), and the next step would fault every page back in. Before its
first chunk the driver raises both thresholds, once per process, and forked
workers inherit them; the trim threshold alone would turn off glibc's
adaptive mmap threshold and fault more. The cost: after a run a process
keeps up to 64 MiB of freed heap; peak resident memory does not rise. This
applies to glibc only: where the C library has no mallopt, nothing is set.
"""

import ctypes
import functools
import json
import math
import os
import threading
import time
from dataclasses import asdict, dataclass
from typing import List, Optional, Union

import numpy as np

from . import tree_sim
from .bar_model import BarModel, GaussianInitial, invariant_density, stationary_initial
from .fluctuations import FluctuationSample, theoretical_limit, zeta
from .smoothing import (
    BandwidthSchedule,
    RegimeReport,
    admissible_bandwidth,
    bandwidth,
    gaussian_kernel,
    parzen_sum,
)
from .tree_sim import GENERATION_SCOPE

KERNELS = {"gaussian": gaussian_kernel}

# The work limit of one run, in simulated nodes: 2^33 is about 7 min of
# one CPU at ~50 ns per node, and admits the deepest recorded run (n=22, n0=500).
MAX_NODES = 2**33

# The smallest run split across worker processes: 2^22 nodes take about
# 0.2 s on one CPU, while each process of a split run takes about 1,000
# copy-on-write page faults; a two-way split of a 100k-replicate n = 1 run
# took 20 ms against 10 ms serial.
FORK_NODES = 2**22

# glibc malloc thresholds set by _keep_freed_memory: allocations below
# MALLOC_MMAP_THRESHOLD come from the heap, and the heap keeps up to
# MALLOC_TRIM_THRESHOLD of free memory at its top.
MALLOC_MMAP_THRESHOLD = 32 << 20
MALLOC_TRIM_THRESHOLD = 64 << 20


@functools.cache
def _keep_freed_memory():
    """Raise glibc's mmap and trim thresholds (module docstring); a no-op
    where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library by None
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, MALLOC_MMAP_THRESHOLD)  # M_MMAP_THRESHOLD
    mallopt(-1, MALLOC_TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


@dataclass(frozen=True)
class ExperimentConfig:
    """One CLT run: zeta_n at x over `scope` from n0 trees of depth n, and
    zeta_{n-1} over G_{n-1} with `record_previous_generation`.

    Construction is the gate: __post_init__ refuses every config that cannot
    run, whether built in code, by config_from_dict or by dataclasses.replace,
    starting with a scalar not of its annotated type, and stores each float
    field as a float. Only the work (n0 >= 1, MAX_NODES) is admitted later,
    by the runner.
    """

    a: float
    sigma: float
    n: int
    gamma: float
    x: float
    n0: int
    scope: str = GENERATION_SCOPE
    kernel_name: str = "gaussian"
    master_seed: int = 0
    initial: Union[str, GaussianInitial] = "stationary"
    record_previous_generation: bool = False

    def __post_init__(self):
        for name, kind in self.__annotations__.items():
            value = getattr(self, name)
            kinds = (int, float) if kind is float else (kind,)  # exact: a bool is no int
            if kind in (int, float, bool, str) and type(value) not in kinds:
                raise ValueError(f"config field {name!r} must be {kind.__name__}, got {value!r}")
            if kind is float:  # an int given for a float is written as one
                object.__setattr__(self, name, float(value))
        BarModel(self.a, self.sigma)._require_noise("CLT experiment")
        BandwidthSchedule(self.gamma)
        if self.kernel_name not in KERNELS:
            raise ValueError(f"unknown kernel {self.kernel_name!r}")
        tree_sim.scope_generations(self.scope, self.n)  # rejects an unknown scope
        tree_sim.check_depth(self.n)
        if self.record_previous_generation and self.n < 1:
            raise ValueError("record_previous_generation needs n >= 1")
        if self.initial != "stationary" and not isinstance(self.initial, GaussianInitial):
            raise ValueError(f"initial must be 'stationary' or GaussianInitial: {self.initial!r}")
        if not math.isfinite(self.x):
            raise ValueError(f"query point x must be finite, got {self.x}")


@dataclass(frozen=True)
class CltRunResult:
    samples: List[FluctuationSample]
    theoretical_variance: float
    ks_distance: float
    sample_mean: float
    sample_variance: float
    admissibility: RegimeReport
    wall_time_seconds: float
    config: ExperimentConfig
    prev_samples: Optional[List[FluctuationSample]] = None


def _admitted_nodes(n, reps):
    """Nodes in `reps` trees of depth n, refused below one tree or above MAX_NODES."""
    if reps < 1:
        raise ValueError(f"need at least one replicate, got {reps}")
    nodes = reps * ((1 << (n + 1)) - 1)
    if nodes > MAX_NODES:
        raise ValueError(
            f"{reps} x (2^{n + 1} - 1) = {nodes:.3g} nodes exceeds the work "
            f"limit MAX_NODES = {MAX_NODES:.3g}"
        )
    return nodes


def _replicate_sums(tracks, reps, master_seed, chunk_size, terms):
    """Per-replicate generation sums over trees 0..reps-1 of `master_seed`,
    as deep as the deepest term, for every track (a, sigma, m0, rho0) in one
    engine pass.

    `terms` maps a key to (track, g, reduce); the result maps it to the row
    of, per replicate, reduce of each (replicates, columns) block of
    generation g of tracks[track]'s trees, merged in numpy's pairwise order
    (tree_sim.merge_block_sum) into the whole generation's sum bit for bit.
    Replicates run `chunk_size` at a time (None: tree_sim.chunk_rows), in one
    contiguous range per usable CPU from FORK_NODES nodes up in a process
    with os.fork and one Python thread (else one range), all but the first in
    forked children; neither split, chunking, block width nor the other
    tracks change a bit. The work is admitted up front; an admitted run first
    makes this process keep the memory it frees (_keep_freed_memory).
    """
    n = max(g for _, g, _ in terms.values())
    nodes = _admitted_nodes(n, reps)
    if chunk_size is None:
        chunk_size = tree_sim.chunk_rows(n, len(tracks))
    elif chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    _keep_freed_memory()
    out = np.empty((len(terms), reps))

    def fill(first, last):
        for start in range(first, last, chunk_size):
            stop = min(start + chunk_size, last)
            keys = tree_sim.replicate_keys(master_seed, start, stop)
            stacks = [[] for _ in terms]  # each term's carry stack of block sums
            for g, _, states in tree_sim.generation_blocks(tracks, keys, n):
                for stack, (track, term_g, reduce) in zip(stacks, terms.values()):
                    if term_g == g:
                        tree_sim.merge_block_sum(stack, reduce(states[track]))
            for row, stack in zip(out, stacks):
                row[start:stop] = stack[0][1]
        return out[:, first:last]

    workers = 1
    may_fork = hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
    if may_fork and nodes >= FORK_NODES and threading.active_count() == 1:
        workers = min(len(os.sched_getaffinity(0)), reps)  # one per usable CPU
    bounds = [reps * w // workers for w in range(workers + 1)]
    children = {}  # pid -> (first, last, read end of its pipe)
    try:
        for first, last in zip(bounds[1:-1], bounds[2:]):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child leaves only by os._exit: no exit handler, no flush
                code = 1
                try:
                    with open(write_fd, "wb") as pipe:
                        try:
                            pipe.write(fill(first, last).tobytes())
                            code = 0
                        except BaseException as exc:
                            pipe.write(f"{type(exc).__name__}: {exc}".encode())
                finally:
                    os._exit(code)
            os.close(write_fd)
            children[pid] = (first, last, open(read_fd, "rb"))
        fill(bounds[0], bounds[1])
        for pid, (first, last, pipe) in list(children.items()):
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code or len(data) != out[:, first:last].nbytes:
                raise RuntimeError(f"worker for replicates {first}..{last - 1} exited with "
                                   f"status {code}: {data.decode(errors='replace')[:300]}")
            out[:, first:last] = np.frombuffer(data).reshape(-1, last - first)
    finally:
        for pid, (_, _, pipe) in children.items():  # left only by an error
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
            pipe.close()
    return dict(zip(terms, out))


def run_clt_experiment(config: ExperimentConfig, chunk_size: Optional[int] = None) -> CltRunResult:
    """Run the full CLT experiment for `config`: run_clt_experiments on it alone.

    `chunk_size`, the replicates simulated together (None: tree_sim.chunk_rows),
    cannot change a bit; it is kept for the benchmark's determinism check,
    which re-runs a few replicates at a small chunk.
    """
    return run_clt_experiments([config], chunk_size)[0]


def run_clt_experiments(configs, chunk_size: Optional[int] = None) -> List[CltRunResult]:
    """Run the CLT experiment for every config; results in their order.

    Configs that share (master_seed, n) make a group: one engine pass over
    its distinct tracks (a, sigma, m0, rho0) and distinct tallies, to its
    largest n0. Each statistic adds its scope's tallies on its own track over
    its config's first n0 replicates. A replicate's sums depend on its key
    alone, so each result is its config's solo one bit for bit, bar
    wall_time_seconds: its group's pass.
    """
    groups = {}
    for i, config in enumerate(configs):  # admitting every config first admits every group
        _admitted_nodes(config.n, config.n0)
        groups.setdefault((config.master_seed, config.n), []).append(i)
    results = [None] * len(configs)
    for (master_seed, n), group in groups.items():
        t0 = time.perf_counter()
        tracks, terms, plans = {}, {}, []  # tracks: (a, sigma, m0, rho0) -> its index
        for i in group:
            config = configs[i]
            model = BarModel(config.a, config.sigma)
            schedule = BandwidthSchedule(config.gamma)
            K = KERNELS[config.kernel_name]()
            initial = (stationary_initial(model) if config.initial == "stationary"
                       else config.initial)
            t = tracks.setdefault((config.a, config.sigma, initial.m0, initial.rho0), len(tracks))
            # (scope, depth) of each statistic: zeta_n over A_n, then zeta_{n-1} over G_{n-1}
            stats = [(config.scope, n)]
            if config.record_previous_generation:
                stats.append((GENERATION_SCOPE, n - 1))
            stats = [(scope, g, bandwidth(g, schedule)) for scope, g in stats]
            for scope, g, h in stats:  # one tally per key, however many statistics read it
                for gen in tree_sim.scope_generations(scope, g):
                    terms.setdefault((t, gen, config.kernel_name, config.x, h), (
                        t, gen, lambda s, K=K, x=config.x, h=h: parzen_sum(K, x, s, h)))
            plans.append((i, config, model, schedule, K, t, stats))
        reps = max(configs[i].n0 for i in group)
        rows = _replicate_sums(list(tracks), reps, master_seed, chunk_size, terms)
        wall = time.perf_counter() - t0
        for i, config, model, schedule, K, t, stats in plans:
            mu_x = invariant_density(config.x, model)
            limit_var = theoretical_limit(config.x, K, model)
            zetas, samples = [], []
            for scope, g, h in stats:
                # generations added in ascending order from -0.0, the exact additive identity
                total = sum((rows[t, gen, config.kernel_name, config.x, h][: config.n0]
                             for gen in tree_sim.scope_generations(scope, g)), -0.0)
                card = tree_sim.scope_size(scope, g)
                zetas.append(zeta(total / (card * h), mu_x, card, h))
                samples.append([
                    FluctuationSample(float(z), scope, g, config.gamma, config.x, r, master_seed)
                    for r, z in enumerate(zetas[-1])
                ])
            results[i] = CltRunResult(
                samples=samples[0],
                theoretical_variance=limit_var,
                ks_distance=ks_distance(zetas[0], limit_var),
                sample_mean=float(np.mean(zetas[0])),
                sample_variance=float(np.var(zetas[0], ddof=1)) if config.n0 > 1 else 0.0,
                admissibility=admissible_bandwidth(schedule, K.order, model.alpha),
                wall_time_seconds=wall,
                config=config,
                prev_samples=samples[1] if len(samples) > 1 else None,
            )
    return results


def ks_distance(samples, variance: float) -> float:
    """sup_t |ECDF(t) - Phi(t / sqrt(variance))|, evaluated at both
    one-sided limits of every jump.

    Phi(t) = erfc(-t / sqrt 2) / 2 comes from math.erfc; it agrees with
    scipy.special.ndtr to within 1 ulp of 1.0 (2.2e-16).
    """
    if variance <= 0:
        raise ValueError("variance must be positive")
    z = np.sort(np.asarray(samples, dtype=float))
    if z.size == 0:
        raise ValueError("empty sample")
    root2 = math.sqrt(2.0)
    F = np.array([0.5 * math.erfc(-t / root2) for t in (z / math.sqrt(variance)).tolist()])
    i = np.arange(1, z.size + 1)
    upper = np.max(i / z.size - F)
    lower = np.max(F - (i - 1) / z.size)
    return float(max(upper, lower))


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray
    densities: np.ndarray
    degenerate: bool


def histogram(samples, bin_count: int) -> Histogram:
    """Equal-width density-normalized histogram over [min, max]."""
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("empty sample")
    lo, hi = float(np.min(samples)), float(np.max(samples))
    if lo == hi:
        return Histogram(
            edges=np.array([lo, hi]), densities=np.array([]), degenerate=True
        )
    dens, edges = np.histogram(samples, bins=bin_count, range=(lo, hi), density=True)
    return Histogram(edges=edges, densities=dens, degenerate=False)


@dataclass(frozen=True)
class IndependenceReport:
    correlation: float
    threshold: float
    passed: bool
    degenerate: bool


def independence_report(pairs) -> IndependenceReport:
    """Pearson correlation of paired zeta samples with a 3/sqrt(n0) flag."""
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must have shape (n, 2)")
    if pairs.shape[0] < 3:
        raise ValueError("need at least 3 pairs")
    threshold = 3.0 / math.sqrt(pairs.shape[0])
    a = pairs[:, 0] - pairs[:, 0].mean()
    b = pairs[:, 1] - pairs[:, 1].mean()
    sa, sb = np.sqrt(np.sum(a * a)), np.sqrt(np.sum(b * b))
    if sa == 0.0 or sb == 0.0:
        return IndependenceReport(
            correlation=float("nan"), threshold=threshold, passed=False, degenerate=True
        )
    corr = float(np.sum(a * b) / (sa * sb))
    return IndependenceReport(
        correlation=corr,
        threshold=threshold,
        passed=abs(corr) < threshold,
        degenerate=False,
    )


def monte_carlo_generation_sums(
    f_by_gen: dict,
    x: float,
    model: BarModel,
    reps: int,
    master_seed: int = 0,
) -> dict:
    """Per-replicate M_{G_g}(f_g) = sum_{u in G_g} f_g(X_u) with the root
    fixed at x, for every g in f_by_gen, from the same trees of depth
    max(f_by_gen), tree_sim.chunk_rows at a time.

    This is the simulation side of the moment-oracle comparison: the
    root is deterministic because the oracle moments are conditional
    on X_root = x.
    """
    if not f_by_gen or min(f_by_gen) < 0:
        raise ValueError(f"need generations >= 0, got {sorted(f_by_gen)}")
    model._require_noise("moment Monte Carlo")
    track = (model.a, model.sigma, float(x), 0.0)  # the root pinned at x
    terms = {g: (0, g, lambda s, f=f: tree_sim.row_sums(f(s))) for g, f in f_by_gen.items()}
    return _replicate_sums([track], reps, master_seed, None, terms)


# -- exports -----------------------------------------------------------------

def config_from_dict(d: dict) -> ExperimentConfig:
    """ExperimentConfig from its fields; an `initial` object must be exactly
    {"m0": float, "rho0": float}, and the config checks the rest."""
    d = dict(d)
    init = d.get("initial", "stationary")
    if isinstance(init, dict):
        keys = ("m0", "rho0")
        for key in (*keys, *init):
            if key not in init:
                raise ValueError(f"config field 'initial' is missing key {key!r}")
            if key not in keys:
                raise ValueError(f"config field 'initial' has unknown key {key!r}")
            if type(init[key]) not in (int, float):
                raise ValueError(f"config field 'initial.{key}' must be float, got {init[key]!r}")
        d["initial"] = GaussianInitial(init["m0"], init["rho0"])
    return ExperimentConfig(**d)


def _write(path: str, name: str, header: str, rows=()) -> str:
    """Write `header`, then each row as it comes, to file `name` in
    directory `path`; returns the file."""
    os.makedirs(path, exist_ok=True)
    out = os.path.join(path, name)
    with open(out, "w", newline="") as fh:
        fh.write(header)
        fh.writelines(rows)
    return out


def export(result: CltRunResult, format: str, path: str) -> str:
    """Write samples.csv (format='csv') or summary.json (format='json')
    into directory `path`; returns the file written.

    The CSV is byte-stable for a given config; the JSON is too except
    for wall_time_seconds, which is a measurement of the run, not of
    the configuration.
    """
    if format == "csv":
        return _write(path, "samples.csv", "replicate,zeta,scope,n,gamma,x,seed\n", (
            f"{s.replicate_index},{s.zeta!r},{s.scope},{s.n},{s.gamma!r},{s.x!r},{s.seed}\n"
            for s in result.samples))
    if format == "json":
        summary = {
            "config": asdict(result.config),  # a GaussianInitial becomes {"m0", "rho0"}
            "theoretical_variance": result.theoretical_variance,
            "ks_distance": result.ks_distance,
            "sample_mean": result.sample_mean,
            "sample_variance": result.sample_variance,
            "admissible": result.admissibility.admissible,
            "wall_time_seconds": result.wall_time_seconds,
        }
        # strict JSON: a non-finite value raises before the file is opened
        text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
        return _write(path, "summary.json", text + "\n")
    raise ValueError(f"unknown export format {format!r}")


def export_ecdf(result: CltRunResult, path: str) -> str:
    """zeta,ecdf CSV in directory `path`: the sorted zetas, k/n0 at the k-th."""
    zetas = sorted(s.zeta for s in result.samples)
    return _write(path, "ecdf.csv", "zeta,ecdf\n", (
        f"{v!r},{k / len(zetas)!r}\n" for k, v in enumerate(zetas, start=1)))


def export_histogram(result: CltRunResult, path: str, bin_count: Optional[int] = None) -> str:
    """bin_left,bin_right,density CSV in directory `path`; default bin count ceil(sqrt(n0))."""
    if bin_count is None:
        bin_count = math.ceil(math.sqrt(len(result.samples)))
    hist = histogram([s.zeta for s in result.samples], bin_count)
    rows = [] if hist.degenerate else zip(hist.edges[:-1], hist.edges[1:], hist.densities)
    return _write(path, "histogram.csv", "bin_left,bin_right,density\n", (
        f"{float(lo)!r},{float(hi)!r},{float(d)!r}\n" for lo, hi, d in rows))
