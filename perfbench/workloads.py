"""The benchmark workloads: generated inputs, one op, and its output checks.

Every input an op sees is drawn from `random.Random("<workload>:<seed>")`,
so the same workload seed always gives the same inputs. An op calls
bartree only through module attributes (`harness.run_clt_experiment`,
`cli.main`, ...), looked up at call time, so the wrappers that
`layers.Tracer` installs see every call into a layer.

Each workload provides:
  inputs(seed)      endless iterator of op inputs
  prepare(inp)      set-up a fresh process needs before its first op
                    (kernel build and validation, config parsing)
  op(inp, out_dir)  the timed op; returns its outputs
  fingerprint(out)  bytes that a traced op must reproduce exactly
  check(inp, out)   list of problems (empty when the outputs are right)
  nodes(inp)        tree nodes the op simulates (generations 0..n)
  cycle             runs end on a multiple of this many ops, so the mix of
                    op sizes, and the work counted per op, repeat exactly
"""

import contextlib
import dataclasses
import io
import math
import os
import random

import numpy as np

from bartree import cli, fluctuations, harness, tree_sim
from bartree.bar_model import BarModel, stationary_initial
from bartree.smoothing import BandwidthSchedule, bandwidth, density_estimate, gaussian_kernel
from bartree.tree_sim import ReplicateSeed

# Replicates re-run with a different chunk size by the determinism check.
_DETERMINISM_REPLICATES = 6
_DETERMINISM_CHUNK = 4

# Criterion 4's gate on every oracle-vs-Monte-Carlo row.
_MOMENT_Z_GATE = 4.0
_MOMENT_REPS = 100_000


def _rng(name, seed):
    return random.Random(f"{name}:{seed}")


def _run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _tree_nodes(n):
    """Nodes in generations 0..n of one full binary tree."""
    return (2 << n) - 1


class CltWorkload:
    """One op: run_clt_experiment, the csv/json export, and the
    independence report on the (zeta_n, zeta_{n-1}) pairs."""

    cycle = 1

    def __init__(self, name, **config):
        self.name = name
        self.config = dict(config, sigma=1.0, record_previous_generation=True)

    def inputs(self, seed):
        rng = _rng(self.name, seed)
        while True:
            yield dict(self.config, master_seed=rng.randrange(2**32))

    def prepare(self, inp):
        gaussian_kernel()
        return harness.config_from_dict(inp)

    def nodes(self, inp):
        return inp["n0"] * _tree_nodes(inp["n"])

    def op(self, inp, out_dir):
        config = harness.config_from_dict(inp)
        result = harness.run_clt_experiment(config)
        harness.export(result, "csv", out_dir)
        harness.export(result, "json", out_dir)
        report = harness.independence_report(fluctuations.cross_generation_pairs(result))
        with open(os.path.join(out_dir, "samples.csv"), "rb") as fh:
            samples_csv = fh.read()
        return {"result": result, "report": report, "samples_csv": samples_csv}

    def fingerprint(self, out):
        return out["samples_csv"]

    def check(self, inp, out):
        problems = []
        result = out["result"]
        zetas = [s.zeta for s in result.samples]
        prev = [s.zeta for s in result.prev_samples]
        if len(zetas) != inp["n0"] or not all(map(math.isfinite, zetas + prev)):
            problems.append("zetas missing or not finite")
        if out["samples_csv"].count(b"\n") != inp["n0"] + 1:
            problems.append("samples.csv does not hold one row per replicate")
        if out["report"].degenerate:
            problems.append("independence report is degenerate")
        k = min(_DETERMINISM_REPLICATES, inp["n0"])
        config = dataclasses.replace(harness.config_from_dict(inp), n0=k)
        rerun = harness.run_clt_experiment(config, chunk_size=_DETERMINISM_CHUNK)
        if [s.zeta for s in rerun.samples] != zetas[:k] or (
            [s.zeta for s in rerun.prev_samples] != prev[:k]
        ):
            problems.append(f"replicates 0..{k - 1} differ at chunk_size={_DETERMINISM_CHUNK}")
        return problems


class MomentsWorkload:
    """One op: an in-process `bartree moments` call with --reps 100000."""

    name = "moments_shallow"

    # An op's work depends on n alone, and n is innermost in the grid, so
    # every three consecutive ops cover n = 1, 2, 3 once each.
    cycle = 3
    grid = [(a, f, n) for a in (0.0, 0.5, 0.9) for f in ("id", "square") for n in (1, 2, 3)]

    def inputs(self, seed):
        rng = _rng(self.name, seed)
        argvs = []
        for a, f, n in self.grid:
            x = rng.uniform(-1.5, 1.5)
            argvs.append([
                "moments", "--f", f, "--n", str(n), "--m", str(n - 1),
                f"--x={x!r}", "--a", repr(a), "--reps", str(_MOMENT_REPS),
                "--seed", str(rng.randrange(2**31)),
            ])
        while True:
            yield from argvs

    def prepare(self, inp):
        gaussian_kernel()
        return cli.build_parser().parse_args(inp)

    def nodes(self, inp):
        return _MOMENT_REPS * _tree_nodes(int(inp[inp.index("--n") + 1]))

    def op(self, inp, out_dir):
        code, text = _run_cli(inp)
        return {"code": code, "stdout": text}

    def fingerprint(self, out):
        return out["stdout"].encode()

    def check(self, inp, out):
        if out["code"] != 0:
            return [f"exit code {out['code']}"]
        rows = [line.split() for line in out["stdout"].splitlines()[2:]]
        if len(rows) != 3:
            return [f"expected 3 moment rows, got {len(rows)}"]
        return [
            f"{row[0]}: |z| = {abs(float(row[-1]))} > {_MOMENT_Z_GATE}"
            for row in rows
            if not abs(float(row[-1])) <= _MOMENT_Z_GATE
        ]


class SingleTreeWorkload:
    """One op: `bartree simulate --dump` then `bartree estimate`, in process,
    on the scalar NodeStream path."""

    name = "single_tree_cli"
    cycle = 1
    a, n, gamma, xs = 0.5, 15, 0.201, (-1.3, 0.0, 1.3)

    def inputs(self, seed):
        rng = _rng(self.name, seed)
        while True:
            yield rng.randrange(2**31)

    def _argvs(self, seed, dump_path):
        common = ["--a", repr(self.a), "--n", str(self.n), "--seed", str(seed)]
        simulate = ["simulate", *common, "--dump", dump_path]
        estimate = [
            "estimate", *common, "--gamma", repr(self.gamma), "--scope", "tree",
            "--x=" + ",".join(map(repr, self.xs)),
        ]
        return simulate, estimate

    def prepare(self, inp):
        gaussian_kernel()
        parser = cli.build_parser()
        return [parser.parse_args(argv) for argv in self._argvs(inp, "trajectory.csv")]

    def nodes(self, inp):
        return 2 * _tree_nodes(self.n)

    def op(self, inp, out_dir):
        dump_path = os.path.join(out_dir, "trajectory.csv")
        simulate, estimate = self._argvs(inp, dump_path)
        codes = [_run_cli(simulate)[0]]
        code, text = _run_cli(estimate)
        codes.append(code)
        with open(dump_path, "rb") as fh:
            dump = fh.read()
        return {"codes": codes, "dump": dump, "stdout": text}

    def fingerprint(self, out):
        return out["dump"] + out["stdout"].encode()

    def _vector_trajectory(self, seed):
        """Generations 0..n from the vector RNG path and the BAR step."""
        model = BarModel(self.a, 1.0)
        initial = stationary_initial(model)
        keys = np.array([ReplicateSeed(seed, 0).key()], dtype=np.uint64)
        z0, _ = tree_sim.stream_normal_pairs(tree_sim.initial_states(keys), 0)
        states = initial.m0 + initial.rho0 * z0
        gens = [states]
        for g in range(self.n):
            e0, e1 = tree_sim.stream_normal_pairs(tree_sim.generation_states(keys, g)[0], 0)
            ax = model.a * states
            states = np.empty(2 << g)
            states[0::2] = ax + model.sigma * e0
            states[1::2] = ax + model.sigma * e1
            gens.append(states)
        return gens

    def check(self, inp, out):
        if out["codes"] != [0, 0]:
            return [f"exit codes {out['codes']}"]
        problems = []
        lines = out["dump"].decode().splitlines()
        dumped = np.array([float(line.rsplit(",", 1)[1]) for line in lines[1:]])
        expected = np.concatenate(self._vector_trajectory(inp))
        if dumped.shape != expected.shape or dumped.tobytes() != expected.tobytes():
            problems.append("dumped trajectory differs from the vector path")
        h = bandwidth(self.n, BandwidthSchedule(self.gamma))
        mu_hat = density_estimate(dumped, np.array(self.xs), h, gaussian_kernel())
        want = ["x,mu_hat"] + [f"{x!r},{float(v)!r}" for x, v in zip(self.xs, mu_hat)]
        if out["stdout"].splitlines() != want:
            problems.append("printed mu_hat differs from density_estimate on the dump")
        return problems


WORKLOADS = {
    w.name: w
    for w in (
        CltWorkload("clt_acceptance", a=0.5, n=15, gamma=0.201, x=-1.3, n0=500,
                    scope=tree_sim.GENERATION_SCOPE),
        MomentsWorkload(),
        SingleTreeWorkload(),
    )
}
