"""The benchmark's workloads still run on the package, and still pass their
own output checks, traced or not.

perfbench/workloads.py reads the package's results (zetas through
`FluctuationSample.zeta`, the CLI's printed tables and dumps) and checks
them; perfbench/layers.py wraps package attributes where the ops look them
up (it steps `cli.simulate_generations` with next(), for one). A change
under src/ that breaks what a workload reads or checks, or what the tracer
wraps, fails here, on small inputs, before a benchmark run would report it.
"""

import importlib.util
import itertools
from pathlib import Path

import pytest

from bartree import tree_sim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
layers = _load("layers")


class SmallTree(workloads.SingleTreeWorkload):
    n = 5


SMALL = {
    "clt": workloads.CltWorkload(
        "small_clt", a=0.5, n=6, gamma=0.201, x=-1.3, n0=20, scope=tree_sim.GENERATION_SCOPE
    ),
    "moments": workloads.WORKLOADS["moments_shallow"],
    "single_tree": SmallTree(),
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_workload_ops_pass_their_checks(name, tmp_path):
    # one whole cycle of inputs, each set up, run untraced and checked
    workload = SMALL[name]
    for i, inp in enumerate(itertools.islice(workload.inputs(0), workload.cycle)):
        workload.prepare(inp)
        out_dir = tmp_path / str(i)
        out_dir.mkdir()
        out = workload.op(inp, str(out_dir))
        assert workload.check(inp, out) == [], f"{name} input {i}"


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_ops_reproduce_the_untraced_bytes(name, tmp_path):
    # one whole cycle of inputs, each run untraced and then as a traced op
    workload = SMALL[name]
    tracer = layers.Tracer(layers.calibrate())
    for i, inp in enumerate(itertools.islice(workload.inputs(0), workload.cycle)):
        workload.prepare(inp)
        dirs = [tmp_path / f"{i}_untraced", tmp_path / f"{i}_traced"]
        for d in dirs:
            d.mkdir()
        untraced = workload.op(inp, str(dirs[0]))
        with tracer.installed():
            traced, _ = tracer.run_op(lambda: workload.op(inp, str(dirs[1])))
        assert workload.fingerprint(traced) == workload.fingerprint(untraced), f"{name} input {i}"
