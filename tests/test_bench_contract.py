"""The benchmark's workloads still run on the package, and still pass their
own output checks.

perfbench/workloads.py reads the package's results (zetas through
`FluctuationSample.zeta`, the CLI's printed tables and dumps) and checks
them. A change under src/ that breaks what a workload reads or checks
fails here, on small inputs, before a benchmark run would report it.
"""

import importlib.util
import itertools
from pathlib import Path

import pytest

from bartree import tree_sim

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


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
