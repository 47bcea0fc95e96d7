"""Tests of the benchmark's own code.

run: python3 -m pytest perfbench/tests -q
"""

import itertools
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import measure  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from bartree import tree_sim  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


class SmallTree(workloads.SingleTreeWorkload):
    n = 5


def small_clt():
    return workloads.CltWorkload(
        "small_clt", a=0.5, n=6, gamma=0.201, x=-1.3, n0=20, scope=tree_sim.GENERATION_SCOPE
    )


def traced(workload, inp, out_dir):
    tracer = layers.Tracer()
    with tracer.installed():
        out, _ = tracer.run_op(lambda: workload.op(inp, out_dir))
    return tracer, out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    workload = workloads.WORKLOADS[name]

    def take(seed):
        return list(itertools.islice(workload.inputs(seed), 2 * workload.cycle + 3))

    assert take(7) == take(7)
    assert take(7) != take(8)


def test_median_quartiles_and_spread():
    values = [10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]
    # exclusive method: positions (n + 1) p = 2.75, 5.5, 8.25
    assert measure.quartiles(values) == (2.75, 5.5, 8.25)
    assert measure.spread(values) == (8.25 - 2.75) / 5.5
    # odd count: the median is the middle value, Q1/Q3 interpolate
    assert measure.quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (1.5, 3.0, 4.5)
    assert measure.spread([5.0, 1.0, 3.0, 2.0, 4.0]) == 1.0
    assert measure.spread([4.0] * 5) == 0.0


def _attributes():
    return {
        (id(owner), attr): owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]
        for owner, attr, _ in layers.Tracer()._targets()
    }


def test_wrappers_restore_the_originals():
    before = _attributes()
    tracer = layers.Tracer()
    with tracer.installed():
        during = _attributes()
    assert all(during[k] is not v for k, v in before.items())
    assert all(_attributes()[k] is v for k, v in before.items())

    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("op failed")
    assert all(_attributes()[k] is v for k, v in before.items())


def test_a_leaf_reaching_a_traced_layer_is_a_problem():
    tracer = layers.Tracer()
    inner = tracer._leaf("tree_sim.keys", lambda: 1)
    outer = tracer._leaf("tree_sim.states", lambda: inner() + 1)
    span = tracer._span("harness.run", lambda: inner() + 2)
    result, _ = tracer.run_op(span)
    assert result == 3
    assert tracer.problems() == []
    tracer.run_op(outer)
    assert tracer.problems() == ["tree_sim.states reached another traced layer"]


def test_a_negative_self_time_is_a_problem():
    # a calibration that takes off more than the calls cost
    tracer = layers.Tracer(overhead=(1.0, 0.0))
    tracer.run_op(tracer._leaf("oracle", lambda: None))
    assert tracer.problems() == [f"oracle self time is {tracer.layers['oracle'][0]!r} s"]


def test_calibrated_cost_comes_off_the_callee_and_its_caller():
    inside, outside = 1e-3, 2e-3
    tracer = layers.Tracer(overhead=(inside, outside))
    leaf = tracer._leaf("tree_sim.keys", lambda: None)

    def loop():
        for _ in range(10):
            leaf()

    tracer.run_op(tracer._span("harness.mc", loop))
    # ten leaf calls and one span call, each of which costs inside + outside
    assert tracer.accounted_seconds() == pytest.approx(
        tracer.op_seconds - 11 * (inside + outside), rel=1e-9
    )
    calibrated = layers.calibrate()
    assert len(calibrated) == 2 and all(0.0 <= t < 1e-3 for t in calibrated)


def test_traced_clt_op_is_byte_identical_and_fully_accounted(tmp_path):
    workload = small_clt()
    inp = next(workload.inputs(0))
    plain = workload.op(inp, str(tmp_path))
    assert workload.check(inp, plain) == []
    tracer, out = traced(workload, inp, str(tmp_path))
    assert workload.fingerprint(out) == workload.fingerprint(plain)
    assert tracer.accounted_seconds() == pytest.approx(tracer.op_seconds, rel=1e-9)
    assert tracer.problems() == []
    m = tracer.metrics(overhead_share=0.0)
    assert m["tree_sim.keys.calls"] == 20
    # one chunk: the initial states and generations 0..5
    assert m["tree_sim.states.calls"] == 7
    assert m["tree_sim.states.peak_bytes"] == 20 * 32 * 8
    assert m["tree_sim.uniforms.calls"] == 2 * m["tree_sim.box_muller.calls"] == 14
    assert m["harness.run.calls"] == m["fluctuations.pairs.calls"] == 1
    assert m["tree_sim.scalar.calls"] == m["harness.mc.calls"] == 0


def test_traced_single_tree_op_counts_nodes_and_rows(tmp_path):
    workload = SmallTree()
    inp = next(workload.inputs(0))
    plain = workload.op(inp, str(tmp_path))
    assert workload.check(inp, plain) == []
    tracer, out = traced(workload, inp, str(tmp_path))
    assert workload.fingerprint(out) == workload.fingerprint(plain)
    nodes = 2**6 - 1
    assert tracer.layers["tree_sim.scalar"][1:] == [2, 2 * nodes]
    assert tracer.layers["tree_sim.dump"][1:] == [1, nodes]
    assert tracer.layers["smoothing.density_estimate"][1:] == [1, 3 * nodes]
    assert tracer.layers["tree_sim.states"][1] == 0
    assert tracer.accounted_seconds() == pytest.approx(tracer.op_seconds, rel=1e-9)
    assert tracer.problems() == []


def test_checks_reject_wrong_outputs(tmp_path):
    tree = SmallTree()
    seed = next(tree.inputs(0))
    out = tree.op(seed, str(tmp_path))
    assert tree.check(seed + 1, out)
    last = out["dump"].rstrip(b"\n").rsplit(b",", 1)
    bad = dict(out, dump=last[0] + b"," + repr(float(last[1]) + 1e-12).encode() + b"\n")
    assert tree.check(seed, bad)

    moments = workloads.WORKLOADS["moments_shallow"]
    inp = next(moments.inputs(0))
    out = moments.op(inp, str(tmp_path))
    assert moments.check(inp, out) == []
    lines = out["stdout"].splitlines()
    lines[2] = lines[2].rsplit(None, 1)[0] + "    4.01"
    assert moments.check(inp, dict(out, stdout="\n".join(lines)))


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    e2e = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert e2e == run.END_TO_END
    assert per_layer == layers.per_layer_spec()
    names = [name for name, _, _ in e2e + per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert set(layers.Tracer().metrics(overhead_share=0.0)) == {n for n, _, _ in per_layer}


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "clt_acceptance",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
