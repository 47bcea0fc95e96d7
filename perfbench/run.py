"""Run one bartree benchmark workload and print its metrics.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: bartree is imported from its
src/ directory. One client runs the workload's ops in a closed loop,
each op after the previous one has finished, for --seconds seconds
(runs of moments_shallow end on a whole n = 1, 2, 3 triple). Every
op's outputs are checked outside the timed region.

--trace 0 reports the end-to-end metrics:
  setup_s      median, over 8 fresh processes (4 launched before the
               timed ops, 4 after), of the seconds from launch until
               the first op can start
  op_s_p50     median wall seconds per op, after one warm-up op
  nodes_per_s  tree nodes simulated per wall second of the timed ops
  peak_rss_mb  peak resident memory of this process
--trace 1 runs each op untraced and then traced with the same input,
and reports the per-layer metrics of layers.per_layer_spec(), less the
wrappers' own cost as layers.calibrate() measures it before each op.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; failed / attempted is the
fail ratio.
"""

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import measure

SETUP_PROBES = 8

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("op_s_p50", "s", "lower"),
    ("nodes_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

class Tally:
    """Ops attempted and ops whose output checks failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"check failed: {'; '.join(problems)}", file=sys.stderr)


def _timed(op):
    start = time.perf_counter()
    out = op()
    return out, time.perf_counter() - start


def _attempt(workload, inp, run, tally, check=True):
    """Run one op through `run` (returning outputs and seconds) and check
    its outputs afterwards; returns (outputs, seconds), both None on error."""
    try:
        out, seconds = run()
    except Exception:
        traceback.print_exc()
        tally.record(["op raised"])
        return None, None
    try:
        problems = workload.check(inp, out) if check else []
    except Exception:
        traceback.print_exc()
        problems = ["check raised"]
    tally.record(problems)
    return out, seconds


def _keep_going(start, seconds, ops, cycle):
    return time.perf_counter() - start < seconds or ops % cycle


def run_untraced(workload, seed, seconds, out_dir, tally):
    # half the set-up probes before the timed ops and half after, so the
    # median samples the host at both ends of the run
    setups = [measure.setup_seconds(workload.name, seed) for _ in range(SETUP_PROBES // 2)]
    inputs = workload.inputs(seed)
    inp = next(inputs)
    _attempt(workload, inp, lambda: _timed(lambda: workload.op(inp, out_dir)), tally)

    times, nodes, ops = [], 0, 0
    start = time.perf_counter()
    while _keep_going(start, seconds, ops, workload.cycle):
        inp = next(inputs)
        ops += 1
        _, dt = _attempt(workload, inp, lambda: _timed(lambda: workload.op(inp, out_dir)), tally)
        if dt is not None:
            times.append(dt)
            nodes += workload.nodes(inp)
    if not times:
        raise RuntimeError("every timed op failed")
    setups += [measure.setup_seconds(workload.name, seed)
               for _ in range(SETUP_PROBES - len(setups))]
    print(
        f"{workload.name} seed={seed}: {len(times)} timed ops after 1 warm-up op, "
        f"closed loop, 1 client; {nodes / len(times):.0f} nodes per op; "
        f"setup_s is the median of {SETUP_PROBES} fresh processes"
    )
    return {
        "setup_s": statistics.median(setups),
        "op_s_p50": statistics.median(times),
        "nodes_per_s": nodes / sum(times),
        "peak_rss_mb": measure.peak_rss_mb(),
    }


def run_traced(workload, seed, seconds, out_dir, tally):
    import layers

    tracer = layers.Tracer()
    inputs = workload.inputs(seed)
    inp = next(inputs)
    _attempt(workload, inp, lambda: _timed(lambda: workload.op(inp, out_dir)), tally)

    calibrations = []

    def traced_op():
        # calibrated next to each op, so it sees the host as the op does
        tracer.overhead = layers.calibrate()
        calibrations.append(tracer.overhead)
        with tracer.installed():
            return tracer.run_op(lambda: workload.op(inp, out_dir))

    overheads, plain_times, ops = [], [], 0
    start = time.perf_counter()
    while _keep_going(start, seconds, ops, workload.cycle):
        inp = next(inputs)
        ops += 1
        plain, plain_s = _attempt(
            workload, inp, lambda: _timed(lambda: workload.op(inp, out_dir)), tally
        )
        # the traced op is checked by reproducing the untraced op's bytes
        traced, traced_s = _attempt(workload, inp, traced_op, tally, check=False)
        if plain is None or traced is None:
            continue
        if workload.fingerprint(traced) != workload.fingerprint(plain):
            tally.failed += 1
            print("check failed: traced op output differs from untraced", file=sys.stderr)
        overheads.append((traced_s - plain_s) / plain_s)
        plain_times.append(plain_s)
    if not overheads:
        raise RuntimeError("every traced op failed")
    problems = tracer.problems()
    if problems:
        tally.failed += 1
        print(f"check failed: {'; '.join(problems)}", file=sys.stderr)
    inside, outside = (statistics.median(c) for c in zip(*calibrations))
    print(
        f"{workload.name} seed={seed}: {tracer.ops} ops run untraced then traced "
        f"after 1 warm-up op; per-layer times are self times per op, less the "
        f"wrappers' calibrated cost (median {inside * 1e9:.0f} ns inside and "
        f"{outside * 1e9:.0f} ns outside each wrapped call); the layers account "
        f"for {tracer.accounted_seconds() / tracer.ops:.4f} s per op, the untraced "
        f"ops took {sum(plain_times) / len(plain_times):.4f} s"
    )
    return tracer.metrics(statistics.median(overheads))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (measure.SRC / "bartree" / "__init__.py").is_file():
        print(f"no bartree sources under {measure.SRC}", file=sys.stderr)
        return 2
    # One thread of control, here and in the set-up probes that inherit
    # the environment: numpy's OpenBLAS would otherwise start a thread per
    # CPU at import. bartree's hot paths are ufuncs, which BLAS threads
    # do not serve.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(measure.SRC))
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        spec, measure_run = layers.per_layer_spec(), run_traced
    else:
        spec, measure_run = END_TO_END, run_untraced

    tally = Tally()
    out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=measure.ROOT)
    try:
        values = measure_run(workload, args.seed, args.seconds, out_dir, tally)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in spec}
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'fail_ratio':<40} {tally.failed / tally.attempted:>16.6g} "
          f"({tally.failed} of {tally.attempted} ops)")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
