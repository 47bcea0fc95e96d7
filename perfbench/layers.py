"""Outside-in tracing of bartree's layers.

`Tracer.installed()` replaces module attributes with timing wrappers
where callers look them up, and puts the originals back on exit. Each
wrapped call is a span; a layer's busy time is its self time, the span
minus the spans nested in it. The op itself is the root span, and its
own self time (code in no named layer: argument parsing, printing, the
independence report) is the `bench.other` layer.

A wrapper costs time of its own, which matters where a layer is called
per replicate or per node. calibrate() measures that cost on a no-op in
the same process, and each span takes it off the self times it would
otherwise inflate: its own (the part between its clock reads) and its
caller's (the part around them). The self times then add up to the
traced op time less the wrappers' cost, which is what the shares are
taken of.

Nothing under src/ is changed: the wrappers return exactly what the
originals return, and the determinism checks compare traced outputs
byte for byte with untraced ones.
"""

import contextlib
import dataclasses
import math
import time

import numpy as np

from bartree import cli, fluctuations, harness, tree_sim
from bartree.tree_sim import ReplicateSeed

ROOT = "bench.other"

# layer -> its work-normalised rate: self ns per unit of work, where the
# unit is a key derived, a stream state, uniform or normal pair returned,
# a node yielded by simulate_generations, a CSV row written, a kernel
# evaluation, or a (sample point, query point) pair
RATES = {
    "tree_sim.keys": "ns_per_replicate",
    "tree_sim.states": "ns_per_node",
    "tree_sim.uniforms": "ns_per_draw",
    "tree_sim.box_muller": "ns_per_pair",
    "tree_sim.scalar": "ns_per_node",
    "tree_sim.dump": "ns_per_row",
    "smoothing.kernel": "ns_per_point",
    "smoothing.density_estimate": "ns_per_point",
}
LAYERS = [
    *RATES,
    "oracle",
    "harness.run",
    "harness.mc",
    "harness.export",
    "fluctuations.pairs",
    ROOT,
]
# harness.run and harness.mc are the remainders of the CLT and Monte
# Carlo loops once their children are taken out, hence "self_share".
_SHARE_NAME = {"harness.run": "self_share", "harness.mc": "self_share"}


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for layer in LAYERS:
        spec.append((f"{layer}.busy_s", "s", "lower"))
        spec.append((f"{layer}.{_SHARE_NAME.get(layer, 'share')}", "ratio", "lower"))
        spec.append((f"{layer}.calls", "count", "lower"))
        if layer in RATES:
            spec.append((f"{layer}.{RATES[layer]}", "ns", "lower"))
        if layer == "tree_sim.states":
            # the largest state array returned, from its size: computed
            spec.append(("tree_sim.states.peak_bytes", "bytes_computed", "lower"))
    spec.append(("trace.overhead_share", "ratio", "lower"))
    return spec


def _size(result, *args):
    return result.size


def _noop(*args, **kwargs):
    return None


# calibrate() times this many loops of this many calls; about 0.1 s
CALIBRATION_REPEATS = 3
CALIBRATION_CALLS = 20_000


def calibrate():
    """(inside, outside): seconds a span wrapper adds to each call it
    times, measured on a no-op in this process. `inside` falls between
    the wrapper's two clock reads, so it inflates the callee's span;
    `outside` falls around them, so it lands in the caller's self time.
    Each is taken from the fastest of the repeated loops."""
    probe = Tracer()
    wrapped = probe._leaf("calibration", _noop)
    stats, clock = probe._stats("calibration"), time.perf_counter
    loop = range(CALIBRATION_CALLS)
    probe._stack.append(0.0)
    best = [math.inf] * 4
    for _ in range(CALIBRATION_REPEATS):
        t0 = clock()
        for _ in loop:
            pass
        t1 = clock()
        for _ in loop:
            _noop(1, 2)
        t2 = clock()
        recorded = stats[0]
        for _ in loop:
            wrapped(1, 2)
        t3 = clock()
        for i, t in enumerate((t1 - t0, t2 - t1, t3 - t2, stats[0] - recorded)):
            best[i] = min(best[i], t / CALIBRATION_CALLS)
    empty, plain, traced, span = best
    # the span holds the no-op call itself, which an untraced caller pays too
    inside = max(span - (plain - empty), 0.0)
    return inside, max(traced - plain - inside, 0.0)


class Tracer:
    """Self time, call count and work count per layer, over traced ops.

    `overhead` is calibrate()'s (inside, outside) per wrapped call; every
    span takes the inside part off its own self time and the outside
    part off its caller's, so the self times add up to the traced op
    time less the wrappers' own cost."""

    def __init__(self, overhead=(0.0, 0.0)):
        self.overhead = overhead
        # layer -> [self seconds, calls, work]
        self.layers = {}
        # leaf layers that reached another traced layer
        self.nested = set()
        self.peak_bytes = 0
        self.op_seconds = 0.0
        self.ops = 0
        # child seconds of each open span; the bottom entry is the op's
        self._stack = []

    def _stats(self, layer):
        return self.layers.setdefault(layer, [0.0, 0, 0])

    # -- spans ---------------------------------------------------------

    def _span(self, layer, fn, work=None, call=1, leaf=False):
        """Span around a call; its self time excludes the spans nested in
        it. A leaf must reach no other traced layer: if one is nested in
        it, that is recorded in `nested`. call=0 times a call without
        counting it."""
        stats, stack, clock = self._stats(layer), self._stack, time.perf_counter
        inside, outside = self.overhead
        nested = self.nested

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if leaf and children:
                    nested.add(layer)
                stats[0] += elapsed - children - inside
                stats[1] += call
                stack[-1] += elapsed + outside
            if work is not None:
                stats[2] += work(result, *args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _leaf(self, layer, fn, work=None, call=1):
        return self._span(layer, fn, work, call, leaf=True)

    def _generator_span(self, layer, gen_fn):
        """Each step of the generator is a span; its work is the nodes yielded."""
        stats, stack, clock = self._stats(layer), self._stack, time.perf_counter
        inside, outside = self.overhead

        def wrapper(*args, **kwargs):
            stats[1] += 1
            it = gen_fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    buf = next(it, None)
                finally:
                    elapsed = clock() - start
                    stats[0] += elapsed - stack.pop() - inside
                    stack[-1] += elapsed + outside
                if buf is None:
                    return
                stats[2] += buf.states.size
                yield buf

        wrapper.__wrapped__ = gen_fn
        return wrapper

    def _states_work(self, result, *args):
        self.peak_bytes = max(self.peak_bytes, result.nbytes)
        return result.size

    def _counting_dump(self, dump_fn):
        """dump_trajectory as a span whose work is the rows it wrote."""
        timed = self._span("tree_sim.dump", dump_fn, work=lambda r, gens, fh: gens.rows)

        class Counted:
            def __init__(self, generations):
                self.generations, self.rows = generations, 0

            def __iter__(self):
                for buf in self.generations:
                    self.rows += buf.states.size
                    yield buf

        def wrapper(generations, fh):
            return timed(Counted(generations), fh)

        wrapper.__wrapped__ = dump_fn
        return wrapper

    # -- installation --------------------------------------------------

    def _targets(self):
        """(owner, attribute, wrapper) for every traced entry point."""
        leaf, span = self._leaf, self._span
        kernel_factory = harness.KERNELS["gaussian"]

        def traced_kernel_factory():
            K = kernel_factory()
            return dataclasses.replace(K, evaluate=leaf("smoothing.kernel", K.evaluate, _size))

        return [
            # key derivation is ReplicateSeed(master, r).key(); one call per key
            (ReplicateSeed, "__init__", leaf("tree_sim.keys", ReplicateSeed.__init__, call=0)),
            (ReplicateSeed, "key", leaf("tree_sim.keys", ReplicateSeed.key)),
            (tree_sim, "generation_states",
             leaf("tree_sim.states", tree_sim.generation_states, self._states_work)),
            (tree_sim, "initial_states",
             leaf("tree_sim.states", tree_sim.initial_states, self._states_work)),
            (tree_sim, "stream_uniforms",
             leaf("tree_sim.uniforms", tree_sim.stream_uniforms, _size)),
            (tree_sim, "stream_normal_pairs",
             span("tree_sim.box_muller", tree_sim.stream_normal_pairs, lambda r, *a: r[0].size)),
            (cli, "simulate_generations",
             self._generator_span("tree_sim.scalar", cli.simulate_generations)),
            (cli, "dump_trajectory", self._counting_dump(cli.dump_trajectory)),
            (harness.KERNELS, "gaussian", traced_kernel_factory),
            (cli, "density_estimate",
             leaf("smoothing.density_estimate", cli.density_estimate,
                  lambda r, sample, xs, *a: np.size(sample) * np.size(xs))),
            (cli, "mean_MGn", leaf("oracle", cli.mean_MGn)),
            (cli, "second_moment_MGn", leaf("oracle", cli.second_moment_MGn)),
            (cli, "cross_moment_MGn_MGm", leaf("oracle", cli.cross_moment_MGn_MGm)),
            (harness, "run_clt_experiment", span("harness.run", harness.run_clt_experiment)),
            (cli, "monte_carlo_generation_sums",
             span("harness.mc", cli.monte_carlo_generation_sums)),
            (harness, "export", leaf("harness.export", harness.export)),
            (harness, "ks_distance", leaf("harness.export", harness.ks_distance)),
            (fluctuations, "cross_generation_pairs",
             leaf("fluctuations.pairs", fluctuations.cross_generation_pairs)),
        ]

    @contextlib.contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        saved = []
        try:
            for owner, attr, wrapper in self._targets():
                if isinstance(owner, dict):
                    saved.append((owner, attr, owner[attr]))
                    owner[attr] = wrapper
                else:
                    saved.append((owner, attr, owner.__dict__[attr]))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                if isinstance(owner, dict):
                    owner[attr] = original
                else:
                    setattr(owner, attr, original)

    def run_op(self, op):
        """Run `op()` as the root span; returns (its result, its wall seconds)."""
        self._stack.append(0.0)
        start = time.perf_counter()
        try:
            result = op()
        finally:
            elapsed = time.perf_counter() - start
            stats = self._stats(ROOT)
            stats[0] += elapsed - self._stack.pop()
            stats[1] += 1
            self.op_seconds += elapsed
            self.ops += 1
        return result, elapsed

    # -- report --------------------------------------------------------

    def accounted_seconds(self):
        """Sum of the self times of all layers: the traced op time less
        the calibrated cost of the wrappers."""
        return sum(stats[0] for stats in self.layers.values())

    def problems(self):
        """What the spans show to be wrong: a leaf that reached another
        traced layer, or a self time below zero (a span's children took
        longer than the span, or the calibration took off too much)."""
        out = [f"{layer} reached another traced layer" for layer in sorted(self.nested)]
        out += [
            f"{layer} self time is {stats[0]!r} s"
            for layer, stats in sorted(self.layers.items())
            if stats[0] < 0
        ]
        return out

    def metrics(self, overhead_share):
        """Per-layer metrics, per traced op, keyed by the names of per_layer_spec().
        Shares are of the op time the layers account for."""
        ops = max(self.ops, 1)
        op_seconds = self.accounted_seconds()
        values = {}
        for layer in LAYERS:
            busy, calls, work = self.layers.get(layer, (0.0, 0, 0))
            values[f"{layer}.busy_s"] = busy / ops
            share = busy / op_seconds if op_seconds > 0 else 0.0
            values[f"{layer}.{_SHARE_NAME.get(layer, 'share')}"] = share
            values[f"{layer}.calls"] = calls / ops
            if layer in RATES:
                # layers without a work count do one unit of work per call
                work = work or calls
                values[f"{layer}.{RATES[layer]}"] = busy * 1e9 / work if work else 0.0
        values["tree_sim.states.peak_bytes"] = self.peak_bytes
        values["trace.overhead_share"] = overhead_share
        return values
