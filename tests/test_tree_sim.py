import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bartree import tree_sim
from bartree.bar_model import BarModel, bar_transition, stationary_initial
from bartree.tree_sim import (
    GENERATION_SCOPE,
    MAX_GENERATION,
    TREE_SCOPE,
    NodeAddress,
    ReplicateSeed,
    dump_trajectory,
    initial_randomness,
    node_randomness,
    scope_generations,
    scope_size,
    simulate_generations,
    simulate_tree,
)


def copy_track(c):
    # a = 1, sigma = 0 and a point mass at c: every child copies its
    # parent, so every node is c; useful as a degenerate oracle
    return (1.0, 0.0, c, 0.0)


def stationary_track(model):
    initial = stationary_initial(model)
    return (model.a, model.sigma, initial.m0, initial.rho0)


def stationary_tree(model, n, seed):
    return simulate_generations(stationary_track(model), n, seed)


# -- addressing ---------------------------------------------------------------

def test_address_validation():
    with pytest.raises(ValueError):
        NodeAddress(2, 4)
    with pytest.raises(ValueError):
        NodeAddress(-1, 0)
    with pytest.raises(OverflowError):
        NodeAddress(MAX_GENERATION + 1, 0)


def test_heap_code_is_bijective_across_generations():
    codes = set()
    for g in range(8):
        for i in range(1 << g):
            codes.add(NodeAddress(g, i).heap_code)
    assert len(codes) == (1 << 8) - 1


# -- streams ------------------------------------------------------------------

def test_node_randomness_is_deterministic():
    seed = ReplicateSeed(123, 7)
    addr = NodeAddress(5, 19)
    s1 = node_randomness(seed, addr)
    s2 = node_randomness(seed, addr)
    assert [s1.uniform(k) for k in range(8)] == [s2.uniform(k) for k in range(8)]
    assert s1.normal_pair(0) == s2.normal_pair(0)


@settings(max_examples=50, deadline=None)
@given(
    master=st.integers(min_value=0, max_value=2**64 - 1),
    rep=st.integers(min_value=0, max_value=2**20),
    g=st.integers(min_value=0, max_value=20),
    data=st.data(),
)
def test_stream_is_pure_function_of_identity(master, rep, g, data):
    i = data.draw(st.integers(min_value=0, max_value=(1 << g) - 1))
    seed = ReplicateSeed(master, rep)
    addr = NodeAddress(g, i)
    assert node_randomness(seed, addr).uniform(3) == node_randomness(seed, addr).uniform(3)


def test_sibling_streams_differ():
    seed = ReplicateSeed(0, 0)
    a = node_randomness(seed, NodeAddress(1, 0))
    b = node_randomness(seed, NodeAddress(1, 1))
    assert a.uniform(0) != b.uniform(0)


def test_replicates_differ():
    addr = NodeAddress(4, 3)
    a = node_randomness(ReplicateSeed(0, 0), addr)
    b = node_randomness(ReplicateSeed(0, 1), addr)
    assert a.uniform(0) != b.uniform(0)


@pytest.mark.parametrize("master", [0, -1, 2**63, 2**64 + 5])
@pytest.mark.parametrize(
    "start, stop", [(0, 5000), (4090, 4102), (1234, 1300)], ids=["from_0", "across_4096", "mid_run"]
)
def test_vector_keys_match_scalar_spec(master, start, stop):
    keys = tree_sim.replicate_keys(master, start, stop)
    spec = [ReplicateSeed(master, r).key() for r in range(start, stop)]
    assert keys.dtype == np.uint64
    assert keys.tolist() == spec


def test_vector_keys_refuse_negative_start():
    with pytest.raises(ValueError, match="non-negative"):
        tree_sim.replicate_keys(0, -1, 10**12)


def test_no_first_output_collisions_within_replicate():
    # > 10^6 node streams of one replicate: all first draws distinct
    keys = np.array([ReplicateSeed(2024, 0).key()], dtype=np.uint64)
    states = tree_sim.generation_states(keys, 20)[0]
    first = tree_sim.stream_uniforms(states, 0)
    assert first.size == 1 << 20
    assert np.unique(first).size == first.size


def test_no_first_output_collisions_across_replicates():
    # 16 replicates x 2^16 nodes = 2^20 streams, all distinct
    keys = np.array(
        [ReplicateSeed(2024, r).key() for r in range(16)], dtype=np.uint64
    )
    states = tree_sim.generation_states(keys, 16)
    first = tree_sim.stream_uniforms(states, 0).ravel()
    assert np.unique(first).size == first.size


def test_vectorized_streams_match_scalar_streams():
    seed = ReplicateSeed(99, 5)
    keys = np.array([seed.key()], dtype=np.uint64)
    g = 6
    states = tree_sim.generation_states(keys, g)
    u = tree_sim.stream_uniforms(states, 2)[0]
    z0, z1 = tree_sim.stream_normal_pairs(states, 0)
    for i in (0, 1, 17, 63):
        s = node_randomness(seed, NodeAddress(g, i))
        assert u[i] == s.uniform(2)
        assert (z0[0, i], z1[0, i]) == s.normal_pair(0)
    zi = tree_sim.stream_normal_pairs(tree_sim.initial_states(keys), 0)
    assert (zi[0][0], zi[1][0]) == initial_randomness(seed).normal_pair(0)
    # a column slice of a generation is those columns of the whole one
    assert np.array_equal(tree_sim.generation_states(keys, g, 16, 8), states[:, 16:24])


def test_vector_stages_leave_their_inputs_alone():
    # the stages work in place, but only on arrays they have just made: no
    # input changes, and no output shares memory with an input or another output
    keys = tree_sim.replicate_keys(4, 0, 3)
    states = tree_sim.generation_states(keys, 5, 8, 16)
    inputs = [keys, states]
    before = [a.copy() for a in inputs]
    outputs = [
        tree_sim.replicate_keys(4, 0, 3),
        tree_sim.generation_states(keys, 5, 8, 16),
        tree_sim.initial_states(keys),
        tree_sim.stream_uniforms(states, 2),
        *tree_sim.stream_normal_pairs(states, 0),
    ]
    for a, b in zip(inputs, before):
        assert np.array_equal(a, b)
    arrays = inputs + outputs
    for i, j in itertools.combinations(range(len(arrays)), 2):
        assert not np.shares_memory(arrays[i], arrays[j]), (i, j)


def test_engine_never_writes_into_a_yielded_block(forced_block_widths):
    # a caller may keep the blocks it is given: after the walk, each one
    # still holds what it held when yielded, and no two share memory
    keys = tree_sim.replicate_keys(4, 0, 3)
    tracks = [(0.5, 1.0, 0.0, 1.2), (-0.3, 2.0, 0.7, 0.0)]
    for _ in forced_block_widths():
        blocks = tree_sim.generation_blocks(tracks, keys, 9)
        kept = [(states, states.copy()) for _, _, states in blocks]
        assert len(kept) >= 10
        for states, copy in kept:
            assert states.tobytes() == copy.tobytes()
        for (a, _), (b, _) in itertools.combinations(kept, 2):
            assert not np.shares_memory(a, b)


# -- simulation ---------------------------------------------------------------

def test_simulate_n0_single_initial_draw():
    model = BarModel(0.5, 1.0)
    bufs = list(stationary_tree(model, 0, ReplicateSeed(3, 0)))
    assert len(bufs) == 1
    assert bufs[0].generation == 0
    assert bufs[0].states.shape == (1,)
    z = initial_randomness(ReplicateSeed(3, 0)).normal_pair(0)[0]
    assert bufs[0].states[0] == stationary_initial(model).rho0 * z


def test_simulate_generation_sizes():
    model = BarModel(0.5, 1.0)
    sizes = [buf.states.size for buf in stationary_tree(model, 3, ReplicateSeed(0, 0))]
    assert sizes == [1, 2, 4, 8]


def test_degenerate_copy_kernel_gives_constant_tree():
    c = 3.25
    for buf in simulate_generations(copy_track(c), 5, ReplicateSeed(1, 0)):
        assert np.all(buf.states == c)


def test_iid_generation_mean_when_a_is_zero():
    # a=0: generation 10 is 1024 i.i.d. N(0,1) values
    model = BarModel(0.0, 1.0)
    last = [buf for buf in stationary_tree(model, 10, ReplicateSeed(7, 0))][-1]
    assert abs(float(np.mean(last.states))) < 4.0 / math.sqrt(1024)


def test_generations_are_views_of_one_heap_ordered_tree():
    # node (g, i) is element 2^g - 1 + i of simulate_tree's array, and every
    # generation is a view of that array, never a copy
    track, seed = stationary_track(BarModel(0.5, 1.0)), ReplicateSeed(4, 0)
    bufs = list(simulate_generations(track, 9, seed))
    tree = bufs[0].states.base
    assert tree.shape == (2**10 - 1,)
    assert all(buf.states.base is tree for buf in bufs)
    joined = np.concatenate([buf.states for buf in bufs])
    assert joined.tobytes() == simulate_tree(track, 9, seed).tobytes()


def test_negative_n_rejected():
    # checked when the generator is made, not when it is first advanced,
    # so a caller fails before it writes anything
    with pytest.raises(ValueError, match=f"n=-1 out of range 0..{MAX_GENERATION}"):
        stationary_tree(BarModel(0.5, 1.0), -1, ReplicateSeed(0, 0))


def test_blocks_tile_generations_in_heap_order():
    # n = 20 in blocks no wider than the constants allow, which together
    # cover every generation exactly once, left to right
    rows, n, c = 3, 20, 0.75
    keys = tree_sim.replicate_keys(0, 0, rows)
    cap = max(tree_sim.BLOCK_ELEMENTS // rows, tree_sim.MIN_BLOCK_WIDTH)
    covered = [0] * (n + 1)
    last_done = -1
    for g, lo, states in tree_sim.generation_blocks([copy_track(c)], keys, n):
        w = states.shape[-1]
        assert states.shape == (1, rows, w) and w <= cap and w & (w - 1) == 0
        assert lo == covered[g], (g, lo)
        covered[g] += w
        assert np.all(states == c)
        if covered[g] == 1 << g:
            # generations are completed in ascending order
            assert g == last_done + 1
            last_done = g
    assert covered == [1 << g for g in range(n + 1)]
    assert tree_sim.MIN_BLOCK_WIDTH < cap < 1 << n


@pytest.mark.parametrize("g", [8, 12, 15, 16])
def test_block_sums_merge_in_numpys_pairwise_order(g):
    # the carry stack over column blocks of any width 2^b >= 2^7 reproduces
    # np.sum over the whole generation bit for bit; the order matters,
    # since narrower blocks do not
    x = np.exp(3.0 * np.random.default_rng(g).standard_normal((3, 1 << g)))
    whole = x.sum(axis=-1)

    def merged(width):
        stack = []
        for lo in range(0, 1 << g, width):
            tree_sim.merge_block_sum(stack, x[:, lo : lo + width].sum(axis=-1))
        assert len(stack) == 1
        return stack[0][1]

    for b in range(7, g + 1):
        assert merged(1 << b).tobytes() == whole.tobytes(), b
    assert merged(1 << 6).tobytes() != whole.tobytes()
    assert tree_sim.MIN_BLOCK_WIDTH >= 1 << 7


# every width to 300, and every power of two up to 2^14 past it
ROW_SUM_WIDTHS = [*range(1, 301), *(1 << k for k in range(9, 15))]


def test_row_sums_is_numpys_sum_bit_for_bit():
    rng = np.random.default_rng(30)
    for w in ROW_SUM_WIDTHS:
        for shape in [(w,), (5, w), (2, 3, w)]:
            a = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
            assert tree_sim.row_sums(a).tobytes() == a.sum(axis=-1).tobytes(), shape


@pytest.mark.parametrize("w", [1, 2, 3, 7, 8, 9, 300])
def test_row_sums_keeps_numpys_signed_zeros_and_non_finite_values(w):
    tiny = 5e-324  # the smallest subnormal
    rows = [
        np.full(w, -0.0),  # numpy's sum is +0.0
        np.full(w, tiny),
        np.resize([tiny, -tiny, 3 * tiny], w),
        np.resize([1.0, math.inf], w),
        np.resize([-math.inf, -1.0], w),
        np.resize([math.inf, -math.inf], w),
        np.resize([2.0, math.nan], w),
    ]
    a = np.array(rows)
    with np.errstate(invalid="ignore"):  # inf - inf
        for shaped in (a, a.reshape(1, *a.shape), a[0]):
            assert tree_sim.row_sums(shaped).tobytes() == shaped.sum(axis=-1).tobytes()


def test_reproducibility_bitwise():
    model = BarModel(0.7, 1.3)
    run = lambda: [
        buf.states.copy()
        for buf in stationary_tree(model, 8, ReplicateSeed(42, 11))
    ]
    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


@settings(max_examples=20, deadline=None)
@given(perm_seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_node_evaluation_order_is_irrelevant(perm_seed):
    # recompute one generation node-by-node in a random order and compare
    # against the streamed simulation
    model = BarModel(0.6, 0.9)
    seed = ReplicateSeed(13, 2)
    n = 5
    bufs = list(stationary_tree(model, n, seed))
    parents = bufs[n - 1].states
    got = np.empty(1 << n)
    order = np.random.default_rng(perm_seed).permutation(1 << (n - 1))
    for i in order:
        stream = node_randomness(seed, NodeAddress(n - 1, int(i)))
        c0, c1 = bar_transition(parents[i], stream, model)
        got[2 * i] = c0
        got[2 * i + 1] = c1
    assert np.array_equal(got, bufs[n].states)


# -- scope ------------------------------------------------------------------

def scope_statistic(generations, f, scope, n):
    # sum of f over the nodes of A_n, read from a stream of generations
    members = scope_generations(scope, n)
    return sum(float(np.sum(f(buf.states))) for buf in generations if buf.generation in members)


def test_collect_statistic_cardinalities():
    assert list(scope_generations(GENERATION_SCOPE, 5)) == [5]
    assert list(scope_generations(TREE_SCOPE, 5)) == [0, 1, 2, 3, 4, 5]
    assert scope_size(GENERATION_SCOPE, 5) == 32
    assert scope_size(TREE_SCOPE, 5) == 63
    # counting the nodes of a simulated tree gives the same |A_n|
    model = BarModel(0.5, 1.0)
    one = lambda y: np.ones_like(y)
    for scope in (GENERATION_SCOPE, TREE_SCOPE):
        tree = stationary_tree(model, 5, ReplicateSeed(0, 0))
        assert scope_statistic(tree, one, scope, 5) == scope_size(scope, 5)


def test_collect_statistic_unknown_scope():
    with pytest.raises(ValueError, match="unknown scope"):
        scope_generations("node_n", 3)
    with pytest.raises(ValueError, match="unknown scope"):
        scope_size("node_n", 3)


def test_stream_vs_stored_equivalence():
    # consuming the generator lazily equals summing over a stored tree
    model = BarModel(0.5, 1.0)
    n = 10
    sim = lambda: stationary_tree(model, n, ReplicateSeed(21, 0))
    stored = list(sim())
    f = lambda y: y * y - y
    for scope in (GENERATION_SCOPE, TREE_SCOPE):
        assert scope_statistic(sim(), f, scope, n) == scope_statistic(stored, f, scope, n)


def test_dump_trajectory_roundtrip():
    model = BarModel(0.5, 1.0)
    n = 4
    stored = list(stationary_tree(model, n, ReplicateSeed(5, 0)))
    fh = io.StringIO()
    dump_trajectory(stored, fh)
    lines = fh.getvalue().split("\n")
    assert lines[0] == "generation,index,state"
    assert lines[-1] == ""  # trailing LF
    rows = [line.split(",") for line in lines[1:-1]]
    assert len(rows) == (1 << (n + 1)) - 1
    # repr round-trips the exact float
    for g, i, s in rows:
        assert float(s) == stored[int(g)].states[int(i)]
    assert rows[0][:2] == ["0", "0"]
    assert rows[-1][:2] == ["4", "15"]


@pytest.mark.parametrize("chunk", [1, 3, 1 << 12])
def test_dump_trajectory_chunks_keep_every_byte(monkeypatch, chunk):
    # the chunked dump writes the bytes of one write per row, formatted from
    # the numpy scalar as before chunking: across chunk edges, in generations
    # wider and narrower than a chunk, and for signed zeros, subnormals,
    # exponent forms and non-finite states
    odd = np.array([-0.0, 0.0, 5e-324, 1e-5, 1e-4, 0.1, 1e16, 1e15, -np.inf, np.nan, 2.0**60])
    trees = [
        list(stationary_tree(BarModel(0.5, 1.0), 6, ReplicateSeed(3, 0))),
        [tree_sim.GenerationBuffer(g, np.resize(odd, 1 << g)) for g in range(5)],
    ]
    monkeypatch.setattr(tree_sim, "DUMP_CHUNK", chunk)
    for tree in trees:
        rows = [f"{buf.generation},{i},{float(s)!r}\n" for buf in tree for i, s in enumerate(buf.states)]
        fh = io.StringIO()
        dump_trajectory(iter(tree), fh)
        assert fh.getvalue() == "generation,index,state\n" + "".join(rows)
