"""Generation-streaming simulation on the full binary tree.

Randomness is node-addressed and splittable: every node of every
replicate owns a counter-based stream derived by avalanche mixing
(splitmix64 finalizer) of the master seed, the replicate index and the
node's heap code 2^g + i. Trajectories are therefore bit-identical
regardless of evaluation order, chunking or parallelism, and any node
can be re-drawn in isolation. A chunk's keys come from one vectorized
splitmix64 pass (replicate_keys); ReplicateSeed.key is the scalar spec.

Stream layout within one replicate:
  * heap code 0 is reserved for the initial draw at the root,
  * heap code 2^g + i feeds the transition at node (g, i), i.e. the
    randomness used to generate that node's two children.
The map code -> code*GOLDEN + 1 (mod 2^64) is a bijection, XOR with the
replicate key and the avalanche finisher are bijections too, so stream
states never collide within a replicate.
"""

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# Heap codes live in uint64; generation 63 would overflow 2^g + i.
MAX_GENERATION = 62

# The engine's column blocks: about BLOCK_ELEMENTS cells across all tracks
# (128 KiB of float64) so that a block step stays in cache, and never
# narrower than numpy's pairwise-summation block of 128, so that block sums
# merged in heap order reproduce np.sum over the whole generation bit for
# bit. Each pending block is an array of its own, never a view of a sibling.
BLOCK_ELEMENTS = 1 << 14
MIN_BLOCK_WIDTH = 1 << 7

# simulate_tree holds one whole tree: 2^23 - 1 float64, 64 MiB.
MAX_STORED_DEPTH = 22

# dump_trajectory formats and writes DUMP_CHUNK rows at a time: about 100 KB
# of text, so a depth-22 generation of 2^22 rows is never held as text whole.
# Chunks of 2^10 to 2^14 rows dumped an n=15 tree equally fast.
DUMP_CHUNK = 1 << 12

_TWO_PI = 2.0 * np.pi

GENERATION_SCOPE = "generation_n"
TREE_SCOPE = "tree_n"
# each scope's name on the command line
SCOPE_ALIASES = {"gen": GENERATION_SCOPE, "tree": TREE_SCOPE}


def _mix(z: int) -> int:
    """splitmix64 finalizer on a python int (always in [0, 2^64))."""
    z &= MASK64
    z ^= z >> 30
    z = (z * _MIX1) & MASK64
    z ^= z >> 27
    z = (z * _MIX2) & MASK64
    z ^= z >> 31
    return z


def _mix_u64(z: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer, in place on the uint64 ndarray z,
    which is returned. Every caller passes an array it has just made."""
    shifted = z >> np.uint64(30)
    z ^= shifted
    z *= np.uint64(_MIX1)
    z ^= np.right_shift(z, np.uint64(27), out=shifted)
    z *= np.uint64(_MIX2)
    z ^= np.right_shift(z, np.uint64(31), out=shifted)
    return z


def _u64_to_uniform(out):
    """Map uint64 words to (0, 1): take the top 53 bits, offset by half
    a step so 0 and 1 are never returned (safe under log). Shifts `out` in place."""
    out >>= np.uint64(11)
    u = out.astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    return u


@dataclass(frozen=True)
class NodeAddress:
    """Position in the full binary tree: generation g, index i in [0, 2^g)."""

    generation: int
    index: int

    def __post_init__(self):
        if self.generation < 0:
            raise ValueError("generation must be non-negative")
        if self.generation > MAX_GENERATION:
            raise OverflowError(
                f"generation {self.generation} exceeds the uint64 heap-code "
                f"capacity (max {MAX_GENERATION})"
            )
        if not 0 <= self.index < (1 << self.generation):
            raise ValueError(
                f"index {self.index} out of range for generation {self.generation}"
            )

    @property
    def heap_code(self) -> int:
        return (1 << self.generation) + self.index


@dataclass(frozen=True)
class ReplicateSeed:
    """(master_seed, replicate_index): the identity of one replicate."""

    master_seed: int
    replicate_index: int

    def __post_init__(self):
        if self.replicate_index < 0:
            raise ValueError("replicate_index must be non-negative")

    def key(self) -> int:
        """64-bit replicate key; chained avalanche keeps nearby master
        seeds / replicate indices statistically unrelated."""
        return _mix((_mix(self.master_seed) + ((self.replicate_index + 1) * GOLDEN)) & MASK64)


def replicate_keys(master_seed: int, start: int, stop: int) -> np.ndarray:
    """Keys of replicates start..stop-1: ReplicateSeed.key as one vectorized splitmix64 pass."""
    if start < 0:
        raise ValueError("replicate_index must be non-negative")
    r = np.arange(start, stop, dtype=np.uint64)
    return _mix_u64(np.uint64(_mix(master_seed)) + (r + np.uint64(1)) * np.uint64(GOLDEN))


class NodeStream:
    """Counter-based random stream of one node.

    Draw k is a pure function of (state, k); there is no hidden cursor,
    so evaluation order cannot matter. Transcendentals go through numpy
    scalars on purpose: numpy's scalar and array paths are bit-identical
    while libm (the math module) differs in the last ulp for log/exp.
    """

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & MASK64

    def raw(self, k: int) -> int:
        return _mix((self.state + (k + 1) * GOLDEN) & MASK64)

    def uniform(self, k: int) -> float:
        return float(((self.raw(k) >> 11) + 0.5) * 2.0**-53)

    def normal_pair(self, base_k: int = 0):
        """Two independent N(0,1) draws by Box-Muller from draws
        (base_k, base_k+1)."""
        u1 = np.float64(self.uniform(base_k))
        u2 = np.float64(self.uniform(base_k + 1))
        r = np.sqrt(-2.0 * np.log(u1))
        theta = _TWO_PI * u2
        return float(r * np.cos(theta)), float(r * np.sin(theta))


def node_randomness(seed: ReplicateSeed, addr: NodeAddress) -> NodeStream:
    """The stream owned by `addr` within `seed`'s replicate."""
    return NodeStream(_mix(seed.key() ^ ((addr.heap_code * GOLDEN + 1) & MASK64)))


def initial_randomness(seed: ReplicateSeed) -> NodeStream:
    """The reserved stream (heap code 0) feeding the initial draw."""
    return NodeStream(_mix(seed.key() ^ 1))


# -- vectorized twins of the scalar stream (used by the block engine) -------

def generation_states(
    keys: np.ndarray, generation: int, lo: int = 0, width: Optional[int] = None
) -> np.ndarray:
    """uint64 stream states of nodes [lo, lo + width) of one generation
    (by default all of it), for a block of replicate keys; shape
    (len(keys), width)."""
    if generation > MAX_GENERATION:
        raise OverflowError(f"generation {generation} exceeds heap-code capacity")
    if width is None:
        width = (1 << generation) - lo
    codes = np.uint64(1 << generation) + np.arange(lo, lo + width, dtype=np.uint64)
    codes = codes * np.uint64(GOLDEN) + np.uint64(1)
    return _mix_u64(np.asarray(keys, dtype=np.uint64)[:, None] ^ codes[None, :])


def initial_states(keys: np.ndarray) -> np.ndarray:
    """uint64 states of the reserved initial streams, shape (len(keys),)."""
    return _mix_u64(np.asarray(keys, dtype=np.uint64) ^ np.uint64(1))


def stream_uniforms(states: np.ndarray, k: int) -> np.ndarray:
    """Draw k of every stream in `states`, as uniforms in (0, 1)."""
    offset = np.uint64(((k + 1) * GOLDEN) & MASK64)
    return _u64_to_uniform(_mix_u64(states + offset))


def stream_normal_pairs(states: np.ndarray, base_k: int = 0):
    """Box-Muller pairs from draws (base_k, base_k+1) of every stream."""
    r = stream_uniforms(states, base_k)
    theta = stream_uniforms(states, base_k + 1)
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta *= _TWO_PI
    e0 = np.cos(theta)
    e0 *= r
    np.sin(theta, out=theta)
    theta *= r
    return e0, theta


# -- simulation --------------------------------------------------------------

@dataclass(frozen=True)
class GenerationBuffer:
    """States of one whole generation; states[i] is node (generation, i)."""

    generation: int
    states: np.ndarray


def check_depth(n: int) -> None:
    """Reject a tree depth outside 0..MAX_GENERATION (the heap-code bound)."""
    if not 0 <= n <= MAX_GENERATION:
        raise ValueError(f"tree depth n={n} out of range 0..{MAX_GENERATION}")


def _block_width(column_cells: int) -> int:
    """Width of the engine's column blocks for `column_cells` cells a column
    (replicates times tracks): the largest power of two whose block has at
    most BLOCK_ELEMENTS cells, and never below MIN_BLOCK_WIDTH."""
    cells = BLOCK_ELEMENTS // column_cells
    widest = 1 << (cells.bit_length() - 1) if cells else 0
    return max(MIN_BLOCK_WIDTH, widest)


def chunk_rows(n: int, tracks: int) -> int:
    """Replicates per chunk at depth n for a pass over `tracks` tracks: the
    most whose widest block, across the tracks, fits BLOCK_ELEMENTS."""
    return max(1, BLOCK_ELEMENTS // (tracks * min(1 << n, MIN_BLOCK_WIDTH)))


def generation_blocks(tracks, keys: np.ndarray, n: int) -> Iterator[tuple]:
    """Yield (g, lo, states) for every column block of generations 0..n of
    a block of replicates, depth first, for every track at once.

    A track is a row (a, sigma, m0, rho0): a BAR model and its root law
    N(m0, rho0^2). states[t, r] holds nodes (g, lo)..(g, lo+w-1) of track
    t's tree keyed keys[r]. A generation is one block (w = 2^g) while it
    fits the block width and is split into blocks of that width further
    down; widths are powers of two. Blocks come in heap order (a parent
    before its children, a left block and its descendants before the right
    one), so one generation's blocks arrive left to right, and generation
    g's last block before g+1's. Each pending block is its own array, so
    only O(n) blocks are held at once, and a yielded block is never written.

    The draws are made once for all tracks: the root is m0 + rho0 * z, z the
    first normal of the reserved stream, or m0 itself for a point mass
    (rho0 == 0; nothing is drawn if every root is one), and node (g, i)
    gives its children (g+1, 2i) and (g+1, 2i+1) a*x + sigma*e from the
    normal pair e of its own stream: each track's trees are those it grows alone.
    """
    check_depth(n)
    a, sigma, m0, rho0 = np.asarray(tracks, dtype=float).reshape(-1, 4).T[:, :, None, None]
    rows = len(keys)
    width = _block_width(len(a) * rows)
    root = np.repeat(m0, rows, axis=1)
    drawn = rho0[:, 0, 0] != 0
    if drawn.any():
        z0, _ = stream_normal_pairs(initial_states(keys), 0)
        root[drawn] += rho0[drawn] * z0[:, None]
    stack = [(0, 0, root)]
    while stack:
        g, lo, states = stack.pop()
        yield g, lo, states
        if g == n:
            continue
        w = states.shape[-1]
        e0, e1 = stream_normal_pairs(generation_states(keys, g, lo, w), 0)
        ax = a * states
        first = sigma * e0
        first += ax
        del states, e0
        second = sigma * e1
        second += ax
        del e1, ax
        h = w if 2 * w <= width else w // 2
        for c in range(w - h, -1, -h):  # the right block first: it is popped last
            children = np.empty((len(a), rows, 2 * h))
            children[..., 0::2] = first[..., c : c + h]
            children[..., 1::2] = second[..., c : c + h]
            stack.append((g + 1, 2 * (lo + c), children))
        del first, second, children


def merge_block_sum(stack: list, block_sum) -> None:
    """Add one block's sum to the carry stack of a generation's sum.

    The blocks of one generation have one power-of-two width and are
    pushed left to right; two sums of equal level (covering equally many
    blocks) are merged as soon as both exist. After the last block the
    stack holds one entry, (level, sum), and for widths >= MIN_BLOCK_WIDTH
    that sum equals np.sum(axis=-1) over the whole generation bit for bit:
    numpy sums 2^k > 128 doubles as the sum of its two halves,
    recursively, down to blocks of 128.
    """
    level = 0
    while stack and stack[-1][0] == level:
        _, left = stack.pop()
        block_sum = left + block_sum
        level += 1
    stack.append((level, block_sum))


def row_sums(a: np.ndarray) -> np.ndarray:
    """np.sum(a, axis=-1) bit for bit: the one per-row rule of every block sum.

    Below 8 columns numpy's pairwise sum is 0.0 plus the columns left to
    right (so a row of -0.0 sums to +0.0); that is done here a column at a
    time over all rows at once, where numpy reduces one short row at a time.
    """
    if not 0 < a.shape[-1] < 8:
        return a.sum(axis=-1)
    out = a[..., 0] + 0.0
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out


def simulate_tree(track, n: int, seed: ReplicateSeed) -> np.ndarray:
    """Generations 0..n of one replicate's tree for `track` (a, sigma, m0,
    rho0), from the block engine, as one float64 array in heap order: node
    (g, i) at its heap code minus one, 2^g - 1 + i, so a scope A_n is the
    suffix from its first generation. The depth is checked, against
    MAX_STORED_DEPTH too, before anything is allocated."""
    check_depth(n)
    if n > MAX_STORED_DEPTH:
        raise ValueError(
            f"tree depth n={n} exceeds the stored-tree limit {MAX_STORED_DEPTH} "
            f"(one tree of 2^{MAX_STORED_DEPTH + 1} - 1 values)"
        )
    keys = replicate_keys(seed.master_seed, seed.replicate_index, seed.replicate_index + 1)
    tree = np.empty((2 << n) - 1)
    for g, lo, states in generation_blocks([track], keys, n):
        start = (1 << g) - 1 + lo
        tree[start : start + states.shape[-1]] = states[0, 0]
    return tree


def simulate_generations(track, n: int, seed: ReplicateSeed) -> Iterator[GenerationBuffer]:
    """GenerationBuffer for g = 0..n of simulate_tree's array; each buffer's
    states are a view of that one array."""
    tree = simulate_tree(track, n, seed)
    return (GenerationBuffer(g, tree[(1 << g) - 1 : (2 << g) - 1]) for g in range(n + 1))


def scope_generations(scope: str, n: int) -> range:
    """The generations that make up A_n: n alone for G_n, 0..n for T_n."""
    if scope == GENERATION_SCOPE:
        return range(n, n + 1)
    if scope == TREE_SCOPE:
        return range(n + 1)
    raise ValueError(f"unknown scope {scope!r}")


def scope_size(scope: str, n: int) -> int:
    """|A_n|: 2^n for G_n, 2^(n+1) - 1 for T_n."""
    return sum(1 << g for g in scope_generations(scope, n))


def dump_trajectory(generations: Iterable[GenerationBuffer], fh) -> None:
    """Write (generation, index, state) CSV rows, generations ascending, one
    write per DUMP_CHUNK rows of a generation. The state is repr of the
    Python float, so every row round-trips its float64 exactly."""
    fh.write("generation,index,state\n")
    for buf in generations:
        head = f"{buf.generation},"
        for lo in range(0, buf.states.size, DUMP_CHUNK):
            states = buf.states[lo : lo + DUMP_CHUNK].tolist()
            fh.write("".join([f"{head}{i},{s!r}\n" for i, s in enumerate(states, lo)]))
