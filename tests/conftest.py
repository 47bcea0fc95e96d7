import importlib.util
import math
import os
from pathlib import Path

import numpy as np
import pytest

from bartree import harness, tree_sim
from bartree.bar_model import BarModel, bar_transition
from bartree.quadrature import QuadratureRule

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"
# the environment of a child interpreter that imports bartree from this
# checkout: src ahead of whatever PYTHONPATH the tests run under
CHILD_ENV = dict(os.environ,
                 PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))


def load_script(name):
    """scripts/<name>.py as a module, loaded by its path."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def quad64():
    return QuadratureRule.gauss_hermite(64)


@pytest.fixture(scope="session")
def quad96():
    return QuadratureRule.gauss_hermite(96)


@pytest.fixture(scope="session")
def model_half():
    return BarModel(0.5, 1.0)


@pytest.fixture(scope="session")
def exact_zeta():
    """scripts/exact_zeta_variance.py, loaded by its path.

    The script is the closed-form finite-n law of zeta_n and imports no
    package code, so it stays an independent yardstick for the simulator.
    """
    return load_script("exact_zeta_variance")


@pytest.fixture(scope="session")
def closed_form_bias(exact_zeta):
    """bias(x, k): the smoothing bias B_h(x) = (K_h * mu)(x) - mu(x) of the
    Gaussian kernel at h = 2^-k, for a=0.5, sigma=1.

    It is read off the yardstick's mean shift sqrt(2^n h_n) B_{h_n}(x) of
    zeta_n: with gamma = 0.2, n = 5k gives h_n = 2^-k exactly.
    """

    def bias(x, k):
        n = 5 * k
        return exact_zeta.analyze(0.5, 1.0, n, 0.2, x, "gen")[2] / math.sqrt(2.0 ** (n - k))

    return bias


@pytest.fixture(scope="session")
def script():
    """load_script, for tests of the other study scripts."""
    return load_script


@pytest.fixture(scope="session")
def spec_tree():
    """spec_tree(track, n, seed): generations 0..n (float64 arrays) of the
    ReplicateSeed `seed` on the engine's track (a, sigma, m0, rho0), grown node
    by node from the scalar RNG spec: the root m0 + rho0 * z (z from
    initial_randomness; m0 when rho0 == 0), then bar_transition on each
    node's node_randomness."""

    def grow(track, n, seed):
        a, sigma, m0, rho0 = track
        model = BarModel(a, sigma)
        z = tree_sim.initial_randomness(seed).normal_pair(0)[0]
        gens = [np.array([m0 + rho0 * z if rho0 else m0])]
        for g in range(n):
            children = []
            for i, parent in enumerate(gens[-1]):
                stream = tree_sim.node_randomness(seed, tree_sim.NodeAddress(g, i))
                children.extend(bar_transition(parent, stream, model))
            gens.append(np.array(children))
        return gens

    return grow


@pytest.fixture
def forced_block_widths(monkeypatch):
    """Iterate over it to run the engine under each forced column-block
    width in turn: its minimum 128, then 512, then None for whole
    generations (one block each), whatever the replicates per chunk."""

    def widths():
        for width in (128, 512, None):
            monkeypatch.setattr(tree_sim, "BLOCK_ELEMENTS", 1 if width else 1 << 62)
            monkeypatch.setattr(tree_sim, "MIN_BLOCK_WIDTH", width or 1 << 7)
            yield width

    return widths


@pytest.fixture
def forced_split(monkeypatch):
    """Call it as forced_split(workers, chunk) to make the chunk driver split
    each later run into `workers` replicate ranges (at most one per
    replicate) and engine passes of `chunk` replicates (None: the engine's
    own tree_sim.chunk_rows), through the facts the driver reads:
    FORK_NODES, the usable CPUs and tree_sim.chunk_rows."""
    chunk_rows = tree_sim.chunk_rows

    def force(workers, chunk=None):
        cpus = set(range(workers))
        monkeypatch.setattr(harness, "FORK_NODES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        rows = chunk_rows if chunk is None else lambda n, tracks: chunk
        monkeypatch.setattr(tree_sim, "chunk_rows", rows)

    return force
