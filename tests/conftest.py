import importlib.util
import os
from pathlib import Path

import pytest

from bartree import harness, tree_sim
from bartree.bar_model import BarModel
from bartree.quadrature import QuadratureRule
from bartree.smoothing import gaussian_kernel

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


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
def gauss_K():
    return gaussian_kernel()


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
def script():
    """load_script, for tests of the other study scripts."""
    return load_script


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
        rows = chunk_rows if chunk is None else lambda n: chunk
        monkeypatch.setattr(tree_sim, "chunk_rows", rows)

    return force
