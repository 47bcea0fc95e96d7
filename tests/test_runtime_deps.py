"""The package runs on numpy alone: scipy is a test-only reference.

A fresh interpreter imports the CLI and every module of the package and
reports which top-level packages got loaded; importing scipy.special
would double the start-up time of every bartree process, and a process
pool (multiprocessing, concurrent.futures) would add to it too, where the
CLT run's workers need only os.fork.
"""

import subprocess
import sys

import pytest

from conftest import CHILD_ENV, ROOT

SRC = ROOT / "src"


@pytest.fixture(scope="module")
def loaded_packages():
    """Top-level names of the modules loaded by importing all of bartree."""
    modules = sorted(p.stem for p in (SRC / "bartree").glob("*.py") if p.stem != "__init__")
    code = (
        "import sys, bartree.cli\n"
        f"for name in {modules!r}: __import__('bartree.' + name)\n"
        "print(' '.join(sorted({m.split('.')[0] for m in sys.modules})))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", code], env=CHILD_ENV, capture_output=True, text=True, check=True
    ).stdout.split()


def test_importing_bartree_loads_no_scipy(loaded_packages):
    assert "scipy" not in loaded_packages


def test_importing_bartree_loads_no_process_pool(loaded_packages):
    pools = [name for name in loaded_packages if name in ("multiprocessing", "concurrent")]
    assert not pools, f"importing bartree loaded {pools}"
