"""The package runs on numpy alone: scipy is a test-only reference.

A fresh interpreter imports the CLI and every module of the package and
reports which scipy modules got loaded; importing scipy.special would
double the start-up time of every bartree process.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_bartree_loads_no_scipy():
    modules = sorted(p.stem for p in (SRC / "bartree").glob("*.py") if p.stem != "__init__")
    code = (
        "import sys, bartree.cli\n"
        f"for name in {modules!r}: __import__('bartree.' + name)\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert not out, f"importing bartree loaded scipy modules: {out}"
