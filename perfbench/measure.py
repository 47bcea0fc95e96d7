"""Statistics and process measurements shared by run.py and baseline.py.

This module imports neither numpy nor bartree, so the set-up probes it
launches are the first to import them in their process.
"""

import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

PROBE_TIMEOUT_S = 60


def quartiles(values):
    """(Q1, Q2, Q3) as statistics.quantiles(values, n=4) gives them."""
    return tuple(statistics.quantiles(values, n=4))


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def peak_rss_mb():
    """Peak resident memory of this process so far (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_seconds(workload, seed):
    """Wall seconds from launching a fresh interpreter until it has
    imported bartree, built the kernel and parsed the first op's config."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe for {workload} failed (exit code {code})")
    return elapsed
