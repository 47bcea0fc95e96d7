"""Set-up probe: a fresh process that does everything before a workload's
first op, prints "ready" and exits.

usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import sys
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    name, seed = sys.argv[1], int(sys.argv[2])
    workload = workloads.WORKLOADS[name]
    workload.prepare(next(workload.inputs(seed)))
    print("ready", flush=True)
