"""Measure a baseline: sets of untraced runs of every workload, one traced
run of each, and the machine they ran on.

usage: python3 perfbench/baseline.py --out FILE

Every workload gets SETS sets of RUNS untraced runs and then one traced
run. Runs are sequential, each in a fresh process, each with its own
seed (set k uses seeds 100*k+1 .. 100*k+RUNS). For every end-to-end
metric the summary gives, per set, the median, the quartiles and the
spread (interquartile distance over the median), and whether the spread
stays within a third of the bound in BENCHMARK.json; and whether each
later set's median is no worse than the first set's by more than the
bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import measure

RUN_TIMEOUT_S = 600
SETS = 2
RUNS = 10


def load_benchmark():
    with open(measure.ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(measure.HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=measure.ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }


def summarize(runs, end_to_end):
    out = {}
    for m in end_to_end:
        values = [r["metrics"][m["name"]] for r in runs]
        q1, _, q3 = measure.quartiles(values)
        spread = measure.spread(values)
        out[m["name"]] = {
            "unit": m["unit"], "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": spread, "bound": m["bound"],
            "spread_below_third_of_bound": spread < m["bound"] / 3,
            "values": values,
        }
    return out


def drift(first, later, end_to_end):
    """Share by which a later set's median is worse than the first set's."""
    out = {}
    for m in end_to_end:
        a, b = first[m["name"]]["median"], later[m["name"]]["median"]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        out[m["name"]] = {"worse_by": worse, "within_bound": worse <= m["bound"]}
    return out


def machine_facts():
    import numpy
    import scipy

    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    llc = None
    for index in sorted(caches.glob("index*")):
        level = int((index / "level").read_text())
        if llc is None or level >= llc[0]:
            llc = (level, (index / "size").read_text().strip())
    model = next(
        (line.split(":", 1)[1].strip() for line in open("/proc/cpuinfo")
         if line.startswith("model name")),
        platform.processor(),
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "llc": {"level": llc[0], "size": llc[1]} if llc else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None):
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    e2e = bench["end_to_end"]
    report = {
        "run_seconds": seconds,
        "machine": machine_facts(),
        "workloads": {name: {"sets": []} for name in names},
    }

    def save():
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")

    # each set covers every workload before the next set starts
    for k in range(SETS):
        for name in names:
            runs = []
            for i in range(1, RUNS + 1):
                runs.append(run_once(name, 100 * k + i, seconds, 0))
                print(f"{name} set {k} seed {100 * k + i}: {runs[-1]['metrics']}", flush=True)
            summary = summarize(runs, e2e)
            report["workloads"][name]["sets"].append({"runs": runs, "summary": summary})
            save()
            for metric, s in summary.items():
                print(f"{name} set {k} {metric}: median {s['median']:.6g} "
                      f"spread {s['spread']:.4f} (bound {s['bound']})", flush=True)
    for name, entry in report["workloads"].items():
        summaries = [s["summary"] for s in entry["sets"]]
        entry["drift_from_first_set"] = [drift(summaries[0], s, e2e) for s in summaries[1:]]
        entry["traced"] = run_once(name, 1, seconds, 1)
        print(f"{name} traced: {entry['traced']['metrics']}", flush=True)
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
