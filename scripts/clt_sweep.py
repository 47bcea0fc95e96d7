"""Seed sweep of the CLT experiment: per-seed KS / variance / correlation.

Reruns one experiment configuration over a range of master seeds and
prints the per-seed diagnostics plus pass counts against the asymptotic
1% KS critical value 1.6276/sqrt(n0). This is the reproduction script
for the statistical acceptance numbers; compare the printed ratios with
scripts/exact_zeta_variance.py to see how much of a miss is finite-n
bias rather than sampling noise.

Example:

    python scripts/clt_sweep.py --a 0.7 --n 15 --gamma 0.201 --n0 500 --seeds 20
"""

import argparse
import dataclasses
import math
import sys
import time

import numpy as np

from bartree.fluctuations import cross_generation_pairs
from bartree.harness import ExperimentConfig, independence_report, run_clt_experiment
from bartree.tree_sim import SCOPE_ALIASES


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", type=float, required=True)
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("--n", type=int, default=15)
    ap.add_argument("--gamma", type=float, default=0.201)
    ap.add_argument("--x", type=float, default=-1.3)
    ap.add_argument("--n0", type=int, default=500)
    ap.add_argument("--scope", choices=sorted(SCOPE_ALIASES), default="gen")
    ap.add_argument("--seeds", type=int, default=20, help="master seeds 0..seeds-1")
    ap.add_argument("--record-prev", action="store_true",
                    help="also report corr(zeta_n, zeta_{n-1})")
    args = ap.parse_args(argv)
    if args.seeds < 1:  # no seed makes no pass count and no median
        ap.error(f"--seeds must be >= 1, got {args.seeds}")
    if args.n0 < 2:  # one replicate has no sample variance
        ap.error(f"--n0 must be >= 2, got {args.n0}")
    if args.record_prev and args.n0 < 3:  # independence_report needs 3 pairs
        ap.error(f"--n0 must be >= 3 with --record-prev, got {args.n0}")
    try:  # the config's own gate, before any output
        config = ExperimentConfig(
            a=args.a, sigma=args.sigma, n=args.n, gamma=args.gamma, x=args.x,
            n0=args.n0, scope=SCOPE_ALIASES[args.scope],
            record_previous_generation=args.record_prev,
        )
    except ValueError as exc:
        ap.error(str(exc))

    crit = 1.6276 / math.sqrt(args.n0)
    ks_pass = 0
    var_ratios = []
    corr_pass = 0

    print(f"KS 1% critical value: {crit:.4f}")
    print(f"{'seed':>4} {'ks':>8} {'mean':>8} {'var':>8} {'var/theory':>10}"
          + ("  corr" if args.record_prev else ""))
    t0 = time.time()
    for seed in range(args.seeds):
        res = run_clt_experiment(dataclasses.replace(config, master_seed=seed))
        ratio = res.sample_variance / res.theoretical_variance
        var_ratios.append(ratio)
        ks_pass += res.ks_distance < crit
        line = (f"{seed:>4} {res.ks_distance:>8.4f} {res.sample_mean:>+8.4f} "
                f"{res.sample_variance:>8.4f} {ratio:>10.3f}")
        if args.record_prev:
            rep = independence_report(cross_generation_pairs(res))
            corr_pass += rep.passed
            line += f" {rep.correlation:>+6.3f}"
        print(line)

    print(f"\nKS pass: {ks_pass}/{args.seeds}   "
          f"median var ratio: {np.median(var_ratios):.3f}   "
          f"[{time.time() - t0:.0f}s]")
    if args.record_prev:
        print(f"|corr| < 3/sqrt(n0) pass: {corr_pass}/{args.seeds}")
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()  # a short output meets a closed pipe here, not at exit
    except BrokenPipeError:  # the reader left (`| head`): close stdout, say nothing
        try:
            sys.stdout.close()
        except BrokenPipeError:  # closing flushes once more; the file is closed anyway
            pass
        code = 1
    sys.exit(code)
