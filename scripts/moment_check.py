"""Sweep the moment oracle against Monte Carlo over a parameter grid.

For each (a, f, n, x) cell the script simulates `reps` trees with the
root pinned at x, forms M_{G_n}(f) per tree, and z-scores the empirical
mean and second moment against the quadrature oracle. Everything should
sit within a few standard errors; exit status is nonzero if any |z|
exceeds the --zmax gate, which makes the script usable as a slow
self-check in CI.
"""

import argparse
import itertools
import math
import sys

import numpy as np

from bartree.bar_model import BarModel
from bartree.harness import monte_carlo_generation_sums
from bartree.oracle import mean_MGn, second_moment_MGn
from bartree.quadrature import QuadratureRule

FUNCTIONS = {
    "id": lambda y: np.asarray(y, dtype=float),
    "square": lambda y: np.asarray(y, dtype=float) ** 2,
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--reps", type=int, default=100_000)
    ap.add_argument("--a", type=float, nargs="*", default=[0.0, 0.5, 0.9])
    ap.add_argument("--n", type=int, nargs="*", default=[1, 2, 3, 6])
    ap.add_argument("--x", type=float, nargs="*", default=[0.0, 1.0, -1.3])
    ap.add_argument("--sigma", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--zmax", type=float, default=4.0)
    args = ap.parse_args(argv)

    quad = QuadratureRule.gauss_hermite(64)
    worst = 0.0
    failed = 0
    print(f"{'a':>4} {'f':>7} {'x':>6} {'n':>3} {'z_mean':>8} {'z_second':>9}")
    for a, x in itertools.product(args.a, args.x):
        model = BarModel(a, args.sigma)
        for fname, f in FUNCTIONS.items():
            sums = monte_carlo_generation_sums(
                {n: f for n in args.n}, x, model, args.reps, master_seed=args.seed
            )
            for n in args.n:
                vals = sums[n]
                zs = []
                for emp, th in (
                    (vals, mean_MGn(f, n, x, model, quad).value),
                    (vals**2, second_moment_MGn(f, n, x, model, quad).value),
                ):
                    se = emp.std(ddof=1) / math.sqrt(len(emp))
                    zs.append((emp.mean() - th) / se if se > 0 else 0.0)
                print(f"{a:>4} {fname:>7} {x:>6} {n:>3} {zs[0]:>8.2f} {zs[1]:>9.2f}")
                worst = max(worst, abs(zs[0]), abs(zs[1]))
                failed += any(abs(z) > args.zmax for z in zs)
    print(f"\nworst |z| = {worst:.2f}, cells over {args.zmax}: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
