"""Command line front end: check / simulate / estimate / clt / moments."""

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .bar_model import (
    BarModel,
    GaussianInitial,
    check_assumptions,
    stationary_initial,
)
from .harness import (
    ExperimentConfig,
    config_from_dict,
    export,
    export_ecdf,
    export_histogram,
    monte_carlo_generation_sums,
    run_clt_experiment,
)
from .oracle import cross_moment_MGn_MGm, mean_MGn, second_moment_MGn, verdict
from .quadrature import QuadratureRule
from .smoothing import (
    BandwidthSchedule,
    admissible_bandwidth,
    bandwidth,
    density_estimate,
    gaussian_kernel,
)
from .tree_sim import (
    SCOPE_ALIASES,
    ReplicateSeed,
    dump_trajectory,
    scope_generations,
    simulate_generations,
)


def _initial_from_args(args):
    if (args.m0 is None) != (args.rho0 is None):
        raise ValueError("provide --m0 and --rho0 together")
    if args.m0 is None:
        return None
    return GaussianInitial(m0=args.m0, rho0=args.rho0)


def cmd_check(args) -> int:
    model = BarModel(args.a, args.sigma)
    report = check_assumptions(model, _initial_from_args(args))
    order = gaussian_kernel().order  # the estimator's kernel's, as in run_clt_experiment
    regime = admissible_bandwidth(BandwidthSchedule(args.gamma), order, model.alpha)
    print(json.dumps(
        {"assumptions": dataclasses.asdict(report), "regime": dataclasses.asdict(regime)},
        indent=2,
        sort_keys=True,
    ))
    return 0 if (report.initial_ok and regime.admissible) else 1


def _single_tree(args):
    """Generations 0..n of replicate 0 of `--seed`, stationary root; the
    depth is checked before anything is written."""
    initial = stationary_initial(BarModel(args.a, args.sigma))
    track = (args.a, args.sigma, initial.m0, initial.rho0)
    return simulate_generations(track, args.n, ReplicateSeed(args.seed, 0))


def cmd_simulate(args) -> int:
    gens = _single_tree(args)
    if args.dump is not None:
        try:
            with open(args.dump, "w", newline="") as fh:
                dump_trajectory(gens, fh)
        except OSError as exc:
            raise ValueError(f"cannot write dump file: {exc}")
        print(f"wrote {args.dump}")
    else:
        dump_trajectory(gens, sys.stdout)
    return 0


def cmd_estimate(args) -> int:
    members = scope_generations(SCOPE_ALIASES[args.scope], args.n)
    h = bandwidth(args.n, BandwidthSchedule(args.gamma))
    xs = np.array([float(tok) for tok in args.x.split(",")])
    if not np.all(np.isfinite(xs)):  # before the tree is simulated and stored
        raise ValueError("query points contain non-finite values")
    sample = np.concatenate(
        [buf.states for buf in _single_tree(args) if buf.generation in members]
    )
    mu_hat = density_estimate(sample, xs, h, gaussian_kernel())
    print("x,mu_hat")
    for xq, v in zip(xs, np.atleast_1d(mu_hat)):
        print(f"{float(xq)!r},{float(v)!r}")
    return 0


def _read_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}")
    if text.lstrip().startswith("{"):
        return json.loads(text)
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: cannot parse config line {raw!r}")
        key, val = line.split("=", 1)
        val = val.strip()
        try:
            out[key.strip()] = json.loads(val)
        except json.JSONDecodeError:
            out[key.strip()] = val
    return out


def cmd_clt(args) -> int:
    fields = dict(_read_config_file(args.config)) if args.config else {}
    config_fields = dataclasses.fields(ExperimentConfig)
    for f in config_fields:  # a flag overrides the file; a field with no flag reads None
        val = getattr(args, f.name, None)
        if val is not None:
            fields[f.name] = val
    if isinstance(fields.get("scope"), str):  # the config refuses other types
        fields["scope"] = SCOPE_ALIASES.get(fields["scope"], fields["scope"])
    initial = _initial_from_args(args)
    if initial is not None:
        fields["initial"] = initial
    fields.setdefault("sigma", 1.0)
    missing = [f.name for f in config_fields
               if f.default is dataclasses.MISSING and f.name not in fields]
    if missing:
        raise ValueError(f"missing required config fields: {', '.join(missing)}")
    try:
        config = config_from_dict(fields)
    except TypeError as exc:
        raise ValueError(f"bad config: {exc}")
    if args.bins is not None and not args.histogram:
        raise ValueError("--bins needs --histogram")
    if args.bins is not None and args.bins < 1:
        raise ValueError(f"--bins must be >= 1, got {args.bins}")
    if os.path.exists(args.out) and not os.path.isdir(args.out):  # before the run
        raise ValueError(f"cannot write output directory: {args.out!r} is not a directory")

    result = run_clt_experiment(config)
    try:
        written = [export(result, "csv", args.out), export(result, "json", args.out)]
        if args.histogram:
            written.append(export_histogram(result, args.out, args.bins))
        if args.ecdf:
            written.append(export_ecdf(result, args.out))
    except OSError as exc:
        raise ValueError(f"cannot write output directory: {exc}")
    print(
        f"n0={config.n0} scope={config.scope} "
        f"ks={result.ks_distance:.4f} mean={result.sample_mean:+.4f} "
        f"var={result.sample_variance:.4f} "
        f"(theory {result.theoretical_variance:.4f}) "
        f"admissible={result.admissibility.admissible} "
        f"[{result.wall_time_seconds:.1f}s]"
    )
    for p in written:
        print(f"wrote {p}")
    return 0


_TEST_FUNCTIONS = {
    "one": lambda y: np.ones_like(np.asarray(y, dtype=float)),
    "id": lambda y: np.asarray(y, dtype=float),
    "square": lambda y: np.asarray(y, dtype=float) ** 2,
}


def cmd_moments(args) -> int:
    if args.reps == 1:  # fewer than one is the Monte Carlo's own refusal
        raise ValueError("the Monte Carlo standard error needs at least two replicates, got 1")
    if not math.isfinite(args.x):
        raise ValueError(f"--x must be finite, got {args.x}")
    model = BarModel(args.a, args.sigma)
    f = _TEST_FUNCTIONS[args.f]
    n, x = args.n, args.x

    # the oracle first: what it refuses (n above its cost cap) costs no tree
    quad = QuadratureRule.gauss_hermite(64)
    rows = [  # (quantity, oracle value, generations whose sums multiply)
        (f"E[M_G{n}(f)]", mean_MGn(f, n, x, model, quad), (n,)),
        (f"E[M_G{n}(f)^2]", second_moment_MGn(f, n, x, model, quad), (n, n)),
    ]
    if args.m is not None:
        cross = cross_moment_MGn_MGm(f, f, n, args.m, x, model, quad)
        rows.append((f"E[M_G{n}(f) M_G{args.m}(f)]", cross, (n, args.m)))
    gens = {g: f for *_, factors in rows for g in factors}
    sums = monte_carlo_generation_sums(gens, x, model, args.reps, master_seed=args.seed)

    print(f"f={args.f} a={args.a} sigma={args.sigma} x={x} reps={args.reps}")
    print(f"{'quantity':<24} {'oracle':>14} {'quad_err':>10} {'mc':>14} {'mc_se':>10} {'z':>7}")
    for name, orc, factors in rows:
        est, se, z = verdict(math.prod(sums[g] for g in factors), orc)
        print(
            f"{name:<24} {orc.value:>14.6g} {orc.quadrature_error_estimate:>10.2e} "
            f"{est:>14.6g} {se:>10.2e} {z:>7.2f}"
        )
    return 0


def _add_initial_flags(p):
    p.add_argument("--m0", type=float, default=None, help="initial law mean")
    p.add_argument("--rho0", type=float, default=None, help="initial law std dev")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bartree",
        description="bifurcating autoregressive trees: simulation, density "
        "estimation and CLT verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # no prefix matching: the retired --s flag must not read as --sigma
    p = sub.add_parser("check", help="assumption + bandwidth regime report (JSON)",
                       allow_abbrev=False)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--gamma", type=float, required=True)
    _add_initial_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="simulate one tree, print/dump trajectory CSV")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dump", type=str, default=None, metavar="PATH")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="kernel density estimate on one tree")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--x", type=str, required=True, metavar="X1[,X2,...]")
    p.add_argument("--scope", choices=sorted(SCOPE_ALIASES), default="gen")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("clt", help="run the CLT experiment, write samples + summary")
    p.add_argument("--config", type=str, default=None, metavar="FILE",
                   help="key=value or JSON file with ExperimentConfig fields")
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--n0", type=int, default=None)
    p.add_argument("--scope", choices=sorted(SCOPE_ALIASES), default=None)
    p.add_argument("--master-seed", dest="master_seed", type=int, default=None)
    p.add_argument("--record-previous-generation", dest="record_previous_generation",
                   action=argparse.BooleanOptionalAction, default=None)
    _add_initial_flags(p)
    p.add_argument("--out", type=str, default=".", help="output directory")
    p.add_argument("--histogram", action="store_true", help="also write histogram.csv")
    p.add_argument("--ecdf", action="store_true", help="also write ecdf.csv")
    p.add_argument("--bins", type=int, default=None, help="histogram bin count")
    p.set_defaults(func=cmd_clt)

    p = sub.add_parser("moments", help="moment oracle vs Monte Carlo table")
    p.add_argument("--f", choices=sorted(_TEST_FUNCTIONS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--m", type=int, default=None, help="also compare E[M_Gn M_Gm]")
    p.add_argument("--reps", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_moments)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a short output meets a closed pipe here, not at exit
        return code
    except ValueError as exc:
        parser.error(str(exc))
    except BrokenPipeError:  # the reader left (`| head`); the exit flush goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
