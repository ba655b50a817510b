"""Command line entry point for the experiment harness."""

import argparse
import sys

from .errors import HedgehogError
from .harness import EXPERIMENTS, ExperimentConfig, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hedgehog",
        description="Boundary integral solver experiments on Bezier-patch surfaces",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument(
        "--geometry",
        default="builtin:spheroid",
        help="builtin:{sphere,spheroid,torus} or a geometry file path",
    )
    parser.add_argument("--kernel", default="laplace",
                        choices=["laplace", "stokes", "elasticity"])
    parser.add_argument("--poisson-ratio", type=float, default=0.3)
    parser.add_argument("--levels", type=int, default=3,
                        help="number of uniform quadrisection levels")
    parser.add_argument("--q", type=int, default=20, help="quadrature order")
    parser.add_argument("--p", type=int, default=6, help="extrapolation order")
    parser.add_argument("--a", type=float, default=None,
                        help="check-point spacing factor (default b/6)")
    parser.add_argument("--b", type=float, default=0.03,
                        help="first check-point distance factor")
    parser.add_argument("--fixed-scaling", action="store_true",
                        help="scale check distances by L instead of sqrt(L)")
    parser.add_argument("--eps-target", type=float, default=1e-6)
    parser.add_argument("--eps-target-list", type=float, nargs="+",
                        default=[1e-4, 1e-5, 1e-6])
    parser.add_argument("--eps-geometry", type=float, default=1e-5)
    parser.add_argument("--eps-boundary", type=float, default=1e-5)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="results")
    parser.add_argument("--degree", type=int, default=8,
                        help="polynomial degree of fitted patches")
    parser.add_argument("--per-face", type=int, default=4,
                        help="quads per cube-face edge for sphere/spheroid")
    parser.add_argument("--torus-quads", default="8x4",
                        help="major x minor quad counts for the torus")
    parser.add_argument("--upsample-levels", type=int, default=2)
    parser.add_argument("--target-subsample", type=int, default=2000,
                        help="cap on evaluation targets per level (0 = all nodes)")
    parser.add_argument("--charges", type=int, default=100)
    parser.add_argument("--charge-radius", type=float, default=1.0)
    parser.add_argument("--min-length", type=float, default=0.0)
    return parser


def config_from_args(args) -> ExperimentConfig:
    nu, nv = (int(x) for x in args.torus_quads.lower().split("x"))
    return ExperimentConfig(
        experiment=args.experiment,
        geometry=args.geometry,
        kernel=args.kernel,
        poisson_ratio=args.poisson_ratio,
        levels=args.levels,
        q=args.q,
        p=args.p,
        a=args.a,
        b=args.b,
        sqrt_scaling=not args.fixed_scaling,
        eps_target=args.eps_target,
        eps_target_list=tuple(args.eps_target_list),
        seed=args.seed,
        out=args.out,
        degree=args.degree,
        per_face=args.per_face,
        torus_quads=(nu, nv),
        upsample_levels=args.upsample_levels,
        target_subsample=args.target_subsample,
        charges=args.charges,
        charge_radius=args.charge_radius,
        eps_geometry=args.eps_geometry,
        eps_boundary=args.eps_boundary,
        min_length=args.min_length,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = config_from_args(args)
    try:
        result = run_experiment(config)
    except HedgehogError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if isinstance(result, tuple):
        rows, eoc = result
        for row in rows:
            print(" ".join(str(x) for x in row))
        if eoc == eoc:
            print(f"estimated convergence order: {eoc:.3f}")
    else:
        for row in result[: 20 if config.experiment == "extrapolation-sweep" else None]:
            print(" ".join(str(x) for x in row))
    print(f"results written to {config.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
