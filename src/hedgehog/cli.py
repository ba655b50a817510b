"""Command line entry point for the experiment harness.

Each ExperimentConfig field is one flag, with the field's name (dashed),
type and default; --fixed-scaling clears sqrt_scaling, and --torus-quads
reads "8x4".
"""

import argparse
import sys
import typing
from dataclasses import fields

from .errors import HedgehogError
from .harness import EXPERIMENTS, ExperimentConfig, run_experiment

HELP = {
    "geometry": "builtin:{sphere,spheroid,torus} or a geometry file path",
    "levels": "number of uniform quadrisection levels",
    "q": "quadrature order",
    "p": "extrapolation order",
    "a": "check-point spacing factor (default b/6)",
    "b": "first check-point distance factor",
    "sqrt_scaling": "scale check distances by L instead of sqrt(L)",
    "degree": "polynomial degree of fitted patches",
    "per_face": "quads per cube-face edge for sphere/spheroid",
    "torus_quads": "major x minor quad counts for the torus",
    "target_subsample": "cap on evaluation targets per level (0 = all nodes)",
}
CHOICES = {"kernel": ["laplace", "stokes", "elasticity"]}


def _quads(text: str) -> tuple[int, int]:
    nu, nv = (int(x) for x in text.lower().split("x"))
    return nu, nv


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hedgehog",
        description="Boundary integral solver experiments on Bezier-patch surfaces",
    )
    defaults = ExperimentConfig()
    for f in fields(ExperimentConfig):
        name, default = f.name, getattr(defaults, f.name)
        flag = "--" + name.replace("_", "-")
        # an optional field (float | None) takes the type of its values
        kind = (typing.get_args(f.type) or (f.type,))[0]
        if name == "experiment":
            parser.add_argument(name, choices=EXPERIMENTS)
        elif name == "sqrt_scaling":
            parser.add_argument("--fixed-scaling", dest=name, action="store_false",
                                default=default, help=HELP[name])
        elif name == "torus_quads":
            parser.add_argument(flag, type=_quads, default="x".join(map(str, default)),
                                help=HELP[name])
        elif typing.get_origin(f.type) is tuple:
            parser.add_argument(flag, type=kind, nargs="+", default=default)
        else:
            parser.add_argument(flag, type=kind, default=default,
                                choices=CHOICES.get(name), help=HELP.get(name))
    return parser


def config_from_args(args) -> ExperimentConfig:
    values = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    return ExperimentConfig(
        **{k: tuple(v) if isinstance(v, list) else v for k, v in values.items()}
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
