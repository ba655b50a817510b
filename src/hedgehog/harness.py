"""Experiment drivers: convergence tables, stability sweeps, precision runs.

Each run_* function executes one experiment, returns the table rows, and
(optionally) writes `<experiment>.csv`, a summary text file with the
least-squares convergence-order fit, and the refinement report into an
output directory.  Wall-clock throughput figures are reported but never
asserted anywhere; they are hardware dependent.
"""

import csv
import os
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .chebyshev import extrapolate, extrapolation_weights
from .errors import UsageError
from .evaluation import EvalOptions, evaluate_one_sided, surface_node_labels
from .geometry.embeddings import QuadMesh, builtin_mesh
from .geometry.io import read_quad_mesh
from .kernels import LAPLACE, STOKES, KernelFamily, elasticity
from .quadrature import discretize, smooth_potential
from .references import ReferenceSolution
from .refinement import (
    AdmissibilityConfig,
    RefinementReport,
    UpsamplingConfig,
    adaptive_upsample,
    coarse_set,
    uniform_upsample,
)
from .solver import BVProblem, assemble, assemble_from_sets, solve

EXPERIMENTS = (
    "greens-identity",
    "solve",
    "extrapolation-sweep",
    "constant-density",
    "target-precision-sweep",
)


@dataclass
class ExperimentConfig:
    """Every experiment option, its type and its default; cli.py builds the
    command line flags from these fields."""

    experiment: str = "greens-identity"
    geometry: str = "builtin:spheroid"
    kernel: str = "laplace"
    poisson_ratio: float = 0.3
    levels: int = 3
    q: int = 20
    p: int = 6
    a: float | None = None
    b: float = 0.03
    sqrt_scaling: bool = True
    eps_target_list: tuple[float, ...] = (1e-4, 1e-5, 1e-6)
    seed: int = 0
    out: str | None = "results"  # None writes no files
    degree: int = 8
    per_face: int = 4
    torus_quads: tuple[int, int] = (8, 4)
    upsample_levels: int = 2
    target_subsample: int = 2000  # 0 evaluates at every node
    charges: int = 100
    charge_radius: float = 1.0
    eps_geometry: float = 1e-5
    eps_boundary: float = 1e-5
    min_length: float = 0.0

    def resolve_kernel(self) -> KernelFamily:
        name = self.kernel.lower()
        if name == "laplace":
            return LAPLACE
        if name == "stokes":
            return STOKES
        if name == "elasticity":
            return elasticity(self.poisson_ratio)
        raise UsageError(f"unknown kernel {self.kernel!r}")

    def resolve_mesh(self) -> QuadMesh:
        if self.geometry.startswith("builtin:"):
            name = self.geometry.split(":", 1)[1]
            if name in ("sphere", "spheroid"):
                return builtin_mesh(name, per_face=self.per_face)
            if name == "torus":
                nu, nv = self.torus_quads
                return builtin_mesh(name, n_major=nu, n_minor=nv)
            raise UsageError(f"unknown builtin geometry {name!r}")
        return read_quad_mesh(self.geometry)

    def eval_options(self) -> EvalOptions:
        return EvalOptions(
            p=self.p,
            b=self.b,
            a=self.a,
            q=self.q,
            sqrt_scaling=self.sqrt_scaling,
        )

    def admissibility(self) -> AdmissibilityConfig:
        """Coarse-set tolerances on the same check line as eval_options()."""
        return AdmissibilityConfig(
            **asdict(self.eval_options().check_line()),
            eps_geometry=self.eps_geometry,
            eps_boundary=self.eps_boundary,
            min_length=self.min_length,
        )


def fit_convergence_order(lengths, errors) -> float:
    """Least-squares slope of log(error) against log(max patch length)."""
    lengths = np.asarray(lengths, dtype=float)
    errors = np.asarray(errors, dtype=float)
    good = errors > 0
    if good.sum() < 2:
        return float("nan")
    slope, _ = np.polyfit(np.log(lengths[good]), np.log(errors[good]), 1)
    return float(slope)


def _write_outputs(config, name, header, rows, eoc=float("nan"), report=None):
    """Write <name>.csv into config.out and, when a report is given, the
    summary with the convergence-order fit and the refinement report."""
    if not config.out:
        return
    os.makedirs(config.out, exist_ok=True)
    with open(os.path.join(config.out, f"{name}.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    if report is None:
        return
    path = os.path.join(config.out, f"{config.experiment}_summary.txt")
    with open(path, "w") as fh:
        fh.write(f"experiment: {config.experiment}\n")
        fh.write(f"geometry: {config.geometry}\nkernel: {config.kernel}\n")
        line = asdict(config.eval_options().check_line())
        fh.write("check line: " + " ".join(f"{k}={v}" for k, v in line.items()) + "\n")
        fh.write(f"estimated convergence order: {eoc:.3f}\n" if eoc == eoc else "")
    with open(os.path.join(config.out, "refinement_report.txt"), "w") as fh:
        fh.write(report.to_text())


def _subsample(n_total, limit):
    if not limit or n_total <= limit:
        return np.arange(n_total)
    stride = n_total / limit
    return np.unique((np.arange(limit) * stride).astype(np.int64))


def _evaluate_at_nodes(config, eval_nodes, kernel, density, nodes, fine_nodes, opts,
                       layer="double"):
    """One-sided evaluation at (a subsample of) the surface nodes eval_nodes.

    Returns the subsampled rows, their values and the evaluation rate in
    targets per second per core.
    """
    pick = _subsample(len(eval_nodes), config.target_subsample)
    labels = surface_node_labels(eval_nodes).take(pick)
    t0 = time.perf_counter()
    values, _ = evaluate_one_sided(
        eval_nodes.positions[pick], labels, kernel, density, nodes, fine_nodes, opts,
        layer=layer,
    )
    rate = len(pick) / (time.perf_counter() - t0) / (os.cpu_count() or 1)
    return pick, values, rate


# ---------------------------------------------------------------------------
# Green's identity convergence
# ---------------------------------------------------------------------------


def run_greens_identity(config: ExperimentConfig):
    """Residual of the reconstruction identity under uniform quadrisection.

    Per level, evaluates S[t_c] + D[u_c] - u_c with the extrapolated
    one-sided scheme at (a subsample of) the surface nodes and reports the
    relative max-norm residual.
    """
    kernel = config.resolve_kernel()
    ref = ReferenceSolution.on_sphere(
        kernel, m=config.charges, radius=config.charge_radius, seed=config.seed
    )
    report = RefinementReport()
    coarse0 = coarse_set(
        config.resolve_mesh(), config.degree, config.admissibility(), report=report
    )
    opts = config.eval_options()
    rows = []
    for level in range(config.levels):
        coarse = coarse0.uniform_refined(level)
        fine = uniform_upsample(coarse, config.upsample_levels)
        nodes = discretize(coarse, config.q)
        u_c = ref.field(nodes.positions)
        t_c = ref.conormal(nodes.positions, nodes.normals)
        pick, values, rate = _evaluate_at_nodes(
            config, nodes, kernel, (t_c, u_c), nodes, discretize(fine, config.q), opts,
            layer="combined",
        )
        scale = np.abs(u_c).max()
        resid = np.abs(values - u_c[pick]).max() / (scale if scale > 0 else 1.0)
        rows.append(
            (
                level,
                len(coarse),
                len(nodes),
                len(pick),
                float(resid),
                float(coarse.lengths.max()),
                rate,
            )
        )
    eoc = fit_convergence_order([r[5] for r in rows], [r[4] for r in rows])
    _write_outputs(
        config,
        "greens-identity",
        [
            "level",
            "patches",
            "nodes",
            "targets",
            "linf_rel_error",
            "max_patch_length",
            "targets_per_sec_per_core",
        ],
        rows,
        eoc,
        report,
    )
    return rows, eoc


def _solution_error(config, system, density, ref, opts):
    """Error of a solved density against the reference field.

    Evaluates the solution at (a subsample of) an independent, slightly
    coarser node set on the same surface.  Returns the max relative error
    and the evaluation rate in targets per second per core.
    """
    eval_nodes = discretize(system.coarse, max(4, config.q - 2))
    pick, values, rate = _evaluate_at_nodes(
        config, eval_nodes, system.problem.kernel, density.values, system.nodes,
        system.fine_nodes, opts,
    )
    exact = ref.field(eval_nodes.positions[pick])
    err = np.abs(values - exact).max() / np.abs(exact).max()
    return float(err), rate


# ---------------------------------------------------------------------------
# Solver convergence
# ---------------------------------------------------------------------------


def run_solver_convergence(config: ExperimentConfig):
    """GMRES solve per level, error on an independent coarser node set."""
    kernel = config.resolve_kernel()
    ref = ReferenceSolution.on_sphere(
        kernel, m=config.charges, radius=config.charge_radius, seed=config.seed
    )
    f = ref.boundary_condition()
    adm = config.admissibility()
    report = RefinementReport()
    coarse0 = coarse_set(config.resolve_mesh(), config.degree, adm, f, report)
    opts = config.eval_options()
    rows = []
    for level in range(config.levels):
        coarse = coarse0.uniform_refined(level)
        fine = uniform_upsample(coarse, config.upsample_levels)
        problem = BVProblem(
            kernel=kernel,
            geometry=coarse.mesh,
            boundary_condition=f,
            degree=config.degree,
            admissibility=adm,
            options=opts,
            uniform_levels=config.upsample_levels,
        )
        system = assemble_from_sets(problem, coarse, fine)
        density, solve_report = solve(system)
        err, rate = _solution_error(config, system, density, ref, opts)
        rows.append(
            (
                level,
                len(coarse),
                len(system.nodes),
                solve_report.iterations,
                float(solve_report.final_residual),
                err,
                float(coarse.lengths.max()),
                rate,
            )
        )
    eoc = fit_convergence_order([r[6] for r in rows], [r[5] for r in rows])
    _write_outputs(
        config,
        "solve",
        [
            "level",
            "patches",
            "nodes",
            "gmres_iterations",
            "gmres_residual",
            "linf_rel_error",
            "max_patch_length",
            "targets_per_sec_per_core",
        ],
        rows,
        eoc,
        report,
    )
    return rows, eoc


# ---------------------------------------------------------------------------
# Extrapolation stability sweep
# ---------------------------------------------------------------------------


def extrapolation_error(ray: float, spacing: float, p: int):
    """Relative error extrapolating mu(t) = 1 / |t - RHO| back to t = 0."""
    samples = 1.0 / (ray + spacing * np.arange(p + 1) - RHO)
    exact = 1.0 / abs(RHO)
    value = extrapolate(samples, extrapolation_weights(p, -ray / spacing))[0]
    return abs(value - exact) / exact


def run_extrapolation_sweep(
    config: ExperimentConfig,
    p_list=(6, 8, 10, 12, 14),
    r_over_rho=None,
    rp_over_r=None,
):
    """Error heatmap of line extrapolation against a point singularity."""
    r_grid = np.linspace(0.05, 1.0, 39) if r_over_rho is None else np.asarray(r_over_rho)
    s_grid = np.linspace(0.05, 1.0, 39) if rp_over_r is None else np.asarray(rp_over_r)
    rows = []
    for p in p_list:
        for rr in r_grid:
            ray = rr * abs(RHO)
            for ss in s_grid:
                spacing = ss * ray / p
                err = extrapolation_error(ray, spacing, p)
                rows.append((p, float(rr), float(ss), float(np.log10(max(err, 1e-17)))))
    _write_outputs(
        config,
        "extrapolation-sweep",
        ["p", "R_over_rho", "rp_over_R", "log10_rel_error"],
        rows,
    )
    return rows


B_MIN, B_MAX = 0.02, 0.30  # the range of spacing factors choose_b searches
LAM = 1.0  # singularity distance behind the surface, in patch lengths
RHO = -0.1  # the sweep's singularity, behind the surface at t = 0
SAFETY = 1.0  # discount on the target for the gap between the sweep and real kernels


def choose_b(eps_target: float, p: int = 6) -> float:
    """Largest spacing factor whose sweep error stays under the target.

    Reads the p-order stability map along rp/R = 1 with the singularity
    distance taken as LAM patch lengths; SAFETY discounts the target to
    absorb the difference between the toy sweep and real kernels.
    """
    grid = np.linspace(B_MIN, B_MAX, 200)
    best = B_MIN
    for b in grid:
        ray = (b / LAM) * abs(RHO)
        err = extrapolation_error(ray, ray / p, p)
        if err <= SAFETY * eps_target:
            best = b
    return float(best)


# ---------------------------------------------------------------------------
# Constant-density identity
# ---------------------------------------------------------------------------


def run_constant_density(config: ExperimentConfig):
    """Interior double layer of a unit density on an admissible sphere."""
    adm = config.admissibility()
    report = RefinementReport()
    coarse = coarse_set(config.resolve_mesh(), config.degree, adm, report=report)
    fine = adaptive_upsample(coarse, UpsamplingConfig(), adm, report=report)
    nodes = discretize(coarse, config.q)
    fine_nodes = discretize(fine, config.q)
    opts = config.eval_options()
    ones = np.ones(len(nodes))
    labels = surface_node_labels(nodes)
    values, _ = evaluate_one_sided(
        nodes.positions, labels, LAPLACE, ones, nodes, fine_nodes, opts
    )
    surface_err = float(np.abs(values - 1.0).max())
    center = np.average(nodes.positions, axis=0, weights=nodes.weights)
    center_val = smooth_potential(LAPLACE, "double", nodes, ones, center[None, :])
    center_err = float(abs(center_val[0, 0] - 1.0))
    rows = [
        ("surface_max_error", surface_err, len(coarse), len(fine)),
        ("center_error", center_err, len(coarse), len(fine)),
    ]
    _write_outputs(
        config,
        "constant-density",
        ["check", "error", "coarse_patches", "fine_patches"],
        rows,
        report=report,
    )
    return rows


# ---------------------------------------------------------------------------
# Requested-precision sweep
# ---------------------------------------------------------------------------


def run_target_precision_sweep(config: ExperimentConfig):
    """Full pipeline per requested accuracy; achieved error vs request.

    The spacing factor b comes from the extrapolation stability map; the
    geometry and boundary tolerances stay fixed across the sweep so the
    coarse set is identical and only the upsampled set grows.
    """
    kernel = config.resolve_kernel()
    mesh = config.resolve_mesh()
    ref = ReferenceSolution.single_charge(kernel, (0.0, 0.0, 0.0))
    f = ref.boundary_condition()
    rows = []
    report = RefinementReport()
    for eps in config.eps_target_list:
        b = choose_b(eps, p=config.p)
        point = replace(config, b=b, a=None, sqrt_scaling=False)
        opts = point.eval_options()
        problem = BVProblem(
            kernel=kernel,
            geometry=mesh,
            boundary_condition=f,
            degree=config.degree,
            admissibility=point.admissibility(),
            options=opts,
        )
        system = assemble(problem)
        report = system.refinement_report
        density, solve_report = solve(system)
        achieved, rate = _solution_error(config, system, density, ref, opts)
        row = (
            eps,
            float(b),
            achieved,
            len(system.coarse),
            len(system.fine),
            solve_report.iterations,
            rate,
        )
        print(
            f"eps_target={eps:g} b={b:.4f} achieved={achieved:.3e} "
            f"coarse={len(system.coarse)} fine={len(system.fine)} "
            f"iters={solve_report.iterations}",
            flush=True,
        )
        rows.append(row)
    _write_outputs(
        config,
        "target-precision-sweep",
        [
            "eps_target",
            "b",
            "achieved_error",
            "coarse_patches",
            "fine_patches",
            "gmres_iterations",
            "targets_per_sec_per_core",
        ],
        rows,
        report=report,
    )
    return rows


def run_experiment(config: ExperimentConfig):
    name = config.experiment
    if name == "greens-identity":
        return run_greens_identity(config)
    if name == "solve":
        return run_solver_convergence(config)
    if name == "extrapolation-sweep":
        return run_extrapolation_sweep(config)
    if name == "constant-density":
        return run_constant_density(config)
    if name == "target-precision-sweep":
        return run_target_precision_sweep(config)
    raise UsageError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
