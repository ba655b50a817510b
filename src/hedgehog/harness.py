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

from .backends import default_backend
from .chebyshev import cc_rule, extrapolate
from .errors import UsageError
from .evaluation import EvalOptions, evaluate_one_sided, surface_node_labels
from .geometry.embeddings import QuadMesh, builtin_mesh
from .geometry.io import read_quad_mesh
from .geometry.patches import PatchSet
from .kernels import LAPLACE, STOKES, KernelFamily, elasticity
from .quadrature import discretize, smooth_potential
from .references import ReferenceSolution
from .refinement import (
    AdmissibilityConfig,
    RefinementReport,
    UpsamplingConfig,
    adaptive_upsample,
    enforce_admissibility,
    refine_for_boundary_condition,
    refine_for_geometry,
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
    eps_target: float = 1e-6
    eps_target_list: tuple = (1e-4, 1e-5, 1e-6)
    seed: int = 0
    out: str | None = None
    degree: int = 8
    per_face: int = 4
    torus_quads: tuple = (8, 4)
    upsample_levels: int = 2
    target_subsample: int = 2000  # 0 evaluates at every node
    charges: int = 100
    charge_radius: float = 1.0
    eps_geometry: float = 1e-5
    eps_boundary: float = 1e-5
    min_length: float = 0.0
    max_levels_gate: bool = False  # allow levels beyond the direct-sum budget

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
            eps_target=self.eps_target,
        )

    def admissibility(self) -> AdmissibilityConfig:
        """Coarse-set tolerances on the same check line as eval_options()."""
        return AdmissibilityConfig(
            **asdict(self.eval_options().check_line()),
            eps_geometry=self.eps_geometry,
            eps_boundary=self.eps_boundary,
            min_length=self.min_length,
        )


DIRECT_SUM_BUDGET = 6.0e11  # kernel evaluations per level before gating


def estimated_level_cost(config: ExperimentConfig, n_patches: int) -> float:
    nodes = n_patches * config.q**2
    targets = config.target_subsample or nodes
    checks = min(targets, nodes) * (config.p + 1)
    sources = nodes * 4**config.upsample_levels
    return float(checks) * float(sources)


def fit_convergence_order(lengths, errors) -> float:
    """Least-squares slope of log(error) against log(max patch length)."""
    lengths = np.asarray(lengths, dtype=float)
    errors = np.asarray(errors, dtype=float)
    good = errors > 0
    if good.sum() < 2:
        return float("nan")
    slope, _ = np.polyfit(np.log(lengths[good]), np.log(errors[good]), 1)
    return float(slope)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _subsample(n_total, limit):
    if not limit or n_total <= limit:
        return np.arange(n_total)
    stride = n_total / limit
    return np.unique((np.arange(limit) * stride).astype(np.int64))


def _cores() -> int:
    return os.cpu_count() or 1


def base_coarse_set(config: ExperimentConfig, f=None) -> tuple[PatchSet, RefinementReport]:
    """Level-0 admissible coarse set for the convergence experiments."""
    mesh = config.resolve_mesh()
    report = RefinementReport()
    adm = config.admissibility()
    coarse = refine_for_geometry(
        mesh, config.degree, adm.eps_geometry, report=report
    )
    if f is not None:
        coarse = refine_for_boundary_condition(
            coarse, f, adm.eps_boundary, q=config.q, report=report
        )
    coarse = enforce_admissibility(coarse, adm, report=report)
    return coarse, report


# ---------------------------------------------------------------------------
# Green's identity convergence
# ---------------------------------------------------------------------------


def run_greens_identity(config: ExperimentConfig, backend=None):
    """Residual of the reconstruction identity under uniform quadrisection.

    Per level, evaluates S[t_c] + D[u_c] - u_c with the extrapolated
    one-sided scheme at (a subsample of) the surface nodes and reports the
    relative max-norm residual.
    """
    backend = backend or default_backend()
    kernel = config.resolve_kernel()
    ref = ReferenceSolution.on_sphere(
        kernel, m=config.charges, radius=config.charge_radius, seed=config.seed
    )
    coarse0, report = base_coarse_set(config)
    opts = config.eval_options()
    rows = []
    for level in range(config.levels):
        coarse = coarse0.uniform_refined(level)
        if (
            not config.max_levels_gate
            and estimated_level_cost(config, len(coarse)) > DIRECT_SUM_BUDGET
        ):
            raise UsageError(
                f"level {level} exceeds the direct summation budget; "
                "pass the gate flag to run it anyway"
            )
        fine = uniform_upsample(coarse, config.upsample_levels)
        nodes = discretize(coarse, config.q)
        u_c = ref.field(nodes.positions)
        t_c = ref.conormal(nodes.positions, nodes.normals)
        pick = _subsample(len(nodes), config.target_subsample)
        targets = nodes.positions[pick]
        labels = surface_node_labels(nodes)
        labels = _take_labels(labels, pick)
        t0 = time.perf_counter()
        values, _ = evaluate_one_sided(
            targets,
            labels,
            kernel,
            (t_c, u_c),
            nodes,
            discretize(fine, config.q),
            opts,
            backend,
            layer="combined",
        )
        dt = time.perf_counter() - t0
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
                len(pick) / dt / _cores(),
            )
        )
    lengths = [r[5] for r in rows]
    errors = [r[4] for r in rows]
    eoc = fit_convergence_order(lengths, errors)
    if config.out:
        os.makedirs(config.out, exist_ok=True)
        _write_csv(
            os.path.join(config.out, "greens-identity.csv"),
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
        )
        _write_summary(config, rows, eoc, report)
    return rows, eoc


def _take_labels(labels, pick):
    from .evaluation import ZoneLabels

    return ZoneLabels(
        inside=labels.inside[pick],
        zone=labels.zone[pick],
        patch_ids=labels.patch_ids[pick],
        params=labels.params[pick],
        distance=labels.distance[pick],
        winding=labels.winding[pick],
    )


def _write_summary(config, rows, eoc, report, extra=""):
    path = os.path.join(config.out, f"{config.experiment}_summary.txt")
    with open(path, "w") as fh:
        fh.write(f"experiment: {config.experiment}\n")
        fh.write(f"geometry: {config.geometry}\nkernel: {config.kernel}\n")
        fh.write(f"q={config.q} p={config.p} a={config.a} b={config.b}\n")
        fh.write(f"estimated convergence order: {eoc:.3f}\n" if eoc == eoc else "")
        fh.write(extra)
    rep_path = os.path.join(config.out, "refinement_report.txt")
    with open(rep_path, "w") as fh:
        fh.write(report.to_text() if report is not None else "")


# ---------------------------------------------------------------------------
# Solver convergence
# ---------------------------------------------------------------------------


def run_solver_convergence(config: ExperimentConfig, backend=None):
    """GMRES solve per level, error on an independent coarser node set."""
    backend = backend or default_backend()
    kernel = config.resolve_kernel()
    ref = ReferenceSolution.on_sphere(
        kernel, m=config.charges, radius=config.charge_radius, seed=config.seed
    )
    f = ref.boundary_condition()
    coarse0, report = base_coarse_set(config)
    opts = config.eval_options()
    adm = config.admissibility()
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
        density, solve_report = solve(system, backend)
        # independent, slightly coarser node set on the same surface
        q_eval = max(4, config.q - 2)
        eval_nodes = discretize(coarse, q_eval)
        pick = _subsample(len(eval_nodes), config.target_subsample)
        labels = _take_labels(surface_node_labels(eval_nodes), pick)
        t0 = time.perf_counter()
        values, _ = evaluate_one_sided(
            eval_nodes.positions[pick],
            labels,
            kernel,
            density.values,
            system.nodes,
            system.fine_nodes,
            opts,
            backend,
        )
        dt = time.perf_counter() - t0
        exact = ref.field(eval_nodes.positions[pick])
        err = np.abs(values - exact).max() / np.abs(exact).max()
        rows.append(
            (
                level,
                len(coarse),
                len(system.nodes),
                solve_report.iterations,
                float(solve_report.final_residual),
                float(err),
                float(coarse.lengths.max()),
                len(pick) / dt / _cores(),
            )
        )
    eoc = fit_convergence_order([r[6] for r in rows], [r[5] for r in rows])
    if config.out:
        os.makedirs(config.out, exist_ok=True)
        _write_csv(
            os.path.join(config.out, "solve.csv"),
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
        )
        _write_summary(config, rows, eoc, report)
    return rows, eoc


# ---------------------------------------------------------------------------
# Extrapolation stability sweep
# ---------------------------------------------------------------------------


def extrapolation_error(ray: float, spacing: float, p: int, rho: float = -0.1):
    """Relative error extrapolating mu(t) = 1 / |t - rho| back to t = 0."""
    samples = 1.0 / (ray + spacing * np.arange(p + 1) - rho)
    exact = 1.0 / abs(rho)
    value = extrapolate(samples, -ray / spacing)
    return abs(value - exact) / exact


def run_extrapolation_sweep(
    config: ExperimentConfig,
    p_list=(6, 8, 10, 12, 14),
    r_over_rho=None,
    rp_over_r=None,
    rho: float = -0.1,
):
    """Error heatmap of line extrapolation against a point singularity."""
    if rho >= 0:
        raise UsageError("the singularity must sit behind the surface (rho < 0)")
    r_grid = np.linspace(0.05, 1.0, 39) if r_over_rho is None else np.asarray(r_over_rho)
    s_grid = np.linspace(0.05, 1.0, 39) if rp_over_r is None else np.asarray(rp_over_r)
    rows = []
    for p in p_list:
        for rr in r_grid:
            ray = rr * abs(rho)
            for ss in s_grid:
                spacing = ss * ray / p
                err = extrapolation_error(ray, spacing, p, rho)
                rows.append((p, float(rr), float(ss), float(np.log10(max(err, 1e-17)))))
    if config.out:
        os.makedirs(config.out, exist_ok=True)
        _write_csv(
            os.path.join(config.out, "extrapolation-sweep.csv"),
            ["p", "R_over_rho", "rp_over_R", "log10_rel_error"],
            rows,
        )
    return rows


def choose_b(eps_target: float, p: int = 6, lam: float = 1.0, safety: float = 1.0,
             b_min: float = 0.02, b_max: float = 0.30) -> float:
    """Largest spacing factor whose sweep error stays under the target.

    Reads the p-order stability map along rp/R = 1 with the singularity
    distance taken as lam patch lengths; safety discounts the target to
    absorb the difference between the toy sweep and real kernels.
    """
    grid = np.linspace(b_min, b_max, 200)
    best = b_min
    for b in grid:
        ray = (b / lam) * 0.1
        err = extrapolation_error(ray, ray / p, p, rho=-0.1)
        if err <= safety * eps_target:
            best = b
    return float(best)


# ---------------------------------------------------------------------------
# Constant-density identity
# ---------------------------------------------------------------------------


def run_constant_density(config: ExperimentConfig, backend=None):
    """Interior double layer of a unit density on an admissible sphere."""
    backend = backend or default_backend()
    coarse, report = base_coarse_set(config)
    fine = adaptive_upsample(coarse, UpsamplingConfig(), config.admissibility(), report=report)
    nodes = discretize(coarse, config.q)
    fine_nodes = discretize(fine, config.q)
    opts = config.eval_options()
    ones = np.ones(len(nodes))
    labels = surface_node_labels(nodes)
    values, _ = evaluate_one_sided(
        nodes.positions, labels, LAPLACE, ones, nodes, fine_nodes, opts, backend
    )
    surface_err = float(np.abs(values - 1.0).max())
    center = np.average(nodes.positions, axis=0, weights=nodes.weights)
    center_val = smooth_potential(LAPLACE, "double", nodes, ones, center[None, :], backend)
    center_err = float(abs(center_val[0, 0] - 1.0))
    rows = [
        ("surface_max_error", surface_err, len(coarse), len(fine)),
        ("center_error", center_err, len(coarse), len(fine)),
    ]
    if config.out:
        os.makedirs(config.out, exist_ok=True)
        _write_csv(
            os.path.join(config.out, "constant-density.csv"),
            ["check", "error", "coarse_patches", "fine_patches"],
            rows,
        )
        _write_summary(config, rows, float("nan"), report)
    return rows


# ---------------------------------------------------------------------------
# Requested-precision sweep
# ---------------------------------------------------------------------------


def run_target_precision_sweep(config: ExperimentConfig, backend=None):
    """Full pipeline per requested accuracy; achieved error vs request.

    The spacing factor b comes from the extrapolation stability map; the
    geometry and boundary tolerances stay fixed across the sweep so the
    coarse set is identical and only the upsampled set grows.
    """
    backend = backend or default_backend()
    kernel = config.resolve_kernel()
    mesh = config.resolve_mesh()
    ref = ReferenceSolution.single_charge(kernel, (0.0, 0.0, 0.0))
    f = ref.boundary_condition()
    rows = []
    report = RefinementReport()
    for eps in config.eps_target_list:
        b = choose_b(eps, p=config.p)
        point = replace(config, b=b, a=None, sqrt_scaling=False, eps_target=eps)
        opts = point.eval_options()
        problem = BVProblem(
            kernel=kernel,
            geometry=mesh,
            boundary_condition=f,
            degree=config.degree,
            admissibility=point.admissibility(),
            upsampling=UpsamplingConfig(),
            options=opts,
        )
        system = assemble(problem)
        report = system.refinement_report
        density, solve_report = solve(system, backend)
        q_eval = max(4, config.q - 2)
        eval_nodes = discretize(system.coarse, q_eval)
        pick = _subsample(len(eval_nodes), config.target_subsample)
        labels = _take_labels(surface_node_labels(eval_nodes), pick)
        t0 = time.perf_counter()
        values, _ = evaluate_one_sided(
            eval_nodes.positions[pick],
            labels,
            kernel,
            density.values,
            system.nodes,
            system.fine_nodes,
            opts,
            backend,
        )
        dt = time.perf_counter() - t0
        exact = ref.field(eval_nodes.positions[pick])
        achieved = float(np.abs(values - exact).max() / np.abs(exact).max())
        row = (
            eps,
            float(b),
            achieved,
            len(system.coarse),
            len(system.fine),
            solve_report.iterations,
            len(pick) / dt / _cores(),
        )
        print(
            f"eps_target={eps:g} b={b:.4f} achieved={achieved:.3e} "
            f"coarse={len(system.coarse)} fine={len(system.fine)} "
            f"iters={solve_report.iterations}",
            flush=True,
        )
        rows.append(row)
    if config.out:
        os.makedirs(config.out, exist_ok=True)
        _write_csv(
            os.path.join(config.out, "target-precision-sweep.csv"),
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
        )
        _write_summary(config, rows, float("nan"), report)
    return rows


def run_experiment(config: ExperimentConfig, backend=None):
    name = config.experiment
    if name == "greens-identity":
        return run_greens_identity(config, backend)
    if name == "solve":
        return run_solver_convergence(config, backend)
    if name == "extrapolation-sweep":
        return run_extrapolation_sweep(config)
    if name == "constant-density":
        return run_constant_density(config, backend)
    if name == "target-precision-sweep":
        return run_target_precision_sweep(config, backend)
    raise UsageError(f"unknown experiment {name!r}; choose from {EXPERIMENTS}")
