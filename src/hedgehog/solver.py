"""Nystrom solver: assemble the admissible discretization and run GMRES.

matvec applies the discrete operator: it upsamples the density,
extrapolates the double layer to the surface from both sides and averages,
then adds the +phi/2 identity term (interior problems).  The exterior
Laplace problem on a single closed surface adds the standard rank-one
completion (a point charge at an interior anchor scaled by the weighted
density mean).  The operator is linear and fixed for a system, so solve
forms it once, as the matvec of the identity block (one sum over the fine
set for all N d columns), and runs GMRES on the dense matrix.
"""

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse.linalg import gmres

from .backends import default_backend
from .errors import UsageError
from .evaluation import (
    EvalOptions,
    evaluate_one_sided,
    evaluate_two_sided,
    mark_points,
)
from .geometry.embeddings import BoundaryCondition, QuadMesh
from .geometry.patches import PatchSet
from .kernels import Family, KernelFamily, point_source_field
from .quadrature import QuadratureNodeSet, discretize
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

EPS_GMRES = 1e-12
MAX_GMRES_ITERATIONS = 300


@dataclass
class BVProblem:
    """Dirichlet boundary value problem on a closed quad-mesh surface."""

    kernel: KernelFamily
    geometry: QuadMesh
    boundary_condition: BoundaryCondition
    side: str = "interior"
    degree: int = 8
    admissibility: AdmissibilityConfig = field(default_factory=AdmissibilityConfig)
    upsampling: UpsamplingConfig = field(default_factory=UpsamplingConfig)
    options: EvalOptions = field(default_factory=EvalOptions)
    uniform_levels: int | None = None  # fixed-level upsampling when set

    def __post_init__(self):
        if self.side not in ("interior", "exterior"):
            raise UsageError("side must be interior or exterior")
        if self.side == "exterior" and self.kernel.family is not Family.LAPLACE:
            raise UsageError(
                "exterior problems are supported for the Laplace kernel only"
            )
        if self.admissibility.check_line() != self.options.check_line():
            raise UsageError(
                "admissibility and options must carry the same check line: "
                f"{self.admissibility.check_line()} != {self.options.check_line()}"
            )


@dataclass
class SolveReport:
    """GMRES outcome.

    final_residual is the relative recurrence (Arnoldi) residual the
    stopping rule uses; true_residual is ||b - A x|| / ||b|| recomputed
    once with the formed operator A.  The recurrence value drifts from the
    true residual in floating point, so true_residual can sit above it.
    build_time is the time to form A, wall_time the time GMRES takes on it.
    """

    iterations: int = 0
    final_residual: float = np.nan
    true_residual: float = np.nan
    residual_history: list = field(default_factory=list)
    coarse_patches: int = 0
    fine_patches: int = 0
    build_time: float = 0.0
    wall_time: float = 0.0
    converged: bool = False


@dataclass
class AssembledSystem:
    problem: BVProblem
    coarse: PatchSet
    fine: PatchSet
    nodes: QuadratureNodeSet
    fine_nodes: QuadratureNodeSet
    rhs: np.ndarray  # (N, d)
    refinement_report: RefinementReport
    interior_anchor: np.ndarray | None = None

    @property
    def n_unknowns(self) -> int:
        return self.rhs.size


def assemble(problem: BVProblem) -> AssembledSystem:
    """Run the refinement pipeline and sample the boundary condition."""
    report = RefinementReport()
    adm = problem.admissibility
    coarse = refine_for_geometry(
        problem.geometry,
        problem.degree,
        adm.eps_geometry,
        max_depth=adm.max_depth,
        min_length=adm.min_length,
        report=report,
    )
    coarse = refine_for_boundary_condition(
        coarse,
        problem.boundary_condition,
        adm.eps_boundary,
        q=adm.q,
        max_depth=adm.max_depth,
        min_length=adm.min_length,
        report=report,
    )
    coarse = enforce_admissibility(coarse, adm, report=report)
    if problem.uniform_levels is not None:
        fine = uniform_upsample(coarse, problem.uniform_levels)
    else:
        fine = adaptive_upsample(coarse, problem.upsampling, adm, report=report)
    return assemble_from_sets(problem, coarse, fine, report)


def assemble_from_sets(
    problem: BVProblem,
    coarse: PatchSet,
    fine: PatchSet,
    report: RefinementReport | None = None,
) -> AssembledSystem:
    """Discretize prebuilt coarse/fine sets and sample the boundary condition."""
    nodes = discretize(coarse, problem.admissibility.q)
    fine_nodes = discretize(fine, problem.admissibility.q)
    anchor = None
    if problem.side == "exterior":
        # interior anchor for the rank-one completion: centroid of the
        # bounded complement, estimated from the surface nodes
        anchor = np.average(nodes.positions, axis=0, weights=nodes.weights)
    return AssembledSystem(
        problem=problem,
        coarse=coarse,
        fine=fine,
        nodes=nodes,
        fine_nodes=fine_nodes,
        rhs=problem.boundary_condition(nodes.positions),
        refinement_report=report if report is not None else RefinementReport(),
        interior_anchor=anchor,
    )


def _exterior_completion(system: AssembledSystem, density, points) -> np.ndarray:
    """Rank-one completion M phi at points: the interior anchor charge
    carrying the weighted density moment (exterior Laplace only).

    density (N, k) holds k densities and gives (M, k).
    """
    moment = np.sum(density * system.nodes.weights[:, None], axis=0)
    return point_source_field(
        system.problem.kernel, system.interior_anchor[None, :], moment[None, :], points
    )


def matvec(system: AssembledSystem, density, backend=None) -> np.ndarray:
    """Apply the discrete boundary operator to a density or a block of them.

    Interior: (1/2 I + D) phi via the two-sided extrapolated double layer.
    Exterior Laplace: (-1/2 I + D + M) phi with the rank-one completion M.
    density is (N, d), or (N, d, k) for k densities at once, which comes
    back as (N, d, k) from one sum over the fine set.
    """
    backend = backend or default_backend()
    problem = system.problem
    density = np.asarray(density, float)
    columns = density.reshape(len(system.nodes), -1)
    out = evaluate_two_sided(
        system.nodes,
        problem.kernel,
        columns,
        system.fine_nodes,
        problem.options,
        backend,
        interior=problem.side == "interior",
    )
    if problem.side == "exterior":
        out += _exterior_completion(system, columns, system.nodes.positions)
    return out.reshape(density.shape) if density.ndim == 3 else out


@dataclass
class DensityField:
    values: np.ndarray  # (N, d)
    kernel: KernelFamily


def solve(problem_or_system, backend=None):
    """Solve A phi = f with restart-free GMRES at the 1e-12 tolerance.

    Accepts a BVProblem (assembled here) or a prebuilt AssembledSystem.
    A is formed once, as the matvec of the N d x N d identity, and GMRES
    runs on the dense matrix.  Returns (DensityField, SolveReport);
    non-convergence keeps the best iterate and reports converged=False.
    """
    backend = backend or default_backend()
    system = (
        problem_or_system
        if isinstance(problem_or_system, AssembledSystem)
        else assemble(problem_or_system)
    )
    n = system.n_unknowns
    d = system.problem.kernel.d
    history = []
    t0 = time.perf_counter()
    # a system too large for one sum over the fine set must fail before the
    # identity block's fine copy (N_fine x N d values) is formed, so try the
    # sum's largest temporary, its (3, M, N_fine) offsets, first
    checks = 2 * (system.problem.options.p + 1) * len(system.nodes)
    np.empty((3, checks, len(system.fine_nodes)))
    op = matvec(system, np.eye(n).reshape(-1, d, n), backend).reshape(n, n)
    build = time.perf_counter() - t0
    b = system.rhs.reshape(-1)
    t0 = time.perf_counter()
    x, info = gmres(
        op,
        b,
        rtol=EPS_GMRES,
        atol=0.0,
        restart=MAX_GMRES_ITERATIONS,
        maxiter=1,
        callback=lambda rk: history.append(float(rk)),
        callback_type="pr_norm",
    )
    wall = time.perf_counter() - t0
    bnorm = float(np.linalg.norm(b))
    true_res = float(np.linalg.norm(b - op @ x)) / (bnorm if bnorm > 0 else 1.0)
    final = history[-1] if history else true_res
    report = SolveReport(
        iterations=len(history),
        final_residual=final,
        true_residual=true_res,
        residual_history=history,
        coarse_patches=len(system.coarse),
        fine_patches=len(system.fine),
        build_time=build,
        wall_time=wall,
        converged=info == 0 or final <= EPS_GMRES,
    )
    return DensityField(values=x.reshape(-1, d), kernel=system.problem.kernel), report


def evaluate_solution(
    system: AssembledSystem, density: DensityField, targets, backend=None
):
    """Evaluate the solved potential at arbitrary targets.

    Marks the targets (winding-number cull plus closest-point search) and
    dispatches the zone-appropriate quadrature; targets on the wrong side
    of the surface are masked out with value 0.

    Returns (values (M, d), labels, mask).
    """
    backend = backend or default_backend()
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if targets.size == 0:
        return (
            np.zeros((0, density.kernel.d)),
            None,
            np.zeros(0, dtype=bool),
        )
    problem = system.problem
    labels = mark_points(targets, system.nodes, problem.options.eps_target, backend)
    values, mask = evaluate_one_sided(
        targets,
        labels,
        problem.kernel,
        density.values,
        system.nodes,
        system.fine_nodes,
        problem.options,
        backend,
        domain_side=problem.side,
    )
    if problem.side == "exterior":
        values[mask] += _exterior_completion(system, density.values, targets[mask])
    return values, labels, mask
