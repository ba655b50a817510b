"""Nystrom solver: assemble the admissible discretization and run GMRES.

matvec applies the discrete operator: it upsamples the density,
extrapolates the double layer to the surface from both sides and averages,
then adds the +phi/2 identity term (interior problems).  The exterior
Laplace problem on a single closed surface adds the standard rank-one
completion (a point charge at an interior anchor scaled by the weighted
density mean).  The operator is linear and fixed for a system, so solve
forms it once, as the matvec of the identity block, and runs GMRES on the
dense matrix: the library's own restart-free GMRES (Saad and Schultz 1986)
in numpy, which stops once the recurrence residual is at most
EPS_GMRES ||b||.  The check-point sums run one coarse patch at a time, each
patch's fine nodes into the identity columns of that patch's own nodes, so
the build sums the pairs of one pass over the fine set and never forms the
dense fine copy of the identity.  Each patch's check values are
extrapolated to the surface as they arrive (evaluation._upsampled_limits),
so the build holds the identity, the operator, one patch's check block
and the tiles' workspace, which spatial.CHUNK_BYTES bounds.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .evaluation import (
    EvalOptions,
    evaluate_one_sided,
    evaluate_two_sided,
    mark_points,
)
from .geometry.embeddings import BoundaryCondition, QuadMesh
from .geometry.patches import PatchSet
from .kernels import Family, KernelFamily, check_pairs, point_source_field
from .quadrature import QuadratureNodeSet, discretize
from .refinement import (
    AdmissibilityConfig,
    RefinementReport,
    UpsamplingConfig,
    adaptive_upsample,
    coarse_set,
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
    """GMRES outcome (restart-free GMRES on the dense formed operator).

    iterations counts Arnoldi steps; GMRES stops once the recurrence
    residual is at most EPS_GMRES ||b||, at breakdown, or after
    min(MAX_GMRES_ITERATIONS, n) steps.  final_residual is the relative
    recurrence (Arnoldi) residual the stopping rule uses; true_residual is ||b - A x|| / ||b|| recomputed
    once with the formed operator A.  The recurrence value drifts from the
    true residual in floating point, so true_residual can sit above it.
    converged holds when either is at most EPS_GMRES.
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
    coarse = coarse_set(
        problem.geometry, problem.degree, adm, problem.boundary_condition, report
    )
    if problem.uniform_levels is not None:
        fine = uniform_upsample(coarse, problem.uniform_levels)
    else:
        fine = adaptive_upsample(coarse, UpsamplingConfig(), adm, report=report)
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


def matvec(system: AssembledSystem, density) -> np.ndarray:
    """Apply the discrete boundary operator to a density or a block of them.

    Interior: (1/2 I + D) phi via the two-sided extrapolated double layer.
    Exterior Laplace: (-1/2 I + D + M) phi with the rank-one completion M.
    density is (N, d), or (N, d, k) for k densities at once, which comes
    back as (N, d, k); each coarse patch's fine nodes are summed only into
    the densities that are nonzero on that patch.
    """
    problem = system.problem
    density = np.asarray(density, float)
    columns = density.reshape(len(system.nodes), -1)
    out = evaluate_two_sided(
        system.nodes,
        problem.kernel,
        columns,
        system.fine_nodes,
        problem.options,
        interior=problem.side == "interior",
    )
    if problem.side == "exterior":
        out += _exterior_completion(system, columns, system.nodes.positions)
    return out.reshape(density.shape) if density.ndim == 3 else out


_SAFMIN = np.finfo(float).tiny
_SAFMAX = 1 / _SAFMIN
_RTMIN, _RTMAX = np.sqrt(_SAFMIN), np.sqrt(_SAFMAX / 2)


def _rotation(f, g):
    """Givens rotation (c, s, r) with c f + s g = r and c g - s f = 0.

    LAPACK's lartg, step for step: c >= 0 and r takes the sign of f; g = 0
    gives (1, 0, f) and f = 0 gives (0, sign g, |g|).  Moduli outside
    [sqrt(tiny), sqrt(huge / 2)] are scaled first so that f^2 + g^2 neither
    overflows nor underflows.
    """
    if g == 0.0:
        return 1.0, 0.0, f
    if f == 0.0:
        return 0.0, np.sign(g), abs(g)
    u = 1.0
    if not (_RTMIN < abs(f) < _RTMAX and _RTMIN < abs(g) < _RTMAX):
        u = min(_SAFMAX, max(_SAFMIN, abs(f), abs(g)))
        f, g = f / u, g / u
    d = np.sqrt(f * f + g * g)
    r = np.copysign(d, f)
    return abs(f) / d, g / r, r * u


def _gmres(op, b):
    """Restart-free GMRES for op x = b from x = 0 (Saad and Schultz 1986).

    One Arnoldi cycle of modified Gram-Schmidt for at most
    min(MAX_GMRES_ITERATIONS, n) steps; Givens rotations keep the
    Hessenberg least-squares problem triangular, so the recurrence residual
    is known at each step.  Stops once it is at most EPS_GMRES ||b|| or at
    breakdown (the new Krylov vector vanishes).  Returns x and the
    recurrence residual over ||b|| after each step; b = 0 gives x = 0.
    """
    n = len(b)
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return np.zeros(n), []
    steps = min(MAX_GMRES_ITERATIONS, n)
    eps = np.finfo(float).eps
    v = np.empty((steps + 1, n))  # orthonormal Krylov basis, one row each
    h = np.zeros((steps, steps + 1))  # row j holds Hessenberg column j
    rotations = np.zeros((steps, 2))
    rhs = np.zeros(steps + 1)  # the rotated bnorm e_1
    v[0] = b * (1 / bnorm)
    rhs[0] = bnorm
    history = []
    for col in range(steps):
        w = op @ v[col]
        h0 = np.linalg.norm(w)
        for k in range(col + 1):
            h[col, k] = np.dot(v[k], w)
            w -= h[col, k] * v[k]
        h1 = np.linalg.norm(w)
        breakdown = h1 <= eps * h0
        if not breakdown:
            v[col + 1] = w * (1 / h1)
            h[col, col + 1] = h1
        for k in range(col):
            c, s = rotations[k]
            n0, n1 = h[col, k], h[col, k + 1]
            h[col, k], h[col, k + 1] = c * n0 + s * n1, -s * n0 + c * n1
        c, s, h[col, col] = _rotation(h[col, col], h[col, col + 1])
        rotations[col] = c, s
        h[col, col + 1] = 0.0
        rhs[col], rhs[col + 1] = c * rhs[col], -s * rhs[col]
        residual = abs(rhs[col + 1])
        history.append(float(residual / bnorm))
        if residual <= EPS_GMRES * bnorm or breakdown:
            break
    # back substitution on the triangle; a zero last pivot drops its term
    if h[col, col] == 0:
        rhs[col] = 0.0
    y = rhs[: col + 1].copy()
    for k in range(col, 0, -1):
        if y[k] != 0:
            y[k] /= h[k, k]
            y[:k] -= y[k] * h[k, :k]
    if y[0] != 0:
        y[0] /= h[0, 0]
    return y @ v[: col + 1], history


@dataclass
class DensityField:
    values: np.ndarray  # (N, d)
    kernel: KernelFamily


def solve(problem_or_system):
    """Solve A phi = f with restart-free GMRES at the 1e-12 tolerance.

    Accepts a BVProblem (assembled here) or a prebuilt AssembledSystem.
    A is formed once, as the matvec of the N d x N d identity, one coarse
    patch's columns at a time: that patch's fine nodes are summed at every
    check point and the block is extrapolated into A before the next patch
    is summed.  GMRES (_gmres, the library's own, restart-free) runs on the
    dense matrix and stops once the recurrence residual is at most
    EPS_GMRES ||b||, as the report records.  A build over
    kernels.PAIR_BUDGET check-point pairs raises UsageError before anything
    is formed.  Returns
    (DensityField, SolveReport); non-convergence keeps the best iterate and
    reports converged=False.
    """
    system = (
        problem_or_system
        if isinstance(problem_or_system, AssembledSystem)
        else assemble(problem_or_system)
    )
    n = system.n_unknowns
    d = system.problem.kernel.d
    t0 = time.perf_counter()
    # refuse a build over the pair budget before the identity is formed
    checks = 2 * (system.problem.options.p + 1) * len(system.nodes)
    check_pairs(checks * len(system.fine_nodes))
    op = matvec(system, np.eye(n).reshape(-1, d, n)).reshape(n, n)
    build = time.perf_counter() - t0
    b = system.rhs.reshape(-1)
    t0 = time.perf_counter()
    x, history = _gmres(op, b)
    wall = time.perf_counter() - t0
    bnorm = float(np.linalg.norm(b))
    residual = float(np.linalg.norm(b - op @ x))
    true_res = residual / (bnorm if bnorm > 0 else 1.0)
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
        converged=residual <= EPS_GMRES * bnorm or final <= EPS_GMRES,
    )
    return DensityField(values=x.reshape(-1, d), kernel=system.problem.kernel), report


def evaluate_solution(system: AssembledSystem, density: DensityField, targets):
    """Evaluate the solved potential at arbitrary targets.

    Marks the targets (winding-number cull plus closest-point search) and
    dispatches the zone-appropriate quadrature; targets on the wrong side
    of the surface are masked out with value 0.

    Returns (values (M, d), labels, mask).
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if targets.size == 0:
        return (
            np.zeros((0, density.kernel.d)),
            None,
            np.zeros(0, dtype=bool),
        )
    problem = system.problem
    labels = mark_points(targets, system.nodes, problem.options.eps_target)
    values, mask = evaluate_one_sided(
        targets,
        labels,
        problem.kernel,
        density.values,
        system.nodes,
        system.fine_nodes,
        problem.options,
        domain_side=problem.side,
    )
    if problem.side == "exterior":
        values[mask] += _exterior_completion(system, density.values, targets[mask])
    return values, labels, mask
