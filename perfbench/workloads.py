"""The benchmark's three workloads: inputs from a seed, set-up, timed operation, checks.

Each workload object is built from the seed alone; ``setup`` goes from the
mesh to an assembled system or fine set, ``run`` is the operation the
closed loop repeats, and ``check`` verifies its output against the
point-charge reference. README.md in this directory gives the reasons for
each choice.
"""

import numpy as np

# the timed calls go through module attributes, so the probes that
# tracing.py installs on those attributes see them
from hedgehog import evaluation, quadrature, refinement, solver, spatial
from hedgehog import kernels as K
from hedgehog.evaluation import EvalOptions, surface_node_labels
from hedgehog.geometry.embeddings import sphere_mesh
from hedgehog.geometry.patches import evaluate as patch_evaluate
from hedgehog.geometry.patches import normal as patch_normal
from hedgehog.references import ReferenceSolution
from hedgehog.refinement import AdmissibilityConfig, UpsamplingConfig

P = 6  # extrapolation order
B = 0.2  # first check distance R = b L; spacing r = b L / 6
CHARGES = 200  # reference point charges on a sphere twice the surface radius


def _sizes(coarse, fine, nodes, fine_nodes) -> dict:
    return {
        "refinement.coarse_patches": len(coarse),
        "refinement.fine_patches": len(fine),
        "quadrature.coarse_nodes": len(nodes),
        "quadrature.fine_nodes": len(fine_nodes),
    }


class SolveWorkload:
    """Interior Dirichlet problem on the 6-patch sphere of radius 0.8.

    One operation is a GMRES solve to the 1e-12 residual. It fails unless
    GMRES converged and the solution's relative error at an independent
    node set of max(4, q - 2)^2 nodes per patch stays within ``tolerance``.
    """

    setups = 5
    attempted = 1
    radius = 0.8

    def __init__(self, name, kernel, q, tolerance, seed):
        self.name = name
        self.kernel = kernel
        self.q = q
        self.tolerance = tolerance
        self.reference = ReferenceSolution.on_sphere(
            kernel, m=CHARGES, radius=2.0 * self.radius, seed=seed
        )
        self.options = EvalOptions(p=P, b=B, q=q)
        # loose fit and boundary tolerances keep the coarse set at the six
        # cube faces; two uniform levels give N_fine = 16 N
        self.problem = solver.BVProblem(
            kernel=kernel,
            geometry=sphere_mesh(self.radius, per_face=1),
            boundary_condition=self.reference.boundary_condition(),
            degree=10,
            admissibility=AdmissibilityConfig(
                eps_geometry=1e-2, eps_boundary=1e-1, b=B, a=B / 6.0, p=P, q=q
            ),
            options=self.options,
            uniform_levels=2,
        )

    def setup(self):
        return solver.assemble(self.problem)

    def prepare(self, system):
        """The solve takes no inputs beyond the assembled system."""

    def run(self, system):
        return solver.solve(system)

    def check(self, system, result):
        """(per-operation pass flags, max relative error)."""
        density, report = result
        check_nodes = quadrature.discretize(system.coarse, max(4, self.q - 2))
        values, _ = evaluation.evaluate_one_sided(
            check_nodes.positions,
            surface_node_labels(check_nodes),
            self.kernel,
            density.values,
            system.nodes,
            system.fine_nodes,
            self.options,
        )
        exact = self.reference.field(check_nodes.positions)
        err = float(np.abs(values - exact).max() / np.abs(exact).max())
        return [bool(report.converged) and err <= self.tolerance], err

    def sizes(self, system) -> dict:
        return _sizes(system.coarse, system.fine, system.nodes, system.fine_nodes)

    def expected_pairs(self, system, counts) -> int:
        """Every matvec sums the fine set at 2 (p + 1) check points per node."""
        per_matvec = 2 * (P + 1) * len(system.nodes) * len(system.fine_nodes)
        return int(counts["solver.matvec.calls"]) * per_matvec


class TargetsWorkload:
    """Green's identity at seeded targets inside the 24-patch unit sphere.

    Combined-layer evaluation of the exact point-charge data (normal
    derivative and trace) reproduces the field inside. Each target is one
    operation; it fails when its inside/outside label is wrong or, inside,
    its relative error exceeds ``tolerance``.
    """

    name = "targets"
    setups = 3
    near = 48  # inside, at d / L stratified over (0.02, 1.2)
    deep = 6  # inside, within radius 0.25 of the centre: d > L = 0.72 for every patch
    exterior = 6  # outside, at d / L in (0.1, 1.2)
    # the stable band (d / L below 0.6) stays at or below 6e-5; the failing
    # band d / L in 0.6 - 1.0 is kept in the set on purpose
    tolerance = 1e-4
    attempted = near + deep + exterior

    def __init__(self, seed):
        self.seed = seed
        self.reference = ReferenceSolution.on_sphere(K.LAPLACE, m=CHARGES, radius=2.0, seed=seed)
        self.mesh = sphere_mesh(1.0, per_face=2)
        self.config = AdmissibilityConfig(eps_geometry=1e-5, b=B, a=B / 6.0, p=P, q=6)
        self.options = EvalOptions(p=P, b=B, q=6, eps_target=1e-6)

    def setup(self):
        cfg = self.config
        coarse = refinement.refine_for_geometry(self.mesh, 10, cfg.eps_geometry)
        coarse = refinement.enforce_admissibility(coarse, cfg)
        fine = refinement.adaptive_upsample(coarse, UpsamplingConfig(), cfg)
        nodes = quadrature.discretize(coarse, cfg.q)
        fine_nodes = quadrature.discretize(fine, cfg.q)
        spatial.surface_index(coarse)
        data = (
            self.reference.conormal(nodes.positions, nodes.normals),
            self.reference.field(nodes.positions),
        )
        return coarse, fine, nodes, fine_nodes, data

    def prepare(self, state):
        """Seeded targets: anchors at random patch parameters, offsets along the normal."""
        coarse = state[0]
        rng = np.random.default_rng(self.seed)
        n_surface = self.near + self.exterior
        pids = rng.integers(0, len(coarse), n_surface)
        params = rng.uniform(-0.9, 0.9, (n_surface, 2))
        anchors = np.array([patch_evaluate(coarse[p], s, t) for p, (s, t) in zip(pids, params)])
        normals = np.array([patch_normal(coarse[p], s, t) for p, (s, t) in zip(pids, params)])
        lengths = coarse.lengths[pids]
        strata = (np.arange(self.near) + rng.uniform(size=self.near)) / self.near
        d_near = 0.02 + (1.2 - 0.02) * strata
        d_out = rng.uniform(0.1, 1.2, self.exterior)
        offset = np.concatenate([-d_near, d_out]) * lengths
        surface = anchors + offset[:, None] * normals
        dirs = rng.normal(size=(self.deep, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        deep = dirs * rng.uniform(0.0, 0.25, (self.deep, 1))
        self.targets = np.concatenate([surface[: self.near], deep, surface[self.near :]])
        self.inside = np.arange(len(self.targets)) < self.near + self.deep

    def run(self, state):
        coarse, fine, nodes, fine_nodes, data = state
        labels = evaluation.mark_points(self.targets, nodes, self.options.eps_target)
        values, _ = evaluation.evaluate_one_sided(
            self.targets, labels, K.LAPLACE, data, nodes, fine_nodes, self.options,
            layer="combined",
        )
        return labels, values

    def check(self, state, result):
        labels, values = result
        exact = self.reference.field(self.targets)[:, 0]
        err = np.abs(values[:, 0] - exact) / np.abs(exact)
        err[~self.inside] = 0.0
        ok = (labels.inside == self.inside) & (err <= self.tolerance)
        return ok.tolist(), float(err.max())

    def sizes(self, state) -> dict:
        return _sizes(*state[:4])

    def expected_pairs(self, state, counts) -> int:
        """Winding number over the coarse set, then one sum per zone."""
        _, _, nodes, fine_nodes, _ = state
        n, n_fine = len(nodes), len(fine_nodes)
        return int(
            len(self.targets) * n
            + counts["evaluation.zone.near"] * (P + 1) * n_fine
            + counts["evaluation.zone.intermediate"] * n_fine
            + counts["evaluation.zone.far"] * n
        )


WORKLOADS = {
    "laplace-solve": lambda seed: SolveWorkload("laplace-solve", K.LAPLACE, 6, 5e-3, seed),
    "stokes-solve": lambda seed: SolveWorkload("stokes-solve", K.STOKES, 5, 0.2, seed),
    "targets": TargetsWorkload,
}
