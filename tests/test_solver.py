import re
import tracemalloc

import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator, gmres

import hedgehog.geometry as geo
from hedgehog import kernels as K
from hedgehog.backends import DirectBackend
from hedgehog.chebyshev import extrapolation_weights
from hedgehog.errors import UsageError
from hedgehog.evaluation import EvalOptions
from hedgehog.geometry.embeddings import constant_boundary_condition
from hedgehog.references import ReferenceSolution
from hedgehog.refinement import AdmissibilityConfig, UpsamplingConfig
from hedgehog.solver import (
    EPS_GMRES,
    BVProblem,
    assemble,
    evaluate_solution,
    matvec,
    solve,
)


def _sphere_problem(kernel=K.LAPLACE, f=None, b=0.2, q=8, per_face=1, degree=10,
                    side="interior"):
    mesh = geo.sphere_mesh(0.8, per_face=per_face)
    if f is None:
        f = constant_boundary_condition(np.ones(kernel.d))
    return BVProblem(
        kernel=kernel,
        geometry=mesh,
        boundary_condition=f,
        side=side,
        degree=degree,
        admissibility=AdmissibilityConfig(
            eps_geometry=1e-4, eps_boundary=1e-3, b=b, a=b / 6, q=q
        ),
        upsampling=UpsamplingConfig(),
        options=EvalOptions(p=6, b=b, q=q, eps_target=1e-6),
    )


@pytest.fixture(scope="module")
def assembled_sphere():
    return assemble(_sphere_problem())


def _small_system(kernel=K.LAPLACE, side="interior"):
    """Six-patch sphere at q = 4 with one uniform upsampling level."""
    if side == "interior":
        ref = ReferenceSolution.on_sphere(kernel, m=10, radius=1.6, seed=8)
    else:
        ref = ReferenceSolution.single_charge(kernel, (0.1, 0.0, -0.2))
    b = 0.2
    problem = BVProblem(
        kernel=kernel,
        geometry=geo.sphere_mesh(0.8, per_face=1),
        boundary_condition=ref.boundary_condition(),
        side=side,
        degree=10,
        admissibility=AdmissibilityConfig(
            eps_geometry=1e-2, eps_boundary=1e-1, b=b, a=b / 6, q=4
        ),
        options=EvalOptions(p=6, b=b, q=4),
        uniform_levels=1,
    )
    return assemble(problem)


class CountingBackend(DirectBackend):
    """Direct summation that records the pair count of every call."""

    def __init__(self):
        self.pairs = []

    def potential(self, kernel, layer, sources, normals, weighted_density, targets):
        self.pairs.append(len(np.atleast_2d(targets)) * len(sources))
        return super().potential(kernel, layer, sources, normals, weighted_density, targets)


@pytest.mark.parametrize(
    "kernel, side",
    [(K.LAPLACE, "interior"), (K.LAPLACE, "exterior"), (K.STOKES, "interior")],
)
def test_matvec_block_matches_columns(kernel, side):
    system = _small_system(kernel, side)
    n, d = len(system.nodes), kernel.d
    rng = np.random.default_rng(9)
    # a dense block, and columns of the identity, each nonzero on one coarse
    # patch only, as in the operator build
    dense = rng.normal(size=(n, d, 5))
    identity = np.eye(n * d)[:, rng.choice(n * d, 5, replace=False)].reshape(n, d, 5)
    # the sums differ in rounding only; extrapolating to the surface
    # amplifies that by the weights' absolute sum (about 4e4 here)
    opts = system.problem.options
    weights = extrapolation_weights(opts.p, np.array([-opts.b / opts.a]))
    floor = 10.0 * np.finfo(float).eps * np.abs(weights).sum()
    for block in (dense, identity):
        out = matvec(system, block)
        columns = np.stack([matvec(system, block[:, :, c]) for c in range(5)], axis=-1)
        assert out.shape == (n, d, 5)
        assert np.abs(out - columns).max() <= floor * np.abs(columns).max()


@pytest.mark.parametrize(
    "kernel, side",
    [(K.LAPLACE, "interior"), (K.LAPLACE, "exterior"), (K.STOKES, "interior")],
)
def test_solve_forms_the_operator_in_one_fine_set_sum(kernel, side):
    system = _small_system(kernel, side)
    backend = CountingBackend()
    density, report = solve(system, backend)
    p = system.problem.options.p
    # one sum per coarse patch, over that patch's fine nodes: together the
    # pairs of one pass over the fine set
    assert len(backend.pairs) == len(system.coarse)
    assert sum(backend.pairs) == 2 * (p + 1) * len(system.nodes) * len(system.fine_nodes)
    assert report.converged
    assert report.build_time > 0.0

    # the same GMRES run over the matrix-free operator
    n, d = system.n_unknowns, kernel.d
    op = LinearOperator(
        (n, n), matvec=lambda v: matvec(system, v.reshape(-1, d)).reshape(-1), dtype=float
    )
    history = []
    x, info = gmres(
        op, system.rhs.reshape(-1), rtol=EPS_GMRES, atol=0.0, restart=300, maxiter=1,
        callback=history.append, callback_type="pr_norm",
    )
    assert report.iterations == len(history)
    assert np.abs(density.values.reshape(-1) - x).max() <= 1e-8 * np.abs(x).max()


def test_solve_over_the_pair_budget_is_refused_before_the_build(monkeypatch):
    system = _small_system()
    p = system.problem.options.p
    pairs = 2 * (p + 1) * len(system.nodes) * len(system.fine_nodes)
    monkeypatch.setattr(K, "PAIR_BUDGET", pairs - 1)
    n = system.n_unknowns
    tracemalloc.start()
    try:
        with pytest.raises(UsageError, match=re.escape(f"{pairs:.3g} pairs exceeds the budget")):
            solve(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n  # not even the identity was formed
    with pytest.raises(UsageError, match="budget"):
        matvec(system, np.ones((n, 1)))


def test_assemble_pipeline_products(assembled_sphere):
    system = assembled_sphere
    assert len(system.nodes) == len(system.coarse) * 64
    assert len(system.fine) > len(system.coarse)
    assert system.rhs.shape == (len(system.nodes), 1)
    assert np.abs(system.rhs - 1.0).max() == 0.0


def test_rhs_matches_boundary_values():
    ref = ReferenceSolution.on_sphere(K.LAPLACE, m=12, radius=1.5, seed=1)
    system = assemble(_sphere_problem(f=ref.boundary_condition()))
    assert np.abs(system.rhs - ref.field(system.nodes.positions)).max() < 1e-14


def test_point_charge_assembly_refines_more_than_constant():
    base = assemble(_sphere_problem()).coarse
    L = float(base.lengths.mean())
    ref = ReferenceSolution.single_charge(K.LAPLACE, (0.0, 0.0, 0.8 + 0.05 * L))
    charged = assemble(_sphere_problem(f=ref.boundary_condition())).coarse
    assert len(charged) > len(base)


def test_matvec_constant_density_gives_ones(assembled_sphere):
    out = matvec(assembled_sphere, np.ones((len(assembled_sphere.nodes), 1)))
    assert np.abs(out - 1.0).max() < 1e-5


def test_matvec_homogeneous(assembled_sphere):
    rng = np.random.default_rng(2)
    phi = rng.normal(size=(len(assembled_sphere.nodes), 1))
    a = 2.75
    lhs = matvec(assembled_sphere, a * phi)
    rhs = a * matvec(assembled_sphere, phi)
    assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(lhs).max())


@pytest.mark.slow
def test_matvec_matches_dense_assembly_on_toy_torus():
    """matrix-free product vs an explicitly assembled operator matrix"""
    mesh = geo.torus_mesh(n_major=4, n_minor=2)
    f = constant_boundary_condition(1.0)
    problem = BVProblem(
        kernel=K.LAPLACE,
        geometry=mesh,
        boundary_condition=f,
        degree=16,
        admissibility=AdmissibilityConfig(
            eps_geometry=1e-4, eps_boundary=1e-2, b=0.15, a=0.15 / 6, q=4
        ),
        options=EvalOptions(p=6, b=0.15, q=4),
        uniform_levels=2,
    )
    system = assemble(problem)
    n = system.n_unknowns
    dense = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        dense[:, j] = matvec(system, e.reshape(-1, 1)).reshape(-1)
    rng = np.random.default_rng(3)
    for _ in range(3):
        phi = rng.normal(size=n)
        direct = matvec(system, phi.reshape(-1, 1)).reshape(-1)
        assert np.abs(dense @ phi - direct).max() < 1e-12 * max(
            1.0, np.abs(direct).max()
        )


def test_solve_constant_boundary_condition(assembled_sphere):
    density, report = solve(assembled_sphere)
    assert report.converged
    assert report.final_residual <= 1e-12
    assert np.abs(density.values - 1.0).max() < 1e-8
    assert report.iterations < 50


def test_gmres_residual_history_monotone(assembled_sphere):
    ref = ReferenceSolution.on_sphere(K.LAPLACE, m=20, radius=1.4, seed=4)
    system = assemble(_sphere_problem(f=ref.boundary_condition()))
    _, report = solve(system)
    hist = np.array(report.residual_history)
    assert np.all(np.diff(hist) <= 1e-14)


def test_solution_reproduces_boundary_data():
    ref = ReferenceSolution.on_sphere(K.LAPLACE, m=20, radius=1.6, seed=5)
    system = assemble(_sphere_problem(f=ref.boundary_condition(), q=8))
    density, report = solve(system)
    # consistency: evaluating the solved potential back at the nodes
    # reproduces the boundary condition to scheme accuracy
    from hedgehog.evaluation import evaluate_one_sided, surface_node_labels

    labels = surface_node_labels(system.nodes)
    pick = np.arange(0, len(system.nodes), 7)
    vals, _ = evaluate_one_sided(
        system.nodes.positions[pick],
        labels.take(pick),
        K.LAPLACE,
        density.values,
        system.nodes,
        system.fine_nodes,
        system.problem.options,
    )
    assert np.abs(vals - system.rhs[pick]).max() < 1e-4


def test_evaluate_solution_far_interior_point():
    ref = ReferenceSolution.on_sphere(K.LAPLACE, m=20, radius=1.6, seed=6)
    system = assemble(_sphere_problem(f=ref.boundary_condition()))
    density, _ = solve(system)
    pts = np.array([[0.1, 0.0, -0.05], [0.2, 0.15, 0.1]])
    vals, labels, mask = evaluate_solution(system, density, pts)
    assert mask.all()
    exact = ref.field(pts)
    rel = np.abs(vals - exact).max() / np.abs(exact).max()
    assert rel < 1e-5


def test_evaluate_solution_empty_targets(assembled_sphere):
    density, _ = solve(assembled_sphere)
    vals, labels, mask = evaluate_solution(assembled_sphere, density, np.zeros((0, 3)))
    assert vals.shape == (0, 1)
    assert len(mask) == 0


def test_exterior_laplace_rank_completion():
    """exterior Dirichlet data from a charge inside the sphere"""
    ref = ReferenceSolution.single_charge(K.LAPLACE, (0.1, 0.0, -0.2))
    problem = _sphere_problem(f=ref.boundary_condition(), side="exterior")
    system = assemble(problem)
    density, report = solve(system)
    assert report.converged
    pts = np.array([[1.6, 0.3, 0.2], [0.0, -2.0, 0.4]])
    vals, labels, mask = evaluate_solution(system, density, pts)
    assert mask.all()
    exact = ref.field(pts)
    assert np.abs(vals - exact).max() / np.abs(exact).max() < 1e-5


def test_stokes_constant_density_smoke():
    problem = _sphere_problem(kernel=K.STOKES, q=6, b=0.25)
    system = assemble(problem)
    density, report = solve(system)
    assert report.converged
    assert np.abs(density.values - 1.0).max() < 1e-6


def test_interior_problem_rejects_stokes_exterior():
    from hedgehog.errors import UsageError

    with pytest.raises(UsageError):
        _sphere_problem(kernel=K.STOKES, side="exterior")


@pytest.mark.parametrize(
    "change", [{"b": 0.25}, {"a": 0.02}, {"p": 8}, {"q": 6}, {"sqrt_scaling": True}]
)
def test_problem_rejects_mismatched_check_lines(change):
    from dataclasses import replace

    from hedgehog.errors import UsageError

    problem = _sphere_problem()
    with pytest.raises(UsageError, match="same check line"):
        replace(problem, options=replace(problem.options, **change))
