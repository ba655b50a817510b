import re
import tracemalloc

import numpy as np
import pytest
from scipy.linalg.lapack import dlartg
from scipy.sparse.linalg import LinearOperator, gmres

import hedgehog.geometry as geo
from hedgehog import kernels as K
from hedgehog import solver
from hedgehog import spatial
from hedgehog.backends import DirectBackend
from hedgehog.chebyshev import extrapolation_weights
from hedgehog.errors import UsageError
from hedgehog.evaluation import EvalOptions, average_limits
from hedgehog.geometry.embeddings import constant_boundary_condition
from hedgehog.references import ReferenceSolution
from hedgehog.refinement import AdmissibilityConfig
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
        options=EvalOptions(p=6, b=b, q=q, eps_target=1e-6),
    )


@pytest.fixture(scope="module")
def assembled_sphere():
    return assemble(_sphere_problem())


def _small_system(kernel=K.LAPLACE, side="interior", q=4, levels=1):
    """Six-patch sphere, by default at q = 4 with one uniform upsampling level."""
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
            eps_geometry=1e-2, eps_boundary=1e-1, b=b, a=b / 6, q=q
        ),
        options=EvalOptions(p=6, b=b, q=q),
        uniform_levels=levels,
    )
    return assemble(problem)


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


def _sum_then_extrapolate(system, density, upsampled_sum):
    """The reference for average_limits at the coarse nodes: every
    check-point sum first, then the extrapolation of both sides at once."""
    nodes, opts, kernel = system.nodes, system.problem.options, system.problem.kernel
    m, p = len(nodes), opts.p
    lengths = nodes.patchset.lengths[nodes.patch_ids]
    both = np.concatenate(
        [opts.points(nodes.positions, nodes.normals, lengths, sign) for sign in (-1.0, 1.0)]
    )
    sums = upsampled_sum(kernel, "double", nodes, density, system.fine_nodes, both)
    sums = sums.reshape(2, m, p + 1, -1).astype(np.longdouble)
    weights = extrapolation_weights(p, -opts.b / opts.a * np.ones(m))
    sides = [np.einsum("ms,msd->md", weights, side).astype(float) for side in sums]
    return 0.5 * (sides[0] + sides[1])


@pytest.mark.parametrize("kernel", [K.LAPLACE, K.STOKES])
def test_average_limits_extrapolates_each_patch_as_the_full_sum(kernel, upsampled_sum):
    """Extrapolating each coarse patch's check sums as they arrive gives the
    bits of the full sum for identity columns, each nonzero on one patch, and
    agrees with it to the rounding floor of test_matvec_block_matches_columns
    for a dense block."""
    system = _small_system(kernel)
    nodes, opts = system.nodes, system.problem.options
    n, d = len(nodes), kernel.d
    rng = np.random.default_rng(10)
    identity = np.eye(n * d)[:, rng.choice(n * d, 7, replace=False)]
    dense = rng.normal(size=(n * d, 5))
    lengths = nodes.patchset.lengths[nodes.patch_ids]

    def limits(density):
        return average_limits(
            nodes.positions, nodes.normals, lengths, kernel, nodes, density,
            system.fine_nodes, opts,
        )

    want = _sum_then_extrapolate(system, identity.reshape(n, -1), upsampled_sum)
    got = limits(identity.reshape(n, -1))
    assert got.shape == want.shape == (n, d * 7)
    assert got.tobytes() == want.tobytes()

    weights = extrapolation_weights(opts.p, np.array([-opts.b / opts.a]))
    floor = 10.0 * np.finfo(float).eps * np.abs(weights).sum()
    want = _sum_then_extrapolate(system, dense.reshape(n, -1), upsampled_sum)
    got = limits(dense.reshape(n, -1))
    assert np.abs(got - want).max() <= floor * np.abs(want).max()
    # one density, in any of the shapes the sum takes, gives (N, d) limits
    shapes = [(n, d), (n, d, 1)] + [(n,)] * (d == 1)
    single = [limits(dense[:, 0].reshape(shape)) for shape in shapes]
    for one in single:
        assert one.shape == (n, d) and one.tobytes() == single[0].tobytes()
    assert np.abs(single[0] - got[:, ::5]).max() <= floor * np.abs(want).max()


def test_operator_build_memory_is_bounded_by_one_patch(monkeypatch):
    """The traced peak of the operator build of the six-patch Stokes system
    (q = 5, two uniform levels) stays within two operators, two check
    blocks of one coarse patch and four tiles' budgets: the check values of
    all patches, 14 times the operator here, are never held at once."""
    monkeypatch.setattr(spatial, "CHUNK_BYTES", 1 << 20)
    system = _small_system(K.STOKES, q=5, levels=2)
    p, d, n = system.problem.options.p, 3, system.n_unknowns
    per_patch = system.problem.admissibility.q ** 2 * d
    operator = 8 * n * n
    check_block = 8 * 2 * (p + 1) * len(system.nodes) * d * per_patch
    assert check_block * len(system.coarse) >= 14 * operator
    tracemalloc.start()
    try:
        _, report = solve(system)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.converged
    assert peak <= 2 * operator + 2 * check_block + 4 * spatial.CHUNK_BYTES


@pytest.mark.parametrize(
    "kernel, side",
    [(K.LAPLACE, "interior"), (K.LAPLACE, "exterior"), (K.STOKES, "interior")],
)
def test_solve_forms_the_operator_in_one_fine_set_sum(kernel, side, monkeypatch):
    system = _small_system(kernel, side)
    pairs = []
    direct = DirectBackend.potential

    def counting(self, kern, layer, sources, normals, weighted_density, targets, out=None):
        pairs.append(len(np.atleast_2d(targets)) * len(sources))
        return direct(self, kern, layer, sources, normals, weighted_density, targets, out)

    monkeypatch.setattr(DirectBackend, "potential", counting)
    density, report = solve(system)
    p = system.problem.options.p
    # one sum per coarse patch, over that patch's fine nodes: together the
    # pairs of one pass over the fine set
    assert len(pairs) == len(system.coarse)
    assert sum(pairs) == 2 * (p + 1) * len(system.nodes) * len(system.fine_nodes)
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


@pytest.mark.parametrize("sqrt_scaling", [False, True])
def test_operator_build_sums_the_check_points_upsampling_certified(sqrt_scaling, monkeypatch):
    """The operator build sums the fine set at exactly the check points that
    adaptive upsampling made far from every fine patch, bit for bit."""
    from hedgehog import evaluation
    from hedgehog.refinement import required_check_points

    b = 0.2
    problem = BVProblem(
        kernel=K.LAPLACE,
        geometry=geo.sphere_mesh(0.8, per_face=1),
        boundary_condition=constant_boundary_condition([1.0]),
        degree=10,
        admissibility=AdmissibilityConfig(
            eps_geometry=1e-2, eps_boundary=1e-1, b=b, a=b / 6, q=4, sqrt_scaling=sqrt_scaling
        ),
        options=EvalOptions(p=6, b=b, q=4, sqrt_scaling=sqrt_scaling),
        uniform_levels=None,
    )
    system = assemble(problem)
    summed = []
    blocks = evaluation.upsampled_blocks

    def capturing(kernel, layer, nodes, density, fine_nodes, targets, *args, **kwargs):
        summed.append(np.array(targets))
        return blocks(kernel, layer, nodes, density, fine_nodes, targets, *args, **kwargs)

    monkeypatch.setattr(evaluation, "upsampled_blocks", capturing)
    solve(system)
    certified = required_check_points(system.coarse, system.nodes, problem.admissibility)
    got = np.unique(np.concatenate(summed), axis=0)
    assert got.tobytes() == np.unique(certified, axis=0).tobytes()
    assert len(system.fine) > len(system.coarse)


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


def _scipy_gmres(op, b):
    """The reference: scipy's GMRES with the solver's settings."""
    history = []
    x, info = gmres(
        op, b, rtol=EPS_GMRES, atol=0.0, restart=solver.MAX_GMRES_ITERATIONS, maxiter=1,
        callback=history.append, callback_type="pr_norm",
    )
    return x, info, history


def _assert_same_run(got, want):
    """Same step count, histories to 1e-12 and solutions to 1e-10 relative."""
    (x, history), (x_ref, _, history_ref) = got, want
    assert len(history) == len(history_ref)
    np.testing.assert_allclose(history, history_ref, rtol=1e-12, atol=0.0)
    assert np.abs(x - x_ref).max() <= 1e-10 * np.abs(x_ref).max()


def _dense_system(n, conditioning, rng):
    if conditioning == "well":
        return 3.0 * np.eye(n) + rng.normal(size=(n, n)) / np.sqrt(n)
    # singular values spread over eight decades
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    w, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return (u * np.logspace(0, -8, n)) @ w.T


@pytest.mark.parametrize("conditioning", ["well", "bad"])
@pytest.mark.parametrize("n", [1, 5, 60, 450])
def test_gmres_matches_scipy_on_dense_systems(n, conditioning):
    rng = np.random.default_rng(n)
    op, b = _dense_system(n, conditioning, rng), rng.normal(size=n)
    got, want = solver._gmres(op, b), _scipy_gmres(op, b)
    _assert_same_run(got, want)
    converged = np.linalg.norm(b - op @ got[0]) <= EPS_GMRES * np.linalg.norm(b)
    assert converged == (want[1] == 0)


@pytest.mark.parametrize("case", ["identity", "rank-three Krylov space"])
def test_gmres_matches_scipy_at_early_breakdown(case):
    n = 40
    rng = np.random.default_rng(7)
    if case == "identity":
        op = np.eye(n)
    else:
        # three distinct eigenvalues: the Krylov space stops growing at three
        op = np.diag(np.repeat([1.0, -2.0, 5.0], [10, 10, 20]))
    b = rng.normal(size=n)
    got, want = solver._gmres(op, b), _scipy_gmres(op, b)
    _assert_same_run(got, want)
    assert len(got[1]) == (1 if case == "identity" else 3)


def test_gmres_of_a_zero_right_hand_side_takes_no_steps():
    op = np.random.default_rng(2).normal(size=(6, 6))
    x, history = solver._gmres(op, np.zeros(6))
    x_ref, info, history_ref = _scipy_gmres(op, np.zeros(6))
    assert history == history_ref == [] and info == 0
    assert np.array_equal(x, np.zeros(6)) and np.array_equal(x_ref, np.zeros(6))


def test_gmres_matches_scipy_when_cut_off_by_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(solver, "MAX_GMRES_ITERATIONS", 7)
    rng = np.random.default_rng(5)
    op, b = _dense_system(60, "well", rng), rng.normal(size=60)
    got, want = solver._gmres(op, b), _scipy_gmres(op, b)
    _assert_same_run(got, want)
    assert len(got[1]) == 7 and want[1] != 0


@pytest.mark.parametrize("cap", [None, 3])
def test_solve_report_matches_scipy_on_the_formed_operator(cap, monkeypatch):
    """solve's report, converged flag included, against scipy on the same operator."""
    if cap is not None:
        monkeypatch.setattr(solver, "MAX_GMRES_ITERATIONS", cap)
    system = _small_system()
    n = system.n_unknowns
    op = matvec(system, np.eye(n).reshape(-1, 1, n)).reshape(n, n)
    b = system.rhs.reshape(-1)
    density, report = solve(system)
    x_ref, info, history_ref = _scipy_gmres(op, b)
    _assert_same_run((density.values.reshape(-1), report.residual_history), (x_ref, info, history_ref))
    assert report.iterations == len(history_ref)
    assert report.converged == (info == 0 or history_ref[-1] <= EPS_GMRES)
    assert report.converged == (cap is None)


@pytest.mark.parametrize(
    "f, g",
    [
        (0.0, 0.0), (0.0, 2.5), (0.0, -2.5), (-3.0, 0.0),
        (3.0, -4.0), (-3.0, 4.0), (-0.5, -7.0),
        (1e300, -3e300), (-2e-300, 5e-300), (7e299, 1e-300), (1e-300, -4e300),
    ],
)
def test_rotation_matches_lapack_lartg(f, g):
    want = dlartg(f, g)
    got = solver._rotation(np.float64(f), np.float64(g))
    np.testing.assert_allclose(got, want, rtol=2 * np.finfo(float).eps, atol=0.0)
    c, _, r = got
    assert c >= 0 and (f == 0 or np.sign(r) == np.sign(f))


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
