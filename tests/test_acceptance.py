"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

These runs mirror the convergence and pipeline studies at desk scale with
the direct summation backend; the long ones carry the slow marker.  Run
with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import numpy as np
import pytest

import hedgehog.geometry as geo
from hedgehog import kernels as K
from hedgehog.chebyshev import extrapolate, extrapolation_weights
from hedgehog.evaluation import (
    EvalOptions,
    average_limits,
    evaluate_one_sided,
    surface_node_labels,
)
from hedgehog.geometry.patches import PatchSet, Subdomain, fit_patch
from hedgehog.harness import (
    ExperimentConfig,
    run_extrapolation_sweep,
    run_greens_identity,
    run_solver_convergence,
    run_target_precision_sweep,
)
from hedgehog.quadrature import discretize, smooth_potential, upsample_density
from hedgehog.refinement import (
    AdmissibilityConfig,
    UpsamplingConfig,
    adaptive_upsample,
    enforce_admissibility,
    refine_for_geometry,
    required_check_points,
)
from hedgehog.spatial import AABBTree, closest_point_on_patch

pytestmark = pytest.mark.acceptance


def _report(criterion, passed, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# Criterion 1: Green's identity convergence on the spheroid
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_1_greens_identity_convergence(tmp_path):
    config = ExperimentConfig(
        experiment="greens-identity",
        geometry="builtin:spheroid",
        per_face=4,  # 96 surface patches at level 0
        degree=8,
        levels=3,
        q=20,
        p=6,
        b=0.03,
        a=0.004,
        sqrt_scaling=True,
        upsample_levels=2,
        charges=100,
        charge_radius=1.0,
        target_subsample=1200,
        eps_geometry=1e-4,
        seed=0,
        out=str(tmp_path),
    )
    rows, eoc = run_greens_identity(config)
    first_error = rows[0][4]
    errors = [r[4] for r in rows]
    passed = (
        rows[0][1] == 96
        and eoc >= 4.0
        and first_error <= 10.0 * 1.06e-4
        and all(a > b for a, b in zip(errors, errors[1:]))
    )
    _report(
        "1 greens-identity",
        passed,
        f"errors={['%.2e' % e for e in errors]} eoc={eoc:.2f}",
    )
    assert rows[0][1] == 96
    assert eoc >= 4.0, f"estimated order {eoc:.2f} < 4.0"
    assert first_error <= 10.0 * 1.06e-4
    assert all(a > b for a, b in zip(errors, errors[1:]))


# ---------------------------------------------------------------------------
# Criteria 2 and 5: solver convergence and GMRES iteration stability
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def solver_convergence_rows(tmp_path_factory):
    config = ExperimentConfig(
        experiment="solve",
        geometry="builtin:spheroid",
        per_face=1,  # 6, 24, 96 patches across the levels
        degree=8,
        levels=3,
        q=12,
        p=6,
        b=0.03,
        a=0.005,
        sqrt_scaling=True,
        upsample_levels=2,
        charges=100,
        charge_radius=1.0,
        target_subsample=700,
        eps_geometry=1e-4,
        seed=0,
        out=str(tmp_path_factory.mktemp("solve")),
    )
    return run_solver_convergence(config)


@pytest.mark.slow
def test_criterion_2_solver_convergence(solver_convergence_rows):
    rows, eoc = solver_convergence_rows
    errors = [r[5] for r in rows]
    passed = eoc >= 4.5 and all(a > b for a, b in zip(errors, errors[1:]))
    _report(
        "2 solver-convergence",
        passed,
        f"errors={['%.2e' % e for e in errors]} eoc={eoc:.2f}",
    )
    assert eoc >= 4.5, f"estimated order {eoc:.2f} < 4.5"
    assert all(a > b for a, b in zip(errors, errors[1:]))


@pytest.mark.slow
def test_criterion_5_gmres_iteration_stability(solver_convergence_rows):
    rows, _ = solver_convergence_rows
    iters = [r[3] for r in rows]
    ratios = [abs(b - a) / a for a, b in zip(iters, iters[1:])]
    passed = all(r <= 0.20 for r in ratios)
    _report("5 gmres-iterations", passed, f"iterations={iters}")
    assert all(r <= 0.20 for r in ratios), f"iteration counts {iters}"


# ---------------------------------------------------------------------------
# Criteria 3 and 4: constant density identity and jump relations
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def admissible_sphere():
    """Admissible unit sphere, q = 16, with its adaptively upsampled set."""
    mesh = geo.sphere_mesh(1.0, per_face=2)
    patches = PatchSet(
        [fit_patch(e, r, Subdomain(), 16) for r, e in enumerate(mesh.embeddings)],
        mesh=mesh,
    )
    cfg = AdmissibilityConfig(
        eps_geometry=1e-6, b=0.125, a=0.125 / 6.0, p=6, q=16
    )
    coarse = enforce_admissibility(patches, cfg)
    fine = adaptive_upsample(coarse, UpsamplingConfig(), cfg)
    nodes = discretize(coarse, 16)
    fine_nodes = discretize(fine, 16)
    opts = EvalOptions(p=6, b=0.125, q=16, eps_target=1e-6)
    return coarse, fine, nodes, fine_nodes, opts, cfg


@pytest.mark.slow
def test_criterion_3_constant_density_identity(admissible_sphere):
    coarse, fine, nodes, fine_nodes, opts, _ = admissible_sphere
    ones = np.ones(len(nodes))
    labels = surface_node_labels(nodes)
    vals, _ = evaluate_one_sided(
        nodes.positions, labels, K.LAPLACE, ones, nodes, fine_nodes, opts
    )
    surface_err = float(np.abs(vals - 1.0).max())
    center = smooth_potential(
        K.LAPLACE, "double", nodes, ones, np.zeros((1, 3))
    )
    center_err = float(abs(center[0, 0] - 1.0))
    passed = surface_err <= 1e-5 and center_err <= 1e-10
    _report(
        "3 constant-density",
        passed,
        f"surface={surface_err:.2e} center={center_err:.2e}",
    )
    assert surface_err <= 1e-5
    assert center_err <= 1e-10


@pytest.mark.slow
def test_criterion_4_jump_relations(admissible_sphere):
    coarse, fine, nodes, fine_nodes, opts, _ = admissible_sphere
    rng = np.random.default_rng(0)
    ones = np.ones(len(nodes))
    lengths = coarse.lengths
    margin = 1.5 * lengths.max()

    def sample_radial(lo, hi, m):
        dirs = rng.normal(size=(m, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        return dirs * rng.uniform(lo, hi, (m, 1))

    # the unit sphere has no room for the margin inside (max L is about
    # 0.72), so interior points stay within a fixed inner radius: at least
    # one patch length from every patch
    inner = 1.0 - lengths.max()
    assert inner > 0.0
    interior = sample_radial(0.0, inner, 300)
    exterior = sample_radial(1.0 + margin, 3.0, 300)
    w_in = smooth_potential(K.LAPLACE, "double", nodes, ones, interior)
    w_out = smooth_potential(K.LAPLACE, "double", nodes, ones, exterior)
    err_in = float(np.abs(w_in - 1.0).max())
    err_out = float(np.abs(w_out).max())

    # on-surface principal value by two-sided averaging at random points
    pids = rng.integers(0, len(coarse), 300)
    params = rng.uniform(-1, 1, (300, 2))
    anchors = np.empty((300, 3))
    normals = np.empty((300, 3))
    for j in range(300):
        patch = coarse[pids[j]]
        anchors[j] = geo.evaluate(patch, params[j, 0], params[j, 1])
        normals[j] = geo.normal(patch, params[j, 0], params[j, 1])
    pv = average_limits(
        anchors,
        normals,
        lengths[pids],
        K.LAPLACE,
        nodes,
        ones,
        fine_nodes,
        opts,
    )
    err_pv = float(np.abs(pv - 0.5).max())
    passed = err_in <= 1e-8 and err_out <= 1e-8 and err_pv <= 1e-5
    _report(
        "4 jump-relations",
        passed,
        f"inside={err_in:.2e} surface={err_pv:.2e} outside={err_out:.2e}",
    )
    assert err_in <= 1e-8
    assert err_pv <= 1e-5
    assert err_out <= 1e-8


# ---------------------------------------------------------------------------
# Criterion 6: extrapolation stability sweep
# ---------------------------------------------------------------------------


def test_criterion_6_extrapolation_sweep(tmp_path):
    config = ExperimentConfig(experiment="extrapolation-sweep", out=str(tmp_path))
    r_grid = np.linspace(0.05, 1.0, 39)
    s_grid = np.linspace(0.05, 1.0, 39)
    rows = run_extrapolation_sweep(config, p_list=(6,), r_over_rho=r_grid,
                                   rp_over_r=s_grid)
    table = {(round(r[1], 6), round(r[2], 6)): r[3] for r in rows}
    # monotone growth toward R/rho = 1 along the rp/R = 1 line
    line = sorted(
        (rr, table[(round(rr, 6), round(1.0, 6))]) for rr in r_grid
    )
    vals = [v for _, v in line]
    monotone = all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    # contiguous region with error <= 1e-6 containing (R/rho=0.3, rp/R=1)
    anchor_rr = min(r_grid, key=lambda v: abs(v - 0.3))
    anchor_ss = min(s_grid, key=lambda v: abs(v - 1.0))
    anchor_err = 10.0 ** table[(round(anchor_rr, 6), round(anchor_ss, 6))]
    region = {
        k for k, v in table.items() if 10.0**v <= 1e-6
    }
    anchor_in_region = (round(anchor_rr, 6), round(anchor_ss, 6)) in region
    passed = monotone and anchor_in_region
    _report(
        "6 extrapolation-sweep",
        passed,
        f"monotone={monotone} err(0.3,1)={anchor_err:.2e} "
        f"region_cells={len(region)}",
    )
    assert monotone
    assert len(region) > 0, "no stable cells at 1e-6 anywhere"
    assert anchor_in_region, (
        f"relative error at (R/rho=0.3, rp/R=1) is {anchor_err:.2e}; the 1e-6 "
        "region does not reach that anchor (see decisions ledger)"
    )


# ---------------------------------------------------------------------------
# Criterion 7: oracle equivalences
# ---------------------------------------------------------------------------


def test_criterion_7_oracle_equivalences(torus_patches):
    rng = np.random.default_rng(1)
    # AABB queries vs brute force on 1000 boxes
    lo = rng.uniform(-1, 1, (1000, 3))
    hi = lo + rng.uniform(0.01, 0.4, (1000, 3))
    tree = AABBTree(lo, hi, np.arange(1000))
    pts = rng.uniform(-1.2, 1.2, (100, 3))
    rows, ids = tree.query_points_bulk(pts)
    aabb_ok = all(
        np.array_equal(
            np.sort(ids[rows == j]),
            np.flatnonzero(np.all((lo <= x) & (x <= hi), axis=1)),
        )
        for j, x in enumerate(pts)
    )

    # global closest point vs per-patch Newton oracle on 200 points
    from hedgehog.spatial import closest_point_global_bulk

    theta = rng.uniform(0, 2 * np.pi, 200)
    phi = rng.uniform(0, 2 * np.pi, 200)
    radial = 0.25 + rng.uniform(-0.18, 0.18, 200)
    ring = 0.7 + radial * np.cos(phi)
    shell = np.stack(
        [ring * np.cos(theta), ring * np.sin(theta), radial * np.sin(phi)], axis=1
    )
    _, _, dists, _ = closest_point_global_bulk(torus_patches, shell)
    oracle = np.min(
        np.stack(
            [closest_point_on_patch(p, shell).distance for p in torus_patches],
            axis=1,
        ),
        axis=1,
    )
    closest_ok = bool(np.abs(dists - oracle).max() < 1e-8)

    # matvec vs dense assembly on a small torus
    from hedgehog.geometry.embeddings import constant_boundary_condition
    from hedgehog.solver import BVProblem, assemble, matvec

    problem = BVProblem(
        kernel=K.LAPLACE,
        geometry=geo.torus_mesh(n_major=4, n_minor=2),
        boundary_condition=constant_boundary_condition(1.0),
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
        e = np.zeros((n, 1))
        e[j] = 1.0
        dense[:, j] = matvec(system, e).reshape(-1)
    phi = rng.normal(size=n)
    direct = matvec(system, phi.reshape(-1, 1)).reshape(-1)
    matvec_ok = bool(
        np.abs(dense @ phi - direct).max() <= 1e-12 * max(1.0, np.abs(direct).max())
    )

    # upsampling exact on bidegree-(5, 5) data
    emb = geo.plate_embedding([-1, -1, 0], [2, 0, 0], [0, 2, 0])
    coarse = PatchSet([fit_patch(emb, 0, Subdomain(), 5)], mesh=geo.QuadMesh([emb]))
    from hedgehog.refinement import uniform_upsample

    fine = uniform_upsample(coarse, 2)
    cn = discretize(coarse, 20)
    fn = discretize(fine, 20)
    cs = rng.normal(size=(6, 6))
    vals = np.polynomial.polynomial.polyval2d(cn.params[:, 0], cn.params[:, 1], cs)
    up = upsample_density(cn, vals, fn)
    pulled = []
    for i, p in enumerate(fine.patches):
        s, t = p.domain.to_root(
            fn.params[i * 400:(i + 1) * 400, 0], fn.params[i * 400:(i + 1) * 400, 1]
        )
        pulled.append(np.stack([s, t], axis=1))
    pulled = np.concatenate(pulled)
    exact = np.polynomial.polynomial.polyval2d(pulled[:, 0], pulled[:, 1], cs)
    upsample_ok = bool(
        np.abs(up - exact).max() <= 1e-12 * max(1.0, np.abs(exact).max())
    )

    # extrapolation exact on degree-p polynomials (dyadic coefficients)
    coeffs = np.array([0.5, -0.75, 0.25, 0.125, -0.0625, 0.03125, 0.015625])
    s = np.arange(7.0)
    values = np.polynomial.polynomial.polyval(s, coeffs)
    exact_val = float(np.polynomial.polynomial.polyval(-6.0, coeffs))
    extrap_ok = bool(
        abs(extrapolate(values, extrapolation_weights(6, -6.0))[0] - exact_val)
        <= 1e-12 * max(1.0, abs(exact_val))
    )

    passed = aabb_ok and closest_ok and matvec_ok and upsample_ok and extrap_ok
    _report(
        "7 oracle-equivalences",
        passed,
        f"aabb={aabb_ok} closest={closest_ok} matvec={matvec_ok} "
        f"upsample={upsample_ok} extrapolate={extrap_ok}",
    )
    assert aabb_ok and closest_ok and matvec_ok and upsample_ok and extrap_ok


# ---------------------------------------------------------------------------
# Criterion 8: refinement correctness
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_8_refinement_correctness(admissible_sphere):
    coarse, fine, nodes, fine_nodes, opts, cfg = admissible_sphere
    # idempotency on the admissible set
    again = enforce_admissibility(coarse, cfg)
    idempotent = len(again) == len(coarse) and all(
        a.depth == b.depth for a, b in zip(coarse, again)
    )

    # 500-sample audit of the upsampled set distance criterion
    checks = required_check_points(coarse, nodes, cfg)
    rng = np.random.default_rng(2)
    sample = rng.choice(len(checks), size=500, replace=False)
    # control boxes inflated by 2 L(P) gather every pair closer than L(P)
    lengths = fine.lengths
    lo, hi = fine.control_boxes()
    margin = 2.0 * lengths[:, None]
    tree = AABBTree(lo - margin, hi + margin, np.arange(len(fine)))
    audit = True
    rows, ids = tree.query_points_bulk(checks[sample])
    for pid in np.unique(ids):
        sel = rows[ids == pid]
        res = closest_point_on_patch(fine[pid], checks[sample][sel])
        if np.any(res.distance < lengths[pid] * (1.0 - 1e-10)):
            audit = False
            break

    # parallel plates: enforcement depth matches the closed form exactly
    separation = 0.171
    a_emb = geo.plate_embedding([-0.5, -0.5, 0.0], [1, 0, 0], [0, 1, 0])
    b_emb = geo.plate_embedding([-0.5, -0.5, -separation], [0, 1, 0], [1, 0, 0])
    plates = refine_for_geometry(geo.QuadMesh([a_emb, b_emb]), 3, 1e-10)
    pcfg = AdmissibilityConfig(b=0.25, a=0.25 / 6, p=6, q=6)
    refined = enforce_admissibility(plates, pcfg)
    k = 0
    dc = (0.25 + (0.25 / 6) * 3.5) * 1.0
    while dc >= separation / 2.0:
        k += 1
        dc /= 2.0
    plates_ok = {p.depth for p in refined} == {k}

    passed = idempotent and audit and plates_ok
    _report(
        "8 refinement-correctness",
        passed,
        f"idempotent={idempotent} audit={audit} plate_depth_ok={plates_ok}",
    )
    assert idempotent and audit and plates_ok


# ---------------------------------------------------------------------------
# Criterion 9: requested precision sweep on the torus
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_9_target_precision_sweep(tmp_path):
    config = ExperimentConfig(
        experiment="target-precision-sweep",
        geometry="builtin:torus",
        degree=16,
        q=10,
        p=6,
        eps_target_list=(1e-4, 1e-5, 1e-6),
        eps_geometry=1e-5,
        eps_boundary=1e-6,
        target_subsample=600,
        seed=0,
        out=str(tmp_path),
    )
    rows = run_target_precision_sweep(config)
    achieved = [r[2] for r in rows]
    coarse_counts = [r[3] for r in rows]
    fine_counts = [r[4] for r in rows]
    within = all(a <= 10.0 * eps for (eps, _, a, *_rest) in rows)
    fine_monotone = all(a < b for a, b in zip(fine_counts, fine_counts[1:]))
    coarse_fixed = len(set(coarse_counts)) == 1
    passed = within and fine_monotone and coarse_fixed
    _report(
        "9 target-precision",
        passed,
        f"achieved={['%.2e' % a for a in achieved]} fine={fine_counts} "
        f"coarse={coarse_counts}",
    )
    assert within, f"achieved errors {achieved} exceed 10x the requests"
    assert fine_monotone
    assert coarse_fixed
