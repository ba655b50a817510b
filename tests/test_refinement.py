import numpy as np
import pytest

import hedgehog.geometry as geo
from hedgehog import kernels as K
from hedgehog.geometry.embeddings import constant_boundary_condition
from hedgehog.geometry.patches import PatchSet
from hedgehog.references import ReferenceSolution
from hedgehog.refinement import (
    AdmissibilityConfig,
    RefinementReport,
    UpsamplingConfig,
    adaptive_upsample,
    enforce_admissibility,
    refine_for_boundary_condition,
    refine_for_geometry,
    required_check_points,
    uniform_upsample,
)
from hedgehog.quadrature import discretize
from hedgehog.spatial import closest_points


def _parallel_plates(separation):
    """Two unit plates facing each other across a gap (interior side between)."""
    # plate A at z = 0 with normal +z (interior check points go down);
    # plate B at z = -separation with normal -z (its interior points go up)
    a = geo.plate_embedding([-0.5, -0.5, 0.0], [1, 0, 0], [0, 1, 0])
    b = geo.plate_embedding(
        [-0.5, -0.5, -separation], [0, 1, 0], [1, 0, 0]
    )  # swapped edges flip the normal to -z
    return geo.QuadMesh(embeddings=[a, b])


def test_refine_for_geometry_polynomial_identity():
    rng = np.random.default_rng(0)
    mesh = geo.QuadMesh(
        embeddings=[geo.BezierEmbedding(rng.normal(size=(4, 4, 3))) for _ in range(3)]
    )
    out = refine_for_geometry(mesh, 3, 1e-10)
    assert len(out) == 3
    assert all(p.depth == 0 for p in out)


def test_refine_for_geometry_sphere_meets_tolerance():
    mesh = geo.sphere_mesh(1.0, per_face=1)
    out = refine_for_geometry(mesh, 8, 1e-6)
    assert all(p.fit_error < 1e-6 for p in out)
    assert len(out) >= 24


def test_refine_for_geometry_monotone_in_tolerance():
    # halving the tolerance never coarsens the quadtree anywhere: every
    # loose-set leaf is covered by tight-set leaves of depth >= its own
    mesh = geo.sphere_mesh(1.0, per_face=1)
    loose = refine_for_geometry(mesh, 8, 1e-4)
    tight = refine_for_geometry(mesh, 8, 5e-5)
    assert len(tight) >= len(loose)
    for p in tight:
        covering = [
            q
            for q in loose
            if q.root_id == p.root_id and _contains(q.domain, p.domain)
        ]
        assert len(covering) == 1 and covering[0].depth <= p.depth


def _contains(outer, inner):
    """Whether dyadic square inner lies in dyadic square outer."""
    k = inner.depth - outer.depth
    return k >= 0 and (inner.ix >> k, inner.iy >> k) == (outer.ix, outer.iy)


def test_bc_refinement_constant_is_identity():
    mesh = geo.sphere_mesh(1.0, per_face=1)
    coarse = refine_for_geometry(mesh, 8, 1e-4)
    out = refine_for_boundary_condition(
        coarse, constant_boundary_condition(3.0), 1e-8, q=8
    )
    assert len(out) == len(coarse)


def test_bc_refinement_polynomial_below_order_is_identity():
    mesh = geo.QuadMesh(
        embeddings=[geo.plate_embedding([-1, -1, 0], [2, 0, 0], [0, 2, 0])]
    )
    coarse = refine_for_geometry(mesh, 3, 1e-10)
    f = geo.BoundaryCondition(lambda pts: (pts[:, 0] ** 3 + pts[:, 1] ** 2)[:, None])
    out = refine_for_boundary_condition(coarse, f, 1e-12, q=8)
    assert len(out) == len(coarse)


def test_bc_refinement_concentrates_near_charge():
    mesh = geo.sphere_mesh(1.0, per_face=1)
    coarse = refine_for_geometry(mesh, 8, 1e-4)
    # charge just outside the surface above the +z pole
    L = float(coarse.lengths.mean())
    ref = ReferenceSolution.single_charge(K.LAPLACE, (0.0, 0.0, 1.0 + 0.05 * L))
    out = refine_for_boundary_condition(coarse, ref.boundary_condition(), 1e-5, q=10)
    assert len(out) > len(coarse)
    depths = np.array([p.depth for p in out])
    tops = np.array(
        [geo.evaluate(p, 0.0, 0.0)[2] > 0.8 for p in out]
    )
    assert depths[tops].max() > depths[~tops].max()


def test_admissibility_isolated_flat_patch_trivial():
    mesh = geo.QuadMesh(
        embeddings=[geo.plate_embedding([-0.5, -0.5, 0], [1, 0, 0], [0, 1, 0])]
    )
    coarse = refine_for_geometry(mesh, 3, 1e-10)
    cfg = AdmissibilityConfig(b=0.1, a=0.1 / 6, q=6)
    out = enforce_admissibility(coarse, cfg)
    assert len(out) == 1


def _plate_prediction(b, a, p, separation, length0):
    """Smallest depth with the check center closer to its own plate."""
    k = 0
    dc = (b + a * (p + 1) / 2.0) * length0
    while dc >= separation / 2.0:
        k += 1
        dc /= 2.0
    return k


@pytest.mark.parametrize("separation", [0.171, 0.093])
def test_parallel_plate_admissibility_depth(separation):
    mesh = _parallel_plates(separation)
    coarse = refine_for_geometry(mesh, 3, 1e-10)
    cfg = AdmissibilityConfig(b=0.25, a=0.25 / 6, p=6, q=6)
    out = enforce_admissibility(coarse, cfg)
    depths = {p.depth for p in out}
    predicted = _plate_prediction(0.25, 0.25 / 6, 6, separation, 1.0)
    assert depths == {predicted}
    # and the admissible set is a fixed point of the enforcement
    again = enforce_admissibility(out, cfg)
    assert len(again) == len(out)
    assert all(a.depth == b.depth for a, b in zip(out, again))


def test_admissibility_idempotent(unit_sphere_patches):
    cfg = AdmissibilityConfig(b=0.1, a=0.1 / 6, q=8)
    once = enforce_admissibility(unit_sphere_patches, cfg)
    twice = enforce_admissibility(once, cfg)
    assert len(twice) == len(once)
    assert all(
        a.depth == b.depth and a.root_id == b.root_id
        for a, b in zip(once, twice)
    )


def test_admissibility_refinement_localized_to_facing_patches():
    # two plates nearly touching plus two isolated ones far away: only the
    # facing pair refines
    sep = 0.11
    near_a = geo.plate_embedding([-0.5, -0.5, 0.0], [1, 0, 0], [0, 1, 0])
    near_b = geo.plate_embedding([-0.5, -0.5, -sep], [0, 1, 0], [1, 0, 0])
    far_a = geo.plate_embedding([9.5, -0.5, 0.0], [1, 0, 0], [0, 1, 0])
    far_b = geo.plate_embedding([-10.5, -0.5, 0.0], [1, 0, 0], [0, 1, 0])
    mesh = geo.QuadMesh(embeddings=[near_a, near_b, far_a, far_b])
    coarse = refine_for_geometry(mesh, 3, 1e-10)
    cfg = AdmissibilityConfig(b=0.25, a=0.25 / 6, p=6, q=6)
    out = enforce_admissibility(coarse, cfg)
    depth_by_root = {}
    for p in out:
        depth_by_root.setdefault(p.root_id, []).append(p.depth)
    assert max(depth_by_root[0]) > 0 and max(depth_by_root[1]) > 0
    assert depth_by_root[2] == [0] and depth_by_root[3] == [0]


def test_upsample_fixed_point_when_checks_already_far():
    # explicit check points beyond L of everything leave the set alone
    mesh = geo.QuadMesh(
        embeddings=[geo.plate_embedding([-0.5, -0.5, 0], [1, 0, 0], [0, 1, 0])]
    )
    coarse = refine_for_geometry(mesh, 3, 1e-10)
    cfg = AdmissibilityConfig(b=0.5, a=0.5 / 6, q=6)
    far_points = np.array([[0.0, 0.0, 1.5], [0.3, 0.1, -2.0]])
    fine = adaptive_upsample(
        coarse, UpsamplingConfig(n_skip=0), cfg, check_points=far_points
    )
    assert len(fine) == len(coarse)
    # the square-root spacing mode can push a small patch's own check
    # cloud beyond L as well: L = 1/4 but R = b sqrt(L) = 0.45
    small = geo.QuadMesh(
        embeddings=[geo.plate_embedding([0, 0, 0], [0.5, 0, 0], [0, 0.5, 0])]
    )
    coarse2 = refine_for_geometry(small, 3, 1e-10)
    cfg2 = AdmissibilityConfig(b=0.9, a=0.9 / 6, q=6, sqrt_scaling=True)
    fine2 = adaptive_upsample(coarse2, UpsamplingConfig(n_skip=0), cfg2)
    assert len(fine2) == len(coarse2)


def test_upsample_flat_patch_depth_matches_closed_form():
    mesh = geo.QuadMesh(
        embeddings=[geo.plate_embedding([-0.5, -0.5, 0], [1, 0, 0], [0, 1, 0])]
    )
    coarse = refine_for_geometry(mesh, 3, 1e-10)
    b = 0.22
    cfg = AdmissibilityConfig(b=b, a=b / 6, p=6, q=6)
    fine = adaptive_upsample(coarse, UpsamplingConfig(n_skip=0), cfg)
    # flat plate: nearest check at height bL0 above the surface; children
    # at depth k have length L0 / 2^k; refine while L_child > b L0
    k = 0
    while 1.0 / 2.0**k > b:
        k += 1
    assert {p.depth for p in fine} == {k}


def test_adaptive_upsample_distance_audit(unit_sphere_patches):
    cfg = AdmissibilityConfig(b=0.2, a=0.2 / 6, q=6)
    coarse = enforce_admissibility(unit_sphere_patches, cfg)
    fine = adaptive_upsample(coarse, UpsamplingConfig(), cfg)
    nodes = discretize(coarse, cfg.q)
    checks = required_check_points(coarse, nodes, cfg)
    rng = np.random.default_rng(8)
    sample = rng.choice(len(checks), size=500, replace=False)
    lengths = fine.lengths
    # audit: every sampled check point is at least L(P) from every patch;
    # control boxes inflated by 2 L(P) gather every pair closer than L(P)
    lo, hi = fine.control_boxes()
    margin = 2.0 * lengths[:, None]
    from hedgehog.spatial import AABBTree

    tree = AABBTree(lo - margin, hi + margin, np.arange(len(fine)))
    rows, ids = tree.query_points_bulk(checks[sample])
    res = closest_points(fine, ids, checks[sample][rows])
    assert np.all(res.distance >= lengths[ids] * (1.0 - 1e-10))


def test_uniform_upsample_counts_and_lineage(unit_sphere_patches):
    fine = uniform_upsample(unit_sphere_patches, 2)
    assert len(fine) == 16 * len(unit_sphere_patches)
    assert fine.ancestors is not None
    counts = np.bincount(fine.ancestors)
    assert np.all(counts == 16)


def _float_centre(domain):
    """The centre of a dyadic square by float halving from the root, as a
    walk down the quadtree computes it."""
    cs = ct = 0.0
    h = 1.0
    for level in reversed(range(domain.depth)):
        h *= 0.5
        cs += h if (domain.ix >> level) & 1 else -h
        ct += h if (domain.iy >> level) & 1 else -h
    return cs, ct


def test_fine_keys_descend_from_their_ancestors():
    coarse = refine_for_geometry(geo.spheroid_mesh(per_face=1), 6, 1e-4)
    assert len(coarse) == 96 and {p.depth for p in coarse} == {2}
    adm = AdmissibilityConfig(b=0.2, a=0.2 / 6, q=6)
    checks = required_check_points(coarse, discretize(coarse, adm.q), adm)
    # a sparse sample of the check points leaves fine patches at two depths
    adaptive = adaptive_upsample(coarse, UpsamplingConfig(), adm, checks[::501])
    assert {p.depth for p in adaptive} == {4, 5}
    for fine in (uniform_upsample(coarse, 2), adaptive):
        assert np.all(np.diff(fine.ancestors) >= 0)
        for p, a in zip(fine, fine.ancestors):
            assert p.root_id == coarse[a].root_id
            assert _contains(coarse[a].domain, p.domain)
            centre = p.domain.to_root(0.0, 0.0)
            assert [float(c).hex() for c in centre] == [c.hex() for c in _float_centre(p.domain)]


def test_refinement_report_text():
    mesh = geo.sphere_mesh(1.0, per_face=1)
    report = RefinementReport()
    coarse = refine_for_geometry(mesh, 8, 1e-5, report=report)
    cfg = AdmissibilityConfig(b=0.2, a=0.2 / 6, q=6)
    enforce_admissibility(coarse, cfg, report=report)
    text = report.to_text()
    assert "geometry sweep" in text
    assert "admissibility sweep" in text


def _first_screened_sweep(coarse, cfg):
    """Fine set after the two unconditional sweeps, with its box-gathered pairs."""
    from hedgehog.spatial import AABBTree

    fine = coarse.as_fine().uniform_refined(2)
    checks = required_check_points(coarse, discretize(coarse, cfg.q), cfg)
    lo, hi = fine.control_boxes()
    margin = 2.0 * fine.lengths[:, None]
    rows, ids = AABBTree(lo - margin, hi + margin, np.arange(len(fine))).query_points_bulk(checks)
    return fine, checks, rows, ids


def test_pruned_screen_matches_brute_force_oracle(unit_sphere_patches):
    """The bound-pruned screen keeps exactly the pairs a Newton solve on every alive pair finds close."""
    from hedgehog.refinement import _pairs_within_length
    from hedgehog.spatial import patch_proxies, point_triangle_sqdist

    cfg = AdmissibilityConfig(b=0.2, a=0.2 / 6, q=6)
    fine, checks, rows_all, ids_all = _first_screened_sweep(unit_sphere_patches, cfg)
    rows, pids, unconverged = _pairs_within_length(fine, rows_all, ids_all, checks)
    assert unconverged == 0
    got = set(zip(rows.tolist(), pids.tolist()))

    lengths = fine.lengths
    lo, hi = fine.control_boxes()
    pts = checks[rows_all]
    gap = np.linalg.norm(pts - np.clip(pts, lo[ids_all], hi[ids_all]), axis=1)
    alive = gap < lengths[ids_all]
    a_rows, a_ids = rows_all[alive], ids_all[alive]
    exact = closest_points(fine, a_ids, checks[a_rows])
    close = exact.distance < lengths[a_ids]
    assert got == set(zip(a_rows[close].tolist(), a_ids[close].tolist()))
    assert 0 < len(got) < len(a_rows)

    # the old decision rule on all 72 triangles never contradicts Newton
    ids = np.unique(a_ids)
    prox = patch_proxies(fine, ids)
    for k in np.random.default_rng(9).choice(len(a_rows), 400, replace=False):
        j = np.searchsorted(ids, a_ids[k])
        d2, _ = point_triangle_sqdist(checks[a_rows[k]], prox.tris[j])
        tri = np.sqrt(d2.min())
        if tri + prox.sag[j] < lengths[a_ids[k]]:
            assert close[k]
        elif tri - prox.sag[j] >= lengths[a_ids[k]]:
            assert not close[k]


def test_pruned_sag_equals_full_minimum(unit_sphere_patches, flat_square_patch, random_cubic_patch):
    from hedgehog.geometry.bezier import bernstein_matrix, eval_grid
    from hedgehog.spatial import PROXY_GRID, patch_proxies, point_triangle_sqdist

    patches = unit_sphere_patches.as_fine().uniform_refined(1).patches[:40]
    grid = np.linspace(-1.0, 1.0, PROXY_GRID)
    mids = 0.5 * (grid[:-1] + grid[1:])
    # one set per degree
    for ps in (PatchSet(patches), PatchSet([flat_square_patch, random_cubic_patch])):
        prox = patch_proxies(ps, np.arange(len(ps)))
        for i, p in enumerate(ps):
            bm = bernstein_matrix(p.degree, mids)
            mid = eval_grid(p.coeffs, bm, bm).reshape(-1, 3)
            d2, _ = point_triangle_sqdist(mid, prox.tris[i])
            full = 2.0 * np.sqrt(d2.min(axis=1).max()) + 1e-14
            assert prox.sag[i] == full
    assert prox.sag[0] < 1e-13  # flat: the midpoints lie on the triangles


def test_unconverged_closest_points_are_recorded(unit_sphere_patches, monkeypatch):
    """A Newton budget too small to converge shows in the sweep records and text."""
    from hedgehog import spatial

    cfg = AdmissibilityConfig(b=0.2, a=0.2 / 6, q=6)
    report = RefinementReport()
    adaptive_upsample(unit_sphere_patches, UpsamplingConfig(), cfg, report=report)
    assert all(rec.unconverged == 0 for rec in report.sweeps)
    monkeypatch.setattr(spatial, "_NEWTON_STEPS", 1)
    starved = RefinementReport()
    adaptive_upsample(unit_sphere_patches, UpsamplingConfig(), cfg, report=starved)
    counts = [rec.unconverged for rec in starved.sweeps]
    assert sum(counts) > 0
    assert f"{max(counts)} closest points unconverged" in starved.to_text()


def test_sag_does_not_depend_on_the_batch(unit_sphere_patches, flat_square_patch, random_cubic_patch):
    """Each patch's sag has the same bits for shuffled and partial id lists."""
    from hedgehog.spatial import patch_proxies

    patches = unit_sphere_patches.as_fine().uniform_refined(1).patches[:40]
    rng = np.random.default_rng(4)
    # one set per degree
    for ps in (PatchSet(patches), PatchSet([flat_square_patch, random_cubic_patch])):
        whole = patch_proxies(ps, np.arange(len(ps))).sag
        shuffled = rng.permutation(len(ps))
        assert np.array_equal(patch_proxies(ps, shuffled).sag, whole[shuffled])
        some = rng.choice(len(ps), min(7, len(ps)), replace=False)
        for ids in (some, np.array([len(ps) - 1]), np.array([min(3, len(ps) - 1)])):
            assert np.array_equal(patch_proxies(ps, ids).sag, whole[ids])


def test_vertex_distance_on_unsorted_slots(unit_sphere_patches):
    """The GEMM-ranked vertex distance is the brute-force vertex minimum to
    rounding and never undercuts the exact proxy-triangle distance."""
    from hedgehog.spatial import patch_proxies, point_triangle_sqdist, vertex_distance

    ps = unit_sphere_patches.as_fine().uniform_refined(1)
    ids = np.arange(0, len(ps), 3)
    prox = patch_proxies(ps, ids)
    rng = np.random.default_rng(8)
    slot = rng.integers(0, len(ids), 600)  # unsorted, with repeats
    lengths = ps.lengths[ids[slot]]
    centre = prox.vertices[slot].mean(axis=1)
    x = centre * (1.0 + rng.uniform(-1.5, 1.5, (600, 1)) * lengths[:, None])
    dist = vertex_distance(prox, slot, x)
    brute = np.sqrt(((prox.vertices[slot] - x[:, None, :]) ** 2).sum(axis=2).min(axis=1))
    assert np.all(np.abs(dist - brute) <= 1e-12 * brute)
    for k in range(len(x)):
        d2, _ = point_triangle_sqdist(x[k], prox.tris[slot[k]])
        assert dist[k] >= np.sqrt(d2.min())


def test_screen_counts_partition_the_gathered_pairs(unit_sphere_patches):
    """Every gathered pair is dead or decided at exactly one stage, the
    counts reach the sweep records and the report text prints them."""
    from hedgehog.refinement import SCREEN_STAGES, _pairs_within_length

    cfg = AdmissibilityConfig(b=0.2, a=0.2 / 6, q=6)
    fine, checks, rows_all, ids_all = _first_screened_sweep(unit_sphere_patches, cfg)
    counts = {}
    rows, _, _ = _pairs_within_length(fine, rows_all, ids_all, checks, counts)
    assert tuple(counts) == SCREEN_STAGES
    assert counts["gathered"] == len(rows_all)
    decided = sum(counts[stage] for stage in SCREEN_STAGES[2:])
    assert decided == counts["alive"] <= counts["gathered"]
    assert counts["closed by vertex"] <= len(rows)
    # each box level rules some pair far on this sphere
    assert counts["far by group box"] > 0 and counts["far by triangle box"] > 0

    report = RefinementReport()
    adaptive_upsample(unit_sphere_patches, UpsamplingConfig(), cfg, report=report)
    screened = [rec for rec in report.sweeps if rec.screen]
    assert screened
    for rec in screened:
        assert sum(rec.screen[stage] for stage in SCREEN_STAGES[2:]) == rec.screen["alive"]
    first = screened[0].screen
    line = "screened pairs: " + ", ".join(f"{n} {stage}" for stage, n in first.items())
    assert line in report.to_text()
