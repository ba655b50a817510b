import numpy as np
import pytest

import hedgehog.geometry as geo
from hedgehog import kernels as K
from hedgehog.geometry.embeddings import constant_boundary_condition
from hedgehog.geometry.patches import PatchSet, Subdomain, fit_patch
from hedgehog.references import ReferenceSolution
from hedgehog.refinement import (
    AdmissibilityConfig,
    RefinementReport,
    UpsamplingConfig,
    adaptive_upsample,
    enforce_admissibility,
    near_zone_boxes,
    refine_for_boundary_condition,
    refine_for_geometry,
    required_check_points,
    uniform_upsample,
)
from hedgehog.quadrature import discretize
from hedgehog.spatial import closest_point_on_patch


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
            if q.root_id == p.root_id
            and abs(q.domain.center_s - p.domain.center_s)
            <= q.domain.halfwidth - p.domain.halfwidth + 1e-12
            and abs(q.domain.center_t - p.domain.center_t)
            <= q.domain.halfwidth - p.domain.halfwidth + 1e-12
        ]
        assert len(covering) == 1 and covering[0].depth <= p.depth


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
    # audit: every sampled check point is at least L(P) from every patch
    lo, hi = near_zone_boxes(fine)
    from hedgehog.spatial import AABBTree

    tree = AABBTree(lo, hi, np.arange(len(fine)))
    rows, ids = tree.query_points_bulk(checks[sample])
    for row, pid in zip(rows, ids):
        res = closest_point_on_patch(fine[pid], checks[sample][row][None, :])
        assert res.distance[0] >= lengths[pid] * (1.0 - 1e-10)


def test_uniform_upsample_counts_and_lineage(unit_sphere_patches):
    fine = uniform_upsample(unit_sphere_patches, 2)
    assert len(fine) == 16 * len(unit_sphere_patches)
    assert fine.ancestors is not None
    counts = np.bincount(fine.ancestors)
    assert np.all(counts == 16)


def test_refinement_report_text():
    mesh = geo.sphere_mesh(1.0, per_face=1)
    report = RefinementReport()
    coarse = refine_for_geometry(mesh, 8, 1e-5, report=report)
    cfg = AdmissibilityConfig(b=0.2, a=0.2 / 6, q=6)
    enforce_admissibility(coarse, cfg, report=report)
    text = report.to_text()
    assert "geometry sweep" in text
    assert "admissibility sweep" in text
