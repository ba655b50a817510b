import numpy as np
import pytest

import hedgehog.geometry as geo
from hedgehog.errors import UsageError
from hedgehog.refinement import near_zone_boxes
from hedgehog.spatial import (
    AABBTree,
    closest_point_global_bulk,
    closest_point_on_patch,
    point_triangle_sqdist,
    surface_index,
    triangle_proxies,
)
from hedgehog.geometry.patches import (
    PatchSet,
    Subdomain,
    characteristic_length,
    fit_patch,
)


def _random_boxes(n, rng):
    lo = rng.uniform(-1, 1, (n, 3))
    hi = lo + rng.uniform(0.01, 0.5, (n, 3))
    return lo, hi


def _containing(tree, x):
    """Sorted ids of the boxes that contain one point, from the bulk query."""
    _, ids = tree.query_points_bulk(np.asarray(x, dtype=float)[None, :])
    return sorted(ids.tolist())


def _triangle_sqdist_oracle(x, tri):
    """Squared point-triangle distance without Ericson's region tests.

    The foot of the perpendicular on the triangle's plane when it lies
    inside the triangle, otherwise the nearest of the three edges, each a
    clamped segment projection.
    """
    a, b, c = tri
    n = np.cross(b - a, c - a)
    foot = x - np.dot(x - a, n) / np.dot(n, n) * n
    if all(np.dot(np.cross(q - p, foot - p), n) >= 0 for p, q in ((a, b), (b, c), (c, a))):
        return float(np.sum((x - foot) ** 2))

    def segment(p, q):
        u = np.clip(np.dot(x - p, q - p) / np.dot(q - p, q - p), 0.0, 1.0)
        return float(np.sum((x - p - u * (q - p)) ** 2))

    return min(segment(a, b), segment(b, c), segment(c, a))


def test_single_box_tree():
    tree = AABBTree(np.zeros((1, 3)), np.ones((1, 3)), [7])
    assert _containing(tree, [0.5, 0.5, 0.5]) == [7]
    assert _containing(tree, [2.0, 0.5, 0.5]) == []


def test_query_point_matches_brute_force():
    rng = np.random.default_rng(0)
    lo, hi = _random_boxes(1000, rng)
    tree = AABBTree(lo, hi, np.arange(1000))
    pts = rng.uniform(-1.2, 1.2, (100, 3))
    rows, ids = tree.query_points_bulk(pts)
    got = {(int(r), int(i)) for r, i in zip(rows, ids)}
    expect = {
        (j, int(i))
        for j, x in enumerate(pts)
        for i in np.flatnonzero(np.all((lo <= x) & (x <= hi), axis=1))
    }
    assert got == expect


def test_query_box_matches_brute_force():
    rng = np.random.default_rng(1)
    lo, hi = _random_boxes(500, rng)
    tree = AABBTree(lo, hi, np.arange(500))
    for _ in range(50):
        qlo = rng.uniform(-1.2, 1.0, 3)
        qhi = qlo + rng.uniform(0.05, 0.6, 3)
        brute = np.flatnonzero(np.all((lo <= qhi) & (qlo <= hi), axis=1))
        assert np.array_equal(tree.query_box(qlo, qhi), brute)


def test_disjoint_boxes_empty_result():
    lo = np.array([[0.0, 0, 0], [2.0, 2, 2]])
    hi = lo + 0.5
    tree = AABBTree(lo, hi, np.array([0, 1]))
    assert _containing(tree, [1.2, 1.2, 1.2]) == []


def test_nested_boxes_all_returned():
    n = 6
    lo = np.stack([-np.arange(1, n + 1.0)] * 3, axis=1)
    hi = -lo
    tree = AABBTree(lo, hi, np.arange(n))
    assert _containing(tree, [0.0, 0.0, 0.0]) == list(range(n))


def test_empty_tree_rejected():
    with pytest.raises(UsageError):
        AABBTree(np.zeros((0, 3)), np.zeros((0, 3)), [])


def test_nearest_triangle_on_flat_mesh(flat_square_patch):
    ps = PatchSet([flat_square_patch])
    idx = surface_index(ps)
    tri_id, dist = idx.tree_triangles.nearest_triangle(np.array([0.0, 0.0, 0.3]))
    assert dist == pytest.approx(0.3, abs=1e-12)
    assert idx.proxies.patch_ids[tri_id] == 0


def test_nearest_triangle_matches_brute_force():
    rng = np.random.default_rng(2)
    tris = rng.uniform(-1, 1, (500, 3, 3))
    lo = tris.min(axis=1)
    hi = tris.max(axis=1)
    tree = AABBTree(lo, hi, np.arange(500), triangles=tris)
    for _ in range(50):
        x = rng.uniform(-1.5, 1.5, 3)
        tid, dist = tree.nearest_triangle(x)
        brute = np.sqrt([_triangle_sqdist_oracle(x, tri) for tri in tris])
        assert dist == pytest.approx(brute.min(), abs=1e-12)
        assert brute[tid] == pytest.approx(brute.min(), abs=1e-12)


def test_nearest_triangle_requires_triangle_tree():
    tree = AABBTree(np.zeros((1, 3)), np.ones((1, 3)), [0])
    with pytest.raises(UsageError):
        tree.nearest_triangle(np.zeros(3))


def test_points_triangles_min_matches_scalar():
    """Every (point, triangle) pair: distance and closest point vs the oracle."""
    rng = np.random.default_rng(3)
    tris = rng.uniform(-1, 1, (40, 3, 3))
    pts = rng.uniform(-1.5, 1.5, (25, 3))
    d2, closest = point_triangle_sqdist(pts, tris)
    assert d2.shape == (25, 40) and closest.shape == (25, 40, 3)
    for j, x in enumerate(pts):
        for k, tri in enumerate(tris):
            oracle = _triangle_sqdist_oracle(x, tri)
            assert d2[j, k] == pytest.approx(oracle, rel=1e-12, abs=1e-14)
            gap = np.sum((closest[j, k] - x) ** 2)
            assert gap == pytest.approx(d2[j, k], rel=1e-12, abs=1e-14)
    one, _ = point_triangle_sqdist(pts[7], tris)
    assert np.array_equal(one[0], d2[7])


def test_closest_point_flat_patch(flat_square_patch):
    res = closest_point_on_patch(flat_square_patch, np.array([[0.0, 0.0, 0.25]]))
    assert np.abs(res.params).max() < 1e-12
    assert res.distance[0] == pytest.approx(0.25, abs=1e-13)


def test_closest_point_on_surface_point(random_cubic_patch):
    st = np.array([[0.3, -0.6]])
    x = geo.evaluate(random_cubic_patch, st[:, 0], st[:, 1])
    res = closest_point_on_patch(random_cubic_patch, x)
    assert res.distance[0] <= 1e-12


def test_closest_point_matches_grid_scan_oracle(random_cubic_patch):
    """Newton distance vs an independent dense-grid + local-refine oracle."""
    from scipy.optimize import minimize

    rng = np.random.default_rng(4)
    pts = rng.uniform(-1.5, 1.5, (50, 3))
    res = closest_point_on_patch(random_cubic_patch, pts)
    grid = np.linspace(-1, 1, 300)
    from hedgehog.geometry.bezier import bernstein_matrix, eval_grid

    b = bernstein_matrix(3, grid)
    surf = eval_grid(random_cubic_patch.coeffs, b, b).reshape(-1, 3)
    for j, x in enumerate(pts):
        d2 = ((surf - x) ** 2).sum(axis=1)
        k = int(np.argmin(d2))
        seed = np.array([grid[k // 300], grid[k % 300]])

        def obj(st):
            p = geo.evaluate(random_cubic_patch, st[0], st[1])
            return float(((p - x) ** 2).sum())

        opt = minimize(obj, seed, method="L-BFGS-B", bounds=[(-1, 1)] * 2,
                       options={"ftol": 1e-18, "gtol": 1e-14})
        oracle = np.sqrt(opt.fun)
        assert res.distance[j] <= oracle + 1e-8
        assert abs(res.distance[j] - oracle) < 1e-8


def test_closest_point_global_two_plates():
    top = geo.plate_embedding([-0.5, -0.5, 1.0], [1, 0, 0], [0, 1, 0])
    bot = geo.plate_embedding([-0.5, -0.5, 0.0], [1, 0, 0], [0, 1, 0])
    ps = PatchSet([fit_patch(bot, 0, Subdomain(), 2), fit_patch(top, 1, Subdomain(), 2)])
    pids, _, dists = closest_point_global_bulk(ps, [0.0, 0.0, 0.2])
    assert pids[0] == 0
    assert dists[0] == pytest.approx(0.2, abs=1e-12)


def test_closest_point_global_tie_breaks_low_id():
    top = geo.plate_embedding([-0.5, -0.5, 1.0], [1, 0, 0], [0, 1, 0])
    bot = geo.plate_embedding([-0.5, -0.5, 0.0], [1, 0, 0], [0, 1, 0])
    ps = PatchSet([fit_patch(bot, 0, Subdomain(), 2), fit_patch(top, 1, Subdomain(), 2)])
    pids, _, dists = closest_point_global_bulk(ps, [0.1, -0.2, 0.5])
    assert pids[0] == 0
    assert dists[0] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.slow
def test_closest_point_global_torus_matches_per_patch_oracle(torus_patches):
    rng = np.random.default_rng(5)
    # random points in a shell around the torus surface
    theta = rng.uniform(0, 2 * np.pi, 200)
    phi = rng.uniform(0, 2 * np.pi, 200)
    radial = 0.25 + rng.uniform(-0.2, 0.2, 200)
    ring = 0.7 + radial * np.cos(phi)
    pts = np.stack([ring * np.cos(theta), ring * np.sin(theta), radial * np.sin(phi)], axis=1)
    pids, params, dists = closest_point_global_bulk(torus_patches, pts)
    # oracle: per-patch Newton over every patch
    all_d = np.stack(
        [closest_point_on_patch(p, pts).distance for p in torus_patches], axis=1
    )
    assert np.abs(dists - all_d.min(axis=1)).max() < 1e-8


def test_near_zone_box_contains_near_points(unit_sphere_patches):
    rng = np.random.default_rng(6)
    patch = unit_sphere_patches[3]
    length = characteristic_length(patch)
    lo, hi = near_zone_boxes(unit_sphere_patches)
    st = rng.uniform(-1, 1, (1000, 2))
    on_patch = geo.evaluate(patch, st[:, 0], st[:, 1])
    offset = rng.normal(size=(1000, 3))
    offset *= (rng.uniform(0, length, 1000) / np.linalg.norm(offset, axis=1))[:, None]
    near_pts = on_patch + offset
    assert np.all((lo[3] <= near_pts) & (near_pts <= hi[3]))


def test_patch_box_contains_control_points_and_surface(random_cubic_patch):
    lo, hi = random_cubic_patch.control_box()
    assert np.all(random_cubic_patch.coeffs.reshape(-1, 3) >= lo)
    assert np.all(random_cubic_patch.coeffs.reshape(-1, 3) <= hi)
    st = np.random.default_rng(7).uniform(-1, 1, (500, 2))
    pts = geo.evaluate(random_cubic_patch, st[:, 0], st[:, 1])
    assert np.all(pts >= lo - 1e-12) and np.all(pts <= hi + 1e-12)


def test_triangle_proxies_cover_patches(unit_sphere_patches):
    proxies = triangle_proxies(unit_sphere_patches)
    per_patch = 2 * 7 * 7
    assert len(proxies.patch_ids) == per_patch * len(unit_sphere_patches)
    assert proxies.vertices.shape == (len(proxies.patch_ids), 3, 3)
