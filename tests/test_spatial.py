import numpy as np
import pytest

import hedgehog.geometry as geo
from hedgehog.errors import UsageError
from hedgehog.spatial import (
    _LEAF_SIZE,
    PROXY_GRID,
    AABBTree,
    closest_point_global_bulk,
    closest_point_on_patch,
    closest_points,
    grid_triangles,
    pair_sqdist,
    patch_normals,
    patch_points,
    point_triangle_sqdist,
    surface_index,
)
from hedgehog.geometry.patches import (
    PatchSet,
    Subdomain,
    evaluate,
    fit_patch,
    normal,
    quadrisect_all,
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
    qlo = rng.uniform(-1.2, 1.0, (50, 3))
    qhi = qlo + rng.uniform(0.05, 0.6, (50, 3))
    rows, ids = tree.query_box(qlo, qhi)
    for j in range(50):
        brute = np.flatnonzero(np.all((lo <= qhi[j]) & (qlo[j] <= hi), axis=1))
        assert np.array_equal(np.sort(ids[rows == j]), brute)


def test_query_box_bulk_matches_brute_force_with_empty_results():
    """Many boxes in one call, some degenerate and some meeting nothing."""
    rng = np.random.default_rng(8)
    lo, hi = _random_boxes(400, rng)
    ids = rng.permutation(400) + 1000
    tree = AABBTree(lo, hi, ids)
    qlo = np.concatenate(
        [
            rng.uniform(-1.5, 1.2, (250, 3)),
            rng.uniform(-1.0, 1.0, (30, 3)),  # points, as zero-size boxes
            rng.uniform(3.0, 4.0, (20, 3)),  # beyond every box
        ]
    )
    size = np.concatenate(
        [rng.uniform(0.0, 0.4, (250, 3)), np.zeros((30, 3)), rng.uniform(0.0, 0.5, (20, 3))]
    )
    qhi = qlo + size
    rows, got = tree.query_box(qlo, qhi)
    assert len(rows) == len(got) and len(set(zip(rows.tolist(), got.tolist()))) == len(rows)
    empty = 0
    for j in range(len(qlo)):
        brute = np.sort(ids[np.all((lo <= qhi[j]) & (qlo[j] <= hi), axis=1)])
        assert np.array_equal(np.sort(got[rows == j]), brute)
        empty += len(brute) == 0
    assert empty >= 20
    assert tree.query_box(np.zeros((0, 3)), np.zeros((0, 3)))[0].shape == (0,)


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


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 65, 1000])
def test_tree_levels_partition_the_items(n):
    """Every item sits in exactly one leaf of at most _LEAF_SIZE items (at
    least half that above one leaf), and every node box is the union of its
    items' boxes."""
    rng = np.random.default_rng(n)
    lo, hi = _random_boxes(n, rng)
    tree = AABBTree(lo, hi, np.arange(n))
    depth = len(tree._node_lo) - 1
    leaves = [tree.order[(k * n) >> depth : ((k + 1) * n) >> depth] for k in range(2**depth)]
    assert np.array_equal(np.sort(np.concatenate(leaves)), np.arange(n))
    sizes = [len(leaf) for leaf in leaves]
    assert max(sizes) <= _LEAF_SIZE
    assert n <= _LEAF_SIZE or min(sizes) >= _LEAF_SIZE // 2
    for level, (node_lo, node_hi) in enumerate(zip(tree._node_lo, tree._node_hi)):
        assert len(node_lo) == 2**level
        for k in range(2**level):
            items = tree.order[(k * n) >> level : ((k + 1) * n) >> level]
            assert np.array_equal(node_lo[k], lo[items].min(axis=0))
            assert np.array_equal(node_hi[k], hi[items].max(axis=0))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 65, 1000])
def test_tree_queries_match_brute_force_at_every_size(n):
    """query_points_bulk, query_box and nearest_triangle against all items,
    from one leaf to many levels."""
    rng = np.random.default_rng(100 + n)
    tris = rng.uniform(-1, 1, (n, 3, 3)) * rng.uniform(0.05, 0.5, (n, 1, 1))
    tris += rng.uniform(-1, 1, (n, 1, 3))
    lo, hi = tris.min(axis=1), tris.max(axis=1)
    ids = rng.permutation(n) + 5
    tree = AABBTree(lo, hi, ids, triangles=tris)
    pts = rng.uniform(-1.5, 1.5, (40, 3))
    rows, got = tree.query_points_bulk(pts)
    inside = np.all((lo <= pts[:, None]) & (pts[:, None] <= hi), axis=2)
    assert sorted(zip(rows.tolist(), got.tolist())) == sorted(
        (j, int(ids[i])) for j, i in zip(*np.nonzero(inside))
    )
    qlo = pts - rng.uniform(0.0, 0.4, (40, 3))
    qhi = pts + rng.uniform(0.0, 0.4, (40, 3))
    rows, got = tree.query_box(qlo, qhi)
    meet = np.all((lo <= qhi[:, None]) & (qlo[:, None] <= hi), axis=2)
    assert sorted(zip(rows.tolist(), got.tolist())) == sorted(
        (j, int(ids[i])) for j, i in zip(*np.nonzero(meet))
    )
    got_ids, got_dist = tree.nearest_triangle(pts)
    d2, _ = point_triangle_sqdist(pts, tris)
    best = d2.min(axis=1)
    lowest = np.where(d2 == best[:, None], ids, np.iinfo(np.int64).max).min(axis=1)
    assert np.array_equal(got_ids, lowest)
    assert np.array_equal(got_dist, np.sqrt(best))


def test_nearest_triangle_on_flat_mesh(flat_square_patch):
    """The index's triangle ids name their patch: triangle t is on patch t // 72."""
    lifted = fit_patch(
        geo.plate_embedding([-0.5, -0.5, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]), 1, Subdomain(), 3
    )
    ps = PatchSet([flat_square_patch, lifted])
    idx = surface_index(ps)
    tri_ids, dists = idx.tree_triangles.nearest_triangle(np.array([[0.0, 0.0, 0.3], [0.1, 0.2, 0.8]]))
    assert dists == pytest.approx([0.3, 0.2], abs=1e-12)
    assert np.array_equal(tri_ids // 72, [0, 1])
    patch_ids, _, patch_dists, _ = closest_point_global_bulk(ps, [[0.0, 0.0, 0.3], [0.1, 0.2, 0.8]])
    assert np.array_equal(patch_ids, [0, 1])
    assert patch_dists == pytest.approx([0.3, 0.2], abs=1e-12)


def test_nearest_triangle_matches_brute_force():
    rng = np.random.default_rng(2)
    tris = rng.uniform(-1, 1, (500, 3, 3))
    lo = tris.min(axis=1)
    hi = tris.max(axis=1)
    tree = AABBTree(lo, hi, np.arange(500), triangles=tris)
    pts = rng.uniform(-1.5, 1.5, (50, 3))
    tids, dists = tree.nearest_triangle(pts)
    for x, tid, dist in zip(pts, tids, dists):
        brute = np.sqrt([_triangle_sqdist_oracle(x, tri) for tri in tris])
        assert dist == pytest.approx(brute.min(), abs=1e-12)
        assert brute[tid] == pytest.approx(brute.min(), abs=1e-12)


def test_nearest_triangle_bulk_is_exactly_the_brute_force_minimum():
    """Ids and distances equal the all-pairs minimum bit for bit, ties to the lowest id.

    Half the triangles tile the plane z = 0, so points above a shared edge
    or vertex sit at exactly the same distance from several triangles; the
    ids are shuffled so the lowest id is not the lowest index.
    """
    rng = np.random.default_rng(9)
    g = np.linspace(-1.0, 1.0, 9)
    gx, gy = np.meshgrid(g, g, indexing="ij")
    grid = np.stack([gx, gy, np.zeros_like(gx)], axis=-1)
    flat = grid_triangles(grid)
    tris = np.concatenate([flat, rng.uniform(-1, 1, (len(flat), 3, 3)) + [0, 0, 1.5]])
    ids = rng.permutation(len(tris)) + 10
    tree = AABBTree(tris.min(axis=1), tris.max(axis=1), ids, triangles=tris)
    edges = 0.5 * (flat[:, 0] + flat[:, 1])  # edge midpoints, most edges shared
    above = np.concatenate([edges, grid.reshape(-1, 3)]) + [0.0, 0.0, 0.25]
    pts = np.concatenate([above, rng.uniform(-1.5, 1.5, (200, 3)) + [0, 0, 0.75]])
    got_ids, got_dist = tree.nearest_triangle(pts)
    d2, _ = point_triangle_sqdist(pts, tris)
    best = d2.min(axis=1)
    tied = d2 == best[:, None]
    assert np.count_nonzero(tied.sum(axis=1) > 1) > len(above) // 2
    assert np.array_equal(got_ids, np.where(tied, ids, np.iinfo(np.int64).max).min(axis=1))
    assert np.array_equal(got_dist, np.sqrt(best))
    none_ids, none_dist = tree.nearest_triangle(np.zeros((0, 3)))
    assert none_ids.shape == none_dist.shape == (0,)


def test_nearest_triangle_requires_triangle_tree():
    tree = AABBTree(np.zeros((1, 3)), np.ones((1, 3)), [0])
    with pytest.raises(UsageError):
        tree.nearest_triangle(np.zeros((1, 3)))


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


def _pair_sqdist_reference(p, tri):
    """pair_sqdist in its earlier form: every candidate closest point formed
    for every row, then copied in by seven masked passes, first region wins."""
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    ab, ac = b - a, c - a
    ap, bp, cp = p - a, p - b, p - c
    d1, d2 = np.einsum("tk,tk->t", ab, ap), np.einsum("tk,tk->t", ac, ap)
    d3, d4 = np.einsum("tk,tk->t", ab, bp), np.einsum("tk,tk->t", ac, bp)
    d5, d6 = np.einsum("tk,tk->t", ab, cp), np.einsum("tk,tk->t", ac, cp)
    closest = np.empty((len(tri), 3))
    done = np.zeros(len(tri), dtype=bool)

    def set_closest(mask, pts):
        mask &= ~done
        np.copyto(closest, pts, where=mask[:, None])
        done[mask] = True

    set_closest((d1 <= 0) & (d2 <= 0), a)
    set_closest((d3 >= 0) & (d4 <= d3), b)
    set_closest((d6 >= 0) & (d5 <= d6), c)
    vc = d1 * d4 - d3 * d2
    v = np.where(np.abs(d1 - d3) > 0, d1 / np.where(d1 - d3 == 0, 1.0, d1 - d3), 0.0)
    set_closest((vc <= 0) & (d1 >= 0) & (d3 <= 0), a + v[:, None] * ab)
    vb = d5 * d2 - d1 * d6
    w = np.where(np.abs(d2 - d6) > 0, d2 / np.where(d2 - d6 == 0, 1.0, d2 - d6), 0.0)
    set_closest((vb <= 0) & (d2 >= 0) & (d6 <= 0), a + w[:, None] * ac)
    va = d3 * d6 - d5 * d4
    denom = (d4 - d3) + (d5 - d6)
    w = np.where(denom != 0, (d4 - d3) / np.where(denom == 0, 1.0, denom), 0.0)
    set_closest((va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0), b + w[:, None] * (c - b))
    denom = va + vb + vc
    denom = np.where(denom == 0, 1.0, denom)
    set_closest(~done, a + (vb / denom)[:, None] * ab + (vc / denom)[:, None] * ac)
    d = closest - p
    return np.einsum("tk,tk->t", d, d), closest


def _sampled_sqdist(points, tri, n=60):
    """Min squared distance of each point to a dense barycentric sample of tri."""
    i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    keep = i + j <= n
    u, v = i[keep] / n, j[keep] / n
    samples = np.outer(1.0 - u - v, tri[0]) + np.outer(u, tri[1]) + np.outer(v, tri[2])
    return ((points[:, None, :] - samples[None]) ** 2).sum(axis=2).min(axis=1)


def test_pair_sqdist_every_voronoi_region_matches_the_reference():
    """Rows in each of the seven regions of a moved unit right triangle get
    the reference's bits and the closest point of their region."""
    rng = np.random.default_rng(11)
    tri = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    def foot(u, v):
        return [
            (0.0, 0.0), (1.0, 0.0), (0.0, 1.0),  # vertices a, b, c
            (u, 0.0), (0.0, v),  # edges ab, ac
            ((1.0 + u - v) / 2.0, (1.0 - u + v) / 2.0),  # edge bc
            (u, v),  # face
        ]

    seeds = [(-1.0, -1.0), (2.0, -0.5), (-0.5, 2.0), (0.5, -1.0), (-1.0, 0.5), (1.0, 1.0), (0.2, 0.2)]
    pts, tris, expect = [], [], []
    for region, (u0, v0) in enumerate(seeds):
        for _ in range(40):
            u, v = np.array([u0, v0]) + 0.05 * rng.normal(size=2)
            rot, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            shift = rng.normal(size=3)
            pts.append(np.array([u, v, rng.normal()]) @ rot.T + shift)
            tris.append(tri @ rot.T + shift)
            expect.append(np.array([*foot(u, v)[region], 0.0]) @ rot.T + shift)
    pts, tris, expect = np.array(pts), np.array(tris), np.array(expect)
    d2, closest = pair_sqdist(pts, tris)
    ref_d2, ref_closest = _pair_sqdist_reference(pts, tris)
    assert np.array_equal(d2, ref_d2) and np.array_equal(closest, ref_closest)
    assert np.allclose(closest, expect, rtol=0.0, atol=1e-12)
    # vertex rows copy the vertex itself
    for r in range(3):
        rows = slice(40 * r, 40 * (r + 1))
        assert np.array_equal(closest[rows], tris[rows, r])

    # random rows, most of them in the vertex and edge regions
    p = rng.uniform(-1.5, 1.5, (20000, 3))
    t = rng.uniform(-1.0, 1.0, (20000, 3, 3))
    for got, ref in zip(pair_sqdist(p, t), _pair_sqdist_reference(p, t)):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize(
    "tri",
    [
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.5, 0.0, 0.0]],  # collinear
        [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [1.0, 0.0, 0.0]],  # collinear, c between
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]],  # a = b
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],  # a = c
        [[0.0, 0.0, 0.0], [1.0, 1.0, 0.0], [1.0, 1.0, 0.0]],  # b = c
        [[0.3, 0.2, 0.1], [0.3, 0.2, 0.1], [0.3, 0.2, 0.1]],  # one point
    ],
)
def test_pair_sqdist_degenerate_triangles(tri):
    """Zero-area triangles: never farther than a dense sample of the
    triangle, with the reference's bits except where it was wrong."""
    tri = np.array(tri)
    pts = np.random.default_rng(5).uniform(-2.0, 3.0, (300, 3))
    tris = np.repeat(tri[None], len(pts), axis=0)
    d2, closest = pair_sqdist(pts, tris)
    sampled = _sampled_sqdist(pts, tri)
    assert np.all(d2 <= sampled * (1.0 + 1e-12) + 1e-14)
    assert np.allclose(((closest - pts) ** 2).sum(axis=1), d2, rtol=1e-12, atol=1e-14)
    ref_d2, ref_closest = _pair_sqdist_reference(pts, tris)
    if np.array_equal(tri[0], tri[1]) and not np.array_equal(tri[0], tri[2]):
        # the earlier form put every a = b row (d1 = d3 = 0) that vertex a
        # does not take into edge ab, and pinned it to a
        pinned = np.all(ref_closest == tri[0], axis=1)
        assert np.any(ref_d2[pinned] > sampled[pinned] + 0.1)
        assert np.all(d2[pinned] <= ref_d2[pinned])
        assert np.array_equal(d2[~pinned], ref_d2[~pinned])
        assert np.array_equal(closest[~pinned], ref_closest[~pinned])
    else:
        assert np.array_equal(d2, ref_d2) and np.array_equal(closest, ref_closest)


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


def test_batched_closest_points_match_per_pair_solves(
    unit_sphere_patches, random_cubic_patch, flat_square_patch
):
    """One batched solve per set equals each pair solved alone, on a set of
    each of two degrees."""
    patches = [
        unit_sphere_patches[2], random_cubic_patch, flat_square_patch, unit_sphere_patches[9]
    ]
    rng = np.random.default_rng(12)
    pids = rng.integers(0, len(patches), 120)
    st = rng.uniform(-1.0, 1.0, (120, 2))
    anchors = np.array([geo.evaluate(patches[p], s, t) for p, (s, t) in zip(pids, st)])
    points = anchors + rng.normal(scale=0.3, size=(120, 3))
    for members in ([0, 3], [1, 2]):
        ps = PatchSet([patches[i] for i in members])
        rows = np.flatnonzero(np.isin(pids, members))
        res = closest_points(ps, np.searchsorted(members, pids[rows]), points[rows])
        for k, (pid, x) in enumerate(zip(pids[rows], points[rows])):
            one = closest_point_on_patch(patches[pid], x)
            assert np.abs(res.params[k] - one.params[0]).max() <= 1e-14
            assert abs(res.distance[k] - one.distance[0]) <= 1e-14
            assert res.converged[k] == one.converged[0]
        assert res.converged.all()


@pytest.fixture(scope="module")
def targets_sphere():
    """The `targets` benchmark's geometry: the 24-patch unit sphere at degree 10."""
    mesh = geo.sphere_mesh(1.0, per_face=2)
    return PatchSet(
        [fit_patch(e, r, Subdomain(), 10) for r, e in enumerate(mesh.embeddings)], mesh=mesh
    )


def _off_surface(patchset, rng, m, d_lo, d_hi):
    """m points at d / L(P) in (d_lo, d_hi) along the normal of random patch
    points, half inside and half outside: (points, anchor patch ids)."""
    pids = rng.integers(0, len(patchset), m)
    st = rng.uniform(-0.95, 0.95, (m, 2))
    d = rng.uniform(d_lo, d_hi, m) * patchset.lengths[pids] * np.where(np.arange(m) % 2, 1.0, -1.0)
    points = patch_points(patchset, pids, st) + d[:, None] * patch_normals(patchset, pids, st)
    return points, pids


@pytest.fixture(scope="module")
def sphere_points(targets_sphere):
    """60 seeded points at d / L in (0.02, 1.2) inside and outside the sphere."""
    return _off_surface(targets_sphere, np.random.default_rng(21), 60, 0.02, 1.2)[0]


def _bernstein_long(n, s, derivative):
    """Degree-n Bernstein rows (or their first s-derivative) in long double."""
    from math import comb

    u = (np.asarray(s, dtype=np.longdouble) + 1) / 2
    out = np.zeros((len(u), n + 1), dtype=np.longdouble)
    for k in range(n + 1):
        if derivative == 0:
            out[:, k] = comb(n, k) * u**k * (1 - u) ** (n - k)
        else:
            up = k * u ** max(k - 1, 0) * (1 - u) ** (n - k)
            down = (n - k) * u**k * (1 - u) ** max(n - k - 1, 0)
            out[:, k] = comb(n, k) * (up - down) / 2
    return out


def test_closest_points_resolve_the_gradient_to_rounding(targets_sphere, sphere_points):
    """At every converged interior solution the gradient of |P - x|^2 / 2,
    taken in long double, is within 1e-13 of |P - x| |P_s| in each direction."""
    points = sphere_points
    n_patches = len(targets_sphere)
    pids = np.repeat(np.arange(n_patches), len(points))
    x = np.tile(points, (n_patches, 1))
    res = closest_points(targets_sphere, pids, x)
    interior = res.converged & np.all(np.abs(res.params) < 1.0, axis=1)
    assert np.count_nonzero(interior) >= len(points)
    C = np.stack([targets_sphere[p].coeffs for p in pids[interior]]).astype(np.longdouble)
    n = C.shape[1] - 1
    s, t = res.params[interior, 0], res.params[interior, 1]

    def along(ds, dt):
        bs, bt = _bernstein_long(n, s, ds), _bernstein_long(n, t, dt)
        return np.einsum("ml,mlkd,mk->md", bs, C, bt)

    diff = along(0, 0) - x[interior].astype(np.longdouble)
    dist = np.sqrt((diff**2).sum(axis=1))
    for tangent in (along(1, 0), along(0, 1)):
        grad = np.abs((tangent * diff).sum(axis=1))
        rel = grad / (dist * np.sqrt((tangent**2).sum(axis=1)))
        assert float(rel.max()) <= 1e-13


def test_global_closest_points_are_the_all_patch_minimum(targets_sphere, sphere_points):
    """closest_point_global_bulk equals the minimum over every patch of one
    batched closest_points call: same patch ids, ties within rounding going
    to the lowest id, and the same distance bits."""
    points = sphere_points
    m, n_patches = len(points), len(targets_sphere)
    got_ids, _, got_dist, _ = closest_point_global_bulk(targets_sphere, points)
    every = closest_points(
        targets_sphere, np.repeat(np.arange(n_patches), m), np.tile(points, (n_patches, 1))
    ).distance.reshape(n_patches, m)
    best = every.min(axis=0)
    tied = np.isclose(every, best, rtol=1e-12, atol=1e-15)
    assert np.array_equal(got_ids, np.argmax(tied, axis=0))
    assert np.array_equal(got_dist, best)


def test_grid_scan_node_is_the_grid_minimum_to_rounding(targets_sphere):
    """The GEMM-ranked scan picks a node whose exact f is within
    64 eps (|x - c|^2 + |g - c|^2) of the brute-force grid minimum, for
    points from 1e-3 L to 1.2 L off the patches and their children."""
    from hedgehog import spatial
    from hedgehog.geometry import bernstein_matrix

    children = PatchSet([c for p in targets_sphere for c in quadrisect_all([p])[0]])
    eps = np.finfo(float).eps
    k = 64
    for patchset, seed in ((targets_sphere, 23), (children, 24)):
        rng = np.random.default_rng(seed)
        points, pids = _off_surface(patchset, rng, 200, 1e-3, 1.2)
        order = np.argsort(pids, kind="stable")
        points, pids = points[order], pids[order]
        coeffs = patchset.coeffs
        params, f = spatial._grid_scan(coeffs, pids, points, k)
        grids = spatial._eval_grids(
            coeffs, bernstein_matrix(patchset.degree, np.linspace(-1.0, 1.0, k))
        )
        grids = grids.reshape(len(patchset), 3, k * k).transpose(0, 2, 1)
        for x, pid, fx in zip(points, pids, f):
            g = grids[pid]
            every = 0.5 * ((g - x) ** 2).sum(axis=1)
            c = g.mean(axis=0)
            low = int(np.argmin(every))
            spread = ((x - c) ** 2).sum() + ((g[low] - c) ** 2).sum()
            assert fx <= every[low] + 64 * eps * spread
        assert np.all(np.isin(params, np.linspace(-1.0, 1.0, k)))


def test_closest_point_global_two_plates():
    top = geo.plate_embedding([-0.5, -0.5, 1.0], [1, 0, 0], [0, 1, 0])
    bot = geo.plate_embedding([-0.5, -0.5, 0.0], [1, 0, 0], [0, 1, 0])
    ps = PatchSet([fit_patch(bot, 0, Subdomain(), 2), fit_patch(top, 1, Subdomain(), 2)])
    pids, _, dists, _ = closest_point_global_bulk(ps, [0.0, 0.0, 0.2])
    assert pids[0] == 0
    assert dists[0] == pytest.approx(0.2, abs=1e-12)


def test_closest_point_global_tie_breaks_low_id():
    top = geo.plate_embedding([-0.5, -0.5, 1.0], [1, 0, 0], [0, 1, 0])
    bot = geo.plate_embedding([-0.5, -0.5, 0.0], [1, 0, 0], [0, 1, 0])
    ps = PatchSet([fit_patch(bot, 0, Subdomain(), 2), fit_patch(top, 1, Subdomain(), 2)])
    pids, _, dists, _ = closest_point_global_bulk(ps, [0.1, -0.2, 0.5])
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
    pids, params, dists, _ = closest_point_global_bulk(torus_patches, pts)
    # oracle: per-patch Newton over every patch
    all_d = np.stack(
        [closest_point_on_patch(p, pts).distance for p in torus_patches], axis=1
    )
    assert np.abs(dists - all_d.min(axis=1)).max() < 1e-8


def test_patch_box_contains_control_points_and_surface(random_cubic_patch):
    (lo,), (hi,) = PatchSet([random_cubic_patch]).control_boxes()
    assert np.all(random_cubic_patch.coeffs.reshape(-1, 3) >= lo)
    assert np.all(random_cubic_patch.coeffs.reshape(-1, 3) <= hi)
    st = np.random.default_rng(7).uniform(-1, 1, (500, 2))
    pts = geo.evaluate(random_cubic_patch, st[:, 0], st[:, 1])
    assert np.all(pts >= lo - 1e-12) and np.all(pts <= hi + 1e-12)


def test_triangle_proxies_cover_patches(unit_sphere_patches):
    """The index's triangle tree holds the shared proxies, 72 triangles per
    patch in patch order, whose vertices lie on their patch's 7 x 7 grid."""
    idx = surface_index(unit_sphere_patches)
    per_patch = 2 * (PROXY_GRID - 1) ** 2
    assert per_patch == 72
    assert idx.proxies.tris.shape == (len(unit_sphere_patches), per_patch, 3, 3)
    assert np.array_equal(idx.tree_triangles.triangles, idx.proxies.tris.reshape(-1, 3, 3))
    assert np.array_equal(idx.tree_triangles.ids, np.arange(per_patch * len(unit_sphere_patches)))
    grid = np.linspace(-1.0, 1.0, PROXY_GRID)
    s, t = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
    for i, patch in enumerate(unit_sphere_patches):
        assert np.abs(idx.proxies.vertices[i] - evaluate(patch, s, t)).max() < 1e-13


def test_patch_frames_match_the_per_patch_evaluation(unit_sphere_patches, flat_square_patch):
    """Batched points and normals on sets of two degrees and both
    orientations against the one-patch evaluate and normal, pair by pair."""
    from dataclasses import replace

    flipped = replace(flat_square_patch, orientation=-1.0)
    patches = list(unit_sphere_patches) + [flat_square_patch, flipped]
    rng = np.random.default_rng(8)
    pids = rng.integers(0, len(patches), 200)
    params = rng.uniform(-1.0, 1.0, (200, 2))
    for members in (np.arange(len(unit_sphere_patches)), [len(patches) - 2], [len(patches) - 1]):
        patchset = PatchSet([patches[i] for i in members])
        rows = np.flatnonzero(np.isin(pids, members))
        local = np.searchsorted(members, pids[rows])
        points = patch_points(patchset, local, params[rows])
        normals = patch_normals(patchset, local, params[rows])
        for k, (p, (s, t)) in enumerate(zip(pids[rows], params[rows])):
            assert np.abs(points[k] - evaluate(patches[p], s, t)).max() < 1e-14
            assert np.abs(normals[k] - normal(patches[p], s, t)).max() < 1e-14
        assert patch_normals(patchset, local[:0], params[:0]).shape == (0, 3)
