"""Spatial queries: AABB trees, triangle proxies, closest points on patches.

The AABB tree is a balanced median-split bounding volume hierarchy over
item boxes, stored implicitly: level l has 2^l nodes over contiguous runs
of one item order, and the whole tree is built one vectorised pass per
level.  Each of its queries (query_points_bulk, query_box,
nearest_triangle) answers a whole stack of points or boxes in one
level-synchronous traversal and returns exactly the brute-force answer
over the stored primitives.  nearest_triangle gathers only the triangle
boxes that meet the ball of its upper bound (widened by slack), not the
ball's bounding cube.  closest_point_global_bulk calls nearest_triangle
and query_box once for all its points, and keeps only the candidate
patches whose control box meets the same kind of ball; refinement calls
query_points_bulk and query_box.

patch_proxies is the one triangle-proxy model: each patch sampled on a
7 x 7 grid, 72 triangles, their boxes and the boxes of 2 x 2-cell groups,
and a sag that bounds how far the patch strays from its triangles.
Marking's triangle tree (SurfaceIndex) holds these triangles, and the
admissibility and upsampling screens of refinement ask vertex_distance,
triangles_within and nearest_proxy_triangle about them.

Closest points on Bezier patches come from closest_points, one batched
projected-Newton solve over flat (point, patch) pairs on the set's one
coefficient stack.
Newton starts at the best node of a coarse parameter grid, and every pair
is value-checked against a dense grid scan that reseeds Newton where it
stalled or converged into the wrong basin.  nearest_nodes ranks each
patch's nodes for its points with GEMMs; the grid scans and
vertex_distance both use it and recompute the winner's distance exactly.
A pair's Newton run stops once the predicted decrease of its next step is
within 64 eps of f: it takes that step, which resolves the params to
rounding, and only pairs whose line search has not yet decreased f are
halved again.  Every pair gets the bits it gets alone.
closest_point_on_patch is its one-patch case; marking, admissibility and
upsampling all call the batched form.  pair_sqdist is the one
point-triangle distance kernel (over flat pairs; point_triangle_sqdist
forms all pairs of two lists), box_sqdist the one point-box distance
kernel, and grid_triangles the one triangulation of sampled patch grids.
Chunked passes keep their temporaries within CHUNK_BYTES.
"""
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, UsageError
from .geometry import bezier
from .geometry.patches import PatchSet, SurfacePatch

_LEAF_SIZE = 8
CHUNK_BYTES = 32 << 20  # cap on the temporaries of one chunked pass
_PAIR_BYTES = 64 * 8  # pair_sqdist's temporaries for one (point, triangle) row
_SLACK_REL = 1e-9  # relative widening of a distance bound against rounding


def chunks(n: int, row_bytes: int) -> list[slice]:
    """Row slices of range(n) whose temporaries stay within CHUNK_BYTES."""
    step = max(1, CHUNK_BYTES // max(int(row_bytes), 1))
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def slack(bound, pts):
    """bound widened to cover the rounding of box and triangle distances near pts."""
    return bound * (1.0 + _SLACK_REL) + 1e-12 * (1.0 + np.abs(pts).max(axis=1))


class AABBTree:
    """Balanced median-split AABB tree over (box, id) items, stored by level.

    Level l has 2^l nodes: node k covers the items
    order[(k n) >> l : ((k + 1) n) >> l], and its children are nodes 2k
    and 2k + 1 of level l + 1.  Every leaf sits at the last level and holds
    at most _LEAF_SIZE items, and at least half that once n > _LEAF_SIZE.
    The tree keeps only order and each level's node boxes, built one pass
    per level.  Each query answers a whole stack of points or boxes in one
    level-synchronous traversal, vectorised over the frontier, and returns
    exactly the brute-force answer.  A tree built with triangles (T, 3, 3),
    one per item, also answers nearest_triangle.
    """

    def __init__(self, lo, hi, ids, triangles=None):
        self.lo = np.asarray(lo, dtype=float)
        self.hi = np.asarray(hi, dtype=float)
        self.ids = np.asarray(ids, dtype=np.int64)
        self.triangles = triangles
        n = len(self.ids)
        if n == 0:
            raise UsageError("AABB tree needs at least one item")
        self._depth = ((n - 1) // _LEAF_SIZE).bit_length()
        centers = 0.5 * (self.lo + self.hi)
        self.order = np.arange(n)
        self._node_lo, self._node_hi = [], []  # per level, (2^l, 3) each
        for level in range(self._depth + 1):
            bounds = self._bounds(np.arange(2**level + 1), level)
            starts = bounds[:-1]
            self._node_lo.append(np.minimum.reduceat(self.lo[self.order], starts))
            self._node_hi.append(np.maximum.reduceat(self.hi[self.order], starts))
            if level == self._depth:
                break
            # every node sorts its items along the axis of its largest
            # centre extent; its children split the sorted run at bounds
            c = centers[self.order]
            extent = np.maximum.reduceat(c, starts) - np.minimum.reduceat(c, starts)
            node = np.repeat(np.arange(len(starts)), np.diff(bounds))
            key = c[np.arange(n), np.argmax(extent, axis=1)[node]]
            self.order = self.order[np.lexsort((key, node))]

    def _bounds(self, nodes, level):
        """First item slot of each node of the level: (k n) >> level."""
        return (nodes * len(self.order)) >> level

    def _leaf_items(self, rows, leaves):
        """(row, item) pairs of every item in each (row, leaf) entry."""
        start = self._bounds(leaves, self._depth)
        count = self._bounds(leaves + 1, self._depth) - start
        slot = np.arange(int(count.sum())) - np.repeat(np.cumsum(count) - count - start, count)
        return np.repeat(rows, count), self.order[slot]

    def _gather(self, n, meets):
        """(row, item) pairs of every item box that query row meets, rows range(n).

        meets(rows, lo, hi) says which rows meet which boxes [lo, hi]; it
        prunes the node boxes level by level and then tests the item boxes.
        Rows come out in ascending order.
        """
        rows = np.arange(n)
        nodes = np.zeros(n, dtype=np.int64)
        for level, (lo, hi) in enumerate(zip(self._node_lo, self._node_hi)):
            meet = meets(rows, lo[nodes], hi[nodes])
            rows, nodes = rows[meet], nodes[meet]
            if level < self._depth:
                rows = np.repeat(rows, 2)
                nodes = (2 * nodes[:, None] + np.arange(2)).ravel()
        rows, items = self._leaf_items(rows, nodes)
        hit = meets(rows, self.lo[items], self.hi[items])
        return rows[hit], items[hit]

    def _gather_boxes(self, los, his):
        """(row, item) pairs of every item box meeting query box [los[row], his[row]]."""

        def meets(rows, lo, hi):
            # per axis, then across the three: a reduction over the short
            # last axis would cost most of the test
            m = (his[rows] >= lo) & (los[rows] <= hi)
            return m[:, 0] & m[:, 1] & m[:, 2]

        return self._gather(len(los), meets)

    def query_points_bulk(self, points):
        """Containing-box ids for many points: (point rows, id rows) arrays."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        rows, items = self._gather_boxes(points, points)
        return rows, self.ids[items]

    def query_box(self, los, his):
        """Intersecting-box ids for many query boxes [los, his]: (row, id) arrays."""
        los = np.atleast_2d(np.asarray(los, dtype=float))
        his = np.atleast_2d(np.asarray(his, dtype=float))
        rows, items = self._gather_boxes(los, his)
        return rows, self.ids[items]

    def nearest_triangle(self, points):
        """(triangle ids (M,), distances (M,)) of the closest stored triangle per point.

        Each point first descends, one level for all points at a time, into
        the nearer child box down to a leaf; its distance to that leaf's
        triangles bounds the answer from above.  One gather then keeps the
        triangles whose box meets the ball of that radius (plus rounding
        slack); each is evaluated, and the smallest squared distance wins,
        ties going to the lowest id.
        Distances run in chunks within CHUNK_BYTES.
        """
        if self.triangles is None:
            raise UsageError("nearest_triangle requires a tree built with triangles")
        X = np.atleast_2d(np.asarray(points, dtype=float))
        m = len(X)
        node = np.zeros(m, dtype=np.int64)
        for lo, hi in zip(self._node_lo[1:], self._node_hi[1:]):
            child = 2 * node + np.arange(2)[:, None]
            d2 = box_sqdist(X, lo[child], hi[child])
            node = child[0] + (d2[1] < d2[0])
        rows, items = self._leaf_items(np.arange(m), node)
        d2 = self._triangle_sqdist(X, rows, items)
        # rows run point by point and every leaf holds at least one item
        bound = np.sqrt(np.minimum.reduceat(d2, np.searchsorted(rows, np.arange(m))))
        reach2 = slack(bound, X) ** 2
        rows, items = self._gather(
            m, lambda rows, lo, hi: box_sqdist(X[rows], lo, hi) <= reach2[rows]
        )
        d2 = self._triangle_sqdist(X, rows, items)
        ids = self.ids[items]
        order = np.lexsort((ids, d2, rows))
        best = order[np.searchsorted(rows[order], np.arange(m))]
        return ids[best], np.sqrt(d2[best])

    def _triangle_sqdist(self, X, rows, items):
        """Squared distance of each (point X[row], triangle item) pair, chunked."""
        d2 = np.empty(len(rows))
        for part in chunks(len(rows), _PAIR_BYTES):
            d2[part] = pair_sqdist(X[rows[part]], self.triangles[items[part]])[0]
        return d2


def box_sqdist(x, lo, hi):
    """Squared distances of points x (..., 3) to boxes [lo, hi] (..., 3), broadcast."""
    gap = np.maximum(lo - x, 0.0) + np.maximum(x - hi, 0.0)
    return np.einsum("...k,...k->...", gap, gap)


def point_triangle_sqdist(points, tris):
    """Squared distances and closest points for every (point, triangle) pair.

    points (M, 3) or one point (3,), tris (T, 3, 3) -> (M, T) squared
    distances and (M, T, 3) closest points, from pair_sqdist on the
    point-major flattened pairs.
    """
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    tris = np.asarray(tris, dtype=float).reshape(-1, 3, 3)
    m, t = len(points), len(tris)
    d2, closest = pair_sqdist(np.repeat(points, t, axis=0), np.concatenate([tris] * m))
    return d2.reshape(m, t), closest.reshape(m, t, 3)


def pair_sqdist(p, tri):
    """Squared distance and closest point of each (point, triangle) row.

    p (K, 3), tri (K, 3, 3) -> (K,) and (K, 3); each row depends on its own
    inputs only.  Ericson's Voronoi-region projection: each row's region
    is chosen once, and its closest point is formed only in that region.
    """
    a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("tk,tk->t", ab, ap)
    d2 = np.einsum("tk,tk->t", ac, ap)
    bp = p - b
    d3 = np.einsum("tk,tk->t", ab, bp)
    d4 = np.einsum("tk,tk->t", ac, bp)
    cp = p - c
    d5 = np.einsum("tk,tk->t", ab, cp)
    d6 = np.einsum("tk,tk->t", ac, cp)

    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4
    # each row's Voronoi region is the first that holds: vertices a, b, c,
    # edges ab, ac, bc, then the face.  d1 > d3 keeps a repeated vertex
    # a = b (d1 = d3 = 0) out of edge ab, which would pin it to a; edge ac
    # then takes it
    region = np.select(
        [
            (d1 <= 0) & (d2 <= 0),
            (d3 >= 0) & (d4 <= d3),
            (d6 >= 0) & (d5 <= d6),
            (vc <= 0) & (d1 >= 0) & (d3 <= 0) & (d1 > d3),
            (vb <= 0) & (d2 >= 0) & (d6 <= 0),
            (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0),
        ],
        np.arange(6, dtype=np.int8),
        np.int8(6),
    )
    closest = np.empty((len(tri), 3))
    for r, corner in enumerate((a, b, c)):
        k = np.flatnonzero(region == r)
        closest[k] = corner[k]

    k = np.flatnonzero(region == 3)
    v = d1[k] / (d1[k] - d3[k])  # d1 > d3 in this region
    closest[k] = a[k] + v[:, None] * ab[k]

    k = np.flatnonzero(region == 4)
    e, f = d2[k], d6[k]
    w = np.where(np.abs(e - f) > 0, e / np.where(e - f == 0, 1.0, e - f), 0.0)
    closest[k] = a[k] + w[:, None] * ac[k]

    k = np.flatnonzero(region == 5)
    e, f = d4[k] - d3[k], d5[k] - d6[k]
    denom = e + f
    w = np.where(denom != 0, e / np.where(denom == 0, 1.0, denom), 0.0)
    closest[k] = b[k] + w[:, None] * (c[k] - b[k])

    k = np.flatnonzero(region == 6)
    denom = va[k] + vb[k] + vc[k]
    denom = np.where(denom == 0, 1.0, denom)
    v = vb[k] / denom
    w = vc[k] / denom
    closest[k] = a[k] + v[:, None] * ab[k] + w[:, None] * ac[k]

    d = closest - p
    return np.einsum("tk,tk->t", d, d), closest


def grid_triangles(pos) -> np.ndarray:
    """Split each cell of k x k position grids into two triangles.

    pos (..., k, k, 3) -> (..., 2 (k - 1)^2, 3, 3): first every cell's
    (p00, p10, p11) triangle, then every cell's (p00, p11, p01).
    """
    cells = pos.shape[:-3] + (-1, 3)
    p00 = pos[..., :-1, :-1, :].reshape(cells)
    p10 = pos[..., 1:, :-1, :].reshape(cells)
    p01 = pos[..., :-1, 1:, :].reshape(cells)
    p11 = pos[..., 1:, 1:, :].reshape(cells)
    return np.concatenate(
        [np.stack([p00, p10, p11], axis=-2), np.stack([p00, p11, p01], axis=-2)],
        axis=-3,
    )


# ---------------------------------------------------------------------------
# Closest points on patches: one projected-Newton solve over (point, patch) pairs
# ---------------------------------------------------------------------------

@dataclass
class ClosestPointResult:
    params: np.ndarray  # (M, 2)
    distance: np.ndarray  # (M,)
    converged: np.ndarray  # (M,) bool


_SEED_GRID = 5  # Newton starts from the best node of this parameter grid
_DENSE_GRID = 64  # the value check scans this grid for every pair
_RANK_ENTRIES = 16 * _DENSE_GRID**2  # ranks per GEMM, so they stay in cache
_NEWTON_STEPS = 50
_FLAT = 64 * np.finfo(float).eps  # predicted decrease at the rounding of f, relative
EPS_OPT = 1e-14  # closest-point tolerance: a Newton step below it has converged


def closest_point_on_patch(patch: SurfacePatch, points) -> ClosestPointResult:
    """Closest points on one patch: closest_points with every pair on it."""
    X = np.atleast_2d(np.asarray(points, dtype=float))
    slot = np.zeros(len(X), dtype=np.int64)
    return _closest_points(patch.coeffs[None], slot, X)


def closest_points(patchset: PatchSet, pids, points) -> ClosestPointResult:
    """Minimize |P(s, t) - x|^2 over the parameter square for each pair.

    Pair k asks for the point of patch pids[k] closest to points[k]; all
    pairs run as one batched solve over the set's coefficient stack.
    """
    pids = np.asarray(pids, dtype=np.int64)
    return _closest_points(patchset.coeffs, pids, np.asarray(points, dtype=float).reshape(-1, 3))


def patch_points(patchset: PatchSet, pids, params) -> np.ndarray:
    """Surface points P(s, t) of (patch id, params) pairs."""
    n = patchset.degree
    bs = bezier.bernstein_matrix(n, params[:, 0])
    bt = bezier.bernstein_matrix(n, params[:, 1])
    return _eval_pairs(patchset.coeffs[pids], bs, bt)


def patch_normals(patchset: PatchSet, pids, params) -> np.ndarray:
    """Unit exterior normals of (patch id, params) pairs."""
    n = patchset.degree
    s, t = params[:, 0], params[:, 1]
    C = patchset.coeffs[pids]
    ps = _eval_pairs(C, bezier.bernstein_matrix(n, s, 1), bezier.bernstein_matrix(n, t))
    pt = _eval_pairs(C, bezier.bernstein_matrix(n, s), bezier.bernstein_matrix(n, t, 1))
    out = np.cross(ps, pt)
    norm = np.linalg.norm(out, axis=1, keepdims=True)
    if np.any(norm == 0.0):
        raise DegenerateGeometryError("zero surface Jacobian")
    return patchset.orientation * out / norm


def _closest_points(coeffs, slot, X):
    """Closest points for pairs (patch coeffs[slot[k]], point X[k]).

    Projected (box-constrained) Newton started from the best node of a
    5 x 5 parameter grid.  Every pair is then value-checked against a dense
    64 x 64 grid scan, which catches Newton runs that converged into the
    wrong basin as well as outright stalls; those pairs rerun Newton from
    the scan's best node and stay flagged unless it converges.
    """
    m = len(X)
    params = np.empty((m, 2))
    f = np.empty(m)
    conv = np.empty(m, dtype=bool)
    order = np.argsort(slot, kind="stable")  # pairs of one patch side by side
    row_bytes = 16 * coeffs[0].size * 8  # a pair's gathered coefficients and their products
    for part in chunks(m, row_bytes):
        rows = order[part]
        seeds, _ = _grid_scan(coeffs, slot[rows], X[rows], _SEED_GRID)
        params[rows], f[rows], conv[rows] = _projected_newton(coeffs, slot[rows], seeds, X[rows])
    dense, dense_f = _grid_scan(coeffs, slot[order], X[order], _DENSE_GRID)
    bad = ~conv[order] | (dense_f < f[order] * (1.0 - 1e-12))
    rows, seeds = order[bad], dense[bad]
    for part in chunks(len(rows), row_bytes):
        sub = rows[part]
        p2, f2, conv2 = _projected_newton(coeffs, slot[sub], seeds[part], X[sub])
        better = f2 <= f[sub]
        params[sub[better]] = p2[better]
        f[sub[better]] = f2[better]
        conv[sub[conv2 & better]] = True
    return ClosestPointResult(params=params, distance=np.sqrt(2.0 * f), converged=conv)


def _grid_scan(coeffs, slot, X, k):
    """Best node of a k x k parameter grid per pair: (params (M, 2), f (M,)).

    slot must be sorted, so each patch's pairs form one run.  Each patch's
    nodes are ranked by nearest_nodes, and the winner's f is then computed
    exactly.  Grids are evaluated a chunk of patches at a time.
    """
    if np.any(slot[1:] < slot[:-1]):
        raise UsageError("grid scan pairs must be sorted by slot")
    n = coeffs.shape[1] - 1
    grid = np.linspace(-1.0, 1.0, k)
    b = bezier.bernstein_matrix(n, grid)
    used, starts = np.unique(slot, return_index=True)
    bounds = np.append(starts, len(slot))
    best = np.empty(len(X), dtype=np.int64)
    node = np.empty((len(X), 3))
    # per patch: its grid, its ranker and their temporaries
    for part in chunks(len(used), 4 * k * k * 4 * 8):
        g = _eval_grids(coeffs[used[part]], b).reshape(-1, 3, k * k)
        runs = bounds[part.start : part.stop + 1]
        lo, hi = runs[0], runs[-1]
        best[lo:hi] = nearest_nodes(g, runs - lo, X[lo:hi])
        node[lo:hi] = g[np.repeat(np.arange(len(g)), np.diff(runs)), :, best[lo:hi]]
    f = 0.5 * ((node - X) ** 2).sum(axis=1)
    return np.stack([grid[best // k], grid[best % k]], axis=1), f


def nearest_nodes(g, bounds, X) -> np.ndarray:
    """Index of the node nearest each point, among its own patch's nodes.

    g (P, 3, V) holds the nodes of P patches, and points
    X[bounds[j]:bounds[j + 1]] belong to patch j.  Nodes are ranked by
    |g - c|^2 - 2 (x - c).(g - c), in coordinates centred on the patch (c
    its mean node), one GEMM per block of points whose ranks fill at most
    _RANK_ENTRIES.  The ranks are exact up to rounding, so the winner's
    distance is within rounding of the nearest node's; callers recompute it
    exactly from the winner.
    """
    best = np.empty(len(X), dtype=np.int64)
    c = g.mean(axis=2)
    # rows [x - c, 1] times a patch's ranker give its ranks in one GEMM
    ranker = np.empty((len(g), 4, g.shape[2]))
    np.subtract(g, c[:, :, None], out=ranker[:, :3])
    ranker[:, 3] = np.einsum("pkv,pkv->pv", ranker[:, :3], ranker[:, :3])
    ranker[:, :3] *= -2.0
    # a one-point block borrows the row after it (a spare row at the end),
    # so every product is a GEMM of at least two rows, whose rows do not
    # depend on each other
    xc = np.ones((len(X) + 1, 4))
    xc[:-1, :3] = X - np.repeat(c, np.diff(bounds), axis=0)
    step = max(1, _RANK_ENTRIES // g.shape[2])
    for j, lo, hi in zip(range(len(g)), bounds[:-1], bounds[1:]):
        for r0 in range(lo, hi, step):
            r1 = min(r0 + step, hi)
            rank = xc[r0 : max(r1, r0 + 2)] @ ranker[j]
            best[r0:r1] = np.argmin(rank[: r1 - r0], axis=1)
    return best


def _eval_grids(C, b):
    """Patches C (P, n+1, n+1, 3) on the grid b x b: (P, 3, k, k), s along axis 2.

    Each patch and coordinate is two GEMMs of fixed shape, so a patch's
    bits do not depend on the other patches of the stack.
    """
    return b @ (C.transpose(0, 3, 1, 2) @ b.T)


def _eval_pairs(C, bs, bt):
    """Row m of basis rows bs, bt on its own coefficients C[m]: (M, 3).

    Each row's bits do not depend on the other rows, so a batched solve
    gives every pair the result it gets alone.
    """
    along_t = np.matmul(C.transpose(0, 3, 1, 2), bt[:, None, :, None])[..., 0]
    return np.matmul(along_t, bs[:, :, None])[..., 0]


def _half_sqdist(C, s, t, X):
    """0.5 |P(s, t) - x|^2 for pairs with their own coefficients C (M, n+1, n+1, 3)."""
    n = C.shape[1] - 1
    bs = bezier.bernstein_matrix(n, s)
    bt = bezier.bernstein_matrix(n, t)
    diff = _eval_pairs(C, bs, bt) - X
    return 0.5 * np.einsum("mk,mk->m", diff, diff)


def _projected_newton(coeffs, slot, cur, X):
    """Projected Newton from params cur for pairs (coeffs[slot[k]], X[k]).

    Returns (params, f, converged).  A pair stops once the predicted
    decrease |g . step| of its projected Newton step is within 64 eps f,
    after taking that step: f is flat to second order at the minimum, so
    this pins the params where testing f alone would stop about 1e-8 short.
    It also stops when its step stalls below EPS_OPT or the line search
    finds no decrease in 25 halvings.
    """
    n = coeffs.shape[1] - 1
    m = X.shape[0]
    cur = cur.copy()
    active = np.ones(m, dtype=bool)
    converged = np.zeros(m, dtype=bool)
    f = _half_sqdist(coeffs[slot], cur[:, 0], cur[:, 1], X)
    for _ in range(_NEWTON_STEPS):
        if not active.any():
            break
        idx = np.flatnonzero(active)
        C = coeffs[slot[idx]]
        s, t = cur[idx, 0], cur[idx, 1]
        # [pair, coordinate, s-derivative, t-derivative], each pair on its own
        bs = np.stack([bezier.bernstein_matrix(n, s, k) for k in range(3)], axis=1)
        bt = np.stack([bezier.bernstein_matrix(n, t, k) for k in range(3)], axis=2)
        jet = bs[:, None] @ (C.transpose(0, 3, 1, 2) @ bt[:, None])
        pos, ps, pt = jet[:, :, 0, 0], jet[:, :, 1, 0], jet[:, :, 0, 1]
        pss, pst, ptt = jet[:, :, 2, 0], jet[:, :, 1, 1], jet[:, :, 0, 2]
        diff = pos - X[idx]
        g1 = np.einsum("mk,mk->m", ps, diff)
        g2 = np.einsum("mk,mk->m", pt, diff)
        h11 = np.einsum("mk,mk->m", ps, ps) + np.einsum("mk,mk->m", pss, diff)
        h12 = np.einsum("mk,mk->m", ps, pt) + np.einsum("mk,mk->m", pst, diff)
        h22 = np.einsum("mk,mk->m", pt, pt) + np.einsum("mk,mk->m", ptt, diff)
        det = h11 * h22 - h12 * h12
        ok = (det > 1e-300) & (h11 > 0)
        det_safe = np.where(ok, det, 1.0)
        ds = np.where(ok, (-g1 * h22 + g2 * h12) / det_safe, 0.0)
        dt = np.where(ok, (-g2 * h11 + g1 * h12) / det_safe, 0.0)
        scale = np.maximum(np.einsum("mk,mk->m", ps, ps) + np.einsum("mk,mk->m", pt, pt), 1e-300)
        ds = np.where(ok, ds, -g1 / scale)
        dt = np.where(ok, dt, -g2 / scale)
        # active box constraints: bound reached with the gradient pushing
        # outward; Newton then acts in the free coordinate only
        act_s = ((s <= -1.0) & (g1 > 0)) | ((s >= 1.0) & (g1 < 0))
        act_t = ((t <= -1.0) & (g2 > 0)) | ((t >= 1.0) & (g2 < 0))
        h11_safe = np.where(h11 > 1e-300, h11, 1.0)
        h22_safe = np.where(h22 > 1e-300, h22, 1.0)
        edge_dt = np.where(h22 > 0, -g2 / h22_safe, -g2 / scale)
        edge_ds = np.where(h11 > 0, -g1 / h11_safe, -g1 / scale)
        ds = np.where(act_s, 0.0, np.where(act_t, edge_ds, ds))
        dt = np.where(act_t, 0.0, np.where(act_s, edge_dt, dt))

        # a pair whose projected full step predicts a decrease |g . step|
        # within the rounding of f takes that step and stops
        start = cur[idx]
        step = np.stack([ds, dt], axis=1)
        full = np.clip(start + step, -1.0, 1.0)
        gain = g1 * (full[:, 0] - s) + g2 * (full[:, 1] - t)
        flat = np.abs(gain) <= _FLAT * f[idx]

        # backtracking with projection onto the parameter box; only the
        # pairs still pending are halved again
        fcur = f[idx]
        newp = start.copy()
        fnew = fcur.copy()
        trial = np.arange(len(idx))
        alpha = 1.0
        for _bt in range(25):
            tp = np.clip(start[trial] + alpha * step[trial], -1.0, 1.0)
            ftrial = _half_sqdist(C[trial], tp[:, 0], tp[:, 1], X[idx[trial]])
            improve = flat[trial] | (ftrial <= fcur[trial])
            newp[trial[improve]] = tp[improve]
            fnew[trial[improve]] = ftrial[improve]
            trial = trial[~improve]
            if not len(trial):
                break
            alpha *= 0.5

        # done when the step's predicted decrease is at rounding level, the
        # projected step stalls at machine scale, or no decrease was
        # possible (already at a numerical minimum)
        done = flat | (np.max(np.abs(newp - start), axis=1) <= EPS_OPT)
        done[trial] = True
        cur[idx] = newp
        f[idx] = fnew
        converged[idx[done]] = True
        active[idx[done]] = False
    return cur, f, converged


# ---------------------------------------------------------------------------
# Triangle proxies and the global closest-point search
# ---------------------------------------------------------------------------


PROXY_GRID = 7  # a proxy's vertices sample its patch on this parameter grid
_CELLS = (PROXY_GRID - 1) ** 2  # cells per proxy; triangles c and c + _CELLS split cell c
_TRIANGLES = 2 * _CELLS  # triangles per proxy
_ROW_BYTES = 8 * _TRIANGLES * 3 * 8  # one point against its triangles

# the triangles of each 2 x 2 block of cells, blocks row-major: (9, 8)
_BLOCKS = (PROXY_GRID - 1) // 2
_BLOCK_CELLS = np.arange(_CELLS).reshape(_BLOCKS, 2, _BLOCKS, 2).swapaxes(1, 2).reshape(-1, 4)
_GROUP_TRIANGLES = np.concatenate([_BLOCK_CELLS, _BLOCK_CELLS + _CELLS], axis=1)


@dataclass
class Proxies:
    """Triangle proxies of listed patches, stacked in list order.

    Marking (through SurfaceIndex), admissibility and upsampling all use
    this one model.  The vertices sample the patch on a 7 x 7 parameter
    grid and the triangles split its cells.  sag bounds how far the true patch can
    deviate from the triangles, estimated at cell midpoints and doubled for
    safety, so distances to the patch lie within +-sag of the triangle
    distance.  cell is the longest cell diagonal.  Group box g is the box of
    the triangle boxes _GROUP_TRIANGLES[g], one 2 x 2 block of cells.
    """

    vertices: np.ndarray  # (P, 49, 3)
    tris: np.ndarray  # (P, 72, 3, 3)
    lo: np.ndarray  # (P, 72, 3) triangle boxes
    hi: np.ndarray  # (P, 72, 3)
    group_lo: np.ndarray  # (P, 9, 3) boxes of 2 x 2-cell groups
    group_hi: np.ndarray  # (P, 9, 3)
    cell: np.ndarray  # (P,)
    sag: np.ndarray | None = None  # (P,), set once the triangles are built


def patch_proxies(patchset: PatchSet, ids) -> Proxies:
    """Proxies of the patches ids, built in one pass over their coefficients."""
    k = PROXY_GRID
    grid = np.linspace(-1.0, 1.0, k)
    mids = 0.5 * (grid[:-1] + grid[1:])
    sub = patchset.coeffs[ids]
    b = bezier.bernstein_matrix(patchset.degree, grid)
    bm = bezier.bernstein_matrix(patchset.degree, mids)
    pos = bezier.eval_grid(sub, b, b)
    mid = bezier.eval_grid(sub, bm, bm).reshape(len(ids), _CELLS, 3)
    tris = grid_triangles(pos)
    lo, hi = tris.min(axis=2), tris.max(axis=2)
    diag = (pos[:, 1:, 1:] - pos[:, :-1, :-1]).reshape(len(ids), -1, 3)
    prox = Proxies(
        vertices=pos.reshape(len(ids), -1, 3),
        tris=tris,
        lo=lo,
        hi=hi,
        group_lo=lo[:, _GROUP_TRIANGLES].min(axis=2),
        group_hi=hi[:, _GROUP_TRIANGLES].max(axis=2),
        cell=np.sqrt(np.max(np.einsum("ptk,ptk->pt", diag, diag), axis=1)),
    )
    # the two triangles of a midpoint's own cell bound its triangle
    # distance from above
    slot = np.repeat(np.arange(len(ids)), _CELLS)
    own = np.tile(np.arange(_CELLS), len(ids))
    pts = mid.reshape(-1, 3)
    bound = np.minimum(
        pair_sqdist(pts, tris[slot, own])[0],
        pair_sqdist(pts, tris[slot, own + _CELLS])[0],
    ).reshape(len(ids), _CELLS)
    # sag needs only each patch's largest exact midpoint distance.  An exact
    # distance never exceeds its bound, so midpoints are resolved in
    # descending bound, one per patch per round, until no unresolved bound
    # exceeds the largest distance resolved: that is then the maximum over
    # all midpoints, the same bits as resolving every one
    order = np.argsort(-bound, axis=1, kind="stable")
    worst = np.full(len(ids), -1.0)
    todo = np.arange(len(ids))
    for rank in range(_CELLS):
        c = order[todo, rank]
        go = bound[todo, c] > worst[todo]
        todo, c = todo[go], c[go]
        if not len(todo):
            break
        exact, _ = nearest_proxy_triangle(prox, todo, mid[todo, c], np.sqrt(bound[todo, c]))
        worst[todo] = np.maximum(worst[todo], exact)
    prox.sag = 2.0 * np.sqrt(worst) + 1e-14
    return prox


def vertex_distance(prox, slot, x):
    """Nearest proxy-vertex distance per pair.

    Vertices lie on their triangles, so this bounds the proxy-triangle
    distance from above.  Each patch's vertices are ranked for its pairs by
    one GEMM (nearest_nodes), and the winner's distance is then
    computed exactly; it lies within rounding of the nearest vertex's.
    """
    order = np.argsort(slot, kind="stable")
    used, starts = np.unique(slot[order], return_index=True)
    best = np.empty(len(x), dtype=np.int64)
    best[order] = nearest_nodes(
        prox.vertices[used].transpose(0, 2, 1),
        np.append(starts, len(order)),
        x[order],
    )
    diff = prox.vertices[slot, best] - x
    return np.sqrt(np.einsum("pk,pk->p", diff, diff))


def triangles_within(prox, slot, x, within):
    """(pair, triangle) rows whose triangle box passes within, and which
    pairs had a group box pass it.

    within(d2, pair) takes squared box distances of pairs and must hold
    for a distance whenever it holds for a larger one.  A group box
    contains its triangles' boxes, so its distance is at most theirs, and
    only the triangles of groups that pass are tested.  Rows run pair by
    pair in any triangle order.
    """
    width = _GROUP_TRIANGLES.shape[1]
    pairs, tris = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    grouped = np.zeros(len(x), dtype=bool)
    for part in chunks(len(x), _ROW_BYTES):
        s = slot[part]
        near = within(
            box_sqdist(x[part, None, :], prox.group_lo[s], prox.group_hi[s]),
            np.arange(part.start, part.stop)[:, None],
        )
        grouped[part] = near.any(axis=1)
        pair, group = np.nonzero(near)
        pair, tri = np.repeat(pair + part.start, width), _GROUP_TRIANGLES[group].ravel()
        s = slot[pair]
        keep = within(box_sqdist(x[pair], prox.lo[s, tri], prox.hi[s, tri]), pair)
        pairs.append(pair[keep])
        tris.append(tri[keep])
    return np.concatenate(pairs), np.concatenate(tris), grouped


def nearest_proxy_triangle(prox, slot, x, bound):
    """Minimum proxy-triangle squared distance and its closest point, per pair.

    Pair k is point x[k] against the triangles of patch slot[k], and
    bound[k] is an upper bound on its triangle distance.  Only the
    triangles whose box lies within it (plus a rounding slack) are
    evaluated; the one attaining the minimum always is, so the result
    equals the minimum over all triangles bit for bit, ties going to the
    lowest triangle index.
    """
    reach2 = slack(bound, x) ** 2
    pair, tri, _ = triangles_within(prox, slot, x, lambda b2, p: b2 <= reach2[p])
    d2 = np.empty(len(x))
    closest = np.empty((len(x), 3))
    # rows run pair by pair and every pair has one
    starts = np.searchsorted(pair, np.arange(len(x) + 1))
    for part in chunks(len(x), _ROW_BYTES):
        rows = slice(starts[part.start], starts[part.stop])
        p, t = pair[rows], tri[rows]
        rows_d2, rows_closest = pair_sqdist(x[p], prox.tris[slot[p], t])
        d2[part] = np.minimum.reduceat(rows_d2, starts[part.start : part.stop] - rows.start)
        # of the rows at the minimum, the lowest triangle's wins
        hits = np.flatnonzero(rows_d2 == d2[p])
        hits = hits[np.lexsort((t[hits], p[hits]))]
        closest[part] = rows_closest[hits[np.unique(p[hits], return_index=True)[1]]]
    return d2, closest


class SurfaceIndex:
    """Patch-box and proxy-triangle trees for one patch set.

    Triangle id t of tree_triangles is triangle t % 72 of patch t // 72.
    """

    def __init__(self, patchset: PatchSet):
        lo, hi = patchset.control_boxes()
        self.tree_boxes = AABBTree(lo, hi, np.arange(len(patchset)))
        self.proxies = patch_proxies(patchset, np.arange(len(patchset)))
        tris = self.proxies.tris.reshape(-1, 3, 3)
        self.tree_triangles = AABBTree(
            self.proxies.lo.reshape(-1, 3),
            self.proxies.hi.reshape(-1, 3),
            np.arange(len(tris)),
            triangles=tris,
        )


def surface_index(patchset: PatchSet) -> SurfaceIndex:
    """The patch set's index, built on first use and cached on the set."""
    if patchset._index is None:
        patchset._index = SurfaceIndex(patchset)
    return patchset._index


def closest_point_global_bulk(patchset: PatchSet, points):
    """Global closest points: (patch ids, params (M, 2), distances (M,), converged (M,)).

    Candidate patch from the nearest proxy triangle, Newton-refined
    distance d, then a box gather of every patch whose control box meets
    the ball of radius d (plus rounding slack) around the point, so could
    be closer; ties broken by the lowest patch id.  converged is the
    winning solve's flag.  Each tree query runs once for all points.
    """
    X = np.atleast_2d(np.asarray(points, dtype=float))
    m = X.shape[0]
    index = surface_index(patchset)

    tri_ids, _ = index.tree_triangles.nearest_triangle(X)
    cand0 = tri_ids // _TRIANGLES
    first = closest_points(patchset, cand0, X)

    reach = slack(first.distance, X)
    rows, pids = index.tree_boxes.query_box(X - reach[:, None], X + reach[:, None])
    lo, hi = patchset.control_boxes()
    near = box_sqdist(X[rows], lo[pids], hi[pids]) <= reach[rows] ** 2
    rows, pids = rows[near], pids[near]
    other = pids != cand0[rows]
    rows = np.concatenate([np.arange(m), rows[other]])
    pids = np.concatenate([cand0, pids[other]])
    res = closest_points(patchset, pids[m:], X[rows[m:]])
    dist = np.concatenate([first.distance, res.distance])
    params = np.concatenate([first.params, res.params])
    converged = np.concatenate([first.converged, res.converged])

    # the closest candidate wins; candidates within rounding of it go to
    # the lowest patch id
    best_dist = np.full(m, np.inf)
    np.minimum.at(best_dist, rows, dist)
    tied = np.isclose(dist, best_dist[rows], rtol=1e-12, atol=1e-15)
    order = np.lexsort((pids, ~tied, rows))
    win = order[np.searchsorted(rows[order], np.arange(m))]
    return pids[win], params[win], best_dist, converged[win]
