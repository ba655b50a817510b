"""Spatial queries: AABB trees, triangle proxies, closest points on patches.

The AABB tree is a median-split bounding volume hierarchy over item boxes.
Each of its queries (query_points_bulk, query_box, nearest_triangle)
answers a whole stack of points or boxes in one level-synchronous traversal
and returns exactly the brute-force answer over the stored primitives.
nearest_triangle gathers only the triangle boxes that meet the ball of its
upper bound (widened by slack), not the ball's bounding cube.
closest_point_global_bulk calls nearest_triangle and query_box once for
all its points, and keeps only the candidate patches whose control box
meets the same kind of ball; refinement calls query_points_bulk and
query_box.

Closest points on Bezier patches come from closest_points, one batched
projected-Newton solve over flat (point, patch) pairs per degree group.
Newton starts at the best node of a coarse parameter grid, and every pair
is value-checked against a dense grid scan that reseeds Newton where it
stalled or converged into the wrong basin.  nearest_nodes ranks each
patch's nodes for its points with GEMMs; the grid scans here and the proxy
vertex screen of refinement both use it and recompute the winner's
distance exactly.
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
    """Median-split AABB tree over (box, id) items.

    Each query answers a whole stack of points or boxes in one
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
        centers = 0.5 * (self.lo + self.hi)
        # flat arrays; children indices, -1 marks leaf nodes
        self._node_lo = []
        self._node_hi = []
        self._left = []
        self._right = []
        self._leaf_start = []
        self._leaf_count = []
        self.order = np.arange(n)
        self._build(0, n, centers)
        self._node_lo = np.asarray(self._node_lo)
        self._node_hi = np.asarray(self._node_hi)
        self._left = np.asarray(self._left)
        self._right = np.asarray(self._right)
        self._leaf_start = np.asarray(self._leaf_start)
        self._leaf_count = np.asarray(self._leaf_count)

    def _build(self, start, end, centers) -> int:
        idx = self.order[start:end]
        node = len(self._node_lo)
        self._node_lo.append(self.lo[idx].min(axis=0))
        self._node_hi.append(self.hi[idx].max(axis=0))
        self._left.append(-1)
        self._right.append(-1)
        self._leaf_start.append(start)
        self._leaf_count.append(0)
        if end - start <= _LEAF_SIZE:
            self._leaf_count[node] = end - start
            return node
        c = centers[idx]
        axis = int(np.argmax(c.max(axis=0) - c.min(axis=0)))
        mid = (end - start) // 2
        part = np.argpartition(c[:, axis], mid)
        self.order[start:end] = idx[part]
        left = self._build(start, start + mid, centers)
        right = self._build(start + mid, end, centers)
        self._left[node] = left
        self._right[node] = right
        return node

    def _expand_leaves(self, rows, nodes):
        """(row, item-slot) pairs for leaf frontier entries, vectorized."""
        counts = self._leaf_count[nodes]
        total = int(counts.sum())
        if total == 0:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        rep_rows = np.repeat(rows, counts)
        offsets = np.repeat(self._leaf_start[nodes], counts)
        within = np.arange(total) - np.repeat(
            np.concatenate([[0], np.cumsum(counts)[:-1]]), counts
        )
        items = self.order[offsets + within]
        return rep_rows, items

    def _gather(self, n, meets):
        """(row, item) pairs of every item box that query row meets, rows range(n).

        meets(rows, lo, hi) says which rows meet which boxes [lo, hi]; it
        prunes the node boxes and then tests the item boxes.
        """
        rows_out: list[np.ndarray] = []
        items_out: list[np.ndarray] = []
        frontier_rows = np.arange(n)
        frontier_nodes = np.zeros(n, dtype=np.int64)
        while len(frontier_rows):
            meet = meets(
                frontier_rows, self._node_lo[frontier_nodes], self._node_hi[frontier_nodes]
            )
            frontier_rows = frontier_rows[meet]
            frontier_nodes = frontier_nodes[meet]
            if not len(frontier_rows):
                break
            leaf = self._left[frontier_nodes] < 0
            if leaf.any():
                rep_rows, items = self._expand_leaves(
                    frontier_rows[leaf], frontier_nodes[leaf]
                )
                hit = meets(rep_rows, self.lo[items], self.hi[items])
                rows_out.append(rep_rows[hit])
                items_out.append(items[hit])
            inner_rows = frontier_rows[~leaf]
            inner_nodes = frontier_nodes[~leaf]
            frontier_rows = np.concatenate([inner_rows, inner_rows])
            frontier_nodes = np.concatenate(
                [self._left[inner_nodes], self._right[inner_nodes]]
            )
        if rows_out:
            return np.concatenate(rows_out), np.concatenate(items_out)
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)

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
        inner = np.flatnonzero(self._left[node] >= 0)
        while len(inner):
            x = X[inner]
            child = np.stack([self._left[node[inner]], self._right[node[inner]]])
            d2 = box_sqdist(x, self._node_lo[child], self._node_hi[child])
            node[inner] = np.where(d2[1] < d2[0], child[1], child[0])
            inner = inner[self._left[node[inner]] >= 0]
        rows, items = self._expand_leaves(np.arange(m), node)
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

    Pair k asks for the point of patch pids[k] closest to points[k]; the
    pairs of each degree group run as one batched solve.
    """
    pids = np.asarray(pids, dtype=np.int64)
    X = np.asarray(points, dtype=float).reshape(-1, 3)
    out = ClosestPointResult(
        params=np.empty((len(X), 2)),
        distance=np.empty(len(X)),
        converged=np.empty(len(X), dtype=bool),
    )
    for _, coeffs, rows, slot in pair_groups(patchset, pids):
        res = _closest_points(coeffs, slot, X[rows])
        out.params[rows] = res.params
        out.distance[rows] = res.distance
        out.converged[rows] = res.converged
    return out


def pair_groups(patchset: PatchSet, pids):
    """Per degree group the patch ids touch: (degree, stacked coeffs, rows, slots).

    rows are the positions in pids that hold the group's patches and
    slots their positions in the stacked coefficients.
    """
    pids = np.asarray(pids, dtype=np.int64)
    for n, (idx, coeffs) in patchset.degree_groups().items():
        rows = np.flatnonzero(np.isin(pids, idx))
        if len(rows):
            yield n, coeffs, rows, np.searchsorted(idx, pids[rows])


def patch_points(patchset: PatchSet, pids, params) -> np.ndarray:
    """Surface points P(s, t) of (patch id, params) pairs, per degree group."""
    out = np.empty((len(pids), 3))
    for n, coeffs, rows, slot in pair_groups(patchset, pids):
        bs = bezier.bernstein_matrix(n, params[rows, 0])
        bt = bezier.bernstein_matrix(n, params[rows, 1])
        out[rows] = _eval_pairs(coeffs[slot], bs, bt)
    return out


def patch_normals(patchset: PatchSet, pids, params) -> np.ndarray:
    """Unit exterior normals of (patch id, params) pairs, per degree group."""
    pids = np.asarray(pids, dtype=np.int64)
    out = np.empty((len(pids), 3))
    for n, coeffs, rows, slot in pair_groups(patchset, pids):
        s, t = params[rows, 0], params[rows, 1]
        C = coeffs[slot]
        ps = _eval_pairs(C, bezier.bernstein_matrix(n, s, 1), bezier.bernstein_matrix(n, t))
        pt = _eval_pairs(C, bezier.bernstein_matrix(n, s), bezier.bernstein_matrix(n, t, 1))
        out[rows] = np.cross(ps, pt)
    norm = np.linalg.norm(out, axis=1, keepdims=True)
    if np.any(norm == 0.0):
        raise DegenerateGeometryError("zero surface Jacobian")
    orientation = np.array([patchset[p].orientation for p in pids])
    return orientation.reshape(-1, 1) * out / norm


def _closest_points(coeffs, slot, X):
    """Closest points for pairs (patch coeffs[slot[k]], point X[k]) of one degree.

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


@dataclass
class TriangleProxies:
    vertices: np.ndarray  # (T, 3, 3)
    patch_ids: np.ndarray  # (T,)


_PROXY_GRID = 8


def triangle_proxies(patchset: PatchSet) -> TriangleProxies:
    """8 x 8 sample grid per patch triangulated into 2 * 7^2 triangles."""
    grid = np.linspace(-1.0, 1.0, _PROXY_GRID)
    verts = []
    pids = []
    for n, (idx, coeffs) in patchset.degree_groups().items():
        b = bezier.bernstein_matrix(n, grid)
        tri = grid_triangles(bezier.eval_grid(coeffs, b, b))  # (P, T_patch, 3, 3)
        verts.append(tri.reshape(-1, 3, 3))
        pids.append(np.repeat(idx, tri.shape[1]))
    return TriangleProxies(
        vertices=np.concatenate(verts), patch_ids=np.concatenate(pids)
    )


class SurfaceIndex:
    """Patch-box and triangle-proxy trees for one patch set."""

    def __init__(self, patchset: PatchSet):
        lo, hi = patchset.control_boxes()
        self.tree_boxes = AABBTree(lo, hi, np.arange(len(patchset)))
        self.proxies = triangle_proxies(patchset)
        self.tree_triangles = AABBTree(
            self.proxies.vertices.min(axis=1),
            self.proxies.vertices.max(axis=1),
            np.arange(len(self.proxies.patch_ids)),
            triangles=self.proxies.vertices,
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
    if len(patchset) == 0:
        raise UsageError("empty patch set")
    X = np.atleast_2d(np.asarray(points, dtype=float))
    m = X.shape[0]
    index = surface_index(patchset)

    tri_ids, _ = index.tree_triangles.nearest_triangle(X)
    cand0 = index.proxies.patch_ids[tri_ids]
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
