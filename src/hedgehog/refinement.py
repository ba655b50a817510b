"""Admissibility refinement and adaptive upsampling.

Coarse-stage refinement (geometry fit, boundary-condition resolution,
check-center admissibility) refits children from the exact embeddings, so
the approximated surface keeps improving; fine-stage upsampling subdivides
patches exactly and never changes the surface.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .chebyshev import cc_rule, chebyshev_interpolation_matrix
from .errors import RefinementError, UsageError
from .evaluation import CheckLine
from .geometry import bezier
from .geometry.embeddings import BoundaryCondition, QuadMesh
from .geometry.patches import (
    PatchSet,
    Subdomain,
    characteristic_length,
    fit_patch,
)
from .quadrature import discretize
from .spatial import (
    AABBTree,
    chunks,
    closest_points,
    grid_triangles,
    pair_groups,
    pair_sqdist,
    patch_points,
    slack,
)


@dataclass
class AdmissibilityConfig(CheckLine):
    """The check line plus the coarse-set tolerances and refinement limits."""

    eps_geometry: float = 1e-6
    eps_boundary: float = 1e-6
    min_length: float = 0.0  # 0 disables the safeguard
    max_depth: int = 12


@dataclass
class UpsamplingConfig:
    n_skip: int = 2
    max_depth: int = 12

    def __post_init__(self):
        if self.n_skip < 0:
            raise UsageError("n_skip must be nonnegative")


@dataclass
class SweepRecord:
    stage: str
    sweep: int
    patch_count: int
    max_length: float
    min_length: float
    offenders: list = field(default_factory=list)
    unconverged: int = 0  # closest-point solves of the sweep left unconverged


@dataclass
class RefinementReport:
    sweeps: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def add(self, stage, sweep, patchset: PatchSet, offenders, unconverged=0):
        lengths = patchset.lengths
        self.sweeps.append(
            SweepRecord(
                stage=stage,
                sweep=sweep,
                patch_count=len(patchset),
                max_length=float(lengths.max()),
                min_length=float(lengths.min()),
                offenders=list(offenders),
                unconverged=int(unconverged),
            )
        )

    def to_text(self) -> str:
        lines = []
        for rec in self.sweeps:
            ids = ",".join(map(str, rec.offenders[:32]))
            more = "..." if len(rec.offenders) > 32 else ""
            lines.append(
                f"{rec.stage} sweep {rec.sweep}: {rec.patch_count} patches, "
                f"L in [{rec.min_length:.4g}, {rec.max_length:.4g}], "
                f"{len(rec.offenders)} offenders [{ids}{more}], "
                f"{rec.unconverged} closest points unconverged"
            )
        for w in self.warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Criterion 1: geometry resolution
# ---------------------------------------------------------------------------


def refine_for_geometry(
    mesh: QuadMesh,
    degree: int,
    eps_geometry: float,
    max_depth: int = 12,
    min_length: float = 0.0,
    report: RefinementReport | None = None,
) -> PatchSet:
    """Fit quadtree patches to every embedding until fit_error < eps_geometry."""
    patches = []
    stopped = []
    unresolved = []
    for root_id, emb in enumerate(mesh.embeddings):
        queue = [Subdomain()]
        while queue:
            domain = queue.pop()
            patch = fit_patch(emb, root_id, domain, degree, orientation=mesh.orientation)
            if patch.fit_error < eps_geometry:
                patches.append(patch)
            elif domain.depth >= max_depth:
                unresolved.append(len(patches))
                patches.append(patch)
            elif min_length > 0.0 and characteristic_length(patch) / 2.0 < min_length:
                stopped.append(len(patches))
                patches.append(patch)
            else:
                for s_up in (False, True):
                    for t_up in (False, True):
                        queue.append(domain.quadrant(s_up, t_up))
    if unresolved:
        raise RefinementError(
            f"geometry fit did not converge at max depth {max_depth}",
            offenders=unresolved,
        )
    out = PatchSet(patches, mesh=mesh)
    if stopped:
        msg = f"geometry refinement stopped by min_length on patches {stopped}"
        warnings.warn(msg)
        if report is not None:
            report.warnings.append(msg)
    if report is not None:
        report.add("geometry", 0, out, stopped)
    return out


# ---------------------------------------------------------------------------
# Criterion 2: boundary-condition resolution
# ---------------------------------------------------------------------------


def _bc_interpolation_error(patchset, f: BoundaryCondition, q: int):
    """Max validation-grid error of each patch's tensor interpolant of f."""
    rule = cc_rule(q)
    vpts = np.linspace(-1.0, 1.0, 2 * q)
    a = chebyshev_interpolation_matrix(q, vpts)
    errs = np.zeros(len(patchset))
    for n, (ks, coeffs) in patchset.degree_groups().items():
        b = bezier.bernstein_matrix(n, rule.nodes)
        pos = bezier.eval_grid(coeffs, b, b).reshape(len(ks), -1, 3)
        bv = bezier.bernstein_matrix(n, vpts)
        vpos = bezier.eval_grid(coeffs, bv, bv).reshape(len(ks), -1, 3)
        for j, k in enumerate(ks):
            fv = f(pos[j])
            d = fv.shape[1]
            interp = np.einsum(
                "ai,ijd,bj->abd", a, fv.reshape(q, q, d), a, optimize=True
            ).reshape(-1, d)
            exact = f(vpos[j])
            errs[k] = np.abs(interp - exact).max()
    return errs


def _splittable(patchset, bad, max_depth, min_length, message, report):
    """The patches of bad that may still split; warns about the others.

    A patch is blocked at max_depth, or when its children would be shorter
    than min_length (0 disables that floor).
    """
    blocked = [
        i
        for i in bad
        if patchset[i].depth >= max_depth
        or (min_length > 0.0 and patchset.lengths[i] / 2.0 < min_length)
    ]
    if blocked:
        msg = message.format(blocked)
        warnings.warn(msg)
        if report is not None:
            report.warnings.append(msg)
    return [i for i in bad if i not in blocked]


def _split(patchset: PatchSet, indices) -> PatchSet:
    """A new set in which each listed coarse patch gives way to its children.

    Children are refit from the exact embedding when the set has a mesh,
    so the approximated surface keeps improving, and quadrisected
    otherwise; both give the quadrisect child order.
    """
    if patchset.mesh is None:
        return patchset.quadrisected(indices)
    split = {}
    for i in indices:
        p = patchset[i]
        emb = patchset.mesh.embeddings[p.root_id]
        split[i] = [
            fit_patch(emb, p.root_id, p.domain.quadrant(s_up, t_up), p.degree, p.orientation)
            for t_up in (False, True)
            for s_up in (False, True)
        ]
    return patchset.replace_with_children(split)


def refine_for_boundary_condition(
    patchset: PatchSet,
    f: BoundaryCondition,
    eps_boundary: float,
    q: int = 20,
    max_depth: int = 12,
    min_length: float = 0.0,
    report: RefinementReport | None = None,
) -> PatchSet:
    """Split patches until the tensor interpolant of f meets eps_boundary."""
    current = patchset
    for sweep in range(max_depth + 1):
        errs = _bc_interpolation_error(current, f, q)
        bad = _splittable(
            current,
            np.flatnonzero(errs >= eps_boundary).tolist(),
            max_depth,
            min_length,
            "boundary-condition refinement stopped on patches {}",
            report,
        )
        if report is not None:
            report.add("boundary-condition", sweep, current, bad)
        if not bad:
            return current
        current = _split(current, bad)
    raise RefinementError("boundary-condition refinement did not terminate")


# ---------------------------------------------------------------------------
# Criterion 3: check-center admissibility
# ---------------------------------------------------------------------------

_SIDES = (-1.0, 1.0)  # interior, then exterior: the two-sided operator needs both


def _check_centers(patchset, index_list, nodes, cfg: AdmissibilityConfig):
    """Check centers of the listed patches as flat rows.

    (centers, anchors, owner patch, search radius), each with one row per
    (patch, side, node); a patch's interior rows come before its exterior
    ones.
    """
    qq = cfg.q * cfg.q
    index_list = np.asarray(index_list, dtype=np.int64)
    dist = cfg.center_distance(patchset.lengths)[index_list]
    pos = nodes.positions.reshape(len(patchset), qq, 3)[index_list]
    nrm = nodes.normals.reshape(len(patchset), qq, 3)[index_list]
    d = dist[:, None, None]
    centers = np.concatenate([pos + sign * d * nrm for sign in _SIDES], axis=1)
    anchors = np.concatenate([pos] * len(_SIDES), axis=1)
    per_patch = len(_SIDES) * qq
    return (
        centers.reshape(-1, 3),
        anchors.reshape(-1, 3),
        np.repeat(index_list, per_patch),
        np.repeat(dist, per_patch),
    )


_DECISION_GRID = 7
_MARGIN = 1e-9  # relative margin by which a bound must clear its threshold
_ROW_BYTES = 8 * 2 * (_DECISION_GRID - 1) ** 2 * 3 * 8  # one point against its triangles


@dataclass
class _Proxies:
    """Proxy screens of listed patches, stacked in list order.

    The vertices sample the patch on a 7 x 7 parameter grid and the
    triangles split its cells.  sag bounds how far the true patch can
    deviate from the triangles, estimated at cell midpoints and doubled for
    safety, so distances to the patch lie within +-sag of the triangle
    distance.  cell is the longest cell diagonal.
    """

    vertices: np.ndarray  # (P, 49, 3)
    tris: np.ndarray  # (P, 72, 3, 3)
    lo: np.ndarray  # (P, 72, 3) triangle boxes
    hi: np.ndarray  # (P, 72, 3)
    sag: np.ndarray  # (P,)
    cell: np.ndarray  # (P,)


def _proxies(patchset: PatchSet, ids) -> _Proxies:
    """Proxies of the patches ids, built per degree group in one pass."""
    k = _DECISION_GRID
    cells = (k - 1) ** 2
    grid = np.linspace(-1.0, 1.0, k)
    mids = 0.5 * (grid[:-1] + grid[1:])
    pos = np.empty((len(ids), k, k, 3))
    mid = np.empty((len(ids), cells, 3))
    for n, coeffs, rows, slot in pair_groups(patchset, ids):
        sub = coeffs[slot]
        b = bezier.bernstein_matrix(n, grid)
        bm = bezier.bernstein_matrix(n, mids)
        pos[rows] = bezier.eval_grid(sub, b, b)
        mid[rows] = bezier.eval_grid(sub, bm, bm).reshape(len(rows), cells, 3)
    tris = grid_triangles(pos)
    lo, hi = tris.min(axis=2), tris.max(axis=2)
    # the two triangles of a midpoint's own cell (c and c + cells) bound its
    # triangle distance from above; only triangles whose box lies within
    # that bound can hold the minimum
    slot = np.repeat(np.arange(len(ids)), cells)
    own = np.tile(np.arange(cells), len(ids))
    pts = mid.reshape(-1, 3)
    d2 = np.minimum(
        pair_sqdist(pts, tris[slot, own])[0],
        pair_sqdist(pts, tris[slot, own + cells])[0],
    )
    allow = slack(np.sqrt(d2), pts).reshape(len(ids), cells, 1, 1)
    others = np.ones((cells, tris.shape[1]), dtype=bool)
    others[np.arange(cells), np.arange(cells)] = False
    others[np.arange(cells), np.arange(cells) + cells] = False
    for part in chunks(len(ids), cells * _ROW_BYTES):
        m, a = mid[part, :, None, :], allow[part]
        inside = np.all((lo[part, None] - m <= a) & (m - hi[part, None] <= a), axis=3)
        p, c, t = np.nonzero(inside & others)
        row = (part.start + p) * cells + c
        np.minimum.at(d2, row, pair_sqdist(pts[row], tris[part.start + p, t])[0])
    diag = (pos[:, 1:, 1:] - pos[:, :-1, :-1]).reshape(len(ids), -1, 3)
    return _Proxies(
        vertices=pos.reshape(len(ids), -1, 3),
        tris=tris,
        lo=lo,
        hi=hi,
        sag=2.0 * np.sqrt(d2.reshape(len(ids), cells).max(axis=1)) + 1e-14,
        cell=np.sqrt(np.max(np.einsum("ptk,ptk->pt", diag, diag), axis=1)),
    )


def _vertex_distance(prox, slot, x):
    """Nearest proxy-vertex distance per pair.

    Vertices lie on their triangles, so this bounds the proxy-triangle
    distance from above.
    """
    d2 = np.empty(len(x))
    for part in chunks(len(x), _ROW_BYTES):
        diff = prox.vertices[slot[part]] - x[part, None, :]
        d2[part] = np.einsum("pvk,pvk->pv", diff, diff).min(axis=1)
    return np.sqrt(d2)


def _box_distance(prox, slot, x):
    """Nearest triangle-box distance per pair, a lower bound on the triangle distance."""
    d2 = np.empty(len(x))
    for part in chunks(len(x), _ROW_BYTES):
        s, xp = slot[part], x[part, None, :]
        gap = np.maximum(prox.lo[s] - xp, 0.0) + np.maximum(xp - prox.hi[s], 0.0)
        d2[part] = np.einsum("ptk,ptk->pt", gap, gap).min(axis=1)
    return np.sqrt(d2)


def _nearest_triangle(prox, slot, x, bound):
    """Minimum proxy-triangle squared distance and its closest point, per pair.

    bound is an upper bound on each pair's triangle distance.  Only the
    triangles whose box lies within it (plus a rounding slack) are
    evaluated; the one attaining the minimum always is, so the result
    equals the minimum over all triangles bit for bit, ties going to the
    lowest triangle index.
    """
    d2 = np.empty(len(x))
    closest = np.empty((len(x), 3))
    allow = slack(bound, x)
    for part in chunks(len(x), _ROW_BYTES):
        s, xp, a = slot[part], x[part, None, :], allow[part, None, None]
        inside = np.all((prox.lo[s] - xp <= a) & (xp - prox.hi[s] <= a), axis=2)
        pair, tri = np.nonzero(inside)
        rows_d2, rows_closest = pair_sqdist(x[part][pair], prox.tris[s[pair], tri])
        # rows run pair by pair, triangles ascending, and every pair has one
        d2[part] = np.minimum.reduceat(rows_d2, np.searchsorted(pair, np.arange(len(xp))))
        hits = np.flatnonzero(rows_d2 == d2[part][pair])
        closest[part] = rows_closest[hits[np.unique(pair[hits], return_index=True)[1]]]
    return d2, closest


def _admissibility_offenders(
    patchset, tree, centers, anchors, owner, radius, eps_opt, postol
):
    """Patches owning a check center that projects somewhere other than its node.

    Returns (sorted patch indices, unconverged closest-point count).  Each
    center of radius d gathers competitor patches by box, then drops those
    whose control box or proxy triangles stay at least d away.  A
    competitor whose nearest proxy point coincides with the anchor node is
    accepted without a Newton solve; the rest run one batched solve.
    """
    rows, pids = tree.query_box(centers - radius[:, None], centers + radius[:, None])
    x, d = centers[rows], radius[rows]
    # box lower bound: cannot beat the node at distance d
    lo, hi = patchset.control_boxes()
    keep = np.linalg.norm(x - np.clip(x, lo[pids], hi[pids]), axis=1) < d
    rows, pids, x, d = rows[keep], pids[keep], x[keep], d[keep]
    if not len(rows):
        return [], 0
    ids, slot = np.unique(pids, return_inverse=True)
    prox = _proxies(patchset, ids)
    d2, closest = _nearest_triangle(prox, slot, x, _vertex_distance(prox, slot, x))
    tdist = np.sqrt(d2)
    sag, cell = prox.sag[slot], prox.cell[slot]
    competitive = tdist - sag < d
    # Newton can be skipped when the proxy evidence says the nearest
    # candidate is the node itself: the proxy argmin falls in the node's
    # cell AND the proxy distance is consistent with d
    coincides = (
        np.linalg.norm(closest - anchors[rows], axis=1) <= cell + 2.0 * sag
    ) & (tdist >= d - 2.0 * sag)
    suspect = np.flatnonzero(competitive & ~coincides)
    res = closest_points(patchset, pids[suspect], x[suspect], eps_opt)
    pos = patch_points(patchset, pids[suspect], res.params)
    beats = (res.distance < d[suspect] - postol) & (
        np.linalg.norm(pos - anchors[rows[suspect]], axis=1) >= postol
    )
    offenders = np.unique(owner[rows[suspect[beats]]])
    return offenders.tolist(), int(np.count_nonzero(~res.converged))


def enforce_admissibility(
    patchset: PatchSet,
    cfg: AdmissibilityConfig,
    report: RefinementReport | None = None,
) -> PatchSet:
    """Quadrisect patches until every check center projects onto its node.

    A patch passes when, for each of its quadrature nodes, the closest
    surface point to the node's check center coincides with the node
    (within the optimization tolerance).  The box-gather search radius is
    the known center distance R + r (p + 1) / 2.
    """
    current = patchset
    inadmissible = set(range(len(patchset)))
    for sweep in range(cfg.max_depth + 1):
        if not inadmissible:
            break
        lo, hi = current.control_boxes()
        tree = AABBTree(lo, hi, np.arange(len(current)))
        nodes = discretize(current, cfg.q)
        centers = _check_centers(current, sorted(inadmissible), nodes, cfg)
        # neighbor patches only agree along shared edges up to the fit
        # error, so the coincidence test cannot be tighter than that
        fit_gap = float(np.nanmax([p.fit_error for p in current.patches] + [0.0]))
        postol = max(cfg.eps_opt, 10.0 * fit_gap, 1e-12)
        still_bad, unconverged = _admissibility_offenders(
            current, tree, *centers, cfg.eps_opt, postol
        )
        if report is not None:
            report.add("admissibility", sweep, current, still_bad, unconverged)
        if not still_bad:
            return current
        splitting = _splittable(
            current,
            still_bad,
            cfg.max_depth,
            cfg.min_length,
            "admissibility unresolved on patches {} (length floor)",
            report,
        )
        if not splitting:
            return current
        # children of split patches start inadmissible; everything else
        # keeps its verdict.  Each earlier split shifts later indices by 3.
        inadmissible = {
            i + 3 * k + c for k, i in enumerate(sorted(splitting)) for c in range(4)
        }
        current = _split(current, splitting)
    if inadmissible:
        raise RefinementError(
            "admissibility did not converge", offenders=sorted(inadmissible)
        )
    return current


def coarse_set(
    mesh: QuadMesh,
    degree: int,
    cfg: AdmissibilityConfig,
    f: BoundaryCondition | None = None,
    report: RefinementReport | None = None,
) -> PatchSet:
    """The admissible coarse set of a mesh: the geometry fit, then the
    boundary-condition refinement when f is given, then admissibility.

    Every stage holds to cfg's tolerances, max_depth and min_length.
    """
    limits = dict(max_depth=cfg.max_depth, min_length=cfg.min_length, report=report)
    coarse = refine_for_geometry(mesh, degree, cfg.eps_geometry, **limits)
    if f is not None:
        coarse = refine_for_boundary_condition(coarse, f, cfg.eps_boundary, q=cfg.q, **limits)
    return enforce_admissibility(coarse, cfg, report=report)


# ---------------------------------------------------------------------------
# Adaptive upsampling
# ---------------------------------------------------------------------------


def required_check_points(
    coarse: PatchSet, nodes, cfg: AdmissibilityConfig
) -> np.ndarray:
    """All check points needed to evaluate the operator at the coarse nodes.

    Rows run side by side (interior first), then check index s, then node.
    """
    lengths = coarse.lengths[nodes.patch_ids]
    n, k = len(nodes), cfg.p + 1
    return np.concatenate(
        [
            cfg.points(nodes.positions, nodes.normals, lengths, sign)
            .reshape(n, k, 3)
            .swapaxes(0, 1)
            .reshape(-1, 3)
            for sign in _SIDES
        ]
    )


def _pairs_within_length(fine, rows_all, ids_all, check_points, eps_opt):
    """(check rows, patch ids) of the pairs with dist(check, patch) < L(patch).

    Also returns the number of closest-point solves left unconverged.
    Pairs whose control box lies within L are alive.  With d_T the
    proxy-triangle distance, an alive pair is close when d_T + sag < L and
    far when d_T - sag >= L; first the nearest proxy vertex (above d_T) and
    the nearest triangle box (below d_T) try to decide it, each only when it
    clears the threshold by a relative margin.  Pairs left get the exact
    d_T, and pairs inside the +-sag band run one batched Newton solve.
    """
    lengths = fine.lengths
    box_lo, box_hi = fine.control_boxes()
    pts = check_points[rows_all]
    clamped = np.clip(pts, box_lo[ids_all], box_hi[ids_all])
    box_dist = np.linalg.norm(pts - clamped, axis=1)
    alive = box_dist < lengths[ids_all]
    rows, pids = rows_all[alive], ids_all[alive]
    if not len(rows):
        return rows, pids, 0
    ids, slot = np.unique(pids, return_inverse=True)
    prox = _proxies(fine, ids)
    x, limit, sag = check_points[rows], lengths[pids], prox.sag[slot]
    vert = _vertex_distance(prox, slot, x)
    close = vert + sag < limit * (1.0 - _MARGIN)
    rest = np.flatnonzero(~close)
    far = _box_distance(prox, slot[rest], x[rest]) - sag[rest] >= limit[rest] * (1.0 + _MARGIN)
    todo = rest[~far]
    d2, _ = _nearest_triangle(prox, slot[todo], x[todo], vert[todo])
    tdist = np.sqrt(d2)
    close[todo] = tdist + sag[todo] < limit[todo]
    band = todo[~close[todo] & (tdist - sag[todo] < limit[todo])]
    res = closest_points(fine, pids[band], x[band], eps_opt)
    close[band] = res.distance < limit[band]
    return rows[close], pids[close], int(np.count_nonzero(~res.converged))


def adaptive_upsample(
    coarse: PatchSet,
    cfg: UpsamplingConfig,
    adm: AdmissibilityConfig,
    check_points: np.ndarray | None = None,
    report: RefinementReport | None = None,
) -> PatchSet:
    """Refine a copy of the coarse set until all check points are far.

    A check point is far once it lies at distance >= L(P) from every fine
    patch P.  The first n_skip sweeps refine every patch unconditionally.
    """
    if check_points is None:
        nodes = discretize(coarse, adm.q)
        check_points = required_check_points(coarse, nodes, adm)
    fine = coarse.as_fine()
    near = np.ones(len(check_points), dtype=np.bool_)
    for sweep in range(cfg.max_depth + 1):
        if not near.any():
            break
        if sweep < cfg.n_skip:
            # surface check points always sit inside their own patch's
            # near-zone box (distance <= (b + p a) L < 2 L), so the
            # unconditional sweeps refine every patch
            depths = np.array([p.depth for p in fine.patches])
            if report is not None:
                report.add("upsampling", sweep, fine, list(range(len(fine))))
            if depths.max() >= cfg.max_depth:
                raise RefinementError("adaptive upsampling exceeded max depth")
            fine = fine.quadrisected(range(len(fine)))
            continue
        # only pairs whose control box lies within L can be close, so the
        # boxes are inflated by L (plus rounding slack), not by the near zone's 2 L
        lo, hi = fine.control_boxes()
        reach = slack(fine.lengths, np.maximum(np.abs(lo), np.abs(hi)))[:, None]
        tree = AABBTree(lo - reach, hi + reach, np.arange(len(fine)))
        depths = np.array([p.depth for p in fine.patches])
        near_rows = np.flatnonzero(near)
        rows_local, ids_all = tree.query_points_bulk(check_points[near_rows])
        rows_all = near_rows[rows_local]
        close_rows, close_ids, unconverged = _pairs_within_length(
            fine, rows_all, ids_all, check_points, adm.eps_opt
        )
        still_near = np.zeros(len(check_points), dtype=np.bool_)
        still_near[close_rows] = True
        near &= still_near
        to_split = np.unique(close_ids)
        if report is not None:
            report.add("upsampling", sweep, fine, to_split.tolist(), unconverged)
        if not len(to_split):
            break
        if np.any(depths[to_split] >= cfg.max_depth):
            raise RefinementError(
                "adaptive upsampling exceeded max depth",
                offenders=np.flatnonzero(near).tolist(),
            )
        fine = fine.quadrisected(to_split)
    else:
        if near.any():
            raise RefinementError(
                "adaptive upsampling did not settle",
                offenders=np.flatnonzero(near).tolist(),
            )
    return fine


def uniform_upsample(coarse: PatchSet, levels: int) -> PatchSet:
    """Fixed-level uniform quadrisection of the coarse set (exact geometry)."""
    return coarse.as_fine().uniform_refined(levels)
