"""Admissibility refinement and adaptive upsampling.

Coarse-stage refinement (geometry fit, boundary-condition resolution,
check-center admissibility) refits children from the exact embeddings, so
the approximated surface keeps improving; fine-stage upsampling subdivides
patches exactly and never changes the surface.  Both screens decide their
(point, patch) pairs with the triangle proxies of spatial.patch_proxies,
and only the pairs the proxies cannot settle run a closest-point solve.
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
    EPS_OPT,
    AABBTree,
    closest_points,
    nearest_proxy_triangle,
    patch_points,
    patch_proxies,
    slack,
    triangles_within,
    vertex_distance,
)


@dataclass
class AdmissibilityConfig(CheckLine):
    """The check line plus the coarse-set tolerances and length floor."""

    eps_geometry: float = 1e-6
    eps_boundary: float = 1e-6
    min_length: float = 0.0  # 0 disables the safeguard


@dataclass
class UpsamplingConfig:
    n_skip: int = 2

    def __post_init__(self):
        if self.n_skip < 0:
            raise UsageError("n_skip must be nonnegative")


MAX_DEPTH = 12  # deepest quadtree level any refinement or upsampling reaches

# the pair counts an upsampling sweep's screen records: the pairs gathered
# and the alive ones among them, then how each alive pair was decided
SCREEN_STAGES = ("gathered", "alive", "closed by vertex", "far by group box",
                 "far by triangle box", "settled by triangle", "in Newton band")


@dataclass
class SweepRecord:
    stage: str
    sweep: int
    patch_count: int
    max_length: float
    min_length: float
    offenders: list = field(default_factory=list)
    unconverged: int = 0  # closest-point solves of the sweep left unconverged
    screen: dict = field(default_factory=dict)  # pairs per SCREEN_STAGES entry


@dataclass
class RefinementReport:
    sweeps: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def add(self, stage, sweep, patchset: PatchSet, offenders, unconverged=0, screen=None):
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
                screen=dict(screen or {}),
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
            if rec.screen:
                stages = ", ".join(f"{n} {stage}" for stage, n in rec.screen.items())
                lines.append(f"  screened pairs: {stages}")
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
            elif domain.depth >= MAX_DEPTH:
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
            f"geometry fit did not converge at max depth {MAX_DEPTH}",
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
    b = bezier.bernstein_matrix(patchset.degree, rule.nodes)
    pos = bezier.eval_grid(patchset.coeffs, b, b).reshape(len(patchset), -1, 3)
    bv = bezier.bernstein_matrix(patchset.degree, vpts)
    vpos = bezier.eval_grid(patchset.coeffs, bv, bv).reshape(len(patchset), -1, 3)
    errs = np.zeros(len(patchset))
    for k in range(len(patchset)):
        fv = f(pos[k])
        d = fv.shape[1]
        interp = np.einsum(
            "ai,ijd,bj->abd", a, fv.reshape(q, q, d), a, optimize=True
        ).reshape(-1, d)
        errs[k] = np.abs(interp - f(vpos[k])).max()
    return errs


def _splittable(patchset, bad, min_length, message, report):
    """The patches of bad that may still split; warns about the others.

    A patch is blocked at MAX_DEPTH, or when its children would be shorter
    than min_length (0 disables that floor).
    """
    blocked = [
        i
        for i in bad
        if patchset[i].depth >= MAX_DEPTH
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
    otherwise; both give the quadrisect_all child order.
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
    min_length: float = 0.0,
    report: RefinementReport | None = None,
) -> PatchSet:
    """Split patches until the tensor interpolant of f meets eps_boundary."""
    current = patchset
    for sweep in range(MAX_DEPTH + 1):
        errs = _bc_interpolation_error(current, f, q)
        bad = _splittable(
            current,
            np.flatnonzero(errs >= eps_boundary).tolist(),
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


_MARGIN = 1e-9  # relative margin by which a bound must clear its threshold


def _admissibility_offenders(patchset, tree, centers, anchors, owner, radius, postol):
    """Patches owning a check center that projects somewhere other than its node.

    Returns (sorted patch indices, unconverged closest-point count).  Each
    center of radius d gathers competitor patches by box, then drops those
    whose control box or proxy triangles stay at least d away.  A
    competitor whose nearest proxy point coincides with the anchor node is
    accepted without a Newton solve; the rest run one batched solve.
    """
    rows, pids = tree.query_box(centers - radius[:, None], centers + radius[:, None])
    x, d = centers[rows], radius[rows]
    # box lower bound: cannot beat the node at distance d.  Kept as
    # norm(x - clip(x)) rather than box_sqdist: its bits decide the `<`
    lo, hi = patchset.control_boxes()
    keep = np.linalg.norm(x - np.clip(x, lo[pids], hi[pids]), axis=1) < d
    rows, pids, x, d = rows[keep], pids[keep], x[keep], d[keep]
    if not len(rows):
        return [], 0
    ids, slot = np.unique(pids, return_inverse=True)
    prox = patch_proxies(patchset, ids)
    d2, closest = nearest_proxy_triangle(prox, slot, x, vertex_distance(prox, slot, x))
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
    res = closest_points(patchset, pids[suspect], x[suspect])
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
    for sweep in range(MAX_DEPTH + 1):
        if not inadmissible:
            break
        lo, hi = current.control_boxes()
        tree = AABBTree(lo, hi, np.arange(len(current)))
        nodes = discretize(current, cfg.q)
        centers = _check_centers(current, sorted(inadmissible), nodes, cfg)
        # neighbor patches only agree along shared edges up to the fit
        # error, so the coincidence test cannot be tighter than that
        fit_gap = float(np.nanmax([p.fit_error for p in current.patches] + [0.0]))
        postol = max(EPS_OPT, 10.0 * fit_gap, 1e-12)
        still_bad, unconverged = _admissibility_offenders(current, tree, *centers, postol)
        if report is not None:
            report.add("admissibility", sweep, current, still_bad, unconverged)
        if not still_bad:
            return current
        splitting = _splittable(
            current,
            still_bad,
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

    Every stage holds to cfg's tolerances and min_length, and to MAX_DEPTH.
    """
    limits = dict(min_length=cfg.min_length, report=report)
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


def _pairs_within_length(fine, rows_all, ids_all, check_points, counts=None):
    """(check rows, patch ids) of the pairs with dist(check, patch) < L(patch).

    Also returns the number of closest-point solves left unconverged.
    Pairs whose control box lies within L are alive.  With d_T the
    proxy-triangle distance, an alive pair is close when d_T + sag < L and
    far when d_T - sag >= L; first the nearest proxy vertex (above d_T),
    then the nearest group box and the nearest triangle box (below d_T) try
    to decide it, each only when it clears the threshold by a relative
    margin.  Pairs left get the exact d_T, and pairs inside the +-sag band
    run one batched Newton solve.

    Every early decision is implied by the exact one, because
    d_T <= vertex distance and group-box distance <= triangle-box distance
    <= d_T, so the close set is the one the exact rule gives.  counts, when
    given, receives the number of pairs at each of SCREEN_STAGES: gathered,
    alive, then those closed by a vertex, ruled far by a group box or a
    triangle box, settled by d_T, and left in the Newton band; the last
    five partition the alive pairs.
    """
    lengths = fine.lengths
    box_lo, box_hi = fine.control_boxes()
    pts = check_points[rows_all]
    # kept as norm(x - clip(x)) rather than box_sqdist: its bits decide
    # which pairs are alive
    clamped = np.clip(pts, box_lo[ids_all], box_hi[ids_all])
    box_dist = np.linalg.norm(pts - clamped, axis=1)
    alive = box_dist < lengths[ids_all]
    rows, pids = rows_all[alive], ids_all[alive]
    stages = {} if counts is None else counts
    stages.update(dict.fromkeys(SCREEN_STAGES, 0), gathered=len(rows_all), alive=len(rows))
    if not len(rows):
        return rows, pids, 0
    ids, slot = np.unique(pids, return_inverse=True)
    prox = patch_proxies(fine, ids)
    x, limit, sag = check_points[rows], lengths[pids], prox.sag[slot]
    vert = vertex_distance(prox, slot, x)
    close = vert + sag < limit * (1.0 - _MARGIN)
    stages["closed by vertex"] = int(np.count_nonzero(close))
    todo = np.flatnonzero(~close)
    # far when every group box, or every triangle box in the groups left,
    # clears the threshold; their distances are at most d_T, so d_T would
    # clear it too.  Pairs with a triangle box inside go on to d_T
    limit_far = limit * (1.0 + _MARGIN)
    pair, _, grouped = triangles_within(
        prox, slot[todo], x[todo],
        lambda b2, p: np.sqrt(b2) - sag[todo[p]] < limit_far[todo[p]],
    )
    boxed = np.zeros(len(todo), dtype=bool)
    boxed[pair] = True
    stages["far by group box"] = int(np.count_nonzero(~grouped))
    stages["far by triangle box"] = int(np.count_nonzero(grouped & ~boxed))
    todo = todo[boxed]
    d2, _ = nearest_proxy_triangle(prox, slot[todo], x[todo], vert[todo])
    tdist = np.sqrt(d2)
    close[todo] = tdist + sag[todo] < limit[todo]
    band = todo[~close[todo] & (tdist - sag[todo] < limit[todo])]
    res = closest_points(fine, pids[band], x[band])
    close[band] = res.distance < limit[band]
    stages["settled by triangle"] = len(todo) - len(band)
    stages["in Newton band"] = len(band)
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
    for sweep in range(MAX_DEPTH + 1):
        if not near.any():
            break
        if sweep < cfg.n_skip:
            # surface check points always sit inside their own patch's
            # near-zone box (distance <= (b + p a) L < 2 L), so the
            # unconditional sweeps refine every patch
            depths = np.array([p.depth for p in fine.patches])
            if report is not None:
                report.add("upsampling", sweep, fine, list(range(len(fine))))
            if depths.max() >= MAX_DEPTH:
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
        screen = {}
        close_rows, close_ids, unconverged = _pairs_within_length(
            fine, rows_all, ids_all, check_points, screen
        )
        still_near = np.zeros(len(check_points), dtype=np.bool_)
        still_near[close_rows] = True
        near &= still_near
        to_split = np.unique(close_ids)
        if report is not None:
            report.add("upsampling", sweep, fine, to_split.tolist(), unconverged, screen)
        if not len(to_split):
            break
        if np.any(depths[to_split] >= MAX_DEPTH):
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
