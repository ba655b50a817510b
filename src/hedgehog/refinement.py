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
    SurfacePatch,
    characteristic_length,
    fit_patch,
    quadrisect,
)
from .quadrature import discretize
from .spatial import (
    AABBTree,
    closest_point_on_patch,
    points_triangles_min_sqdist,
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


@dataclass
class RefinementReport:
    sweeps: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def add(self, stage, sweep, patchset: PatchSet, offenders):
        lengths = patchset.lengths
        self.sweeps.append(
            SweepRecord(
                stage=stage,
                sweep=sweep,
                patch_count=len(patchset),
                max_length=float(lengths.max()),
                min_length=float(lengths.min()),
                offenders=list(offenders),
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
                f"{len(rec.offenders)} offenders [{ids}{more}]"
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
        queue = [(Subdomain(), 0)]
        while queue:
            domain, depth = queue.pop()
            patch = fit_patch(
                emb, root_id, domain, degree, depth=depth, orientation=mesh.orientation
            )
            if patch.fit_error < eps_geometry:
                patches.append(patch)
            elif depth >= max_depth:
                unresolved.append(len(patches))
                patches.append(patch)
            elif min_length > 0.0 and characteristic_length(patch) / 2.0 < min_length:
                stopped.append(len(patches))
                patches.append(patch)
            else:
                for s_up in (False, True):
                    for t_up in (False, True):
                        queue.append((domain.quadrant(s_up, t_up), depth + 1))
    if unresolved:
        raise RefinementError(
            f"geometry fit did not converge at max depth {max_depth}",
            offenders=unresolved,
        )
    out = PatchSet(patches, role="coarse", mesh=mesh)
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


def _bc_interpolation_error(patchset, indices, f: BoundaryCondition, q: int):
    """Max validation-grid error of each patch's tensor interpolant of f."""
    rule = cc_rule(q)
    vpts = np.linspace(-1.0, 1.0, 2 * q)
    a = chebyshev_interpolation_matrix(q, vpts)
    errs = np.zeros(len(indices))
    groups: dict[int, list[int]] = {}
    for k, i in enumerate(indices):
        groups.setdefault(patchset[i].degree, []).append(k)
    ss, tt = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    vs, vt = np.meshgrid(vpts, vpts, indexing="ij")
    for n, ks in groups.items():
        coeffs = np.stack([patchset[indices[k]].coeffs for k in ks])
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
        errs = _bc_interpolation_error(current, list(range(len(current))), f, q)
        bad = [i for i in range(len(current)) if errs[i] >= eps_boundary]
        blocked = [
            i
            for i in bad
            if current[i].depth >= max_depth
            or (min_length > 0.0 and current.lengths[i] / 2.0 < min_length)
        ]
        if blocked:
            msg = f"boundary-condition refinement stopped on patches {blocked}"
            warnings.warn(msg)
            if report is not None:
                report.warnings.append(msg)
            bad = [i for i in bad if i not in blocked]
        if report is not None:
            report.add("boundary-condition", sweep, current, bad)
        if not bad:
            return current
        split = {}
        for i in bad:
            p = current[i]
            if current.mesh is not None:
                emb = current.mesh.embeddings[p.root_id]
                split[i] = [
                    fit_patch(
                        emb,
                        p.root_id,
                        p.domain.quadrant(s_up, t_up),
                        p.degree,
                        depth=p.depth + 1,
                        orientation=p.orientation,
                    )
                    for t_up in (False, True)
                    for s_up in (False, True)
                ]
            else:
                split[i] = quadrisect(p)
        current = current.replace_with_children(split)
    raise RefinementError("boundary-condition refinement did not terminate")


# ---------------------------------------------------------------------------
# Criterion 3: check-center admissibility
# ---------------------------------------------------------------------------

_SIGN = {"interior": -1.0, "exterior": 1.0}


def _check_centers(patchset, index_list, nodes, cfg: AdmissibilityConfig, sides):
    """Check centers per patch: {patch index: (centers, anchors)} arrays."""
    q = cfg.q
    dist = cfg.center_distance(patchset.lengths)
    out = {}
    for i in index_list:
        rows = slice(i * q * q, (i + 1) * q * q)
        pos = nodes.positions[rows]
        nrm = nodes.normals[rows]
        centers = [pos + _SIGN[side] * dist[i] * nrm for side in sides]
        out[i] = (np.concatenate(centers), np.tile(pos, (len(sides), 1)))
    return out


def _patch_proxy(patch: SurfacePatch):
    """Cached (triangles, sag, cell diameter) screen for one patch.

    sag bounds how far the true patch can deviate from the proxy triangles,
    estimated at cell midpoints and doubled for safety; distances to the
    patch therefore lie within +-sag of the proxy distance.
    """
    cached = getattr(patch, "_proxy", None)
    if cached is not None:
        return cached
    k = _DECISION_GRID
    grid = np.linspace(-1.0, 1.0, k)
    b = bezier.bernstein_matrix(patch.degree, grid)
    pos = bezier.eval_grid(patch.coeffs, b, b)
    p00 = pos[:-1, :-1].reshape(-1, 3)
    p10 = pos[1:, :-1].reshape(-1, 3)
    p01 = pos[:-1, 1:].reshape(-1, 3)
    p11 = pos[1:, 1:].reshape(-1, 3)
    tris = np.concatenate(
        [np.stack([p00, p10, p11], axis=1), np.stack([p00, p11, p01], axis=1)]
    )
    mids = 0.5 * (grid[:-1] + grid[1:])
    bm = bezier.bernstein_matrix(patch.degree, mids)
    mid_pos = bezier.eval_grid(patch.coeffs, bm, bm).reshape(-1, 3)
    d2 = points_triangles_min_sqdist(mid_pos, tris)
    cell = float(np.sqrt(np.max(np.einsum("tk,tk->t", p11 - p00, p11 - p00))))
    sag = 2.0 * float(np.sqrt(d2.max())) + 1e-14
    patch._proxy = (tris, sag, cell)
    return patch._proxy


def _admissibility_offenders(patchset, tree, per_patch, eps_opt, postol):
    """Patch indices whose check centers project somewhere other than
    their generating node.

    per_patch maps patch index -> (centers, anchors, search radius d).
    Candidate competitor patches are screened by box and proxy distances;
    competitors whose nearest point coincides with the anchor node are
    accepted without a Newton solve.
    """
    offenders = []
    for i, (centers, anchors, d) in per_patch.items():
        rows_all, ids_all = tree.query_boxes_bulk(centers - d, centers + d)
        bad = False
        by_patch: dict[int, np.ndarray] = {}
        for pid in np.unique(ids_all):
            by_patch[int(pid)] = rows_all[ids_all == pid]
        for pid, rows in by_patch.items():
            patch = patchset[pid]
            tris, sag, cell = _patch_proxy(patch)
            # box lower bound: cannot beat the node at distance d
            blo, bhi = patch.control_box()
            clamped = np.clip(centers[rows], blo, bhi)
            bd = np.linalg.norm(centers[rows] - clamped, axis=1)
            rows = rows[bd < d]
            if not len(rows):
                continue
            d2, closest = points_triangles_min_sqdist(
                centers[rows], tris, return_closest=True
            )
            tdist = np.sqrt(d2)
            competitive = tdist - sag < d
            rows = rows[competitive]
            if not len(rows):
                continue
            closest = closest[competitive]
            tdist = tdist[competitive]
            # Newton can be skipped when the proxy evidence says the nearest
            # candidate is the node itself: the proxy argmin falls in the
            # node's cell AND the proxy distance is consistent with d
            coincides = (
                np.linalg.norm(closest - anchors[rows], axis=1) <= cell + 2.0 * sag
            ) & (tdist >= d - 2.0 * sag)
            suspect = rows[~coincides]
            if not len(suspect):
                continue
            res = closest_point_on_patch(patch, centers[suspect], eps_opt)
            from .geometry.patches import evaluate as _eval

            pos = _eval(patch, res.params[:, 0], res.params[:, 1])
            beats = (res.distance < d - postol) & (
                np.linalg.norm(pos - anchors[suspect], axis=1) >= postol
            )
            if beats.any():
                bad = True
                break
        if bad:
            offenders.append(i)
    return offenders


def enforce_admissibility(
    patchset: PatchSet,
    cfg: AdmissibilityConfig,
    sides=("interior", "exterior"),
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
        tree = AABBTree(lo, hi, np.arange(len(current)), kind="patch-box")
        nodes = discretize(current, cfg.q)
        centers = _check_centers(current, sorted(inadmissible), nodes, cfg, sides)
        # neighbor patches only agree along shared edges up to the fit
        # error, so the coincidence test cannot be tighter than that
        fit_gap = float(np.nanmax([p.fit_error for p in current.patches] + [0.0]))
        dist = cfg.center_distance(current.lengths)
        per_patch = {
            i: (cpts, anchors, dist[i]) for i, (cpts, anchors) in centers.items()
        }
        postol = max(cfg.eps_opt, 10.0 * fit_gap, 1e-12)
        still_bad = _admissibility_offenders(
            current, tree, per_patch, cfg.eps_opt, postol
        )
        if report is not None:
            report.add("admissibility", sweep, current, still_bad)
        if not still_bad:
            return current
        blocked = [
            i
            for i in still_bad
            if current[i].depth >= cfg.max_depth
            or (cfg.min_length > 0.0 and current.lengths[i] / 2.0 < cfg.min_length)
        ]
        if blocked:
            msg = f"admissibility unresolved on patches {blocked} (length floor)"
            warnings.warn(msg)
            if report is not None:
                report.warnings.append(msg)
        splitting = [i for i in still_bad if i not in blocked]
        if not splitting:
            return current
        split = {}
        for i in splitting:
            p = current[i]
            if current.mesh is not None:
                emb = current.mesh.embeddings[p.root_id]
                split[i] = [
                    fit_patch(
                        emb,
                        p.root_id,
                        p.domain.quadrant(s_up, t_up),
                        p.degree,
                        depth=p.depth + 1,
                        orientation=p.orientation,
                    )
                    for t_up in (False, True)
                    for s_up in (False, True)
                ]
            else:
                split[i] = quadrisect(p)
        # children of split patches start inadmissible; everything else
        # keeps its verdict
        old_to_new = {}
        counter = 0
        for i in range(len(current)):
            width = 4 if i in split else 1
            old_to_new[i] = list(range(counter, counter + width))
            counter += width
        next_bad = set()
        for i in splitting:
            next_bad.update(old_to_new[i])
        inadmissible = next_bad
        current = current.replace_with_children(split)
    if inadmissible:
        raise RefinementError(
            "admissibility did not converge", offenders=sorted(inadmissible)
        )
    return current


# ---------------------------------------------------------------------------
# Adaptive upsampling
# ---------------------------------------------------------------------------


def required_check_points(
    coarse: PatchSet, nodes, cfg: AdmissibilityConfig, sides=("interior", "exterior")
) -> np.ndarray:
    """All check points needed to evaluate the operator at the coarse nodes.

    Rows run side by side, then check index s, then node.
    """
    lengths = coarse.lengths[nodes.patch_ids]
    n, k = len(nodes), cfg.p + 1
    return np.concatenate(
        [
            cfg.points(nodes.positions, nodes.normals, lengths, _SIGN[side])
            .reshape(n, k, 3)
            .swapaxes(0, 1)
            .reshape(-1, 3)
            for side in sides
        ]
    )


def near_zone_boxes(patchset: PatchSet):
    """Near-zone bounding boxes: control boxes inflated by 2 L(P)."""
    lo, hi = patchset.control_boxes()
    margin = 2.0 * patchset.lengths
    return lo - margin[:, None], hi + margin[:, None]


_DECISION_GRID = 7


def _pairs_within_length(
    fine, rows_all, ids_all, check_points, lengths, box_lo, box_hi, eps_opt
):
    """(check row, patch id) pairs with dist(check, patch) < L(patch).

    Screens pairs by the patch-box lower bound, then by a proxy-triangle
    distance with a sag allowance; only pairs inside the uncertainty band
    run the Newton solve.
    """
    if len(rows_all) == 0:
        return []
    pts = check_points[rows_all]
    # the near-zone box already inflated by 2L; undo for the raw patch box
    margin = 2.0 * lengths[ids_all]
    lo = box_lo[ids_all] + margin[:, None]
    hi = box_hi[ids_all] - margin[:, None]
    clamped = np.clip(pts, lo, hi)
    box_dist = np.linalg.norm(pts - clamped, axis=1)
    limit = lengths[ids_all]
    alive = box_dist < limit
    out = []
    band_rows = []
    band_ids = []
    sub_rows = rows_all[alive]
    sub_ids = ids_all[alive]
    sub_pts = check_points[sub_rows]
    sub_limit = lengths[sub_ids]
    for pid in np.unique(sub_ids):
        sel = sub_ids == pid
        tris, sag, _ = _patch_proxy(fine[pid])
        tri_dist = np.sqrt(points_triangles_min_sqdist(sub_pts[sel], tris))
        rows = sub_rows[sel]
        lim = sub_limit[sel]
        sure_near = tri_dist + sag < lim
        sure_far = tri_dist - sag >= lim
        out.extend((int(r), int(pid)) for r in rows[sure_near])
        undecided = ~(sure_near | sure_far)
        if undecided.any():
            band_rows.append(rows[undecided])
            band_ids.append(np.full(undecided.sum(), pid))
    if band_rows:
        band_rows = np.concatenate(band_rows)
        band_ids = np.concatenate(band_ids)
        for pid in np.unique(band_ids):
            sel = band_ids == pid
            res = closest_point_on_patch(
                fine[pid], check_points[band_rows[sel]], eps_opt
            )
            close = res.distance < lengths[pid]
            out.extend((int(r), int(pid)) for r in band_rows[sel][close])
    return out


def adaptive_upsample(
    coarse: PatchSet,
    cfg: UpsamplingConfig,
    adm: AdmissibilityConfig,
    sides=("interior", "exterior"),
    check_points: np.ndarray | None = None,
    report: RefinementReport | None = None,
) -> PatchSet:
    """Refine a copy of the coarse set until all check points are far.

    A check point is far once it lies outside every patch's near-zone box
    or at distance >= L(P) from every patch whose box contains it.  The
    first n_skip sweeps refine on box containment alone.
    """
    if check_points is None:
        nodes = discretize(coarse, adm.q)
        check_points = required_check_points(coarse, nodes, adm, sides)
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
            fine = fine.replace_with_children(
                {i: quadrisect(p) for i, p in enumerate(fine.patches)}
            )
            continue
        lo, hi = near_zone_boxes(fine)
        tree = AABBTree(lo, hi, np.arange(len(fine)), kind="near-zone-box")
        lengths = fine.lengths
        depths = np.array([p.depth for p in fine.patches])
        near_rows = np.flatnonzero(near)
        rows_local, ids_all = tree.query_points_bulk(check_points[near_rows])
        rows_all = near_rows[rows_local]
        hit_any = np.zeros(len(check_points), dtype=np.bool_)
        hit_any[rows_all] = True
        near &= hit_any
        to_split = set()
        still_near = np.zeros(len(check_points), dtype=np.bool_)
        close_pairs = _pairs_within_length(
            fine, rows_all, ids_all, check_points, lengths, lo, hi, adm.eps_opt
        )
        for row, pid in close_pairs:
            to_split.add(pid)
            still_near[row] = True
        near &= still_near
        offenders = sorted(to_split)
        if report is not None:
            report.add("upsampling", sweep, fine, offenders)
        if not to_split:
            break
        over = [i for i in to_split if depths[i] >= cfg.max_depth]
        if over:
            raise RefinementError(
                "adaptive upsampling exceeded max depth",
                offenders=np.flatnonzero(near).tolist(),
            )
        fine = fine.replace_with_children({i: quadrisect(fine[i]) for i in to_split})
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
