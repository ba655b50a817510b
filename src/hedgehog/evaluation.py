"""Singular/near-singular evaluation by off-surface extrapolation.

Near-surface potentials are computed at p + 1 collinear check points placed
along the surface normal at the target's closest surface point, using smooth
quadrature on the upsampled patch set, then extrapolated back to the target
with the first-kind barycentric formula.  Far targets get plain smooth
quadrature on the coarse nodes.  Intermediate targets and the check points
of near and on-surface targets take one path, _upsampled_limits: the sums
arrive from quadrature.upsampled_blocks one coarse patch at a time, and each
patch's check rows are extrapolated to their targets as they arrive.
"""

from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np

from .chebyshev import extrapolate, extrapolation_weights
from .errors import UsageError
from .kernels import LAPLACE, KernelFamily, density_columns
from .quadrature import QuadratureNodeSet, smooth_potential, upsampled_blocks
from .spatial import chunks, closest_point_global_bulk, patch_normals, patch_points


@dataclass
class CheckLine:
    """The p + 1 check points on the normal line through a surface anchor.

    The first point sits at R = b s(L) from the anchor and the rest follow
    every r = a s(L), where s(L) = L or sqrt(L) with sqrt_scaling.  The
    points run inward (sign -1) or outward (sign +1) along the exterior
    normal.  Admissibility, upsampling and evaluation all read this line,
    so the accuracy guarantees hold at the points that are summed.
    """

    p: int = 6
    b: float = 0.125
    a: float | None = None  # defaults to b / 6
    q: int = 20
    sqrt_scaling: bool = False

    def __post_init__(self):
        if self.a is None:
            self.a = self.b / 6.0
        if not (0.0 < self.a < 1.0 and 0.0 < self.b < 1.0):
            raise UsageError("check-point factors must satisfy 0 < a, b < 1")
        if self.p < 1:
            raise UsageError("extrapolation order must be at least 1")

    def check_line(self) -> "CheckLine":
        """This line alone, without the fields a subclass adds."""
        return CheckLine(**{f.name: getattr(self, f.name) for f in fields(CheckLine)})

    def spacings(self, lengths):
        """(R, r): first check distance and spacing per patch length."""
        lengths = np.asarray(lengths, dtype=float)
        scale = np.sqrt(lengths) if self.sqrt_scaling else lengths
        return self.b * scale, self.a * scale

    def center_distance(self, lengths):
        """Distance R + r (p + 1) / 2 from the anchor to the check center."""
        ray, step = self.spacings(lengths)
        return ray + step * (self.p + 1) / 2.0

    def points(self, anchors, normals, lengths, sign: float):
        """Stacked check points (M (p + 1), 3); row target * (p + 1) + s."""
        ray, step = self.spacings(lengths)
        offs = ray[:, None] + step[:, None] * np.arange(self.p + 1)[None, :]
        pts = anchors[:, None, :] + sign * offs[:, :, None] * normals[:, None, :]
        return pts.reshape(-1, 3)


@dataclass
class EvalOptions(CheckLine):
    """The check line plus the requested evaluation accuracy."""

    eps_target: float = 1e-6


class Zone(IntEnum):
    FAR = 0
    INTERMEDIATE = 1
    NEAR = 2


@dataclass
class ZoneLabels:
    """Per-target classification; closest-point data only where zone = NEAR."""

    inside: np.ndarray  # (M,) bool
    zone: np.ndarray  # (M,) Zone values
    patch_ids: np.ndarray  # (M,), -1 when not computed
    params: np.ndarray  # (M, 2)
    distance: np.ndarray  # (M,), inf when not computed
    winding: np.ndarray  # (M,)
    # (M,) bool: the closest-point solve converged; True where none ran
    converged: np.ndarray | None = None

    def __post_init__(self):
        if self.converged is None:
            self.converged = np.ones(len(self.inside), dtype=bool)

    def __len__(self):
        return len(self.inside)

    def take(self, rows) -> "ZoneLabels":
        """The labels of the targets rows, in that order."""
        return ZoneLabels(**{f.name: getattr(self, f.name)[rows] for f in fields(self)})


def mark_points(
    targets,
    coarse_nodes: QuadratureNodeSet,
    eps_target: float,
) -> ZoneLabels:
    """Classify targets into far/intermediate/near and inside/outside.

    The generalized winding number (Laplace double layer of unit density on
    the coarse nodes) culls far-inside and outside points; remaining points
    get a closest-point query.  Points near the surface can in principle be
    mismarked by the winding cull; the near/intermediate split uses the
    patch length at the closest point, and converged records whether that
    point's Newton solve converged.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    m = len(targets)
    winding = smooth_potential(
        LAPLACE, "double", coarse_nodes, np.ones(len(coarse_nodes)), targets
    )[:, 0]
    inside = np.zeros(m, dtype=bool)
    zone = np.full(m, Zone.FAR, dtype=np.int64)
    pids = np.full(m, -1, dtype=np.int64)
    params = np.zeros((m, 2))
    dist = np.full(m, np.inf)
    converged = np.ones(m, dtype=bool)

    far_inside = np.abs(winding - 1.0) < eps_target
    outside = np.abs(winding) < eps_target
    inside[far_inside] = True
    rest = ~(far_inside | outside)
    if rest.any():
        patchset = coarse_nodes.patchset
        rp, rpar, rd, rconv = closest_point_global_bulk(patchset, targets[rest])
        rows = np.flatnonzero(rest)
        pids[rows] = rp
        params[rows] = rpar
        dist[rows] = rd
        converged[rows] = rconv
        lengths = patchset.lengths[rp]
        zone[rows[rd <= lengths]] = Zone.NEAR
        zone[rows[rd > lengths]] = Zone.INTERMEDIATE
        anchors, normals = patch_points(patchset, rp, rpar), patch_normals(patchset, rp, rpar)
        inside[rows] = np.einsum("mk,mk->m", normals, targets[rest] - anchors) < 0.0
    return ZoneLabels(
        inside=inside, zone=zone, patch_ids=pids, params=params,
        distance=dist, winding=winding, converged=converged,
    )


def surface_node_labels(nodes: QuadratureNodeSet) -> ZoneLabels:
    """Labels for on-surface targets, inside: each node anchors its own evaluation."""
    m = len(nodes)
    return ZoneLabels(
        inside=np.ones(m, dtype=bool),
        zone=np.full(m, Zone.NEAR, dtype=np.int64),
        patch_ids=nodes.patch_ids.copy(),
        params=nodes.params.copy(),
        distance=np.zeros(m),
        winding=np.full(m, 0.5),
    )


def _upsampled_limits(kernel, layer, nodes, density, fine_nodes, direct, lines, weights):
    """Fine-set sums at the points direct, and limits extrapolated on lines.

    The one path from the upsampled set to a value.  lines holds one or two
    sides, each the stacked check points (M (p + 1), 3) of the M lines that
    weights (M, p + 1) extrapolate.  The sums arrive from upsampled_blocks
    one coarse patch at a time; each block's direct rows, and its check
    rows extrapolated (two sides averaged as 0.5 (I + E)), are added into
    the columns nonzero on that patch, so no two patches' check values are
    held at once.  A column nonzero on one patch only, as one of the
    identity, gets the bits of extrapolating the full sums; others differ
    in rounding only.  Returns (sums (len(direct), d, k), limits (M, d, k)).
    """
    d = kernel.d
    part = density[0] if layer == "combined" else density
    k = density_columns(part, len(nodes), d)[0].shape[2]
    sums, limits = np.zeros((len(direct), d, k)), np.zeros((len(weights), d, k))
    # each side holds weights.size rows, one check value per weight
    starts = len(direct) + weights.size * np.arange(len(lines) + 1)
    for cols, block in upsampled_blocks(
        kernel, layer, nodes, density, fine_nodes, np.concatenate([direct, *lines])
    ):
        sums[:, :, cols] += block[: len(direct)]
        # the mean of the sides' limits, 0.5 (I + E) for two; unnamed, so the
        # last block's limits are freed before this block's are formed
        limits[:, :, cols] += sum(
            extrapolate(block[a:b], weights) for a, b in zip(starts, starts[1:])
        ) / len(lines)
    return sums, limits


def evaluate_one_sided(
    targets,
    labels: ZoneLabels,
    kernel: KernelFamily,
    density,
    coarse_nodes: QuadratureNodeSet,
    fine_nodes: QuadratureNodeSet,
    opts: EvalOptions,
    layer: str = "double",
    domain_side: str = "interior",
):
    """Zone-dispatched evaluation of a layer potential at marked targets.

    density is given at the coarse nodes, one (N, d) field ((N,) when
    d = 1) or, for layer "combined", a (single, double) pair.  Far targets
    use coarse smooth quadrature.  Intermediate targets are summed on the
    fine set, and near and on-surface targets are extrapolated from their
    check lines on the domain side, both through _upsampled_limits.
    Targets on the wrong side of the surface get value 0 and a False entry
    in the returned mask.

    Returns (values (M, d), evaluated_mask (M,)).
    """
    if domain_side not in ("interior", "exterior"):
        raise UsageError(f"domain_side must be interior or exterior, not {domain_side!r}")
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    values = np.zeros((len(targets), kernel.d))
    in_domain = labels.inside if domain_side == "interior" else ~labels.inside
    mask = in_domain.copy()

    far = np.flatnonzero((labels.zone == Zone.FAR) & in_domain)
    if len(far):
        values[far] = smooth_potential(kernel, layer, coarse_nodes, density, targets[far])
    mid = np.flatnonzero((labels.zone == Zone.INTERMEDIATE) & in_domain)
    near = np.flatnonzero((labels.zone == Zone.NEAR) & in_domain)
    if len(mid) or len(near):
        patchset = coarse_nodes.patchset
        pids = labels.patch_ids[near]
        anchors = patch_points(patchset, pids, labels.params[near])
        normals = patch_normals(patchset, pids, labels.params[near])
        lengths = patchset.lengths[pids]
        sign = -1.0 if domain_side == "interior" else 1.0
        ray, step = opts.spacings(lengths)
        t_x = (np.linalg.norm(targets[near] - anchors, axis=1) - ray) / step
        sums, limits = _upsampled_limits(
            kernel, layer, coarse_nodes, density, fine_nodes, targets[mid],
            [opts.points(anchors, normals, lengths, sign)], extrapolation_weights(opts.p, t_x),
        )
        values[mid] = sums.reshape(len(mid), kernel.d)
        values[near] = limits.reshape(len(near), kernel.d)
    return values, mask


def evaluate_two_sided(
    nodes: QuadratureNodeSet,
    kernel: KernelFamily,
    density,
    fine_nodes: QuadratureNodeSet,
    opts: EvalOptions,
    interior: bool = True,
):
    """Interior-limit operator values (1/2 I + D)[phi] at the surface nodes.

    Extrapolates the double layer to the surface from both sides, averages
    (the principal value), then adds +phi/2 for the interior limit or
    -phi/2 for the exterior one.  density is (N, d) or a block (N, d, k),
    read as N * d * k channels; the result is (N, d * k).
    """
    density = np.asarray(density, float).reshape(len(nodes), -1)
    lengths = nodes.patchset.lengths[nodes.patch_ids]
    pv = average_limits(
        nodes.positions, nodes.normals, lengths, kernel, nodes, density,
        fine_nodes, opts,
    )
    half = 0.5 if interior else -0.5
    # in row chunks: the block of the operator build is as large as pv
    for rows in chunks(len(pv), 8 * pv.shape[1]):
        pv[rows] += half * density[rows]
    return pv


def average_limits(anchors, normals, lengths, kernel, nodes, density, fine_nodes, opts):
    """Average of interior and exterior extrapolated limits (the PV).

    density is given at the coarse nodes, as (N,), (N, d), (N, d, k) or
    (N, d * k); the result is (M, d * k).  Both sides' check lines go
    through _upsampled_limits, so only the result and one coarse patch's
    check block are held at once.
    """
    lines = [opts.points(anchors, normals, lengths, sign) for sign in (-1.0, 1.0)]
    t_x = -opts.b / opts.a * np.ones(len(anchors))  # on-surface targets: |x - y*| = 0
    _, limits = _upsampled_limits(
        kernel, "double", nodes, density, fine_nodes, np.empty((0, 3)), lines,
        extrapolation_weights(opts.p, t_x),
    )
    return limits.reshape(len(anchors), -1)
