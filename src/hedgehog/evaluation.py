"""Singular/near-singular evaluation by off-surface extrapolation.

Near-surface potentials are computed at p + 1 collinear check points placed
along the surface normal at the target's closest surface point, using smooth
quadrature on the upsampled patch set, then extrapolated back to the target
with the first-kind barycentric formula.  Far and intermediate targets
dispatch to plain smooth quadrature on the coarse and fine sets.
"""

from dataclasses import dataclass, fields
from enum import IntEnum

import numpy as np

from .backends import default_backend
from .chebyshev import extrapolation_weights
from .errors import UsageError
from .geometry.patches import PatchSet
from .geometry.patches import evaluate as patch_evaluate
from .geometry.patches import normal as patch_normal
from .kernels import LAPLACE, KernelFamily
from .quadrature import QuadratureNodeSet, smooth_potential, upsample_density
from .spatial import closest_point_global_bulk


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
    eps_opt: float = 1e-14

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

    def __len__(self):
        return len(self.inside)


def mark_points(
    targets,
    coarse_nodes: QuadratureNodeSet,
    eps_target: float,
    backend=None,
) -> ZoneLabels:
    """Classify targets into far/intermediate/near and inside/outside.

    The generalized winding number (Laplace double layer of unit density on
    the coarse nodes) culls far-inside and outside points; remaining points
    get a closest-point query.  Points near the surface can in principle be
    mismarked by the winding cull; the near/intermediate split uses the
    patch length at the closest point.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    m = len(targets)
    backend = backend or default_backend()
    winding = smooth_potential(
        LAPLACE, "double", coarse_nodes, np.ones(len(coarse_nodes)), targets, backend
    )[:, 0]
    inside = np.zeros(m, dtype=bool)
    zone = np.full(m, Zone.FAR, dtype=np.int64)
    pids = np.full(m, -1, dtype=np.int64)
    params = np.zeros((m, 2))
    dist = np.full(m, np.inf)

    far_inside = np.abs(winding - 1.0) < eps_target
    outside = np.abs(winding) < eps_target
    inside[far_inside] = True
    rest = ~(far_inside | outside)
    if rest.any():
        patchset = coarse_nodes.patchset
        rp, rpar, rd = closest_point_global_bulk(patchset, targets[rest])
        rows = np.flatnonzero(rest)
        pids[rows] = rp
        params[rows] = rpar
        dist[rows] = rd
        lengths = patchset.lengths[rp]
        zone[rows[rd <= lengths]] = Zone.NEAR
        zone[rows[rd > lengths]] = Zone.INTERMEDIATE
        anchors, normals = _surface_frames(patchset, rp, rpar)
        inside[rows] = np.einsum("mk,mk->m", normals, targets[rest] - anchors) < 0.0
    return ZoneLabels(
        inside=inside, zone=zone, patch_ids=pids, params=params,
        distance=dist, winding=winding,
    )


def surface_node_labels(nodes: QuadratureNodeSet, inside: bool = True) -> ZoneLabels:
    """Labels for on-surface targets: each node anchors its own evaluation."""
    m = len(nodes)
    return ZoneLabels(
        inside=np.full(m, inside),
        zone=np.full(m, Zone.NEAR, dtype=np.int64),
        patch_ids=nodes.patch_ids.copy(),
        params=nodes.params.copy(),
        distance=np.zeros(m),
        winding=np.full(m, 0.5),
    )


def _surface_frames(patchset: PatchSet, pids, params):
    """Surface points and unit normals at (patch id, params) pairs.

    One batched evaluation per distinct patch.
    """
    anchors = np.empty((len(pids), 3))
    normals = np.empty((len(pids), 3))
    for pid in np.unique(pids):
        ks = np.flatnonzero(pids == pid)
        patch = patchset[pid]
        anchors[ks] = patch_evaluate(patch, params[ks, 0], params[ks, 1])
        normals[ks] = patch_normal(patch, params[ks, 0], params[ks, 1])
    return anchors, normals


def _extrapolate_rows(values, t_x, p):
    """Extrapolate stacked check values: values (M*(p+1), d), t_x (M,).

    The contraction runs in long double; the cardinal weights are large and
    alternating, and the cancellation noise would otherwise cap the scheme
    near 1e-11.
    """
    d = values.shape[1]
    vals = values.reshape(-1, p + 1, d).astype(np.longdouble)
    w = extrapolation_weights(p, np.asarray(t_x, dtype=float))
    return np.einsum("ms,msd->md", w, vals).astype(float)


def evaluate_one_sided(
    targets,
    labels: ZoneLabels,
    kernel: KernelFamily,
    density,
    coarse_nodes: QuadratureNodeSet,
    fine_nodes: QuadratureNodeSet,
    opts: EvalOptions,
    backend=None,
    layer: str = "double",
    domain_side: str = "interior",
):
    """Zone-dispatched evaluation of a layer potential at marked targets.

    Far targets use coarse smooth quadrature, intermediate targets the fine
    (upsampled) quadrature, near/on-surface targets the extrapolated
    evaluation with the limit taken from the domain side.  Targets on the
    wrong side of the surface get value 0 and a False entry in the returned
    mask.

    Returns (values (M, d), evaluated_mask (M,)).
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    backend = backend or default_backend()
    m = len(targets)
    d = kernel.d
    values = np.zeros((m, d))
    in_domain = labels.inside if domain_side == "interior" else ~labels.inside
    mask = in_domain.copy()

    if layer == "combined":
        density = (
            np.asarray(density[0], float).reshape(len(coarse_nodes), -1),
            np.asarray(density[1], float).reshape(len(coarse_nodes), -1),
        )
        fine_density = (
            upsample_density(coarse_nodes, density[0], fine_nodes),
            upsample_density(coarse_nodes, density[1], fine_nodes),
        )
    else:
        density = np.asarray(density, float).reshape(len(coarse_nodes), -1)
        fine_density = upsample_density(coarse_nodes, density, fine_nodes)

    far = np.flatnonzero((labels.zone == Zone.FAR) & in_domain)
    if len(far):
        values[far] = smooth_potential(
            kernel, layer, coarse_nodes, density, targets[far], backend
        )
    mid = np.flatnonzero((labels.zone == Zone.INTERMEDIATE) & in_domain)
    if len(mid):
        values[mid] = smooth_potential(
            kernel, layer, fine_nodes, fine_density, targets[mid], backend
        )
    near = np.flatnonzero((labels.zone == Zone.NEAR) & in_domain)
    if len(near):
        patchset = coarse_nodes.patchset
        pids = labels.patch_ids[near]
        anchors, normals = _surface_frames(patchset, pids, labels.params[near])
        lengths = patchset.lengths[pids]
        sign = -1.0 if domain_side == "interior" else 1.0
        pts = opts.points(anchors, normals, lengths, sign)
        cvals = smooth_potential(kernel, layer, fine_nodes, fine_density, pts, backend)
        ray, step = opts.spacings(lengths)
        t_x = (np.linalg.norm(targets[near] - anchors, axis=1) - ray) / step
        values[near] = _extrapolate_rows(cvals, t_x, opts.p)
    return values, mask


def evaluate_two_sided(
    nodes: QuadratureNodeSet,
    kernel: KernelFamily,
    density,
    fine_nodes: QuadratureNodeSet,
    opts: EvalOptions,
    backend=None,
    interior: bool = True,
):
    """Interior-limit operator values (1/2 I + D)[phi] at the surface nodes.

    Extrapolates the double layer to the surface from both sides, averages
    (the principal value), then adds +phi/2 for the interior limit or
    -phi/2 for the exterior one.  density is (N, d) or a block (N, d, k),
    read as N * d * k channels; the result is (N, d * k).
    """
    backend = backend or default_backend()
    density = np.asarray(density, float).reshape(len(nodes), -1)
    fine_density = upsample_density(nodes, density, fine_nodes)
    lengths = nodes.patchset.lengths[nodes.patch_ids]
    pv = average_limits(
        nodes.positions, nodes.normals, lengths, kernel, fine_nodes,
        fine_density, opts, backend,
    )
    pv += (0.5 if interior else -0.5) * density
    return pv


def average_limits(
    anchors, normals, lengths, kernel, fine_nodes, fine_density, opts, backend=None
):
    """Average of interior and exterior extrapolated limits (the PV).

    fine_density is (N_fine, c): d values for each of k densities.
    """
    backend = backend or default_backend()
    m = len(anchors)
    both = np.concatenate(
        [
            opts.points(anchors, normals, lengths, -1.0),
            opts.points(anchors, normals, lengths, +1.0),
        ]
    )
    cvals = smooth_potential(kernel, "double", fine_nodes, fine_density, both, backend)
    t_x = -opts.b / opts.a * np.ones(m)  # on-surface targets: |x - y*| = 0
    interior = _extrapolate_rows(cvals[: m * (opts.p + 1)], t_x, opts.p)
    exterior = _extrapolate_rows(cvals[m * (opts.p + 1) :], t_x, opts.p)
    return 0.5 * (interior + exterior)


def read_targets(path) -> np.ndarray:
    """Read target points from a text file with `x y z` lines."""
    pts = np.loadtxt(path, ndmin=2)
    if pts.shape[1] != 3:
        raise UsageError("target files carry three columns: x y z")
    return pts


def write_target_values(path, targets, labels: ZoneLabels, values):
    """Write `x y z inside zone v_1..v_d` lines."""
    zone_names = {Zone.FAR: "far", Zone.INTERMEDIATE: "intermediate", Zone.NEAR: "near"}
    values = np.atleast_2d(values)
    with open(path, "w") as fh:
        for j, (x, y, z) in enumerate(np.atleast_2d(targets)):
            vals = " ".join(f"{v:.17g}" for v in values[j])
            fh.write(
                f"{x:.17g} {y:.17g} {z:.17g} "
                f"{int(labels.inside[j])} {zone_names[Zone(labels.zone[j])]} {vals}\n"
            )
