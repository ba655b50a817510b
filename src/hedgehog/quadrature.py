"""Surface discretization, layer-potential summation and density upsampling.

Nodes are tensor Clenshaw-Curtis points per patch with weights
w_hat = sqrt(g) * w_a * w_b, indexed globally patch-major: node (a, b) of
patch i has global index i * q^2 + a * q + b.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .backends import default_backend
from .chebyshev import cc_rule, chebyshev_interpolation_matrix
from .errors import DegenerateGeometryError, UsageError
from .geometry import bezier
from .geometry.patches import PatchSet, dyadic_points
from .kernels import check_pairs, density_columns, nonzero_columns

_MIN_SQRTG = 1e-300


@dataclass
class QuadratureNodeSet:
    """Globally indexed surface quadrature nodes for one patch set."""

    positions: np.ndarray  # (N, 3)
    normals: np.ndarray  # (N, 3)
    weights: np.ndarray  # (N,)
    params: np.ndarray  # (N, 2), (s, t) in the owning patch frame
    patch_ids: np.ndarray  # (N,)
    q: int
    patchset: PatchSet
    # (coarse node set, its per-patch upsampling onto these nodes), see _upsampling
    _upsampling: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self):
        return len(self.weights)

    @property
    def area(self) -> float:
        return float(self.weights.sum())


def discretize(patchset: PatchSet, q: int) -> QuadratureNodeSet:
    """Tensor Clenshaw-Curtis discretization: q^2 nodes per patch."""
    rule = cc_rule(q)
    w2 = np.outer(rule.weights, rule.weights).ravel()
    npatches = len(patchset)
    b0 = bezier.bernstein_matrix(patchset.degree, rule.nodes)
    b1 = bezier.bernstein_matrix(patchset.degree, rule.nodes, 1)
    positions = bezier.eval_grid(patchset.coeffs, b0, b0).reshape(npatches, -1, 3)
    ps = bezier.eval_grid(patchset.coeffs, b1, b0).reshape(npatches, -1, 3)
    pt = bezier.eval_grid(patchset.coeffs, b0, b1).reshape(npatches, -1, 3)
    cross = np.cross(ps, pt)
    sqrtg = np.linalg.norm(cross, axis=2)
    if np.any(sqrtg <= _MIN_SQRTG):
        bad = np.flatnonzero(np.any(sqrtg <= _MIN_SQRTG, axis=1))
        raise DegenerateGeometryError(f"zero metric determinant on patches {bad.tolist()}")
    normals = patchset.orientation * cross / sqrtg[:, :, None]
    weights = sqrtg * w2[None, :]
    ss, tt = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
    params = np.tile(
        np.stack([ss.ravel(), tt.ravel()], axis=1), (npatches, 1)
    )
    return QuadratureNodeSet(
        positions=positions.reshape(-1, 3),
        normals=normals.reshape(-1, 3),
        weights=weights.reshape(-1),
        params=params,
        patch_ids=np.repeat(np.arange(npatches), q * q),
        q=q,
        patchset=patchset,
    )


def smooth_potential(
    kernel,
    layer: str,
    nodes: QuadratureNodeSet,
    density,
    targets,
):
    """Direct quadrature of the layer potential at off-surface targets.

    Sums over the node set as given, with the density at those nodes: the
    coarse far-field sum and the winding number.  A density given at the
    coarse nodes and summed on the upsampled set goes through
    upsampled_blocks instead.  density has shape (N, d) or (N,), or
    holds k densities as (N, d, k), which gives d * k result columns; layer
    "combined" takes a (single, double) density pair and sums both
    layers in one sweep.  Targets must be disjoint from the nodes.
    """
    if layer == "combined":
        wd = (
            np.asarray(density[0], float).reshape(len(nodes), -1) * nodes.weights[:, None],
            np.asarray(density[1], float).reshape(len(nodes), -1) * nodes.weights[:, None],
        )
    else:
        wd = np.asarray(density, float).reshape(len(nodes), -1) * nodes.weights[:, None]
    return default_backend().potential(
        kernel, layer, nodes.positions, nodes.normals, wd, targets
    )


# ---------------------------------------------------------------------------
# Density upsampling (coarse nodes -> fine nodes)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _interp_1d(q_coarse: int, q_fine: int, depth: int, offset: int) -> np.ndarray:
    """1D Chebyshev interpolation matrix onto a dyadic subinterval's nodes."""
    return chebyshev_interpolation_matrix(
        q_coarse, dyadic_points(depth, offset, cc_rule(q_fine).nodes)
    )


def _upsampling(coarse_nodes: QuadratureNodeSet, fine_nodes: QuadratureNodeSet):
    """Per coarse patch j: (rows, U_j), U_j (len(rows), q_c^2) interpolating
    its node values onto its own fine nodes fine_nodes[rows], a slice.

    U_j stacks kron(A_s, A_t) of the cached 1D factors over the fine patches
    that descend from j.  Built once per (coarse, fine) pair of node sets and
    cached on the fine set; coarse patches refined alike, as all of them in
    a uniform set, share one matrix.
    """
    cached = fine_nodes._upsampling
    if cached is not None and cached[0] is coarse_nodes:
        return cached[1]
    ancestors = fine_nodes.patchset.ancestors
    if ancestors is None:
        raise UsageError("fine patch set carries no lineage to a coarse set")
    if np.any(np.diff(ancestors) < 0):
        raise UsageError("fine patches are not grouped by coarse ancestor")
    qc, qf = coarse_nodes.q, fine_nodes.q
    bounds = np.searchsorted(ancestors, np.arange(len(coarse_nodes.patchset) + 1))
    matrices, shared = [], {}
    for j, coarse in enumerate(coarse_nodes.patchset):
        lo, hi = int(bounds[j]), int(bounds[j + 1])
        base = coarse.domain
        keys = []
        for fine in fine_nodes.patchset.patches[lo:hi]:
            # the fine patch's dyadic square, keyed inside patch j's square
            dom = fine.domain
            k = dom.depth - base.depth
            keys.append((k, dom.ix - (base.ix << k), dom.iy - (base.iy << k)))
        keys = tuple(keys)
        if keys not in shared:
            shared[keys] = np.concatenate(
                [np.empty((0, qc * qc))]
                + [np.kron(_interp_1d(qc, qf, k, ix), _interp_1d(qc, qf, k, iy)) for k, ix, iy in keys]
            )
        matrices.append((slice(lo * qf * qf, hi * qf * qf), shared[keys]))
    fine_nodes._upsampling = (coarse_nodes, matrices)
    return matrices


def upsample_density(
    coarse_nodes: QuadratureNodeSet, values, fine_nodes: QuadratureNodeSet
) -> np.ndarray:
    """Interpolate per-node values from coarse patches to fine nodes.

    Uses the tensor Chebyshev interpolant of each coarse patch's q^2 nodes,
    evaluated at the fine nodes' parameters pulled back through the dyadic
    lineage; exact for tensor polynomials of degree < q.  One GEMM per
    coarse patch, with the matrices upsampled_blocks uses.
    """
    matrices = _upsampling(coarse_nodes, fine_nodes)
    values = np.asarray(values, dtype=float)
    flat = values.ndim == 1
    values = values.reshape(len(coarse_nodes), -1)
    qq = coarse_nodes.q**2
    out = np.empty((len(fine_nodes), values.shape[1]))
    for j, (rows, up) in enumerate(matrices):
        out[rows] = up @ values[j * qq : (j + 1) * qq]
    return out.reshape(-1) if flat else out


def upsampled_blocks(
    kernel,
    layer: str,
    nodes: QuadratureNodeSet,
    density,
    fine_nodes: QuadratureNodeSet,
    targets,
):
    """Smooth quadrature on the fine set of a density given at the coarse
    nodes, as its terms K(X, F_j) (W U_j phi_j), one coarse patch j at a time.

    The one sum over an upsampled set.  F_j are patch j's fine nodes, U_j
    the cached interpolation onto them and W their weights, so each patch's
    density is upsampled by one GEMM onto its own fine nodes, and the dense
    fine copy of a block with local support, as the identity, is never
    formed.  density is (N,), (N, d), (N, d, k) or (N, d * k); layer
    "combined" takes a (single, double) pair of one shape and sums both in
    one backend call.  Yields (cols, block) for each patch on which the
    density is nonzero: block (M, d, len(cols)) in the density columns cols
    nonzero on patch j.  The blocks share one buffer, so each is valid only
    until the next.  Targets must be disjoint from the fine nodes.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    check_pairs(len(targets) * len(fine_nodes))
    matrices = _upsampling(nodes, fine_nodes)
    d = kernel.d
    parts = density if layer == "combined" else (density,)
    blocks = [density_columns(part, len(nodes), d)[0] for part in parts]
    qq = nodes.q**2
    buffer = np.empty(0)
    for j, (rows, up) in enumerate(matrices):
        local = [block[j * qq : (j + 1) * qq] for block in blocks]
        if not len(up) or not any(part.any() for part in local):
            continue
        cols = nonzero_columns(np.stack(local))
        weighted = []
        for part in local:
            fine = up @ part[:, :, cols].reshape(qq, -1)
            fine *= fine_nodes.weights[rows, None]
            weighted.append(fine.reshape(len(up), d, -1))
        shape = (len(targets),) + weighted[0].shape[1:]
        size = math.prod(shape)
        if buffer.size < size:
            buffer = np.empty(size)
        yield cols, default_backend().potential(
            kernel, layer, fine_nodes.positions[rows], fine_nodes.normals[rows],
            tuple(weighted) if layer == "combined" else weighted[0], targets,
            out=buffer[:size].reshape(shape),
        )


def quadrature_error_heuristic(h: float, k: int, q: int, variation: float) -> float:
    """Diagnostic bound on the tensor Clenshaw-Curtis remainder.

    h is the half-width of the patch domain, k the smoothness order and
    variation the caller-supplied derivative-variation bound.
    """
    if k >= 2 * q + 1:
        raise UsageError("heuristic requires k < 2q + 1")
    if k < 1:
        raise UsageError("heuristic requires k >= 1")
    return 128.0 * h ** (k + 1) * variation / (15.0 * np.pi * k * (2 * q + 1 - k) ** k)
