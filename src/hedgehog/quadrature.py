"""Surface discretization, layer-potential summation and density upsampling.

Nodes are tensor Clenshaw-Curtis points per patch with weights
w_hat = sqrt(g) * w_a * w_b, indexed globally patch-major: node (a, b) of
patch i has global index i * q^2 + a * q + b.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .backends import default_backend
from .chebyshev import cc_rule, chebyshev_interpolation_matrix
from .errors import DegenerateGeometryError, UsageError
from .geometry import bezier
from .geometry.patches import PatchSet
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
    positions = np.empty((npatches, q * q, 3))
    normals = np.empty((npatches, q * q, 3))
    weights = np.empty((npatches, q * q))
    for n, (idx, coeffs) in patchset.degree_groups().items():
        b0 = bezier.bernstein_matrix(n, rule.nodes)
        b1 = bezier.bernstein_matrix(n, rule.nodes, 1)
        pos = bezier.eval_grid(coeffs, b0, b0).reshape(len(idx), -1, 3)
        ps = bezier.eval_grid(coeffs, b1, b0).reshape(len(idx), -1, 3)
        pt = bezier.eval_grid(coeffs, b0, b1).reshape(len(idx), -1, 3)
        cross = np.cross(ps, pt)
        sqrtg = np.linalg.norm(cross, axis=2)
        if np.any(sqrtg <= _MIN_SQRTG):
            bad = idx[np.any(sqrtg <= _MIN_SQRTG, axis=1)]
            raise DegenerateGeometryError(
                f"zero metric determinant on patches {bad.tolist()}"
            )
        orient = np.array([patchset[i].orientation for i in idx])[:, None, None]
        positions[idx] = pos
        normals[idx] = orient * cross / sqrtg[:, :, None]
        weights[idx] = sqrtg * w2[None, :]
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
    backend=None,
):
    """Direct quadrature of the layer potential at off-surface targets.

    density has shape (N, d) or (N,), or holds k densities as (N, d, k),
    which gives d * k result columns; layer "combined" (Laplace) takes a
    (single, double) density pair and sums both layers in one sweep.
    Targets must be disjoint from the nodes.
    """
    backend = backend or default_backend()
    if layer == "combined":
        wd = (
            np.asarray(density[0], float).reshape(len(nodes), -1) * nodes.weights[:, None],
            np.asarray(density[1], float).reshape(len(nodes), -1) * nodes.weights[:, None],
        )
    else:
        wd = np.asarray(density, float).reshape(len(nodes), -1) * nodes.weights[:, None]
    return backend.potential(kernel, layer, nodes.positions, nodes.normals, wd, targets)


# ---------------------------------------------------------------------------
# Density upsampling (coarse nodes -> fine nodes)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _interp_1d(q_coarse: int, q_fine: int, depth: int, offset: int) -> np.ndarray:
    """1D Chebyshev interpolation matrix onto a dyadic subinterval's nodes."""
    h = 0.5**depth
    center = -1.0 + (2 * offset + 1) * h
    t = center + h * cc_rule(q_fine).nodes
    return chebyshev_interpolation_matrix(q_coarse, t)


def _dyadic_key(rel_cs, rel_ct, rel_h):
    depth = int(round(-np.log2(rel_h)))
    ix = int(round(((rel_cs + 1.0) / rel_h - 1.0) / 2.0))
    iy = int(round(((rel_ct + 1.0) / rel_h - 1.0) / 2.0))
    return depth, ix, iy


def _fine_lineage(coarse_nodes: QuadratureNodeSet, fine_nodes: QuadratureNodeSet):
    """Coarse ancestor and dyadic key of every fine patch."""
    fine_set = fine_nodes.patchset
    if fine_set.ancestors is None:
        raise UsageError("fine patch set carries no lineage to a coarse set")
    ancestors = np.asarray(fine_set.ancestors, dtype=np.int64)
    keys = [
        _dyadic_key(*p.domain.relative_to(coarse_nodes.patchset[int(a)].domain))
        for p, a in zip(fine_set.patches, ancestors)
    ]
    return ancestors, keys


def _upsample(values, source, keys, qc: int, qf: int) -> np.ndarray:
    """Interpolate coarse patch values (P, qc, qc, c) onto fine patches.

    Fine patch g reads coarse patch source[g] at dyadic key keys[g]; the
    result is (len(keys), qf^2, c).
    """
    groups: dict[tuple, list[int]] = {}
    for g, key in enumerate(keys):
        groups.setdefault(key, []).append(g)
    out = np.empty((len(keys), qf * qf, values.shape[-1]))
    for (depth, ix, iy), idx in groups.items():
        a_s = _interp_1d(qc, qf, depth, ix)
        a_t = _interp_1d(qc, qf, depth, iy)
        block = np.einsum("ai,gijd,bj->gabd", a_s, values[source[idx]], a_t, optimize=True)
        out[idx] = block.reshape(len(idx), qf * qf, -1)
    return out


def upsample_density(
    coarse_nodes: QuadratureNodeSet, values, fine_nodes: QuadratureNodeSet
) -> np.ndarray:
    """Interpolate per-node values from coarse patches to fine nodes.

    Uses the tensor Chebyshev interpolant of each coarse patch's q^2 nodes,
    evaluated at the fine nodes' parameters pulled back through the dyadic
    lineage; exact for tensor polynomials of degree < q.
    """
    ancestors, keys = _fine_lineage(coarse_nodes, fine_nodes)
    values = np.asarray(values, dtype=float)
    flat = values.ndim == 1
    values = values.reshape(len(coarse_nodes), -1)
    qc = coarse_nodes.q
    vals_c = values.reshape(-1, qc, qc, values.shape[1])
    out = _upsample(vals_c, ancestors, keys, qc, fine_nodes.q).reshape(-1, values.shape[1])
    return out.reshape(-1) if flat else out


def upsampled_potential(
    kernel,
    layer: str,
    nodes: QuadratureNodeSet,
    density,
    fine_nodes: QuadratureNodeSet,
    targets,
    backend=None,
):
    """Smooth quadrature on the fine set of a density given at the coarse nodes.

    Sums sum_j K(X, F_j) (W U phi)_j over the coarse patches j, where F_j
    are the fine nodes of patch j: each patch's density is upsampled onto
    its own fine nodes only, and summed only into the density columns that
    are nonzero on that patch.  The pairs are those of one sum over the
    fine set; for a block with local support, such as the identity, the
    GEMM flops drop by the number of coarse patches, and the dense fine
    copy of the block is never formed.  layer is "single" or "double";
    density is (N, d), (N, d, k) or (N, d * k) and the result keeps its
    trailing shape.  Targets must be disjoint from the fine nodes.
    """
    backend = backend or default_backend()
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    check_pairs(len(targets) * len(fine_nodes))
    ancestors, keys = _fine_lineage(nodes, fine_nodes)
    d = kernel.d
    block, shape = density_columns(density, len(nodes), d)
    out = np.zeros((len(targets), d, block.shape[2]))
    qc, qf = nodes.q, fine_nodes.q
    order = np.argsort(ancestors, kind="stable")
    bounds = np.searchsorted(ancestors[order], np.arange(len(nodes.patchset) + 1))
    for j in range(len(nodes.patchset)):
        patches = order[bounds[j] : bounds[j + 1]]
        local = block[j * qc * qc : (j + 1) * qc * qc]
        if not local.any() or not len(patches):
            continue
        cols = nonzero_columns(local)
        fine = _upsample(
            local[:, :, cols].reshape(1, qc, qc, -1),
            np.zeros(len(patches), dtype=np.int64),
            [keys[g] for g in patches],
            qc,
            qf,
        )
        rows = (patches[:, None] * (qf * qf) + np.arange(qf * qf)).ravel()
        fine = fine.reshape(len(rows), d, -1) * fine_nodes.weights[rows, None, None]
        out[:, :, cols] += backend.potential(
            kernel, layer, fine_nodes.positions[rows], fine_nodes.normals[rows], fine, targets
        )
    return out.reshape((len(targets),) + shape)


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
