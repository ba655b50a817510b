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


def upsample_density(
    coarse_nodes: QuadratureNodeSet, values, fine_nodes: QuadratureNodeSet
) -> np.ndarray:
    """Interpolate per-node values from coarse patches to fine nodes.

    Uses the tensor Chebyshev interpolant of each coarse patch's q^2 nodes,
    evaluated at the fine nodes' parameters pulled back through the dyadic
    lineage; exact for tensor polynomials of degree < q.
    """
    fine_set = fine_nodes.patchset
    if fine_set.ancestors is None:
        raise UsageError("fine patch set carries no lineage to a coarse set")
    values = np.asarray(values, dtype=float)
    flat = values.ndim == 1
    values = values.reshape(len(coarse_nodes), -1)
    d = values.shape[1]
    qc, qf = coarse_nodes.q, fine_nodes.q
    vals_c = values.reshape(len(coarse_nodes.patchset), qc, qc, d)

    out = np.empty((len(fine_set), qf * qf, d))
    groups: dict[tuple, list[int]] = {}
    for i, p in enumerate(fine_set.patches):
        anc = int(fine_set.ancestors[i])
        rel = p.domain.relative_to(coarse_nodes.patchset[anc].domain)
        groups.setdefault(_dyadic_key(*rel), []).append(i)

    for (depth, ix, iy), idx in groups.items():
        a_s = _interp_1d(qc, qf, depth, ix)
        a_t = _interp_1d(qc, qf, depth, iy)
        anc = fine_set.ancestors[np.asarray(idx)]
        block = np.einsum(
            "ai,gijd,bj->gabd", a_s, vals_c[anc], a_t, optimize=True
        )
        out[np.asarray(idx)] = block.reshape(len(idx), -1, d)

    out = out.reshape(-1, d)
    return out.reshape(-1) if flat else out


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
