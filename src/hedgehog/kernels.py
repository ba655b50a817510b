"""Fundamental solutions and layer kernels for Laplace, Stokes and elasticity.

Sign conventions are pinned by the constant-density identity: the double
layer of a unit density over a closed surface (exterior normals) equals +1
at interior points, +1/2 on the surface (principal value) and 0 outside.
With that orientation the interior Dirichlet problem discretizes to
(1/2 I + D) phi = f, and the reconstruction identity for a field u regular
inside the surface reads  S[t] + D[u] - u = 0,  where t is the conormal
data (normal derivative for Laplace, boundary traction for the vector
kernels).
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CoincidentPointsError, UsageError

FOUR_PI = 4.0 * np.pi
INV_4PI = 1.0 / FOUR_PI


class Family(Enum):
    LAPLACE = "laplace"
    STOKES = "stokes"
    ELASTICITY = "elasticity"


@dataclass(frozen=True)
class KernelFamily:
    """PDE kernel selector with its physical parameters.

    poisson_ratio is only meaningful for elasticity and must stay strictly
    below 1/2 so the 1/(1 - 2 nu) Lame factor is finite; viscosity scales
    the Stokes and elasticity single layers.
    """

    family: Family = Family.LAPLACE
    poisson_ratio: float | None = None
    viscosity: float = 1.0

    def __post_init__(self):
        if self.family is Family.ELASTICITY:
            nu = self.poisson_ratio
            if nu is None or not (0.0 < nu < 0.5):
                raise UsageError(
                    f"elasticity needs poisson_ratio in (0, 1/2), got {nu}"
                )
        if self.viscosity <= 0.0:
            raise UsageError("viscosity must be positive")

    @property
    def value_dimension(self) -> int:
        return 1 if self.family is Family.LAPLACE else 3

    # short alias used throughout
    @property
    def d(self) -> int:
        return self.value_dimension


LAPLACE = KernelFamily(Family.LAPLACE)
STOKES = KernelFamily(Family.STOKES)


def elasticity(poisson_ratio: float, viscosity: float = 1.0) -> KernelFamily:
    return KernelFamily(Family.ELASTICITY, poisson_ratio, viscosity)


def _check_separation(rho):
    if np.any(rho == 0.0):
        raise CoincidentPointsError("kernel evaluated with source == target")


def fundamental_solution(kernel: KernelFamily, x, y) -> np.ndarray:
    """G(x, y) as a d x d matrix; x and y must be distinct points."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = x - y
    rho = np.linalg.norm(r)
    _check_separation(rho)
    if kernel.family is Family.LAPLACE:
        return np.array([[INV_4PI / rho]])
    if kernel.family is Family.STOKES:
        c = 1.0 / (8.0 * np.pi * kernel.viscosity)
        return c * (np.eye(3) / rho + np.outer(r, r) / rho**3)
    nu = kernel.poisson_ratio
    c = 1.0 / (16.0 * np.pi * kernel.viscosity * (1.0 - nu))
    return c * ((3.0 - 4.0 * nu) * np.eye(3) / rho + np.outer(r, r) / rho**3)


def single_layer_kernel(kernel: KernelFamily, x, y) -> np.ndarray:
    """The single-layer kernel is the fundamental solution itself."""
    return fundamental_solution(kernel, x, y)


def traction_kernel(kernel: KernelFamily, r, n) -> np.ndarray:
    """Traction matrix T(r, n) of a unit point force.

    r is field point minus source point and n the unit normal at the field
    point.  T @ psi gives the conormal data of the point-source field with
    strength psi: grad(G) . n for Laplace, sigma(G psi) . n for Stokes and
    elasticity.  The double-layer kernel below is -T evaluated with
    r = y - x, n = n(y).
    """
    r = np.asarray(r, dtype=float)
    n = np.asarray(n, dtype=float)
    rho = np.linalg.norm(r)
    _check_separation(rho)
    rn = float(r @ n)
    if kernel.family is Family.LAPLACE:
        return np.array([[-rn * INV_4PI / rho**3]])
    if kernel.family is Family.STOKES:
        return (-3.0 * INV_4PI) * rn * np.outer(r, r) / rho**5
    nu = kernel.poisson_ratio
    c = 1.0 / (8.0 * np.pi * (1.0 - nu) * rho**3)
    sym = (1.0 - 2.0 * nu) * (np.outer(n, r) - rn * np.eye(3) - np.outer(r, n))
    return c * (sym - 3.0 * rn * np.outer(r, r) / rho**2)


def double_layer_kernel(kernel: KernelFamily, x, y, n_y) -> np.ndarray:
    """Double-layer kernel with the +1 interior orientation (see module doc).

    The transpose of the traction kernel makes the potential a PDE solution
    in x (the reciprocity pairing); for Laplace and Stokes the traction
    kernel is symmetric so only elasticity notices.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return -traction_kernel(kernel, y - x, n_y).T


# ---------------------------------------------------------------------------
# Vectorized forms: plain numpy reference implementations used by the dense
# test oracles and by the summation backend.  targets (M, 3), sources (N, 3),
# normals (N, 3); density (N, d) -> (M, d), or a block of k densities
# (N, d, k) -> (M, d, k).  Any density with d * k values per source keeps its
# trailing shape, and a bare (N,) Laplace density gives (M, 1).  Each kernel
# is summed as (M, N) matrices multiplied into the output by GEMM: one for
# Laplace, one component K_ij per (i, j) for the vector kernels, so a block
# of k densities costs one pass over the pairs.
# ---------------------------------------------------------------------------


def density_columns(density, n, d):
    """The density as (N, d, k) and the trailing shape of its potential."""
    density = np.asarray(density, dtype=float)
    shape = density.shape[1:] or (1,)
    return density.reshape(n, d, int(np.prod(shape)) // d), shape


def _offsets(targets, sources):
    """Components r_k = y_k - x_k, (3, M, N), and 1 / |r|, (M, N)."""
    r = sources.T[:, None, :] - targets.T[:, :, None]
    inv = np.einsum("kmn,kmn->mn", r, r)
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    return r, inv


def _times_inverse_power(a, inv, k):
    """a *= inv**k in place."""
    for _ in range(k):
        a *= inv
    return a


def _sum_components(component, sigma, m, symmetric):
    """sum_j K_ij sigma_j for i, j < 3: sigma (N, 3, k) -> (M, 3, k).

    component(i, j, buf) writes the (M, N) matrix K_ij into buf; a symmetric
    kernel forms each off-diagonal pair once.
    """
    sig = np.ascontiguousarray(sigma.transpose(1, 0, 2))
    buf = np.empty((m, sig.shape[1]))
    out = np.zeros((3, m, sig.shape[2]))
    for i in range(3):
        for j in range(i if symmetric else 0, 3):
            component(i, j, buf)
            out[i] += buf @ sig[j]
            if symmetric and j != i:
                out[j] += buf @ sig[i]
    return out.transpose(1, 0, 2)


def _pair_component(weight, r, diag=None):
    """K_ij = weight r_i r_j + diag delta_ij."""

    def component(i, j, buf):
        np.multiply(weight, r[i], out=buf)
        buf *= r[j]
        if diag is not None and i == j:
            buf += diag

    return component


def apply_single_layer(kernel: KernelFamily, targets, sources, density) -> np.ndarray:
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    sources = np.atleast_2d(np.asarray(sources, dtype=float))
    m = len(targets)
    sigma, shape = density_columns(density, len(sources), kernel.d)
    r, inv = _offsets(targets, sources)
    if kernel.family is Family.LAPLACE:
        del r
        out = inv @ sigma[:, 0, :]
        out *= INV_4PI
        return out.reshape((m,) + shape)
    # K_ij = c (diag delta_ij / |r| + r_i r_j / |r|^3)
    if kernel.family is Family.STOKES:
        c = 1.0 / (8.0 * np.pi * kernel.viscosity)
        diag = 1.0
    else:
        nu = kernel.poisson_ratio
        c = 1.0 / (16.0 * np.pi * kernel.viscosity * (1.0 - nu))
        diag = 3.0 - 4.0 * nu
    inv3 = inv * inv
    inv3 *= inv
    inv *= diag
    out = _sum_components(_pair_component(inv3, r, inv), sigma, m, symmetric=True)
    out *= c
    return out.reshape((m,) + shape)


def apply_double_layer(kernel: KernelFamily, targets, sources, normals, density):
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    sources = np.atleast_2d(np.asarray(sources, dtype=float))
    normals = np.asarray(normals, dtype=float)
    m = len(targets)
    sigma, shape = density_columns(density, len(sources), kernel.d)
    # r = y - x pointing from target to source
    r, inv = _offsets(targets, sources)
    rn = np.einsum("kmn,nk->mn", r, normals)
    if kernel.family is Family.LAPLACE:
        del r
        rn *= np.power(inv, 3, out=inv)
        out = rn @ sigma[:, 0, :]
        out *= INV_4PI
        return out.reshape((m,) + shape)
    if kernel.family is Family.STOKES:
        # K_ij = 3 / (4 pi) (r . n) r_i r_j / |r|^5
        rn *= 3.0 * INV_4PI
        _times_inverse_power(rn, inv, 5)
        del inv
        out = _sum_components(_pair_component(rn, r), sigma, m, symmetric=True)
        return out.reshape((m,) + shape)
    # -(T^T psi) with T as in traction_kernel, r = y - x, n = n(y):
    # K_ij = c [(1 - 2 nu) (n_i r_j - r_i n_j + (r . n) delta_ij) / |r|^3
    #           + 3 (r . n) r_i r_j / |r|^5]
    nu = kernel.poisson_ratio
    c = 1.0 / (8.0 * np.pi * (1.0 - nu))
    inv3 = inv * inv
    inv3 *= inv
    pair = _times_inverse_power((3.0 * c) * rn * inv3, inv, 2)
    inv3 *= (1.0 - 2.0 * nu) * c
    rn *= inv3
    symmetric = _pair_component(pair, r, diag=rn)

    def component(i, j, buf):
        symmetric(i, j, buf)
        if i != j:
            buf += inv3 * (normals[:, i] * r[j] - r[i] * normals[:, j])

    out = _sum_components(component, sigma, m, symmetric=False)
    return out.reshape((m,) + shape)


def point_source_field(kernel: KernelFamily, charges, strengths, points) -> np.ndarray:
    """Field of point sources: sum_i G(x, y_i) psi_i, shape (M, d)."""
    return apply_single_layer(kernel, points, charges, strengths)


def point_source_conormal(kernel: KernelFamily, charges, strengths, points, normals):
    """Conormal data of a point-source field at surface points.

    Laplace: normal derivative of the potential; Stokes/elasticity: traction
    of the velocity/displacement field.  Shape (M, d).
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    charges = np.atleast_2d(np.asarray(charges, dtype=float))
    strengths = np.asarray(strengths, dtype=float)
    normals = np.asarray(normals, dtype=float)
    r = points[:, None, :] - charges[None, :, :]  # field - source
    rho2 = np.einsum("mik,mik->mi", r, r)
    inv = 1.0 / np.sqrt(rho2)
    rn = np.einsum("mik,mk->mi", r, normals)
    if kernel.family is Family.LAPLACE:
        out = -INV_4PI * ((rn * inv**3) @ strengths.reshape(-1))
        return out[:, None]
    rq = np.einsum("mik,ik->mi", r, strengths)
    if kernel.family is Family.STOKES:
        w = -3.0 * INV_4PI * rn * rq * inv**5
        return np.einsum("mi,mik->mk", w, r)
    nu = kernel.poisson_ratio
    c = 1.0 / (8.0 * np.pi * (1.0 - nu))
    inv3 = inv**3
    nq = np.einsum("mk,ik->mi", normals, strengths)
    out = np.einsum("mi,mk->mk", rq * inv3, normals)
    out -= np.einsum("mi,ik->mk", rn * inv3, strengths)
    out -= np.einsum("mi,mik->mk", nq * inv3, r)
    out *= 1.0 - 2.0 * nu
    out -= 3.0 * np.einsum("mi,mik->mk", rn * rq * inv**5, r)
    return c * out
