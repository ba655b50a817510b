"""Fundamental solutions and layer kernels for Laplace, Stokes and elasticity.

Sign conventions are pinned by the constant-density identity: the double
layer of a unit density over a closed surface (exterior normals) equals +1
at interior points, +1/2 on the surface (principal value) and 0 outside.
With that orientation the interior Dirichlet problem discretizes to
(1/2 I + D) phi = f, and the reconstruction identity for a field u regular
inside the surface reads  S[t] + D[u] - u = 0,  where t is the conormal
data (normal derivative for Laplace, boundary traction for the vector
kernels).

The direct sums (apply_single_layer, apply_double_layer, apply_combined and
the point-source fields) run over tiles of (target, source) pairs whose
temporaries stay within spatial.CHUNK_BYTES and can come from a workspace
that outlives one sum, and each refuses more than PAIR_BUDGET pairs with a
UsageError.
"""

import math
import threading
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CoincidentPointsError, UsageError
from . import spatial

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
    def d(self) -> int:
        """Components of the kernel's values: 1 for Laplace, 3 otherwise."""
        return 1 if self.family is Family.LAPLACE else 3


LAPLACE = KernelFamily(Family.LAPLACE)
STOKES = KernelFamily(Family.STOKES)


def elasticity(poisson_ratio: float) -> KernelFamily:
    return KernelFamily(Family.ELASTICITY, poisson_ratio)


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
# Direct sums.  targets (M, 3), sources (N, 3), normals (N, 3); density (N, d)
# -> (M, d), or a block of k densities (N, d, k) -> (M, d, k).  Any density
# with d * k values per source keeps its trailing shape, and a bare (N,)
# Laplace density gives (M, 1).  A sum runs over tiles of m targets by n
# sources (equal row chunks over all sources unless the sources are many)
# whose (m, n) temporaries stay within spatial.CHUNK_BYTES, so no
# (3, M, N) offsets are ever formed.  Per tile, |r|^2 and r . n are GEMMs
# in coordinates centred on the tile's targets.  Laplace multiplies its one
# (m, n) kernel matrix into the density by GEMM.  Its double layer forms
# (r . n) / |r|^3 from |r|^2 as (r . n) / (sqrt(|r|^2) |r|^2), with no
# 1 / |r|.  The sums that need 1 / |r|, the single layers and the vector
# kernels, form it once per tile in place of |r|^2, so apply_combined sums
# the double layer first, and no tile holds both.  The vector kernels form
# one (m, n) matrix per output component, M_i = w r_i with r_i = y_i - x_i
# an exact difference, and move the second factor r_j to the source side:
#     sum_n w r_i r_j sigma_j = M_i @ (y_j sigma_j) - x_j (M_i @ sigma_j)
# in the tile-centred coordinates.  Each density value array V thus enters
# one right-hand block [V, y_0 V, y_1 V, y_2 V], shared by the components
# whose values are equal (all three, for the identity block of the operator
# build), and each tile does one GEMM per output component.  The single
# layer's delta_ij / |r| term multiplies the same arrays V by 1 / |r|; the
# elasticity double layer's delta_ij and skew terms, u r_a n_b with
# u = (1 - 2 nu) c / |r|^3, take three more matrices u r_a against
# [n_0 V, n_1 V, n_2 V], or against V with n per target for the conormal.
# A block of k densities costs one pass over the pairs.  A sum of more than
# PAIR_BUDGET pairs is refused before it starts.  The tiles' (m, n) and
# (m, k) temporaries are views of a Workspace that grows to the largest
# tile.  A caller that sums again and again, as backends.DirectBackend does,
# passes its own, kept between sums, so that the tiles of successive sums
# reuse the same memory instead of mapping and page-faulting new arrays;
# other sums free theirs when they end.  Each tile adds into the rows of the
# (M, d, k) result in place, which a caller may pass as out to have it
# reused too.
# ---------------------------------------------------------------------------

PAIR_BUDGET = 1e9  # pairs one operation may sum: about 25 s at 4e7 pairs/s
_ROW_ARRAYS = 12  # (m, n) float temporaries one tile holds at most
_COINCIDENT = 16.0 * np.finfo(float).eps  # |r|^2 rounding per unit |x|^2 + |y|^2


def check_pairs(pairs) -> None:
    """Refuse a sum over more than PAIR_BUDGET (target, source) pairs."""
    if pairs > PAIR_BUDGET:
        raise UsageError(
            f"a direct sum over {pairs:.3g} pairs exceeds the budget of "
            f"{PAIR_BUDGET:.3g} pairs"
        )


def density_columns(density, n, d):
    """The density as (N, d, k) and the trailing shape of its potential."""
    density = np.asarray(density, dtype=float)
    shape = density.shape[1:] or (1,)
    return density.reshape(n, d, int(np.prod(shape)) // d), shape


class Workspace(threading.local):
    """Tile temporaries of direct sums, kept between the sums given it.

    take(name, shape) returns a C-contiguous float view of slot name, which
    grows to the largest array asked of it; each thread sees its own slots.
    Arrays that one tile reads at the same time take distinct names, and a
    taker writes its whole view before reading it, so nothing stale is read.
    Successive tiles and sums thus reuse one set of arrays instead of
    mapping and page-faulting fresh memory for each tile.
    """

    def __init__(self):
        self.slots = {}

    def take(self, name, shape) -> np.ndarray:
        size = math.prod(shape)
        slot = self.slots.get(name)
        if slot is None or slot.size < size:
            slot = self.slots[name] = np.empty(size)
        return slot[:size].reshape(shape)


class _Pairs:
    """Geometry of one tile: targets x = targets[rows] against sources
    y = sources[cols], with the workspace ws its temporaries come from.

    r = y - x.  |r|^2 and the projections r . v are GEMMs in coordinates
    centred on the targets' mean, so their rounding scales with the
    distances from the tile, not with the coordinates' magnitude.
    """

    def __init__(self, targets, sources, rows, cols, ws):
        x, y = targets[rows], sources[cols]
        self.rows, self.cols, self.x, self.y, self.ws = rows, cols, x, y, ws
        centre = x.mean(axis=0)
        self.xc, self.yc = x - centre, y - centre
        xx = np.einsum("ik,ik->i", self.xc, self.xc)
        yy = np.einsum("ik,ik->i", self.yc, self.yc)
        rho2 = np.matmul(
            np.column_stack([-2.0 * self.xc, xx, np.ones(len(x))]),
            np.column_stack([self.yc, np.ones(len(y)), yy]).T,
            out=ws.take("rho2", (len(x), len(y))),
        )
        # a coincident pair leaves |r|^2 at the rounding level of |x|^2 + |y|^2
        if rho2.min() <= _COINCIDENT * (xx.max() + yy.max()) and np.any(
            rho2 <= _COINCIDENT * (xx[:, None] + yy[None, :])
        ):
            raise CoincidentPointsError("kernel evaluated with source == target")
        self.rho2, self._inv = rho2, None

    def inv(self) -> np.ndarray:
        """1 / |r|, (m, n), formed on first use in place of |r|^2, which
        is then gone: a sum that reads |r|^2 runs before any that reads
        this."""
        if self._inv is None:
            self._inv = np.sqrt(self.rho2, out=self.rho2)
            np.divide(1.0, self._inv, out=self._inv)
            self.rho2 = None
        return self._inv

    def take(self, name, k=None) -> np.ndarray:
        """A workspace array of the tile's shape (m, n), or (m, k)."""
        return self.ws.take(name, (len(self.x), len(self.y) if k is None else k))

    def dot_sources(self, v):
        """r . v for one vector per source, v = vectors[cols] (n, 3)."""
        yv = np.einsum("nk,nk->n", self.yc, v)
        return np.matmul(
            np.column_stack([-self.xc, np.ones(len(self.xc))]),
            np.column_stack([v, yv]).T,
            out=self.take("dot"),
        )

    def dot_targets(self, v):
        """r . v for one vector per target, v = vectors[rows] (m, 3)."""
        xv = np.einsum("mk,mk->m", self.xc, v)
        return np.matmul(
            np.column_stack([v, -xv]),
            np.column_stack([self.yc, np.ones(len(self.yc))]).T,
            out=self.take("dot"),
        )

    def product(self, scale, weight, values):
        """scale (weight @ values), (m, k), in the workspace."""
        out = np.matmul(weight, values, out=self.take("term", values.shape[1]))
        out *= scale
        return out

    def weighted_r(self, weight, values, factors):
        """Products (weight r_a) @ (f V) for a < 3, f in factors, V in values.

        weight is (m, n); each factor is (n,) per source, or None for 1.
        Returns get(a, g, f) -> the (m, k_g) product of M_a = weight r_a
        with factors[f] times values[g]: one GEMM per a over every block.
        """
        starts = np.cumsum([0] + [len(factors) * v.shape[1] for v in values])
        rhs = self.ws.take("rhs", (len(self.y), int(starts[-1])))
        at = 0
        for v in values:
            for f in factors:
                block = rhs[:, at : at + v.shape[1]]
                if f is None:
                    block[...] = v
                else:
                    np.multiply(f[:, None], v, out=block)
                at += v.shape[1]
        x, y = self.x.T.copy(), self.y.T.copy()
        buf = self.take("r")
        products = []
        for a in range(3):
            np.subtract(y[a], x[a, :, None], out=buf)
            buf *= weight
            products.append(np.matmul(buf, rhs, out=self.take(("products", a), rhs.shape[1])))

        def get(a, g, f):
            k = values[g].shape[1]
            return products[a][:, starts[g] + f * k : starts[g] + (f + 1) * k]

        return get


def _tiles(m, n):
    """(rows, cols) tiles of the (m, n) pairs whose temporaries fit CHUNK_BYTES.

    A row chunk spans every source while it holds at least as many rows as
    the side of a square tile; with more sources than that, the sources
    split into equal blocks no wider than the side, so that each tile's
    per-source set-up is shared by that many rows.  The rows split into
    equal blocks too, as few as fit, so that the tiles' (m, k) temporaries
    are no taller than they need to be.
    """
    side = max(1, math.isqrt(spatial.CHUNK_BYTES // (8 * _ROW_ARRAYS)))
    width = math.ceil(n / math.ceil(n / side))
    cols = [slice(start, min(start + width, n)) for start in range(0, n, width)]
    step = max(1, spatial.CHUNK_BYTES // (8 * _ROW_ARRAYS * width))
    height = math.ceil(m / math.ceil(m / step)) if m else 1
    rows = [slice(start, min(start + height, m)) for start in range(0, m, height)]
    return [(r, c) for r in rows for c in cols]


def _direct_sum(kernel, targets, sources, densities, add, out=None, workspace=None):
    """Sum over the sources, one tile of pairs at a time.

    densities hold d * k values per source each, all of one shape.
    add(pairs, sigs, acc) adds a tile's sum into acc (d, m, k), the rows of
    the tile's targets, with each density given as its _components on the
    tile's sources.  The sum is written into out when it is given, a
    C-contiguous array of the result's shape, and into a new array if not.
    The tiles' temporaries come from workspace, or from one that lives only
    as long as this sum.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    sources = np.atleast_2d(np.asarray(sources, dtype=float))
    m, n, d = len(targets), len(sources), kernel.d
    check_pairs(m * n)
    blocks, shapes = zip(*(density_columns(s, n, d) for s in densities))
    sigs = [_components(b) for b in blocks]
    shape = (m,) + shapes[0]
    if out is None:
        out = np.zeros(shape)
    elif out.shape != shape or out.dtype != float or not out.flags.c_contiguous:
        raise UsageError(f"out must be a C-contiguous float array of shape {shape}")
    else:
        out.fill(0.0)
    acc = out.reshape(m, d, blocks[0].shape[2])
    workspace = Workspace() if workspace is None else workspace
    if n:
        for rows, cols in _tiles(m, n):
            tile = [(parts, [v[cols] for v in values]) for parts, values in sigs]
            g = _Pairs(targets, sources, rows, cols, workspace)
            add(g, tile, acc[rows].transpose(1, 0, 2))
    return out


def nonzero_columns(a):
    """The columns of a (N, ..., k) with a nonzero entry.

    Evenly spaced columns, as all of them or those of one component of an
    identity block, come back as a slice, so that selecting them and adding
    into them works on views; others as an index array.
    """
    cols = np.flatnonzero(a.reshape(-1, a.shape[-1]).any(axis=0))
    if len(cols) == 1:
        return slice(cols[0], cols[0] + 1)
    if len(cols) and np.all(np.diff(cols) == cols[1] - cols[0]):
        return slice(cols[0], cols[-1] + 1, cols[1] - cols[0])
    return cols


def _components(block):
    """A density block (N, d, k) as ([(columns, group)] per component, values).

    columns selects the densities whose component j is nonzero, so a block
    with local support, such as the identity, multiplies no zeros; values
    holds the distinct value arrays (N, k_j) that those columns select, and
    group is the index of component j's array.  Components with equal
    values, as the three of an identity block, share one array.
    """
    parts, values = [], []
    for j in range(block.shape[1]):
        cols = nonzero_columns(block[:, j, :])
        v = block[:, j, cols]
        g = next(
            (g for g, u in enumerate(values) if u.shape == v.shape and np.array_equal(u, v)),
            len(values),
        )
        if g == len(values):
            values.append(np.ascontiguousarray(v))
        parts.append((cols, g))
    return parts, values


def _pair_term(g, weight, sig, acc):
    """acc_i += sum_j sum over the sources of weight r_i r_j sigma_j, for a
    vector kernel; sig is (parts, values) as _components gives them.

    r_j = y_j - x_j splits over the tile-centred coordinates: the y_j
    factor goes with the values, the x_j factor scales the rows.
    """
    parts, values = sig
    get = g.weighted_r(weight, values, (None, *g.yc.T))
    for i in range(3):
        for j, (cols, grp) in enumerate(parts):
            term = g.take("term", values[grp].shape[1])
            np.multiply(g.xc[:, j, None], get(i, grp, 0), out=term)
            np.subtract(get(i, grp, 1 + j), term, out=term)
            acc[i][:, cols] += term


def _add_by_group(parts, grp, term, acc):
    """acc_i += term for the components i whose values are group grp."""
    for i, (cols, g) in enumerate(parts):
        if g == grp:
            acc[i][:, cols] += term


def _single(kernel, g, sig, acc):
    """acc += the single layer of sig over the pairs g."""
    parts, values = sig
    if kernel.family is Family.LAPLACE:
        acc[0][:, parts[0][0]] += g.product(INV_4PI, g.inv(), values[0])
        return
    # K_ij = c (diag delta_ij / |r| + r_i r_j / |r|^3)
    if kernel.family is Family.STOKES:
        c = 1.0 / (8.0 * np.pi * kernel.viscosity)
        diag = 1.0
    else:
        nu = kernel.poisson_ratio
        c = 1.0 / (16.0 * np.pi * kernel.viscosity * (1.0 - nu))
        diag = 3.0 - 4.0 * nu
    inv = g.inv()
    inv3 = np.multiply(inv, c, out=g.take("weight"))
    inv3 *= inv
    inv3 *= inv
    _pair_term(g, inv3, sig, acc)
    for grp, v in enumerate(values):
        _add_by_group(parts, grp, g.product(c * diag, inv, v), acc)


def _double(kernel, g, sig, acc, normals, on_targets=False):
    """acc += the double layer of sig over the pairs g.

    normals holds n(y) per source, (n, 3), for the double layer.  The
    conormal of a point source is the same form with n(x) per target,
    (m, 3), and transposed: on_targets.
    """
    parts, values = sig
    dot = g.dot_targets if on_targets else g.dot_sources
    if kernel.family is Family.LAPLACE:
        # (r . n) / |r|^3 from |r|^2: one square root, no 1 / |r|
        cube = np.sqrt(g.rho2, out=g.take("weight"))
        cube *= g.rho2
        kern = dot(normals)
        kern /= cube
        acc[0][:, parts[0][0]] += g.product(INV_4PI, kern, values[0])
        return
    # pair term: 3 c (r . n) r_i r_j / |r|^5, with c = 1 / (4 pi) for Stokes
    nu = kernel.poisson_ratio
    c = INV_4PI if kernel.family is Family.STOKES else 1.0 / (8.0 * np.pi * (1.0 - nu))
    inv = g.inv()
    inv3 = np.multiply(inv, inv, out=g.take("weight"))
    pair = np.multiply(inv3, inv3, out=g.take("pair"))
    pair *= inv
    pair *= dot((3.0 * c) * normals)
    _pair_term(g, pair, sig, acc)
    if kernel.family is Family.STOKES:
        return
    # -(T^T psi) with T as in traction_kernel, r = y - x, n = n(y), adds
    # u (n_i r_j - r_i n_j + (r . n) delta_ij), u = (1 - 2 nu) c / |r|^3;
    # with s(a, b) = sum over the sources of u r_a n_b, (r . n) = sum_k r_k n_k
    inv3 *= inv
    normals = ((1.0 - 2.0 * nu) * c) * normals
    if on_targets:
        get = g.weighted_r(inv3, values, (None,))

        def s(a, b, grp, name):
            out = g.take(name, values[grp].shape[1])
            return np.multiply(normals[:, b, None], get(a, grp, 0), out=out)

    else:
        get = g.weighted_r(inv3, values, tuple(normals.T))

        def s(a, b, grp, name):
            return get(a, grp, b)

    for i in range(3):
        for j, (cols, grp) in enumerate(parts):
            if j != i:
                skew = g.take("term", values[grp].shape[1])
                np.subtract(s(i, j, grp, "s"), s(j, i, grp, "t"), out=skew)
                if on_targets:
                    acc[i][:, cols] += skew
                else:
                    acc[i][:, cols] -= skew
    for grp in range(len(values)):
        trace = g.take("term", values[grp].shape[1])
        np.add(s(0, 0, grp, "s"), s(1, 1, grp, "t"), out=trace)
        trace += s(2, 2, grp, "s")
        _add_by_group(parts, grp, trace, acc)


def apply_single_layer(
    kernel: KernelFamily, targets, sources, density, out=None, workspace=None
) -> np.ndarray:
    def add(g, sigs, acc):
        _single(kernel, g, sigs[0], acc)

    return _direct_sum(kernel, targets, sources, [density], add, out, workspace)


def apply_double_layer(
    kernel: KernelFamily, targets, sources, normals, density, out=None, workspace=None
):
    normals = np.asarray(normals, dtype=float)

    def add(g, sigs, acc):
        _double(kernel, g, sigs[0], acc, normals[g.cols])

    return _direct_sum(kernel, targets, sources, [density], add, out, workspace)


def apply_combined(
    kernel: KernelFamily, targets, sources, normals, single, double, out=None, workspace=None
):
    """Single layer of one density plus double layer of another, on one
    geometry pass: the two densities share every tile's |r|^2.  The double
    layer goes first, so that the Laplace one reads |r|^2 before the single
    layer turns it into 1 / |r|."""
    normals = np.asarray(normals, dtype=float)

    def add(g, sigs, acc):
        _double(kernel, g, sigs[1], acc, normals[g.cols])
        _single(kernel, g, sigs[0], acc)

    return _direct_sum(kernel, targets, sources, [single, double], add, out, workspace)


def point_source_field(kernel: KernelFamily, charges, strengths, points) -> np.ndarray:
    """Field of point sources: sum_i G(x, y_i) psi_i, shape (M, d)."""
    return apply_single_layer(kernel, points, charges, strengths)


def point_source_conormal(kernel: KernelFamily, charges, strengths, points, normals):
    """Conormal data of a point-source field at surface points.

    Laplace: normal derivative of the potential; Stokes/elasticity: traction
    of the velocity/displacement field.  Shape (M, d).
    """
    normals = np.atleast_2d(np.asarray(normals, dtype=float))

    def add(g, sigs, acc):
        _double(kernel, g, sigs[0], acc, normals[g.rows], on_targets=True)

    return _direct_sum(kernel, points, charges, [strengths], add)
