"""Surface patches, patch sets, least-squares fitting and quadrisection.

A SurfacePatch is a bidegree-(n, n) Bezier map on [-1, 1]^2 approximating an
embedding gamma_r restricted to a dyadic subdomain D_i of the root square.
PatchSets are immutable snapshots; refinement produces new sets.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ..chebyshev import cc_rule
from ..errors import DegenerateGeometryError, FittingError, UsageError
from . import bezier
from .embeddings import QuadMesh

LENGTH_RULE_ORDER = 20


def dyadic_points(depth: int, i: int, u):
    """Points u of [-1, 1] carried onto the i-th of the 2^depth dyadic
    intervals of [-1, 1], whose centre is -1 + (2i + 1) 2^-depth."""
    h = 0.5**depth
    return -1.0 + (2 * i + 1) * h + h * np.asarray(u)


@dataclass(frozen=True)
class Subdomain:
    """Dyadic square D inside a root square E_r = [-1, 1]^2.

    The integer key (depth, ix, iy) names the square: at depth k the root
    is cut into 2^k x 2^k squares, and (ix, iy) counts them from the corner
    (-1, -1).
    """

    depth: int = 0
    ix: int = 0
    iy: int = 0

    @property
    def halfwidth(self) -> float:
        return 0.5**self.depth

    def to_root(self, s, t):
        return dyadic_points(self.depth, self.ix, s), dyadic_points(self.depth, self.iy, t)

    def quadrant(self, s_upper: bool, t_upper: bool) -> "Subdomain":
        return Subdomain(self.depth + 1, 2 * self.ix + s_upper, 2 * self.iy + t_upper)


@dataclass
class SurfacePatch:
    """Bidegree-(n, n) Bezier patch with quadtree lineage."""

    coeffs: np.ndarray  # (n+1, n+1, 3), first axis along s
    root_id: int
    domain: Subdomain = field(default_factory=Subdomain)
    orientation: float = 1.0
    fit_error: float = np.nan
    _length: float | None = field(default=None, repr=False, compare=False)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    @property
    def depth(self) -> int:
        return self.domain.depth


def evaluate(patch: SurfacePatch, s, t) -> np.ndarray:
    """Patch position at paired parameters; scalars give a (3,) point."""
    return bezier.evaluate_paired(patch.coeffs, s, t)


def derivatives(patch: SurfacePatch, s, t):
    """First partials (dP/ds, dP/dt) at paired parameters."""
    return bezier.evaluate_paired(patch.coeffs, s, t, partials=True)


def normal(patch: SurfacePatch, s, t) -> np.ndarray:
    """Unit exterior normal (dP/ds x dP/dt normalized, times orientation)."""
    ps, pt = derivatives(patch, s, t)
    cr = np.cross(ps, pt)
    norm = np.linalg.norm(cr, axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        raise DegenerateGeometryError("zero surface Jacobian")
    return patch.orientation * cr / norm


# (s upper, t upper) of the quadrisection children, in child order
_QUADRANTS = ((False, False), (True, False), (False, True), (True, True))


def quadrisect_all(patches) -> list[list[SurfacePatch]]:
    """Exact Bezier subdivision of every patch into its four dyadic children.

    The children of each patch, in input order, are ordered [(-,-), (+,-),
    (-,+), (+,+)] in (s, t); the union of their images equals the parent
    image exactly.  The patches must form a PatchSet (one degree, one
    orientation); one subdivision product per quadrant over their stacked
    control points.
    """
    patches = PatchSet(patches)
    quads = [bezier.subdivide(patches.coeffs, s_up, t_up) for s_up, t_up in _QUADRANTS]
    return [
        [
            SurfacePatch(
                coeffs=c[j],
                root_id=p.root_id,
                domain=p.domain.quadrant(s_up, t_up),
                orientation=p.orientation,
                fit_error=p.fit_error,
            )
            for c, (s_up, t_up) in zip(quads, _QUADRANTS)
        ]
        for j, p in enumerate(patches)
    ]


def characteristic_length(patch: SurfacePatch) -> float:
    """Square root of the patch surface area: the one-patch case of
    PatchSet.lengths, sharing its cache."""
    return float(PatchSet([patch]).lengths[0])


# ---------------------------------------------------------------------------
# Least-squares fitting
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _fit_operator(n: int):
    """(sample params, pseudoinverse) for the 4n x 4n tensor Chebyshev fit."""
    m = max(4 * n, n + 1)
    pts = cc_rule(m).nodes if m >= 2 else np.array([-1.0, 1.0])
    b = bezier.bernstein_matrix(n, pts)
    design = np.kron(b, b)  # row-major over (s_i, t_j)
    pinv = np.linalg.pinv(design, rcond=1e-13)
    if not np.all(np.isfinite(pinv)):
        raise FittingError(f"singular Bernstein design for degree {n}")
    return pts, pinv


@lru_cache(maxsize=None)
def _validation_grid(n: int):
    m = 8 * n
    pts = np.linspace(-1.0, 1.0, max(m, n + 2))
    return (
        pts,
        bezier.bernstein_matrix(n, pts),
        bezier.bernstein_matrix(n, pts, 1),
    )


def fit_patch(
    embedding,
    root_id: int,
    domain: Subdomain,
    n: int,
    orientation: float = 1.0,
) -> SurfacePatch:
    """Least-squares bidegree-(n, n) fit of gamma over a dyadic subdomain.

    Samples gamma on a 4n x 4n tensor grid; fit_error is the max position
    and first-partial deviation on a denser 8n x 8n validation grid.
    """
    pts, pinv = _fit_operator(n)
    ss, tt = np.meshgrid(pts, pts, indexing="ij")
    rs, rt = domain.to_root(ss.ravel(), tt.ravel())
    samples = embedding.position(rs, rt)
    coeffs_flat = pinv @ samples.reshape(-1, 3)
    if not np.all(np.isfinite(coeffs_flat)):
        raise FittingError("rank-deficient least-squares patch fit")
    coeffs = coeffs_flat.reshape(n + 1, n + 1, 3)

    vpts, b0, b1 = _validation_grid(n)
    vs, vt = np.meshgrid(vpts, vpts, indexing="ij")
    rvs, rvt = domain.to_root(vs.ravel(), vt.ravel())
    exact = embedding.position(rvs, rvt)
    jac = embedding.jacobian(rvs, rvt)
    fit_pos = bezier.eval_grid(coeffs, b0, b0).reshape(-1, 3)
    fit_ps = bezier.eval_grid(coeffs, b1, b0).reshape(-1, 3)
    fit_pt = bezier.eval_grid(coeffs, b0, b1).reshape(-1, 3)
    h = domain.halfwidth
    err = np.linalg.norm(fit_pos - exact, axis=1).max()
    err = max(err, np.linalg.norm(fit_ps - h * jac[..., 0], axis=1).max())
    err = max(err, np.linalg.norm(fit_pt - h * jac[..., 1], axis=1).max())
    return SurfacePatch(
        coeffs=coeffs,
        root_id=root_id,
        domain=domain,
        orientation=orientation,
        fit_error=float(err),
    )


# ---------------------------------------------------------------------------
# Patch sets
# ---------------------------------------------------------------------------


class PatchSet:
    """Ordered, immutable collection of patches plus refinement lineage.

    A set holds at least one patch, and all its patches share one degree
    and one orientation; the constructor raises UsageError otherwise.  Every
    batched geometry job therefore runs on the one coefficient stack coeffs
    (P, n+1, n+1, 3).

    For fine (upsampled) sets, ancestors[i] is the index of the coarse patch
    that fine patch i descends from, nondecreasing in i, so the fine patches
    of each coarse patch form one contiguous run; coarse sets carry
    ancestors = None.
    """

    def __init__(self, patches, mesh: QuadMesh | None = None, ancestors=None):
        self.patches = list(patches)
        if not self.patches:
            raise UsageError("a patch set needs at least one patch")
        self.degree = self.patches[0].degree
        self.orientation = self.patches[0].orientation
        if any(p.degree != self.degree or p.orientation != self.orientation for p in self.patches):
            raise UsageError("the patches of a set must share one degree and one orientation")
        self.mesh = mesh
        self.ancestors = None if ancestors is None else np.asarray(ancestors, dtype=np.int64)
        self._coeffs = None
        self._lengths = None
        self._boxes = None
        self._index = None

    def __len__(self):
        return len(self.patches)

    def __iter__(self):
        return iter(self.patches)

    def __getitem__(self, i) -> SurfacePatch:
        return self.patches[i]

    @property
    def coeffs(self) -> np.ndarray:
        """The stacked control points (P, n+1, n+1, 3) (cached)."""
        if self._coeffs is None:
            self._coeffs = np.stack([p.coeffs for p in self.patches])
        return self._coeffs

    @property
    def lengths(self) -> np.ndarray:
        """Characteristic length L(P) per patch (cached, batch computed)."""
        if self._lengths is None:
            missing = [i for i, p in enumerate(self.patches) if p._length is None]
            if missing:
                rule = cc_rule(LENGTH_RULE_ORDER)
                w2 = np.outer(rule.weights, rule.weights).ravel()
                b0 = bezier.bernstein_matrix(self.degree, rule.nodes)
                b1 = bezier.bernstein_matrix(self.degree, rule.nodes, 1)
                sub = self.coeffs[missing]
                ps = bezier.eval_grid(sub, b1, b0).reshape(len(missing), -1, 3)
                pt = bezier.eval_grid(sub, b0, b1).reshape(len(missing), -1, 3)
                # |ps x pt| component by component: the bits of
                # norm(cross(ps, pt), axis=2), without its passes over
                # the short last axis
                (sx, sy, sz), (tx, ty, tz) = np.moveaxis(ps, 2, 0), np.moveaxis(pt, 2, 0)
                cx = sy * tz - sz * ty
                cy = sz * tx - sx * tz
                cz = sx * ty - sy * tx
                sqrtg = np.sqrt(cx * cx + cy * cy + cz * cz)
                # a per-row sum, so a patch's L does not depend on its batch
                areas = (sqrtg * w2).sum(axis=1)
                for i, a in zip(missing, areas):
                    self.patches[i]._length = float(np.sqrt(a))
            self._lengths = np.array([p._length for p in self.patches])
        return self._lengths

    def control_boxes(self):
        """(lo, hi) arrays of per-patch control-point boxes (cached).

        Each box is the componentwise min/max of the patch's control
        points, which contains the patch.
        """
        if self._boxes is None:
            pts = self.coeffs.reshape(len(self.patches), -1, 3)
            lo, hi = pts.min(axis=1), pts.max(axis=1)
            lo.setflags(write=False)
            hi.setflags(write=False)
            self._boxes = (lo, hi)
        return self._boxes

    def replace_with_children(self, split: dict[int, list[SurfacePatch]]) -> "PatchSet":
        """New set where patch i is replaced by split[i] (its children)."""
        patches, ancestors = [], []
        has_anc = self.ancestors is not None
        for i, p in enumerate(self.patches):
            anc = self.ancestors[i] if has_anc else i
            for child in split.get(i, [p]):
                patches.append(child)
                ancestors.append(anc)
        return PatchSet(patches, mesh=self.mesh, ancestors=ancestors if has_anc else None)

    def as_fine(self) -> "PatchSet":
        """Copy with identity lineage into this coarse set."""
        return PatchSet(self.patches, mesh=self.mesh, ancestors=np.arange(len(self.patches)))

    def quadrisected(self, indices) -> "PatchSet":
        """New set where each listed patch gives way to its quadrisect_all children."""
        indices = [int(i) for i in indices]
        children = quadrisect_all(self.patches[i] for i in indices)
        return self.replace_with_children(dict(zip(indices, children)))

    def uniform_refined(self, levels: int) -> "PatchSet":
        """levels rounds of exact quadrisection applied to every patch."""
        out = self
        for _ in range(levels):
            out = out.quadrisected(range(len(out)))
        return out

