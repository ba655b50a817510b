"""Surface patches, patch sets, least-squares fitting and quadrisection.

A SurfacePatch is a bidegree-(n, n) Bezier map on [-1, 1]^2 approximating an
embedding gamma_r restricted to a dyadic subdomain D_i of the root square.
PatchSets are immutable snapshots; refinement produces new sets.
"""

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from ..chebyshev import cc_rule
from ..errors import DegenerateGeometryError, FittingError
from . import bezier
from .embeddings import QuadMesh

LENGTH_RULE_ORDER = 20


@dataclass(frozen=True)
class Subdomain:
    """Dyadic square D inside a root square E_r = [-1, 1]^2."""

    center_s: float = 0.0
    center_t: float = 0.0
    halfwidth: float = 1.0

    def to_root(self, s, t):
        return self.center_s + self.halfwidth * np.asarray(s), \
            self.center_t + self.halfwidth * np.asarray(t)

    def quadrant(self, s_upper: bool, t_upper: bool) -> "Subdomain":
        h = 0.5 * self.halfwidth
        return Subdomain(
            self.center_s + (h if s_upper else -h),
            self.center_t + (h if t_upper else -h),
            h,
        )

    def relative_to(self, ancestor: "Subdomain"):
        """(center offsets, scale) of self expressed in ancestor coordinates."""
        h = self.halfwidth / ancestor.halfwidth
        cs = (self.center_s - ancestor.center_s) / ancestor.halfwidth
        ct = (self.center_t - ancestor.center_t) / ancestor.halfwidth
        return cs, ct, h


@dataclass
class SurfacePatch:
    """Bidegree-(n, n) Bezier patch with quadtree lineage."""

    coeffs: np.ndarray  # (n+1, n+1, 3), first axis along s
    root_id: int
    domain: Subdomain = field(default_factory=Subdomain)
    depth: int = 0
    orientation: float = 1.0
    fit_error: float = np.nan
    _length: float | None = field(default=None, repr=False, compare=False)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def control_box(self):
        """Componentwise min/max of control points; contains the patch."""
        pts = self.coeffs.reshape(-1, 3)
        return pts.min(axis=0), pts.max(axis=0)


def evaluate(patch: SurfacePatch, s, t) -> np.ndarray:
    """Patch position at paired parameters; scalars give a (3,) point."""
    scalar = np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n = patch.degree
    out = bezier.eval_points(
        patch.coeffs, bezier.bernstein_matrix(n, s), bezier.bernstein_matrix(n, t)
    )
    return out[0] if scalar else out


def derivatives(patch: SurfacePatch, s, t):
    """First partials (dP/ds, dP/dt) at paired parameters."""
    scalar = np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n = patch.degree
    b0s = bezier.bernstein_matrix(n, s)
    b1s = bezier.bernstein_matrix(n, s, 1)
    b0t = bezier.bernstein_matrix(n, t)
    b1t = bezier.bernstein_matrix(n, t, 1)
    ps = bezier.eval_points(patch.coeffs, b1s, b0t)
    pt = bezier.eval_points(patch.coeffs, b0s, b1t)
    if scalar:
        return ps[0], pt[0]
    return ps, pt


def normal(patch: SurfacePatch, s, t) -> np.ndarray:
    """Unit exterior normal (dP/ds x dP/dt normalized, times orientation)."""
    ps, pt = derivatives(patch, s, t)
    cr = np.cross(ps, pt)
    norm = np.linalg.norm(cr, axis=-1, keepdims=True)
    if np.any(norm == 0.0):
        raise DegenerateGeometryError("zero surface Jacobian")
    return patch.orientation * cr / norm


def metric_det(patch: SurfacePatch, s, t):
    """Determinant of the metric tensor, g = |dP/ds x dP/dt|^2."""
    ps, pt = derivatives(patch, s, t)
    cr = np.cross(ps, pt)
    return np.einsum("...k,...k->...", cr, cr)


def quadrisect(patch: SurfacePatch) -> list[SurfacePatch]:
    """Exact Bezier subdivision into the four dyadic children.

    Children are ordered [(-,-), (+,-), (-,+), (+,+)] in (s, t); the union
    of their images equals the parent image exactly.
    """
    children = []
    for t_upper in (False, True):
        for s_upper in (False, True):
            children.append(
                SurfacePatch(
                    coeffs=bezier.subdivide(patch.coeffs, s_upper, t_upper),
                    root_id=patch.root_id,
                    domain=patch.domain.quadrant(s_upper, t_upper),
                    depth=patch.depth + 1,
                    orientation=patch.orientation,
                    fit_error=patch.fit_error,
                )
            )
    return children


def characteristic_length(patch: SurfacePatch, q: int = LENGTH_RULE_ORDER) -> float:
    """Square root of the patch surface area (q x q Clenshaw-Curtis)."""
    if patch._length is None or q != LENGTH_RULE_ORDER:
        rule = cc_rule(q)
        ss, tt = np.meshgrid(rule.nodes, rule.nodes, indexing="ij")
        g = metric_det(patch, ss.ravel(), tt.ravel()).reshape(q, q)
        area = float(np.sum(np.sqrt(g) * np.outer(rule.weights, rule.weights)))
        length = float(np.sqrt(area))
        if q != LENGTH_RULE_ORDER:
            return length
        patch._length = length
    return patch._length


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
    depth: int = 0,
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
    fit_pos = np.einsum("ai,ijd,bj->abd", b0, coeffs, b0).reshape(-1, 3)
    fit_ps = np.einsum("ai,ijd,bj->abd", b1, coeffs, b0).reshape(-1, 3)
    fit_pt = np.einsum("ai,ijd,bj->abd", b0, coeffs, b1).reshape(-1, 3)
    h = domain.halfwidth
    err = np.linalg.norm(fit_pos - exact, axis=1).max()
    err = max(err, np.linalg.norm(fit_ps - h * jac[..., 0], axis=1).max())
    err = max(err, np.linalg.norm(fit_pt - h * jac[..., 1], axis=1).max())
    return SurfacePatch(
        coeffs=coeffs,
        root_id=root_id,
        domain=domain,
        depth=depth,
        orientation=orientation,
        fit_error=float(err),
    )


# ---------------------------------------------------------------------------
# Patch sets
# ---------------------------------------------------------------------------


class PatchSet:
    """Ordered, immutable collection of patches plus refinement lineage.

    For fine (upsampled) sets, ancestors[i] is the index of the coarse patch
    that fine patch i descends from; coarse sets carry ancestors = None.
    """

    def __init__(self, patches, role="coarse", mesh: QuadMesh | None = None,
                 ancestors=None):
        self.patches = list(patches)
        self.role = role
        self.mesh = mesh
        self.ancestors = None if ancestors is None else np.asarray(ancestors, dtype=np.int64)
        self._groups = None
        self._lengths = None
        self._index = None

    def __len__(self):
        return len(self.patches)

    def __iter__(self):
        return iter(self.patches)

    def __getitem__(self, i) -> SurfacePatch:
        return self.patches[i]

    def degree_groups(self):
        """{degree: (indices, stacked coeffs)} for batched evaluation."""
        if self._groups is None:
            by_n: dict[int, list[int]] = {}
            for i, p in enumerate(self.patches):
                by_n.setdefault(p.degree, []).append(i)
            self._groups = {
                n: (np.asarray(idx, dtype=np.int64),
                    np.stack([self.patches[i].coeffs for i in idx]))
                for n, idx in by_n.items()
            }
        return self._groups

    @property
    def lengths(self) -> np.ndarray:
        """Characteristic length L(P) per patch (cached, batch computed)."""
        if self._lengths is None or len(self._lengths) != len(self.patches):
            rule = cc_rule(LENGTH_RULE_ORDER)
            w2 = np.outer(rule.weights, rule.weights).ravel()
            out = np.empty(len(self.patches))
            for n, (idx, coeffs) in self.degree_groups().items():
                missing = [k for k, i in enumerate(idx) if self.patches[i]._length is None]
                if missing:
                    b0 = bezier.bernstein_matrix(n, rule.nodes)
                    b1 = bezier.bernstein_matrix(n, rule.nodes, 1)
                    sub = coeffs[missing]
                    ps = bezier.eval_grid(sub, b1, b0).reshape(len(missing), -1, 3)
                    pt = bezier.eval_grid(sub, b0, b1).reshape(len(missing), -1, 3)
                    sqrtg = np.linalg.norm(np.cross(ps, pt), axis=2)
                    areas = sqrtg @ w2
                    for k, a in zip(missing, areas):
                        self.patches[idx[k]]._length = float(np.sqrt(a))
                for k, i in enumerate(idx):
                    out[i] = self.patches[i]._length
            self._lengths = out
        return self._lengths

    def control_boxes(self):
        """(lo, hi) arrays of per-patch control-point bounding boxes."""
        lo = np.empty((len(self.patches), 3))
        hi = np.empty((len(self.patches), 3))
        for i, p in enumerate(self.patches):
            lo[i], hi[i] = p.control_box()
        return lo, hi

    def replace_with_children(self, split: dict[int, list[SurfacePatch]]) -> "PatchSet":
        """New set where patch i is replaced by split[i] (its children)."""
        patches, ancestors = [], []
        has_anc = self.ancestors is not None
        for i, p in enumerate(self.patches):
            anc = self.ancestors[i] if has_anc else i
            for child in split.get(i, [p]):
                patches.append(child)
                ancestors.append(anc)
        return PatchSet(
            patches,
            role=self.role,
            mesh=self.mesh,
            ancestors=ancestors if has_anc else None,
        )

    def as_fine(self) -> "PatchSet":
        """Fine-role copy with identity lineage into this coarse set."""
        return PatchSet(
            list(self.patches),
            role="fine",
            mesh=self.mesh,
            ancestors=np.arange(len(self.patches)),
        )

    def uniform_refined(self, levels: int) -> "PatchSet":
        """levels rounds of exact quadrisection applied to every patch."""
        out = self
        for _ in range(levels):
            out = out.replace_with_children(
                {i: quadrisect(p) for i, p in enumerate(out.patches)}
            )
        return out


def surface_area(patchset: PatchSet, q: int = LENGTH_RULE_ORDER) -> float:
    lengths = patchset.lengths
    return float(np.sum(lengths**2)) if q == LENGTH_RULE_ORDER else float(
        sum(characteristic_length(p, q) ** 2 for p in patchset)
    )
