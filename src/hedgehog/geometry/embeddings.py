"""Quad meshes: embeddings of [-1, 1]^2 defining the exact surface.

A QuadMesh is a conforming collection of embeddings gamma_r mapping the
reference square onto surface pieces whose union is the boundary.  Built-in
analytic generators (sphere, spheroid, torus, flat plates) provide exact
positions and first derivatives; Bezier embeddings come from geometry
files.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import bezier

_FD_H = 1e-6


class AnalyticEmbedding:
    """Embedding from callables; jacobian falls back to central differences."""

    def __init__(self, position: Callable, jacobian: Callable | None = None):
        self._position = position
        self._jacobian = jacobian

    def position(self, s, t) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return self._position(s, t)

    def jacobian(self, s, t) -> np.ndarray:
        """Partials (d gamma / ds, d gamma / dt), shape (..., 3, 2)."""
        if self._jacobian is not None:
            return self._jacobian(np.asarray(s, float), np.asarray(t, float))
        h = _FD_H
        ps = (self.position(s + h, t) - self.position(s - h, t)) / (2 * h)
        pt = (self.position(s, t + h) - self.position(s, t - h)) / (2 * h)
        return np.stack([ps, pt], axis=-1)


class BezierEmbedding:
    """Embedding given directly by a tensor Bernstein patch on [-1, 1]^2."""

    def __init__(self, coeffs: np.ndarray):
        self.coeffs = np.asarray(coeffs, dtype=float)

    @property
    def degree(self) -> int:
        return self.coeffs.shape[0] - 1

    def position(self, s, t) -> np.ndarray:
        """Points at paired parameters: (3,) for scalars, (M, 3) for arrays."""
        return bezier.evaluate_paired(self.coeffs, s, t)

    def jacobian(self, s, t) -> np.ndarray:
        """Partials (d gamma / ds, d gamma / dt): (3, 2) for scalars, (M, 3, 2) for arrays."""
        return np.stack(bezier.evaluate_paired(self.coeffs, s, t, partials=True), axis=-1)


@dataclass
class QuadMesh:
    """Conforming quad mesh: one embedding per quad, common orientation.

    With orientation +1 the cross product d gamma/ds x d gamma/dt points
    into the exterior of the enclosed domain for every quad (all builtin
    generators are constructed this way).
    """

    embeddings: list = field(default_factory=list)
    orientation: float = 1.0

    @property
    def n_quads(self) -> int:
        return len(self.embeddings)


@dataclass
class BoundaryCondition:
    """Black-box Dirichlet data: points (M, 3) -> values (M, d)."""

    evaluator: Callable
    smoothness: int = 16
    dimension: int = 1

    def __call__(self, points) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.asarray(self.evaluator(points), dtype=float)
        return out.reshape(points.shape[0], self.dimension)


def constant_boundary_condition(value) -> BoundaryCondition:
    value = np.atleast_1d(np.asarray(value, dtype=float))
    return BoundaryCondition(
        evaluator=lambda pts: np.tile(value, (len(pts), 1)),
        dimension=value.size,
    )


# ---------------------------------------------------------------------------
# Built-in analytic surfaces
# ---------------------------------------------------------------------------

# Right-handed frames (u, v, w) with u x v = w per cube face; outward cross
# products follow from the right-handedness.
_CUBE_FACES = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    ((0, 1, 0), (1, 0, 0), (0, 0, -1)),
    ((0, 1, 0), (0, 0, 1), (1, 0, 0)),
    ((0, 0, 1), (0, 1, 0), (-1, 0, 0)),
    ((0, 0, 1), (1, 0, 0), (0, 1, 0)),
    ((1, 0, 0), (0, 0, 1), (0, -1, 0)),
)


def _subsquares(per_edge: int):
    width = 2.0 / per_edge
    for i in range(per_edge):
        for j in range(per_edge):
            yield (-1.0 + (i + 0.5) * width, -1.0 + (j + 0.5) * width, width / 2.0)


def _spheroid_face_embedding(frame, sub, semi_axes):
    u, v, w = (np.asarray(a, dtype=float) for a in frame)
    cs, ct, hw = sub
    axes = np.asarray(semi_axes, dtype=float)

    def position(s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        sf = cs + hw * s
        tf = ct + hw * t
        b = np.multiply.outer(sf, u) + np.multiply.outer(tf, v) + w
        nb = np.linalg.norm(b, axis=-1, keepdims=True)
        return axes * (b / nb)

    def jacobian(s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        sf = cs + hw * s
        tf = ct + hw * t
        b = np.multiply.outer(sf, u) + np.multiply.outer(tf, v) + w
        nb = np.linalg.norm(b, axis=-1, keepdims=True)
        bhat = b / nb
        du = hw * (u - bhat * np.sum(bhat * u, axis=-1, keepdims=True)) / nb
        dv = hw * (v - bhat * np.sum(bhat * v, axis=-1, keepdims=True)) / nb
        return np.stack([axes * du, axes * dv], axis=-1)

    return AnalyticEmbedding(position, jacobian)


def spheroid_mesh(semi_axes=(0.75, 0.45, 0.45), per_face: int = 1) -> QuadMesh:
    """Cube-projected spheroid with 6 * per_face^2 quads, outward normals."""
    quads = [
        _spheroid_face_embedding(frame, sub, semi_axes)
        for frame in _CUBE_FACES
        for sub in _subsquares(per_face)
    ]
    return QuadMesh(embeddings=quads)


def sphere_mesh(radius: float = 1.0, per_face: int = 1) -> QuadMesh:
    return spheroid_mesh((radius, radius, radius), per_face)


def torus_mesh(
    major_radius: float = 0.7,
    minor_radius: float = 0.25,
    n_major: int = 8,
    n_minor: int = 4,
) -> QuadMesh:
    """Torus split into n_major x n_minor quads, outward normals."""
    r0, r1 = float(major_radius), float(minor_radius)
    quads = []
    dth = 2.0 * np.pi / n_major
    dph = 2.0 * np.pi / n_minor
    for i in range(n_major):
        for j in range(n_minor):
            th0 = i * dth
            ph0 = j * dph

            def position(s, t, th0=th0, ph0=ph0):
                s = np.asarray(s, dtype=float)
                t = np.asarray(t, dtype=float)
                th = th0 + 0.5 * (s + 1.0) * dth
                ph = ph0 + 0.5 * (t + 1.0) * dph
                ring = r0 + r1 * np.cos(ph)
                return np.stack(
                    [ring * np.cos(th), ring * np.sin(th), r1 * np.sin(ph) * np.ones_like(th)],
                    axis=-1,
                )

            def jacobian(s, t, th0=th0, ph0=ph0):
                s = np.asarray(s, dtype=float)
                t = np.asarray(t, dtype=float)
                th = th0 + 0.5 * (s + 1.0) * dth
                ph = ph0 + 0.5 * (t + 1.0) * dph
                ring = r0 + r1 * np.cos(ph)
                zero = np.zeros_like(th)
                dthds = 0.5 * dth
                dphdt = 0.5 * dph
                ps = np.stack(
                    [-ring * np.sin(th) * dthds, ring * np.cos(th) * dthds, zero],
                    axis=-1,
                )
                pt = np.stack(
                    [
                        -r1 * np.sin(ph) * np.cos(th) * dphdt,
                        -r1 * np.sin(ph) * np.sin(th) * dphdt,
                        r1 * np.cos(ph) * dphdt * np.ones_like(th),
                    ],
                    axis=-1,
                )
                return np.stack([ps, pt], axis=-1)

            quads.append(AnalyticEmbedding(position, jacobian))
    return QuadMesh(embeddings=quads)


def plate_embedding(origin, edge_s, edge_t) -> AnalyticEmbedding:
    """Flat quad: origin at the (-1, -1) corner, edges along s and t."""
    origin = np.asarray(origin, dtype=float)
    es = np.asarray(edge_s, dtype=float)
    et = np.asarray(edge_t, dtype=float)

    def position(s, t):
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return (
            origin
            + np.multiply.outer(0.5 * (s + 1.0), es)
            + np.multiply.outer(0.5 * (t + 1.0), et)
        )

    def jacobian(s, t):
        s = np.asarray(s, dtype=float)
        shape = np.shape(s)
        ps = np.broadcast_to(0.5 * es, shape + (3,))
        pt = np.broadcast_to(0.5 * et, shape + (3,))
        return np.stack([ps, pt], axis=-1)

    return AnalyticEmbedding(position, jacobian)


def builtin_mesh(name: str, **kwargs) -> QuadMesh:
    """Resolve builtin:{sphere, spheroid, torus} geometry names."""
    name = name.lower()
    if name == "sphere":
        return sphere_mesh(**kwargs)
    if name == "spheroid":
        return spheroid_mesh(**kwargs)
    if name == "torus":
        return torus_mesh(**kwargs)
    raise ValueError(f"unknown builtin geometry {name!r}")
