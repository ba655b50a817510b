"""Surface geometry: quad meshes, Bezier patches, fitting, quadrisection."""

from .bezier import bernstein_matrix, eval_grid, eval_points, subdivide, subdivision_matrix
from .embeddings import (
    AnalyticEmbedding,
    BezierEmbedding,
    BoundaryCondition,
    QuadMesh,
    builtin_mesh,
    constant_boundary_condition,
    plate_embedding,
    sphere_mesh,
    spheroid_mesh,
    torus_mesh,
)
from .io import read_quad_mesh
from .patches import (
    PatchSet,
    Subdomain,
    SurfacePatch,
    characteristic_length,
    derivatives,
    evaluate,
    fit_patch,
    normal,
    quadrisect_all,
)

__all__ = [
    "AnalyticEmbedding",
    "BezierEmbedding",
    "BoundaryCondition",
    "PatchSet",
    "QuadMesh",
    "Subdomain",
    "SurfacePatch",
    "bernstein_matrix",
    "builtin_mesh",
    "characteristic_length",
    "constant_boundary_condition",
    "derivatives",
    "eval_grid",
    "eval_points",
    "evaluate",
    "fit_patch",
    "normal",
    "plate_embedding",
    "quadrisect_all",
    "read_quad_mesh",
    "sphere_mesh",
    "spheroid_mesh",
    "subdivide",
    "subdivision_matrix",
    "torus_mesh",
]
