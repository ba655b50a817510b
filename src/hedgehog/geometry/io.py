"""Line-oriented geometry file format.

Header lines `degree n` and `quads R`, followed by R * (n+1)^2 control-point
lines `r l m x y z` giving the Bezier coefficients of each quad embedding.
"""

import numpy as np

from .embeddings import BezierEmbedding, QuadMesh


def read_quad_mesh(path) -> QuadMesh:
    with open(path) as fh:
        tokens = fh.read().split()
    if tokens[0] != "degree" or tokens[2] != "quads":
        raise ValueError("malformed geometry file header")
    n = int(tokens[1])
    nquads = int(tokens[3])
    body = np.asarray(tokens[4:], dtype=float)
    rows = body.reshape(-1, 6)
    if rows.shape[0] != nquads * (n + 1) ** 2:
        raise ValueError("geometry file control-point count mismatch")
    coeffs = np.zeros((nquads, n + 1, n + 1, 3))
    r = rows[:, 0].astype(int)
    l = rows[:, 1].astype(int)
    m = rows[:, 2].astype(int)
    coeffs[r, l, m] = rows[:, 3:]
    return QuadMesh(embeddings=[BezierEmbedding(c) for c in coeffs])
