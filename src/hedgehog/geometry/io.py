"""Line-oriented geometry file format.

Header lines `degree n` and `quads R`, followed by R * (n+1)^2 control-point
lines `r l m x y z` giving the Bezier coefficients of each quad embedding.
Each (r, l, m) with 0 <= r < R and 0 <= l, m <= n appears exactly once.
"""

import numpy as np

from ..errors import UsageError
from .embeddings import BezierEmbedding, QuadMesh


def read_quad_mesh(path) -> QuadMesh:
    """The quad mesh of a geometry file; UsageError when it is unreadable or breaks the format."""
    try:
        with open(path) as fh:
            tokens = fh.read().split()
    except OSError as exc:
        raise UsageError(f"{path}: {exc.strerror}") from None
    if len(tokens) < 4 or tokens[0] != "degree" or tokens[2] != "quads":
        raise UsageError(f"{path}: header must be 'degree n' then 'quads R'")
    try:
        n, nquads = int(tokens[1]), int(tokens[3])
        body = np.asarray(tokens[4:], dtype=float)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from None
    if n < 1 or nquads < 1:
        raise UsageError(f"{path}: degree and quad count must be positive")
    k = n + 1
    if len(body) != 6 * nquads * k * k:
        raise UsageError(f"{path}: expected {nquads * k * k} lines 'r l m x y z'")
    rows = body.reshape(-1, 6)
    index = rows[:, :3].astype(np.int64)
    if np.any(index != rows[:, :3]) or np.any(index < 0) or np.any(index >= [nquads, k, k]):
        raise UsageError(f"{path}: every (r, l, m) must be integers in [0, R) x [0, n]^2")
    flat = np.ravel_multi_index(index.T, (nquads, k, k))
    if np.any(np.bincount(flat, minlength=nquads * k * k) != 1):
        raise UsageError(f"{path}: every (r, l, m) must appear exactly once")
    coeffs = np.empty((nquads * k * k, 3))
    coeffs[flat] = rows[:, 3:]
    return QuadMesh(embeddings=[BezierEmbedding(c) for c in coeffs.reshape(nquads, k, k, 3)])
