"""Tensor-product Bernstein (Bezier) machinery on the [-1, 1]^2 reference square.

Repo-wide convention: the classical Bernstein basis on [0, 1] is rescaled
affinely so patches are parametrized over s, t in [-1, 1].  Control points
are indexed coeffs[l, m] with l along s and m along t, so coeffs[0, 0] maps
to the (-1, -1) corner and coeffs[n, n] to (1, 1).
"""

from functools import lru_cache
from math import comb

import numpy as np


def bernstein_matrix(n: int, s, derivative: int = 0) -> np.ndarray:
    """Rows of (derivative of) degree-n Bernstein basis values at s in [-1, 1].

    Shape (len(s), n + 1).  Derivatives are with respect to s, so each
    derivative order carries a factor 1/2 from the [0, 1] -> [-1, 1] rescale.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    u = 0.5 * (s + 1.0)
    if derivative == 0:
        return _bernstein_01(n, u)
    if derivative == 1:
        lower = _bernstein_01(n - 1, u) if n >= 1 else np.zeros((u.size, 0))
        out = np.zeros((u.size, n + 1))
        if n >= 1:
            out[:, :-1] -= lower
            out[:, 1:] += lower
            out *= n
        return 0.5 * out
    if derivative == 2:
        lower = _bernstein_01(n - 2, u) if n >= 2 else np.zeros((u.size, 0))
        out = np.zeros((u.size, n + 1))
        if n >= 2:
            out[:, :-2] += lower
            out[:, 1:-1] -= 2.0 * lower
            out[:, 2:] += lower
            out *= n * (n - 1)
        return 0.25 * out
    raise ValueError("derivative order must be 0, 1 or 2")


def _bernstein_01(n: int, u: np.ndarray) -> np.ndarray:
    binoms = np.array([comb(n, l) for l in range(n + 1)], dtype=float)
    pu = np.vander(u, n + 1, increasing=True)
    pv = np.vander(1.0 - u, n + 1, increasing=True)[:, ::-1]
    return binoms[None, :] * pu * pv


@lru_cache(maxsize=None)
def subdivision_matrix(n: int, upper: bool) -> np.ndarray:
    """de Casteljau matrix mapping control points to one half interval.

    upper=False restricts to s in [-1, 0], upper=True to s in [0, 1]; the
    child is reparametrized over the full [-1, 1].  Exact for polynomials.
    """
    m = np.zeros((n + 1, n + 1))
    if not upper:
        for i in range(n + 1):
            for j in range(i + 1):
                m[i, j] = comb(i, j) / 2.0**i
    else:
        for i in range(n + 1):
            for j in range(i, n + 1):
                m[i, j] = comb(n - i, j - i) / 2.0 ** (n - i)
    m.setflags(write=False)
    return m


def subdivide(coeffs: np.ndarray, s_upper: bool, t_upper: bool) -> np.ndarray:
    """Control points of the quadrant (s half, t half) of a patch."""
    n = coeffs.shape[0] - 1
    ms = subdivision_matrix(n, s_upper)
    mt = subdivision_matrix(n, t_upper)
    return np.einsum("il,lmd,jm->ijd", ms, coeffs, mt)


def eval_grid(coeffs, bs: np.ndarray, bt: np.ndarray) -> np.ndarray:
    """Tensor evaluation on a grid: (P?, a, b, 3) from basis rows bs, bt.

    coeffs is (n+1, n+1, 3) or a stack (P, n+1, n+1, 3); bs, bt are basis
    (or derivative) matrices from bernstein_matrix.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.ndim == 3:
        return np.einsum("ai,ijd,bj->abd", bs, coeffs, bt, optimize=True)
    return np.einsum("ai,pijd,bj->pabd", bs, coeffs, bt, optimize=True)


def eval_points(coeffs, bs: np.ndarray, bt: np.ndarray) -> np.ndarray:
    """Pointwise evaluation: basis rows are paired, result (M, 3)."""
    return np.einsum("mi,ijd,mj->md", bs, coeffs, bt, optimize=True)
