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


@lru_cache(maxsize=None)
def _binomials(n: int) -> np.ndarray:
    """Row n of Pascal's triangle as floats (cached, read-only)."""
    row = np.array([comb(n, l) for l in range(n + 1)], dtype=float)
    row.setflags(write=False)
    return row


def _bernstein_01(n: int, u: np.ndarray) -> np.ndarray:
    binoms = _binomials(n)
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
    """Control points of the quadrant (s half, t half) of a patch.

    coeffs is (n+1, n+1, 3) or a stack (P, n+1, n+1, 3).  Child point
    (i, j) sums ms[i, l] c[l, m] mt[j, m] term by term, l outer and m inner,
    skipping the zeros of the triangular subdivision matrices.  That fixed
    order gives every patch of a stack the bits it gets on its own, the
    same bits as np.einsum("il,lmd,jm->ijd") without path optimisation.
    """
    n = coeffs.shape[-2] - 1
    ms = subdivision_matrix(n, s_upper)
    mt = subdivision_matrix(n, t_upper)
    lead = coeffs.shape[:-3]
    # patches and coordinates on the last, contiguous axis
    c = np.moveaxis(coeffs.reshape(-1, n + 1, n + 1, 3), 0, -1).reshape(n + 1, n + 1, -1)
    left = ms.T[:, :, None, None] * c[:, None, :, :]  # [l, i, m] = ms[i, l] c[l, m]
    out = np.zeros((n + 1, n + 1, c.shape[-1]))
    for l in range(n + 1):
        i0, i1 = (0, l + 1) if s_upper else (l, n + 1)
        for m in range(n + 1):
            j0, j1 = (0, m + 1) if t_upper else (m, n + 1)
            out[i0:i1, j0:j1] += left[l, i0:i1, m, None, :] * mt[j0:j1, m, None]
    out = np.moveaxis(out.reshape(n + 1, n + 1, 3, -1), -1, 0)
    return np.ascontiguousarray(out).reshape(lead + (n + 1, n + 1, 3))


@lru_cache(maxsize=1024)
def _contraction_path(subscripts: str, *shapes) -> tuple:
    """The path np.einsum(..., optimize=True) picks for operands of these
    shapes, planned once per shape instead of on every call."""
    return tuple(np.einsum_path(subscripts, *(np.empty(s) for s in shapes), optimize=True)[0])


def _contract(subscripts: str, *operands) -> np.ndarray:
    """np.einsum(subscripts, *operands, optimize=True), on a cached path."""
    operands = [np.asarray(op) for op in operands]
    path = _contraction_path(subscripts, *(op.shape for op in operands))
    return np.einsum(subscripts, *operands, optimize=path)


def eval_grid(coeffs, bs: np.ndarray, bt: np.ndarray) -> np.ndarray:
    """Tensor evaluation on a grid: (P?, a, b, 3) from basis rows bs, bt.

    coeffs is (n+1, n+1, 3) or a stack (P, n+1, n+1, 3); bs, bt are basis
    (or derivative) matrices from bernstein_matrix.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.ndim == 3:
        return _contract("ai,ijd,bj->abd", bs, coeffs, bt)
    return _contract("ai,pijd,bj->pabd", bs, coeffs, bt)


def eval_points(coeffs, bs: np.ndarray, bt: np.ndarray) -> np.ndarray:
    """Pointwise evaluation: basis rows are paired, result (M, 3)."""
    return _contract("mi,ijd,mj->md", bs, coeffs, bt)


def evaluate_paired(coeffs, s, t, partials: bool = False):
    """P(s, t) of one patch at paired parameters, or with partials the pair
    (dP/ds, dP/dt); scalar parameters give (3,) vectors, 1-d arrays (M, 3)."""
    scalar = np.ndim(s) == 0
    s = np.atleast_1d(np.asarray(s, dtype=float))
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n = coeffs.shape[0] - 1
    b0s = bernstein_matrix(n, s)
    b0t = bernstein_matrix(n, t)
    if partials:
        out = (
            eval_points(coeffs, bernstein_matrix(n, s, 1), b0t),
            eval_points(coeffs, b0s, bernstein_matrix(n, t, 1)),
        )
    else:
        out = (eval_points(coeffs, b0s, b0t),)
    if scalar:
        out = tuple(v[0] for v in out)
    return out if partials else out[0]
