"""Clenshaw-Curtis rules and barycentric interpolation utilities.

All 1D rules live on [-1, 1] and use the closed Chebyshev-extrema grid
(endpoints included).  Nodes are returned sorted ascending; this ordering is
assumed everywhere else in the package.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .errors import UsageError


@dataclass(frozen=True)
class ClenshawCurtisRule:
    """q-point Clenshaw-Curtis rule: nodes are Chebyshev extrema, sum(w) = 2."""

    q: int
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def cc_rule(q: int) -> ClenshawCurtisRule:
    """Closed Clenshaw-Curtis rule with q nodes, exact for degree <= q - 1."""
    if q < 2:
        raise UsageError(f"Clenshaw-Curtis rule needs q >= 2, got {q}")
    n = q - 1
    theta = np.pi * np.arange(q) / n
    x = np.cos(theta)
    w = np.zeros(q)
    # Fourier-sum form of the closed-rule weights.
    jj = np.arange(1, q - 1)
    v = np.ones(q - 2)
    if n % 2 == 0:
        w[0] = w[-1] = 1.0 / (n * n - 1)
        for k in range(1, n // 2):
            v -= 2.0 * np.cos(2.0 * k * theta[jj]) / (4.0 * k * k - 1)
        v -= np.cos(n * theta[jj]) / (n * n - 1)
    else:
        w[0] = w[-1] = 1.0 / (n * n)
        for k in range(1, (n - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * theta[jj]) / (4.0 * k * k - 1)
    w[jj] = 2.0 * v / n
    # cos(j*pi/n) descends; flip so nodes ascend.
    order = np.argsort(x)
    nodes = np.ascontiguousarray(x[order])
    weights = np.ascontiguousarray(w[order])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return ClenshawCurtisRule(q=q, nodes=nodes, weights=weights)


@lru_cache(maxsize=None)
def _chebyshev_barycentric_weights(q: int) -> np.ndarray:
    """Second-kind barycentric weights for the ascending extrema grid."""
    w = np.ones(q)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    w.setflags(write=False)
    return w


def chebyshev_interpolation_matrix(q: int, t) -> np.ndarray:
    """Matrix mapping values on the q-node extrema grid to values at t.

    Rows are barycentric cardinal weights; exact for polynomials of
    degree < q.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    nodes = cc_rule(q).nodes
    w = _chebyshev_barycentric_weights(q)
    diff = t[:, None] - nodes[None, :]
    hit = diff == 0.0
    diff_safe = np.where(hit, 1.0, diff)
    c = w[None, :] / diff_safe
    mat = c / c.sum(axis=1, keepdims=True)
    exact_rows = hit.any(axis=1)
    if exact_rows.any():
        mat[exact_rows] = 0.0
        mat[exact_rows, np.argmax(hit[exact_rows], axis=1)] = 1.0
    return mat


def extrapolation_weights(p: int, t) -> np.ndarray:
    """First-kind barycentric row weights on nodes {0..p}, evaluated at t.

    Returns shape (len(t), p + 1) in extended precision: the cardinal
    weights grow combinatorially for extrapolation coordinates, so the
    products against the data are carried out in long double to keep the
    cancellation error below the 1e-12 scale of the scheme.
    """
    t = np.atleast_1d(np.asarray(t)).astype(np.longdouble)
    s = np.arange(p + 1, dtype=np.longdouble)
    w = np.array(
        [(-1) ** (p - k) * comb(p, k) for k in range(p + 1)], dtype=np.longdouble
    )
    diff = t[:, None] - s[None, :]
    hit = diff == 0.0
    diff_safe = np.where(hit, np.longdouble(1.0), diff)
    # First kind: P(t) = l(t) * sum_s w_s u_s / (t - s), l(t) = prod(t - s)/p!.
    ell = np.prod(np.where(hit, np.longdouble(1.0), diff), axis=1) / np.longdouble(
        factorial(p)
    )
    rows = (w[None, :] / diff_safe) * ell[:, None]
    if hit.any():
        exact = hit.any(axis=1)
        rows[exact] = 0.0
        rows[exact, np.argmax(hit[exact], axis=1)] = 1.0
    return rows


def extrapolate(values, weights):
    """Extrapolate stacked check values with the rows of extrapolation_weights.

    values (M (p + 1), ...) holds the p + 1 samples of each of the M lines
    of weights (M, p + 1), row i (p + 1) + s for sample s of line i; the
    result (M, ...) keeps the trailing shape.  The contraction runs in long
    double, the weights' type: the cardinal weights are large and
    alternating, and the cancellation noise would otherwise cap the scheme
    near 1e-11.  einsum casts the values as it goes, so no long-double copy
    of them is formed.
    """
    values = np.asarray(values, dtype=float)
    values = values.reshape(weights.shape + values.shape[1:])
    return np.einsum("ms,ms...->m...", weights, values).astype(float)
