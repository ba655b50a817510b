"""Potential summation backends.

DirectBackend is the reference: the O(N * M) kernel sum of kernels.py,
evaluated with numpy over every (target, source) pair.  A fast summation
scheme (treecode, multipole) can be slotted in through PluginBackend without
touching any caller; its contract is to match direct summation within its
own stated tolerance.

All entry points take the weighted density (density values already
multiplied by the quadrature weights), so backends never see the surface
discretization, only points, normals and charge vectors.
"""

import numpy as np

from . import kernels as K
from .errors import CoincidentPointsError, UsageError

# there is no compiled summation path; the flag stays for environment records
HAVE_NUMBA = False


def _as_contig(a):
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64))


class DirectBackend:
    """Reference direct-summation backend."""

    strategy = "direct"

    def potential(self, kernel, layer, sources, normals, weighted_density, targets):
        """Evaluate sum_I K(x, y_I) sigma_I at targets, sigma = phi * w.

        layer is "single", "double", or "combined"; combined is Laplace only
        and takes weighted_density as a (sigma_single, sigma_double) pair.
        """
        sources = _as_contig(sources)
        targets = _as_contig(np.atleast_2d(targets))
        if len(targets) == 0:
            return np.empty((0, kernel.d))
        if layer == "combined":
            if kernel.family is not K.Family.LAPLACE:
                raise UsageError("combined layer sum is Laplace only")
            sig_s = _as_contig(weighted_density[0]).reshape(-1, 1)
            sig_d = _as_contig(weighted_density[1]).reshape(-1, 1)
            out = K.apply_single_layer(kernel, targets, sources, sig_s)
            out = out + K.apply_double_layer(kernel, targets, sources, _as_contig(normals), sig_d)
        elif layer in ("single", "double"):
            sigma = _as_contig(weighted_density).reshape(sources.shape[0], kernel.d)
            if layer == "single":
                out = K.apply_single_layer(kernel, targets, sources, sigma)
            else:
                out = K.apply_double_layer(kernel, targets, sources, _as_contig(normals), sigma)
        else:
            raise UsageError(f"unknown layer {layer!r}")
        self._check_finite(out)
        return out

    @staticmethod
    def _check_finite(out):
        if not np.all(np.isfinite(out)):
            raise CoincidentPointsError(
                "non-finite potential: a target coincides with a quadrature node"
            )


class PluginBackend(DirectBackend):
    """Wrap an external fast-summation callable with the backend interface.

    The callable receives (kernel, layer, sources, normals, weighted_density,
    targets) and must match direct summation within its advertised tolerance.
    """

    strategy = "plug-in"

    def __init__(self, fn):
        self._fn = fn

    def potential(self, kernel, layer, sources, normals, weighted_density, targets):
        out = self._fn(kernel, layer, sources, normals, weighted_density, targets)
        out = np.asarray(out, dtype=float).reshape(np.atleast_2d(targets).shape[0], kernel.d)
        self._check_finite(out)
        return out


_default_backend = None


def default_backend() -> DirectBackend:
    global _default_backend
    if _default_backend is None:
        _default_backend = DirectBackend()
    return _default_backend
