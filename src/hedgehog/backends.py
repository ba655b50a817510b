"""The one potential summation of the package.

DirectBackend is the O(N * M) kernel sum of kernels.py, evaluated with
numpy over every (target, source) pair.  Every layer-potential sum of
quadrature.py goes through default_backend(), so this module alone decides
which summation runs; a fast scheme (treecode, multipole) replaces the sum
here and must match direct summation within its own stated tolerance.

All entry points take the weighted density (density values already
multiplied by the quadrature weights), so the sum never sees the surface
discretization, only points, normals and charge vectors.  A weighted density
is one (N, d) vector field or a block of k of them, (N, d, k), or the same
N * d * k values as (N, d * k); the potential keeps the trailing shape,
(M, d) or (M, d, k) or (M, d * k), and is written into out when the caller
passes an array of that shape.  DirectBackend sums a block in one pass
over the pairs, in tiles of bounded memory (one GEMM per output component
and tile, see kernels.py), and refuses a sum over more than
kernels.PAIR_BUDGET pairs.
"""

import numpy as np

from . import kernels as K
from .errors import CoincidentPointsError, UsageError

# there is no compiled summation path; the flag stays for environment records
HAVE_NUMBA = False


def _as_contig(a):
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64))


class DirectBackend:
    """Direct summation over every (target, source) pair.

    Its sums take their tile temporaries from one kernels.Workspace (per
    thread) that lives as long as the backend, so that the many sums of an
    operator build or an evaluation reuse the same memory.
    """

    def __init__(self):
        self.workspace = K.Workspace()

    def potential(self, kernel, layer, sources, normals, weighted_density, targets, out=None):
        """Evaluate sum_I K(x, y_I) sigma_I at targets, sigma = phi * w.

        layer is "single", "double", or "combined"; combined takes
        weighted_density as a (sigma_single, sigma_double) pair.  out, a
        C-contiguous float array of the result's shape, receives the result
        when given.
        """
        sources = _as_contig(sources)
        targets = _as_contig(np.atleast_2d(targets))
        if layer == "combined":
            out = K.apply_combined(
                kernel, targets, sources, _as_contig(normals),
                _as_contig(weighted_density[0]), _as_contig(weighted_density[1]),
                out, self.workspace,
            )
        elif layer == "single":
            out = K.apply_single_layer(
                kernel, targets, sources, _as_contig(weighted_density), out, self.workspace
            )
        elif layer == "double":
            out = K.apply_double_layer(
                kernel, targets, sources, _as_contig(normals), _as_contig(weighted_density),
                out, self.workspace,
            )
        else:
            raise UsageError(f"unknown layer {layer!r}")
        # min and max propagate NaN and carry any infinity, so the result is
        # finite when both are; no boolean array of the result's size is formed
        if out.size and not (np.isfinite(out.min()) and np.isfinite(out.max())):
            raise CoincidentPointsError(
                "non-finite potential: a target coincides with a quadrature node"
            )
        return out


_default_backend = None


def default_backend() -> DirectBackend:
    global _default_backend
    if _default_backend is None:
        _default_backend = DirectBackend()
    return _default_backend
