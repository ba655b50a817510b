"""Potential summation backends.

DirectBackend is the reference: the O(N * M) kernel sum of kernels.py,
evaluated with numpy over every (target, source) pair.  A fast summation
scheme (treecode, multipole) can be slotted in through PluginBackend without
touching any caller; its contract is to match direct summation within its
own stated tolerance.

All entry points take the weighted density (density values already
multiplied by the quadrature weights), so backends never see the surface
discretization, only points, normals and charge vectors.  A weighted density
is one (N, d) vector field or a block of k of them, (N, d, k), or the same
N * d * k values as (N, d * k); the potential keeps the trailing shape,
(M, d) or (M, d, k) or (M, d * k), and is written into out when the caller
passes an array of that shape.  DirectBackend sums a block in one pass
over the pairs, in tiles of bounded memory (one GEMM per output component
and tile, see kernels.py), and refuses a sum over more than
kernels.PAIR_BUDGET pairs; PluginBackend hands its callable one (N, d)
density at a time.
"""

import numpy as np

from . import kernels as K
from .errors import CoincidentPointsError, UsageError

# there is no compiled summation path; the flag stays for environment records
HAVE_NUMBA = False


def _as_contig(a):
    return np.ascontiguousarray(np.asarray(a, dtype=np.float64))


class DirectBackend:
    """Reference direct-summation backend.

    Its sums take their tile temporaries from one kernels.Workspace (per
    thread) that lives as long as the backend, so that the many sums of an
    operator build or an evaluation reuse the same memory.
    """

    strategy = "direct"

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
        self._check_finite(out)
        return out

    @staticmethod
    def _check_finite(out):
        # min and max propagate NaN and carry any infinity, so the result is
        # finite when both are; no boolean array of the result's size is formed
        if out.size and not (np.isfinite(out.min()) and np.isfinite(out.max())):
            raise CoincidentPointsError(
                "non-finite potential: a target coincides with a quadrature node"
            )


class PluginBackend(DirectBackend):
    """Wrap an external fast-summation callable with the backend interface.

    The callable receives (kernel, layer, sources, normals, weighted_density,
    targets) with one (N, d) density (a pair of them for "combined") and
    must match direct summation within its advertised tolerance.  A block of
    k densities is applied column by column.
    """

    strategy = "plug-in"

    def __init__(self, fn):
        self._fn = fn

    def potential(self, kernel, layer, sources, normals, weighted_density, targets, out=None):
        m = np.atleast_2d(targets).shape[0]
        n = np.atleast_2d(sources).shape[0]
        parts = weighted_density if layer == "combined" else (weighted_density,)
        blocks, shapes = zip(*(K.density_columns(part, n, kernel.d) for part in parts))
        columns = []
        for c in range(blocks[0].shape[2]):
            column = tuple(block[:, :, c] for block in blocks)
            value = self._fn(
                kernel, layer, sources, normals,
                column if layer == "combined" else column[0], targets,
            )
            columns.append(np.asarray(value, dtype=float).reshape(m, kernel.d))
        result = np.stack(columns, axis=-1).reshape((m,) + shapes[0])
        self._check_finite(result)
        if out is None:
            return result
        out[...] = result
        return out


_default_backend = None


def default_backend() -> DirectBackend:
    global _default_backend
    if _default_backend is None:
        _default_backend = DirectBackend()
    return _default_backend
