import numpy as np
import pytest

import hedgehog.geometry as geo
from hedgehog.geometry.patches import PatchSet, Subdomain, fit_patch
from hedgehog.kernels import density_columns
from hedgehog.quadrature import upsampled_blocks


@pytest.fixture(scope="session")
def upsampled_sum():
    """The sum of quadrature.upsampled_blocks over every coarse patch: smooth
    quadrature on the fine set of a density given at the coarse nodes, with
    the density's trailing shape."""

    def total(kernel, layer, nodes, density, fine_nodes, targets):
        part = density[0] if layer == "combined" else density
        block, shape = density_columns(part, len(nodes), kernel.d)
        out = np.zeros((len(targets), kernel.d, block.shape[2]))
        for cols, terms in upsampled_blocks(kernel, layer, nodes, density, fine_nodes, targets):
            out[:, :, cols] += terms
        return out.reshape((len(targets),) + shape)

    return total


@pytest.fixture(scope="session")
def unit_sphere_patches():
    """24-patch degree-12 fit of the unit sphere (fit error ~1e-6)."""
    mesh = geo.sphere_mesh(1.0, per_face=2)
    patches = [
        fit_patch(emb, r, Subdomain(), 12) for r, emb in enumerate(mesh.embeddings)
    ]
    return PatchSet(patches, mesh=mesh)


@pytest.fixture(scope="session")
def flat_square_patch():
    """Unit square [-0.5, 0.5]^2 at z = 0 with +z normal."""
    emb = geo.plate_embedding([-0.5, -0.5, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    return fit_patch(emb, 0, Subdomain(), 3)


@pytest.fixture(scope="session")
def random_cubic_patch():
    """Mildly warped bicubic patch used by closest-point oracles."""
    rng = np.random.default_rng(42)
    grid = np.linspace(-1.0, 1.0, 4)
    coeffs = np.empty((4, 4, 3))
    coeffs[..., 0] = grid[:, None]
    coeffs[..., 1] = grid[None, :]
    coeffs[..., 2] = 0.35 * rng.normal(size=(4, 4))
    from hedgehog.geometry.patches import SurfacePatch

    return SurfacePatch(coeffs=coeffs, root_id=0)


@pytest.fixture(scope="session")
def torus_patches():
    """32-patch degree-16 fit of the built-in torus."""
    mesh = geo.torus_mesh()
    patches = [
        fit_patch(emb, r, Subdomain(), 16) for r, emb in enumerate(mesh.embeddings)
    ]
    return PatchSet(patches, mesh=mesh)
