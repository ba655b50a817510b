import numpy as np
import pytest

from hedgehog import kernels as K
from hedgehog.backends import DirectBackend
from hedgehog.errors import CoincidentPointsError, UsageError
from hedgehog.chebyshev import cc_rule


def test_laplace_unit_distance():
    g = K.fundamental_solution(K.LAPLACE, [0, 0, 0], [1, 0, 0])
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(1.0 / (4.0 * np.pi))


def test_single_layer_at_distance_two():
    g = K.fundamental_solution(K.LAPLACE, [0, 0, 0], [0, 2, 0])
    assert g[0, 0] == pytest.approx(1.0 / (8.0 * np.pi))


def test_laplace_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, y = rng.normal(size=(2, 3))
        gxy = K.fundamental_solution(K.LAPLACE, x, y)
        gyx = K.fundamental_solution(K.LAPLACE, y, x)
        assert gxy[0, 0] == pytest.approx(gyx[0, 0], rel=1e-14)


def test_laplace_rigid_motion_invariance():
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(2, 3))
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    t = rng.normal(size=3)
    g0 = K.fundamental_solution(K.LAPLACE, x, y)[0, 0]
    g1 = K.fundamental_solution(K.LAPLACE, q @ x + t, q @ y + t)[0, 0]
    assert g1 == pytest.approx(g0, rel=1e-12)


def test_laplace_harmonic_by_finite_differences():
    # central-difference Laplacian of G(., y) vanishes away from y
    y = np.array([0.3, -0.2, 0.1])
    x = y + np.array([1.0, 0.0, 0.0])
    h = 1e-3
    lap = 0.0
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        lap += (
            K.fundamental_solution(K.LAPLACE, x + e, y)[0, 0]
            - 2.0 * K.fundamental_solution(K.LAPLACE, x, y)[0, 0]
            + K.fundamental_solution(K.LAPLACE, x - e, y)[0, 0]
        ) / h**2
    assert abs(lap) < 1e-5


def test_coincident_points_raise():
    with pytest.raises(CoincidentPointsError):
        K.fundamental_solution(K.LAPLACE, [1, 2, 3], [1, 2, 3])
    with pytest.raises(CoincidentPointsError):
        K.double_layer_kernel(K.STOKES, [1, 0, 0], [1, 0, 0], [0, 0, 1])


def test_value_dimensions():
    assert K.LAPLACE.d == 1
    assert K.STOKES.d == 3
    assert K.elasticity(0.3).d == 3
    assert K.fundamental_solution(K.STOKES, [0, 0, 0], [1, 0, 0]).shape == (3, 3)
    assert K.fundamental_solution(K.LAPLACE, [0, 0, 0], [1, 0, 0]).shape == (1, 1)


def test_elasticity_poisson_ratio_validated():
    with pytest.raises(UsageError):
        K.elasticity(0.5)
    with pytest.raises(UsageError):
        K.KernelFamily(K.Family.ELASTICITY)


def test_kernels_decay():
    n = np.array([0.0, 0.0, 1.0])
    for kern in (K.LAPLACE, K.STOKES, K.elasticity(0.25)):
        near = K.double_layer_kernel(kern, [0, 0, 0], [0.5, 0.3, 0.9], n)
        far = K.double_layer_kernel(kern, [0, 0, 0], [50.0, 30.0, 90.0], n)
        assert np.abs(far).max() < 1e-4 * max(np.abs(near).max(), 1.0)


def test_sphere_center_double_layer_kernel_value():
    # x at center of unit sphere: kernel is 1/(4 pi), integral over sphere is 1
    y = np.array([0.0, 0.0, 1.0])
    k = K.double_layer_kernel(K.LAPLACE, np.zeros(3), y, y)
    assert k[0, 0] == pytest.approx(1.0 / (4.0 * np.pi))


def _dense_sphere_rule(q=36, radius=1.0):
    """Tensor product rule on the sphere via spherical angles (smooth)."""
    rule = cc_rule(q)
    th = 0.5 * (rule.nodes + 1.0) * np.pi  # polar in [0, pi]
    ph = (rule.nodes + 1.0) * np.pi  # azimuth in [0, 2 pi]
    wt = rule.weights * np.pi / 2.0
    wp = rule.weights * np.pi
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    W = np.outer(wt, wp) * np.sin(TH) * radius**2
    pts = radius * np.stack(
        [np.sin(TH) * np.cos(PH), np.sin(TH) * np.sin(PH), np.cos(TH)], axis=-1
    ).reshape(-1, 3)
    normals = pts / radius
    return pts, normals, W.reshape(-1)


@pytest.mark.parametrize("kern", [K.LAPLACE, K.STOKES, K.elasticity(0.3)])
def test_constant_density_identity_dense_quadrature(kern):
    # double layer of a constant density: +1 inside, 0 outside
    pts, normals, w = _dense_sphere_rule()
    const = np.ones((len(pts), kern.d))
    inside = K.apply_double_layer(kern, np.array([[0.1, 0.0, -0.2]]), pts, normals, const * w[:, None])
    outside = K.apply_double_layer(kern, np.array([[2.5, 1.0, 0.3]]), pts, normals, const * w[:, None])
    assert np.abs(inside - 1.0).max() < 1e-10
    assert np.abs(outside).max() < 1e-10


def test_stokes_stresslet_identity_at_interior_point():
    pts, normals, w = _dense_sphere_rule()
    const = np.ones((len(pts), 3)) * w[:, None]
    val = K.apply_double_layer(K.STOKES, np.array([[0.0, 0.2, 0.1]]), pts, normals, const)
    assert np.allclose(val, 1.0, atol=1e-10)


@pytest.mark.parametrize("kern", [K.LAPLACE, K.STOKES, K.elasticity(0.35)])
def test_point_source_conormal_matches_finite_differences(kern):
    """Traction/normal-derivative closed forms against FD of the field."""
    charge = np.array([[1.5, 0.2, -0.3]])
    psi = np.array([[0.7, -0.4, 0.9][: kern.d]])
    x = np.array([0.2, -0.1, 0.3])
    n = np.array([0.36, -0.48, 0.8])
    n /= np.linalg.norm(n)
    h = 1e-6

    def u(pt):
        return K.point_source_field(kern, charge, psi, pt[None, :])[0]

    grad = np.zeros((kern.d, 3))
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        grad[:, k] = (u(x + e) - u(x - e)) / (2.0 * h)
    if kern.family is K.Family.LAPLACE:
        expected = grad[0] @ n
    else:
        if kern.family is K.Family.STOKES:
            # pressure of a point force: p = r . psi / (4 pi rho^3) per unit mu
            r = x - charge[0]
            rho = np.linalg.norm(r)
            pressure = (r @ psi[0]) / (4.0 * np.pi * rho**3)
            stress = -pressure * np.eye(3) + kern.viscosity * (grad + grad.T)
        else:
            nu = kern.poisson_ratio
            lam = 2.0 * kern.viscosity * nu / (1.0 - 2.0 * nu)
            strain = 0.5 * (grad + grad.T)
            stress = lam * np.trace(strain) * np.eye(3) + 2.0 * kern.viscosity * strain
        expected = stress @ n
    got = K.point_source_conormal(kern, charge, psi, x[None, :], n[None, :])[0]
    assert np.allclose(got, expected, rtol=1e-6, atol=1e-8)


def test_greens_identity_dense_quadrature_far_point():
    """S[du/dn] + D[u] - u = 0 for a point-charge field, smooth quadrature."""
    pts, normals, w = _dense_sphere_rule()
    charge = np.array([[0.0, 0.0, 2.0]])
    psi = np.array([[1.0]])
    x = np.array([[0.1, -0.05, 0.0]])  # far interior point
    u_b = K.point_source_field(K.LAPLACE, charge, psi, pts)
    t_b = K.point_source_conormal(K.LAPLACE, charge, psi, pts, normals)
    s_val = K.apply_single_layer(K.LAPLACE, x, pts, t_b * w[:, None])
    d_val = K.apply_double_layer(K.LAPLACE, x, pts, normals, u_b * w[:, None])
    u_exact = K.point_source_field(K.LAPLACE, charge, psi, x)
    assert abs(s_val[0, 0] + d_val[0, 0] - u_exact[0, 0]) < 1e-8


@pytest.mark.parametrize("kern", [K.STOKES, K.elasticity(0.3)])
def test_somigliana_identity_vector_kernels(kern):
    pts, normals, w = _dense_sphere_rule()
    charge = np.array([[0.0, 1.9, 0.4]])
    psi = np.array([[0.3, -0.8, 0.5]])
    x = np.array([[0.05, 0.1, -0.15]])
    u_b = K.point_source_field(kern, charge, psi, pts)
    t_b = K.point_source_conormal(kern, charge, psi, pts, normals)
    # through the summation backend, so its (N, 3) charge layout is covered
    backend = DirectBackend()
    s_val = backend.potential(kern, "single", pts, normals, t_b * w[:, None], x)
    d_val = backend.potential(kern, "double", pts, normals, u_b * w[:, None], x)
    u_exact = K.point_source_field(kern, charge, psi, x)
    assert np.abs(s_val + d_val - u_exact).max() < 1e-8


@pytest.mark.parametrize("layer", ["single", "double"])
@pytest.mark.parametrize("kern", [K.LAPLACE, K.STOKES, K.elasticity(0.3)])
def test_block_density_matches_stacked_columns(kern, layer):
    """A block (N, d, k) of densities sums to the k single-density results."""
    rng = np.random.default_rng(7)
    targets = rng.normal(size=(23, 3))
    sources = 2.0 * rng.normal(size=(31, 3))
    normals = rng.normal(size=(31, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    block = rng.normal(size=(31, kern.d, 4))

    def apply(density):
        if layer == "single":
            return K.apply_single_layer(kern, targets, sources, density)
        return K.apply_double_layer(kern, targets, sources, normals, density)

    out = apply(block)
    stacked = np.stack([apply(block[:, :, c]) for c in range(4)], axis=-1)
    assert out.shape == stacked.shape == (23, kern.d, 4)
    assert np.abs(out - stacked).max() <= 1e-12 * np.abs(stacked).max()
    # the same values given as (N, d * k) keep that trailing shape
    flat = apply(block.reshape(31, -1))
    assert flat.shape == (23, kern.d * 4)
    assert np.abs(flat - out.reshape(23, -1)).max() <= 1e-12 * np.abs(stacked).max()
