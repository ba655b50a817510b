import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from hedgehog import kernels as K
from hedgehog import spatial
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
    # the direct sums too, away from the origin where |r|^2 carries rounding
    rng = np.random.default_rng(3)
    sources = 100.0 + rng.normal(size=(20, 3))
    normals = rng.normal(size=(20, 3))
    for kern in (K.LAPLACE, K.STOKES, K.elasticity(0.3)):
        density = np.ones((20, kern.d))
        with pytest.raises(CoincidentPointsError):
            K.apply_single_layer(kern, sources[7:9], sources, density)
        with pytest.raises(CoincidentPointsError):
            K.apply_double_layer(kern, sources[[2, 5]] + 1e-14, sources, normals, density)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_backends_refuse_a_non_finite_result(bad, monkeypatch):
    """One NaN or infinity anywhere in a result raises; an empty result passes."""
    rng = np.random.default_rng(11)
    targets, sources, normals = rng.normal(size=(3, 6, 3))
    sources += 3.0
    density = rng.normal(size=(6, 3))
    direct = DirectBackend()
    apply_double_layer = K.apply_double_layer
    for at in (0, 7, 17):
        def poisoned(*args):
            value = apply_double_layer(*args)
            value.reshape(-1)[at] = bad
            return value

        with monkeypatch.context() as patch:
            patch.setattr(K, "apply_double_layer", poisoned)
            with pytest.raises(CoincidentPointsError):
                direct.potential(K.STOKES, "double", sources, normals, density, targets)
    empty = direct.potential(K.STOKES, "double", sources, normals, density, np.empty((0, 3)))
    assert empty.shape == (0, 3)
    density[2, 1] = bad
    with pytest.raises(CoincidentPointsError), np.errstate(invalid="ignore"):
        direct.potential(K.STOKES, "double", sources, normals, density, targets)


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


@pytest.mark.parametrize("k", [None, 3])
@pytest.mark.parametrize("layer", ["single", "double", "combined"])
@pytest.mark.parametrize("kern", [K.LAPLACE, K.STOKES, K.elasticity(0.3)])
def test_tiled_sums_match_one_tile(kern, layer, k, monkeypatch):
    """Tiles of any size give the one-tile sum up to rounding.

    Targets fill the unit ball and sources lie on the sphere of radius 1.5,
    as check points lie off the surface: |r|^2 from a GEMM carries rounding
    of order eps |x - c|^2 / |r|^2 relative, c the tile's centre, so the
    tiling shows only at that level.
    """
    rng = np.random.default_rng(11)
    targets = rng.normal(size=(29, 3))
    targets *= rng.uniform(0.0, 1.0, (29, 1)) / np.linalg.norm(targets, axis=1, keepdims=True)
    normals = rng.normal(size=(41, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    sources = 1.5 * normals
    shape = (kern.d,) if k is None else (kern.d, k)
    first, second = rng.normal(size=(2, 41) + shape)

    def apply(m, n):
        if layer == "single":
            return K.apply_single_layer(kern, targets[:m], sources[:n], first[:n])
        if layer == "double":
            return K.apply_double_layer(kern, targets[:m], sources[:n], normals[:n], first[:n])
        return K.apply_combined(
            kern, targets[:m], sources[:n], normals[:n], first[:n], second[:n]
        )

    whole = apply(29, 41)
    assert whole.shape == (29,) + shape
    scale = np.abs(whole).max()
    if layer == "combined":
        parts = K.apply_single_layer(kern, targets, sources, first)
        parts += K.apply_double_layer(kern, targets, sources, normals, second)
        assert np.abs(whole - parts).max() <= 1e-13 * scale
    for chunk_bytes in (2000, 20000):  # uneven tiles of rows and sources
        monkeypatch.setattr(spatial, "CHUNK_BYTES", chunk_bytes)
        assert np.abs(apply(29, 41) - whole).max() <= 1e-13 * scale
        assert apply(0, 41).shape == (0,) + shape
        empty = apply(29, 0)
        assert empty.shape == (29,) + shape and not empty.any()


def test_direct_sum_memory_stays_within_the_chunk_budget(monkeypatch):
    monkeypatch.setattr(spatial, "CHUNK_BYTES", 1 << 20)
    rng = np.random.default_rng(5)
    targets = rng.normal(size=(1500, 3))
    sources = 3.0 + rng.normal(size=(2000, 3))
    normals = rng.normal(size=(2000, 3))
    density = rng.normal(size=(2000, 3))
    tracemalloc.start()
    try:
        out = K.apply_double_layer(K.elasticity(0.3), targets, sources, normals, density)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the (3, M, N) offsets of one unchunked pass alone would take 72 MB
    assert peak <= 4 * spatial.CHUNK_BYTES + out.nbytes


def _layer_sum(kern, layer, rng, m, n, k):
    """One direct sum of the given layer over random points and k densities,
    as a function of the workspace it takes."""
    targets = rng.normal(size=(m, 3))
    sources = 3.0 + rng.normal(size=(n, 3))
    normals = rng.normal(size=(n, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    first, second = rng.normal(size=(2, n, kern.d, k))
    if layer == "single":
        return lambda ws: K.apply_single_layer(kern, targets, sources, first, workspace=ws)
    if layer == "double":
        return lambda ws: K.apply_double_layer(
            kern, targets, sources, normals, first, workspace=ws
        )
    return lambda ws: K.apply_combined(
        kern, targets, sources, normals, first, second, workspace=ws
    )


@pytest.mark.parametrize("layer", ["single", "double", "combined"])
@pytest.mark.parametrize("kern", [K.LAPLACE, K.STOKES, K.elasticity(0.3)])
def test_tile_workspace_carries_nothing_between_sums(kern, layer, monkeypatch):
    """A sum has the same bits on a fresh workspace as after a smaller sum,
    which makes the workspace grow under it, and after a larger sum, which
    leaves it larger: with every slot poisoned in between, no value of an
    earlier sum is read.  The workspace stays within the tiling's bound."""
    monkeypatch.setattr(spatial, "CHUNK_BYTES", 1 << 18)  # tiles of at most 2,730 pairs
    rng = np.random.default_rng(12)
    smaller, middle, larger = (
        _layer_sum(kern, layer, rng, m, n, k)
        for m, n, k in ((9, 13, 1), (70, 80, 2), (130, 160, 4))
    )
    fresh = middle(K.Workspace())
    assert middle(None).tobytes() == fresh.tobytes()
    for before in (smaller, larger):
        ws = K.Workspace()
        before(ws)
        for slot in ws.slots.values():
            slot.fill(np.nan)
        assert middle(ws).tobytes() == fresh.tobytes()
        assert 0 < sum(slot.nbytes for slot in ws.slots.values()) <= spatial.CHUNK_BYTES


def test_backend_workspace_is_per_thread(monkeypatch):
    """Threads that sum through one backend at once each get their own tile
    temporaries: every result has the bits of the same sum run alone."""
    monkeypatch.setattr(spatial, "CHUNK_BYTES", 1 << 16)  # many tiles per sum
    backend = DirectBackend()
    rng = np.random.default_rng(14)
    problems = []
    for m, n in ((60, 90), (75, 70), (90, 50)):
        targets = rng.normal(size=(m, 3))
        sources, normals = rng.normal(size=(2, n, 3))
        problems.append((sources + 3.0, normals, rng.normal(size=(n, 3, 2)), targets))

    def run(i):
        return backend.potential(K.STOKES, "double", *problems[i])

    want = [run(i).tobytes() for i in range(len(problems))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=3) as pool:
            jobs = [(i, pool.submit(run, i)) for _ in range(4) for i in range(len(problems))]
            got = [(i, job.result(timeout=60)) for i, job in jobs]
    finally:
        sys.setswitchinterval(interval)
    assert all(out.tobytes() == want[i] for i, out in got)


def test_potential_writes_into_out():
    """out receives the bits of a new result, whatever it held before."""
    rng = np.random.default_rng(13)
    targets, sources, normals = rng.normal(size=(3, 20, 3))
    sources += 3.0
    density = rng.normal(size=(20, 3, 2))
    direct = DirectBackend()
    want = direct.potential(K.STOKES, "double", sources, normals, density, targets)
    out = np.full(want.shape, np.nan)
    got = direct.potential(K.STOKES, "double", sources, normals, density, targets, out)
    assert got is out and got.tobytes() == want.tobytes()
    with pytest.raises(UsageError, match="C-contiguous float array of shape"):
        direct.potential(K.STOKES, "double", sources, normals, density, targets, np.empty((20, 6)))


def test_direct_sum_over_the_pair_budget_is_refused(monkeypatch):
    monkeypatch.setattr(K, "PAIR_BUDGET", 999)
    rng = np.random.default_rng(6)
    targets, sources = rng.normal(size=(2, 40, 3))
    with pytest.raises(UsageError, match="1.6e\\+03 pairs exceeds the budget of 999 pairs"):
        K.apply_single_layer(K.LAPLACE, targets, sources, np.ones(40))
    with pytest.raises(UsageError, match="budget"):
        DirectBackend().potential(K.STOKES, "double", sources, sources, np.ones((40, 3)), targets)


def _traction_long_double(kern, r, n):
    """traction_kernel(kern, r, n) per pair in long double: r (m, n, 3), n broadcast."""
    n = np.broadcast_to(n, r.shape)
    rho2 = np.einsum("mnk,mnk->mn", r, r)
    rn = np.einsum("mnk,mnk->mn", r, n)
    rr = r[..., :, None] * r[..., None, :]
    if kern.family is K.Family.STOKES:
        return (-3.0 / (4.0 * np.pi)) * (rn / rho2**2.5)[..., None, None] * rr
    nu = kern.poisson_ratio
    sym = (1.0 - 2.0 * nu) * (
        n[..., :, None] * r[..., None, :]
        - rn[..., None, None] * np.eye(3)
        - r[..., :, None] * n[..., None, :]
    )
    c = 1.0 / (8.0 * np.pi * (1.0 - nu) * rho2**1.5)
    return c[..., None, None] * (sym - 3.0 * (rn / rho2)[..., None, None] * rr)


def _direct_long_double(kern, layer, x, y, normals, density):
    """The direct sums of kernels.py from the closed forms, in long double.

    layer "conormal" takes x as the field points, normals at x, and y as
    the charges; "single" and "double" take normals at the sources y.
    """
    x, y, normals, density = (np.asarray(a, dtype=np.longdouble) for a in (x, y, normals, density))
    if layer == "single":
        r = x[:, None, :] - y[None, :, :]
        rho = np.sqrt(np.einsum("mnk,mnk->mn", r, r))[..., None, None]
        if kern.family is K.Family.STOKES:
            c, diag = 1.0 / (8.0 * np.pi), 1.0
        else:
            nu = kern.poisson_ratio
            c, diag = 1.0 / (16.0 * np.pi * (1.0 - nu)), 3.0 - 4.0 * nu
        G = c * (diag * np.eye(3) / rho + r[..., :, None] * r[..., None, :] / rho**3)
        return np.einsum("mnij,nj->mi", G, density)
    if layer == "double":
        T = _traction_long_double(kern, y[None, :, :] - x[:, None, :], normals[None, :, :])
        return -np.einsum("mnji,nj->mi", T, density)
    T = _traction_long_double(kern, x[:, None, :] - y[None, :, :], normals[:, None, :])
    return np.einsum("mnij,nj->mi", T, density)


# Error at b = 0.2, 0.05 and 0.01 of the test below, relative to the largest
# value, of sums that form each component K_ij = w r_i r_j from exact
# differences (with |r|^2 and r . n from the same GEMMs); the test allows
# twice these.  Expanding r_i r_j in the tile-centred coordinates raises
# the double-layer errors 2- to 13-fold and fails it.
_NEAR_ERRORS = {
    ("stokes", "single"): (5.91e-16, 4.27e-15, 3.22e-14),
    ("stokes", "double"): (1.00e-14, 3.16e-13, 2.05e-12),
    ("stokes", "conormal"): (2.94e-14, 3.05e-13, 3.58e-12),
    ("elasticity", "single"): (6.90e-16, 3.29e-15, 2.42e-14),
    ("elasticity", "double"): (7.83e-15, 2.40e-13, 1.90e-12),
    ("elasticity", "conormal"): (2.96e-14, 3.07e-13, 4.28e-12),
}


@pytest.fixture(scope="module")
def sphere_fine_nodes(unit_sphere_patches):
    from hedgehog.quadrature import discretize
    from hedgehog.refinement import uniform_upsample

    return discretize(unit_sphere_patches, 6), discretize(uniform_upsample(unit_sphere_patches, 1), 6)


@pytest.mark.parametrize("layer", ["single", "double", "conormal"])
@pytest.mark.parametrize("kern", [K.STOKES, K.elasticity(0.3)])
def test_near_source_sums_match_long_double(kern, layer, unit_sphere_patches, sphere_fine_nodes):
    """Targets at b L inside every patch of the sphere against its fine nodes.

    Each direct sum stays within twice the error of per-component kernel
    matrices (_NEAR_ERRORS); the error grows as b shrinks because rounding
    in the tile-centred coordinates scales like |x - c| / |r|.  For the conormal the off-surface points are the
    charges and the fine nodes the field points.
    """
    from hedgehog.geometry.patches import evaluate, normal

    _, fine = sphere_fine_nodes
    rng = np.random.default_rng(3)
    pids = np.repeat(np.arange(len(unit_sphere_patches)), 2)
    params = rng.uniform(-0.8, 0.8, (len(pids), 2))
    anchors = np.array([evaluate(unit_sphere_patches[p], s, t) for p, (s, t) in zip(pids, params)])
    normals = np.array([normal(unit_sphere_patches[p], s, t) for p, (s, t) in zip(pids, params)])
    lengths = unit_sphere_patches.lengths[pids][:, None]
    y, n_y = fine.positions, fine.normals
    density = np.stack(
        [np.sin(2.0 * y[:, 0]) + 1.5, np.cos(y[:, 1]) - 0.3, y[:, 2] ** 2 + 0.4], axis=1
    ) * fine.weights[:, None]
    strengths = np.cos(np.arange(3 * len(pids))).reshape(-1, 3)
    bounds = _NEAR_ERRORS[kern.family.value, layer]
    for b, parent_error in zip((0.2, 0.05, 0.01), bounds):
        x = anchors - b * lengths * normals
        if layer == "single":
            got = K.apply_single_layer(kern, x, y, density)
            exact = _direct_long_double(kern, layer, x, y, n_y, density)
        elif layer == "double":
            got = K.apply_double_layer(kern, x, y, n_y, density)
            exact = _direct_long_double(kern, layer, x, y, n_y, density)
        else:
            got = K.point_source_conormal(kern, x, strengths, y, n_y)
            exact = _direct_long_double(kern, layer, y, x, n_y, strengths)
        error = float(np.abs(got - exact).max() / np.abs(exact).max())
        assert error <= 2.0 * parent_error, f"b = {b}: {error:.3g}"


@pytest.mark.parametrize("layer", ["single", "double"])
@pytest.mark.parametrize("kern", [K.STOKES, K.elasticity(0.3)])
def test_identity_block_shares_one_product_per_tile(kern, layer, sphere_fine_nodes):
    """One coarse patch of the identity the operator build sums.

    Its three components hold the same upsampled basis, so every tile
    multiplies one shared block; the result must match the columns summed
    one at a time, and the same block once an extra column per component
    makes the three components' value arrays distinct.
    """
    from hedgehog.quadrature import upsample_density

    coarse, fine = sphere_fine_nodes
    qq = coarse.q**2
    rows = np.flatnonzero(np.repeat(fine.patchset.ancestors, fine.q**2) == 0)
    unit = np.zeros((len(coarse), qq))
    unit[:qq] = np.eye(qq)
    basis = upsample_density(coarse, unit, fine)[rows] * fine.weights[rows, None]
    sources, normals = fine.positions[rows], fine.normals[rows]
    targets = 0.9 * coarse.positions[:qq] + 0.01
    shared = np.zeros((len(rows), 3, 3 * qq))
    for j in range(3):
        shared[:, j, j::3] = basis
    rng = np.random.default_rng(4)
    distinct = np.concatenate([shared, np.zeros((len(rows), 3, 3))], axis=2)
    for j in range(3):
        distinct[:, j, 3 * qq + j] = rng.normal(size=len(rows))

    def apply(density):
        if layer == "single":
            return K.apply_single_layer(kern, targets, sources, density)
        return K.apply_double_layer(kern, targets, sources, normals, density)

    out = apply(shared)
    scale = np.abs(out).max()
    columns = np.stack([apply(shared[:, :, c]) for c in range(3 * qq)], axis=-1)
    assert np.abs(out - columns).max() <= 1e-13 * scale
    apart = apply(distinct)
    assert np.abs(out - apart[:, :, : 3 * qq]).max() <= 1e-13 * scale
    extra = np.stack([apply(distinct[:, :, 3 * qq + j]) for j in range(3)], axis=-1)
    assert np.abs(apart[:, :, 3 * qq :] - extra).max() <= 1e-13 * np.abs(extra).max()
