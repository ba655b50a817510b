import numpy as np
import pytest

import hedgehog.geometry as geo
from hedgehog import kernels as K
from hedgehog.chebyshev import cc_rule
from hedgehog.errors import CoincidentPointsError, UsageError
from hedgehog.geometry.patches import PatchSet, Subdomain, fit_patch
from hedgehog.quadrature import (
    discretize,
    quadrature_error_heuristic,
    smooth_potential,
    upsample_density,
)
from hedgehog.references import ReferenceSolution
from hedgehog.refinement import uniform_upsample


@pytest.fixture(scope="module")
def sphere96():
    mesh = geo.sphere_mesh(1.0, per_face=4)
    return PatchSet(
        [fit_patch(e, r, Subdomain(), 12) for r, e in enumerate(mesh.embeddings)],
        mesh=mesh,
    )


def test_flat_patch_weights_sum_to_area(flat_square_patch):
    nodes = discretize(PatchSet([flat_square_patch]), 8)
    assert nodes.area == pytest.approx(1.0, abs=1e-14)
    emb = geo.plate_embedding([0, 0, 0], [2, 0, 0], [0, 2, 0])
    big = fit_patch(emb, 0, Subdomain(), 2)
    assert discretize(PatchSet([big]), 6).area == pytest.approx(4.0, abs=1e-13)


def test_sphere_area_and_node_positions(sphere96):
    nodes = discretize(sphere96, 20)
    assert len(nodes) == 96 * 400
    assert abs(nodes.area - 4.0 * np.pi) < 1e-10
    # stored (s, t) reproduce the node positions through the owning patch
    rng = np.random.default_rng(0)
    for i in rng.integers(0, len(nodes), 20):
        patch = sphere96[nodes.patch_ids[i]]
        pos = geo.evaluate(patch, nodes.params[i, 0], nodes.params[i, 1])
        assert np.abs(pos - nodes.positions[i]).max() < 1e-14


def test_global_index_is_patch_major(sphere96):
    q = 6
    nodes = discretize(sphere96, q)
    assert np.array_equal(nodes.patch_ids[: q * q], np.zeros(q * q, dtype=int))
    # node (a, b) of patch i sits at global index i q^2 + a q + b
    rule = cc_rule(q)
    assert nodes.params[1, 1] == rule.nodes[1]
    assert nodes.params[q, 0] == rule.nodes[1]


def test_winding_number_at_center(sphere96):
    nodes = discretize(sphere96, 20)
    val = smooth_potential(
        K.LAPLACE, "double", nodes, np.ones(len(nodes)), np.zeros((1, 3))
    )
    assert abs(val[0, 0] - 1.0) < 1e-10


def test_zero_density_zero_potential(sphere96):
    nodes = discretize(sphere96, 8)
    val = smooth_potential(
        K.LAPLACE, "double", nodes, np.zeros(len(nodes)), np.array([[0.2, 0.1, 0.0]])
    )
    assert val[0, 0] == 0.0


def test_smooth_potential_linear_in_density(sphere96):
    nodes = discretize(sphere96, 8)
    rng = np.random.default_rng(1)
    phi1 = rng.normal(size=len(nodes))
    phi2 = rng.normal(size=len(nodes))
    targets = rng.normal(size=(5, 3)) * 0.2
    a = 0.37
    lhs = smooth_potential(K.LAPLACE, "double", nodes, a * phi1 + phi2, targets)
    rhs = a * smooth_potential(K.LAPLACE, "double", nodes, phi1, targets) + \
        smooth_potential(K.LAPLACE, "double", nodes, phi2, targets)
    assert np.abs(lhs - rhs).max() < 1e-12 * max(1.0, np.abs(lhs).max())


def test_greens_identity_far_interior_accuracy(sphere96):
    """Reconstruction from boundary data is quadrature-exact at far targets."""
    nodes = discretize(sphere96, 20)
    ref = ReferenceSolution.on_sphere(K.LAPLACE, m=10, radius=2.0, seed=2)
    u_b = ref.field(nodes.positions)
    t_b = ref.conormal(nodes.positions, nodes.normals)
    target = np.array([[0.15, -0.1, 0.05]])
    val = smooth_potential(K.LAPLACE, "combined", nodes, (t_b, u_b), target)
    exact = ref.field(target)
    assert abs(val[0, 0] - exact[0, 0]) < 1e-8


def test_target_on_node_raises(sphere96):
    nodes = discretize(sphere96, 6)
    with pytest.raises(CoincidentPointsError):
        smooth_potential(
            K.LAPLACE, "double", nodes, np.ones(len(nodes)),
            nodes.positions[3][None, :],
        )


# ---------------------------------------------------------------------------
# Upsampling
# ---------------------------------------------------------------------------


def _root_params(nodes):
    """(s, t) of every node in its root square, pulled back through the
    domain of the patch it names."""
    out = np.empty_like(nodes.params)
    for i, patch in enumerate(nodes.patchset):
        mine = nodes.patch_ids == i
        out[mine] = np.stack(patch.domain.to_root(*nodes.params[mine].T), axis=1)
    return out


def _flat_patchset():
    emb = geo.plate_embedding([-1, -1, 0], [2, 0, 0], [0, 2, 0])
    return PatchSet([fit_patch(emb, 0, Subdomain(), 5)], mesh=geo.QuadMesh([emb]))


def test_upsample_exact_for_bidegree_five(sphere96=None):
    coarse = _flat_patchset()
    fine = uniform_upsample(coarse, 2)
    q = 20
    cn = discretize(coarse, q)
    fn = discretize(fine, q)
    rng = np.random.default_rng(5)
    cs = rng.normal(size=(6, 6))

    def poly(params):
        vs = np.polynomial.polynomial.polyval2d(params[:, 0], params[:, 1], cs)
        return vs

    vals = poly(cn.params)
    up = upsample_density(cn, vals, fn)
    # evaluate the polynomial at the fine params pulled back to coarse frame
    exact = poly(_root_params(fn))
    assert np.abs(up - exact).max() < 1e-12 * max(1.0, np.abs(exact).max())


@pytest.fixture(scope="module")
def sphere6():
    mesh = geo.sphere_mesh(1.0, per_face=1)
    return PatchSet(
        [fit_patch(e, r, Subdomain(), 8) for r, e in enumerate(mesh.embeddings)], mesh=mesh
    )


def _tensor_nodes(fine):
    """The fine set's q^2 nodes per patch, copies and all: the same patches
    with no lineage, so nothing is merged."""
    return PatchSet(fine.patches, mesh=fine.mesh)


@pytest.mark.parametrize("levels, per_coarse", [(1, 11**2), (2, 21**2)])
def test_fine_set_holds_each_surface_point_once_per_coarse_patch(sphere6, levels, per_coarse):
    """One uniform level leaves (2q - 1)^2 nodes per coarse patch and two
    (4q - 3)^2: 441 x 6 = 2,646 at q = 6.  Every copy has the bits of the
    node it became, which keeps its first copy's position, normal, params
    and patch id and the sum of the copies' weights."""
    q = 6
    fine = uniform_upsample(sphere6, levels)
    fn, tensor = discretize(fine, q), discretize(_tensor_nodes(fine), q)
    assert len(fn) == per_coarse * len(sphere6) == len(np.unique(fn.tensor_rows))
    assert np.array_equal(np.bincount(fine.ancestors[fn.patch_ids]), [per_coarse] * len(sphere6))
    rows = fn.tensor_rows
    assert fn.positions[rows].tobytes() == tensor.positions.tobytes()
    first = np.unique(rows, return_index=True)[1]
    for merged, unmerged in (
        (fn.positions, tensor.positions),
        (fn.normals, tensor.normals),
        (fn.params, tensor.params),
        (fn.patch_ids, tensor.patch_ids),
    ):
        assert merged.tobytes() == unmerged[first].tobytes()
    assert np.array_equal(first, np.sort(first))  # merged nodes keep the first copies' order
    assert fn.weights.tobytes() == np.bincount(rows, weights=tensor.weights).tobytes()
    assert fn.area == pytest.approx(tensor.area, rel=1e-14)
    # copies never cross coarse patches
    assert np.array_equal(fine.ancestors[fn.patch_ids[rows]], fine.ancestors[tensor.patch_ids])


def test_coarse_and_identity_lineage_sets_merge_nothing(sphere96):
    """A coarse set is the patch-major tensor set, and a fine set with
    identity lineage, which has no shared edges, keeps the same bits."""
    q = 6
    coarse = discretize(sphere96, q)
    same = discretize(sphere96.as_fine(), q)
    assert coarse.tensor_rows is None and len(coarse) == len(sphere96) * q * q
    assert np.array_equal(same.tensor_rows, np.arange(len(coarse)))
    for field in ("positions", "normals", "weights", "params", "patch_ids"):
        assert getattr(same, field).tobytes() == getattr(coarse, field).tobytes()


def test_upsample_onto_merged_nodes_keeps_the_tensor_rows(sphere6):
    """Each merged node interpolates with the bits of the tensor row
    kron(A_s, A_t) of every one of its copies, on a fine set of two depths.

    The values upsample_density gives there match the stacked tensor rows'
    GEMM to rounding, not bitwise: the BLAS GEMM's bits can depend on the
    number of rows, which merging lowers."""
    from hedgehog.quadrature import _interp_1d, _upsampling

    q = 6
    fine = uniform_upsample(sphere6, 1).quadrisected([0, 5, 6])
    cn, fn = discretize(sphere6, q), discretize(fine, q)
    values = np.random.default_rng(8).normal(size=(len(cn), 2))
    up = upsample_density(cn, values, fn)
    for j, (base, (rows, matrix)) in enumerate(zip(sphere6, _upsampling(cn, fn))):
        mine = np.flatnonzero(fine.ancestors == j)
        blocks = []
        for patch in fine.patches[mine[0] : mine[-1] + 1]:
            k = patch.domain.depth - base.domain.depth
            ix, iy = patch.domain.ix - (base.domain.ix << k), patch.domain.iy - (base.domain.iy << k)
            blocks.append(np.kron(_interp_1d(q, q, k, ix), _interp_1d(q, q, k, iy)))
        tensor = np.concatenate(blocks)
        copies = fn.tensor_rows[mine[0] * q * q : (mine[-1] + 1) * q * q]
        assert rows == slice(copies.min(), copies.max() + 1)
        assert matrix[copies - rows.start].tobytes() == tensor.tobytes()
        local = values[j * q * q : (j + 1) * q * q]
        bound = 4 * np.finfo(float).eps * (np.abs(tensor) @ np.abs(local))
        assert np.all(np.abs(up[copies] - tensor @ local) <= bound)


def test_upsample_constant_stays_constant():
    coarse = _flat_patchset()
    fine = uniform_upsample(coarse, 3)
    cn = discretize(coarse, 10)
    fn = discretize(fine, 10)
    up = upsample_density(cn, np.full(len(cn), 2.5), fn)
    assert np.abs(up - 2.5).max() < 1e-13


def test_upsample_trig_density_q_order_decay():
    coarse = _flat_patchset()
    fine = uniform_upsample(coarse, 1)

    def f(params):
        return np.sin(3.0 * params[:, 0]) * np.cos(2.0 * params[:, 1])

    errs = []
    for q in (6, 10, 14):
        cn = discretize(coarse, q)
        fn = discretize(fine, q)
        up = upsample_density(cn, f(cn.params), fn)
        exact = f(_root_params(fn))
        errs.append(np.abs(up - exact).max())
    assert errs[0] > 1e3 * errs[1] > 1e6 * errs[2] or errs[2] < 1e-14


def test_upsample_mixed_depths_from_each_coarse_node_set():
    """One fine node set of depths 1 and 2 read from coarse sets of q = 6, 4, 6.

    The interpolation matrices are cached on the fine node set, so each
    coarse node set must get its own; every one reproduces a bicubic.
    """
    coarse = _flat_patchset()
    fine = uniform_upsample(coarse, 1).quadrisected([1, 2])
    fn = discretize(fine, 8)
    pulled = _root_params(fn)
    cs = np.random.default_rng(6).normal(size=(4, 4))

    def poly(params):
        return np.polynomial.polynomial.polyval2d(params[:, 0], params[:, 1], cs)

    for q in (6, 4, 6):
        cn = discretize(coarse, q)
        up = upsample_density(cn, np.stack([poly(cn.params), 2.0 * poly(cn.params)], 1), fn)
        assert np.abs(up[:, 0] - poly(pulled)).max() < 1e-12 * np.abs(poly(pulled)).max()
        assert np.abs(up[:, 1] - 2.0 * up[:, 0]).max() < 1e-14 * np.abs(up).max()


def test_upsample_requires_lineage():
    coarse = _flat_patchset()
    cn = discretize(coarse, 6)
    with pytest.raises(UsageError):
        upsample_density(cn, np.ones(len(cn)), cn)


def _keyed_plate_set():
    """Plate patches on the dyadic squares (1, 1, 0) and (2, 0, 3) of one root."""
    emb = geo.plate_embedding([-1, -1, 0], [2, 0, 0], [0, 2, 0])
    doms = (Subdomain(1, 1, 0), Subdomain(2, 0, 3))
    return PatchSet([fit_patch(emb, 0, d, 5) for d in doms], mesh=geo.QuadMesh([emb]))


def test_upsample_below_coarse_patches_off_the_root_corner():
    """Fine keys are read inside each coarse patch's own square: a bicubic
    in root parameters is reproduced at every fine node."""
    coarse = _keyed_plate_set()
    fine = uniform_upsample(coarse, 1).quadrisected([0, 5])
    q = 6
    cn, fn = discretize(coarse, q), discretize(fine, q)

    cs = np.random.default_rng(7).normal(size=(4, 4))

    def poly(params):
        return np.polynomial.polynomial.polyval2d(params[:, 0], params[:, 1], cs)

    exact = poly(_root_params(fn))
    up = upsample_density(cn, poly(_root_params(cn)), fn)
    assert np.abs(up - exact).max() < 1e-12 * np.abs(exact).max()


def test_upsample_requires_fine_patches_grouped_by_ancestor():
    coarse = _keyed_plate_set()
    fine = uniform_upsample(coarse, 1)
    shuffled = PatchSet(fine.patches[::-1], mesh=fine.mesh, ancestors=fine.ancestors[::-1])
    cn = discretize(coarse, 6)
    with pytest.raises(UsageError, match="grouped by coarse ancestor"):
        upsample_density(cn, np.ones(len(cn)), discretize(shuffled, 6))


@pytest.mark.parametrize("m", [0, 6])
@pytest.mark.parametrize("layer", ["single", "double", "combined"])
def test_upsampled_potential_matches_sum_on_upsampled_density(
    unit_sphere_patches, upsampled_sum, layer, m
):
    """The sum of the per-coarse-patch blocks equals smooth quadrature of the
    upsampled density.

    Two density columns, zero on the first coarse patches; on patch 4 the
    single-layer density keeps only column 0 and the double-layer density
    only column 1, so the combined sum must add into the union of both.
    """
    q = 6
    cn = discretize(unit_sphere_patches, q)
    fn = discretize(uniform_upsample(unit_sphere_patches, 1), q)
    rng = np.random.default_rng(11)
    single, double = rng.normal(size=(2, len(cn), 2))
    single[: 4 * q * q] = double[: 4 * q * q] = 0.0
    single[4 * q * q : 5 * q * q, 1] = double[4 * q * q : 5 * q * q, 0] = 0.0
    dirs = rng.normal(size=(m, 3))
    targets = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * rng.uniform(0.3, 1.7, (m, 1))
    density = {"single": single, "double": double, "combined": (single, double)}[layer]
    fine_density = (
        tuple(upsample_density(cn, part, fn) for part in density)
        if layer == "combined"
        else upsample_density(cn, density, fn)
    )
    got = upsampled_sum(K.LAPLACE, layer, cn, density, fn, targets)
    want = smooth_potential(K.LAPLACE, layer, fn, fine_density, targets)
    assert got.shape == want.shape == (m, 2)
    assert np.abs(got - want).max(initial=0.0) <= 1e-13 * np.abs(want).max(initial=1.0)


def test_upsampled_far_quadrature_matches_coarse(sphere96):
    """both rules hit the reference at a far interior target"""
    coarse = sphere96
    fine = uniform_upsample(coarse, 1)
    cn = discretize(coarse, 16)
    fn = discretize(fine, 16)
    ref = ReferenceSolution.on_sphere(K.LAPLACE, m=10, radius=2.0, seed=7)
    phi = ref.field(cn.positions)
    target = np.array([[0.1, 0.2, -0.1]])
    coarse_val = smooth_potential(K.LAPLACE, "double", cn, phi, target)
    fine_val = smooth_potential(
        K.LAPLACE, "double", fn, upsample_density(cn, phi, fn), target
    )
    assert abs(coarse_val[0, 0] - fine_val[0, 0]) < 1e-11


# ---------------------------------------------------------------------------
# Quadrature error heuristic
# ---------------------------------------------------------------------------


def test_heuristic_halving_h():
    a = quadrature_error_heuristic(1.0, 4, 20, 1.0)
    b = quadrature_error_heuristic(0.5, 4, 20, 1.0)
    assert b / a == pytest.approx(2.0**-5, rel=1e-12)


def test_heuristic_reference_value():
    val = quadrature_error_heuristic(1.0, 1, 20, 1.0)
    assert val == pytest.approx(128.0 / (15.0 * np.pi * 40.0), rel=1e-12)


def test_heuristic_rejects_large_k():
    with pytest.raises(UsageError):
        quadrature_error_heuristic(1.0, 41, 20, 1.0)
    with pytest.raises(UsageError):
        quadrature_error_heuristic(1.0, 0, 20, 1.0)


def test_heuristic_bounds_empirical_cc_error():
    """CC error for a near-singular integrand stays under the heuristic."""
    from math import factorial

    h = 0.5
    c = 1.25 * h  # pole just outside the interval
    k = 3

    def f(x):
        return 1.0 / (x - c)

    exact = np.log(abs(h - c)) - np.log(abs(-h - c))
    # Chebyshev-weighted variation of theta^(k) for theta(x) = h f(h x),
    # with the h^{k+1} scaling of the formula divided back out
    xs = np.linspace(-1 + 1e-9, 1 - 1e-9, 200001)
    theta_k1 = h ** (k + 2) * (-1) ** (k + 1) * factorial(k + 1) / (h * xs - c) ** (k + 2)
    variation = np.trapezoid(np.abs(theta_k1) / np.sqrt(1 - xs**2), xs) / h ** (k + 1)
    for q in (10, 20, 30):
        rule = cc_rule(q)
        approx = np.sum(rule.weights * h * f(h * rule.nodes))
        err = abs(approx - exact)
        assert err <= quadrature_error_heuristic(h, k, q, variation)
