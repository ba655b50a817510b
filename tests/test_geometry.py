import numpy as np
import pytest

import hedgehog.geometry as geo
from hedgehog.errors import UsageError
from hedgehog.geometry.patches import (
    PatchSet,
    Subdomain,
    SurfacePatch,
    characteristic_length,
    derivatives,
    fit_patch,
    quadrisect_all,
)


def _metric_det(patch: SurfacePatch, s, t):
    """Determinant of the metric tensor, g = |dP/ds x dP/dt|^2."""
    ps, pt = derivatives(patch, s, t)
    cr = np.cross(ps, pt)
    return np.einsum("...k,...k->...", cr, cr)


def _write_quad_mesh(path, mesh: geo.QuadMesh):
    """Write mesh in the format read_quad_mesh reads."""
    degrees = {e.degree for e in mesh.embeddings}
    if len(degrees) != 1:
        raise ValueError("geometry files hold a single common degree")
    n = degrees.pop()
    with open(path, "w") as fh:
        fh.write(f"degree {n}\n")
        fh.write(f"quads {len(mesh.embeddings)}\n")
        for r, emb in enumerate(mesh.embeddings):
            for l in range(n + 1):
                for m in range(n + 1):
                    x, y, z = emb.coeffs[l, m]
                    fh.write(f"{r} {l} {m} {x:.17g} {y:.17g} {z:.17g}\n")


def _check_conforming(mesh: geo.QuadMesh, samples: int = 33, tol: float = 1e-9) -> bool:
    """Verify that non-disjoint quads share whole edges or single vertices.

    Samples each quad's boundary; two quads that touch must either match
    along entire sampled edges (possibly reversed) or meet only at shared
    corners, and no corner may fall on the interior of another quad's
    edge (T junctions).  Quads wrapping a closed direction in two panels
    legitimately share two opposite edges, so only vertex contacts beyond
    shared edges are counted.
    """
    t = np.linspace(-1.0, 1.0, samples)
    ones = np.ones_like(t)
    edges = []
    corners = []
    for emb in mesh.embeddings:
        quad_edges = [
            emb.position(t, -ones),
            emb.position(t, ones),
            emb.position(-ones, t),
            emb.position(ones, t),
        ]
        edges.append([np.asarray(e) for e in quad_edges])
        corners.append(
            np.asarray(
                [
                    emb.position(np.array([s]), np.array([u]))[0]
                    for s in (-1, 1)
                    for u in (-1, 1)
                ]
            )
        )

    def edge_match(e1, e2):
        return np.abs(e1 - e2).max() < tol or np.abs(e1 - e2[::-1]).max() < tol

    def corner_on_edge_interior(c, edge):
        inner = edge[1:-1]
        return np.linalg.norm(inner - c, axis=1).min() < max(
            tol, 1e-6 * np.linalg.norm(edge[-1] - edge[0])
        )

    n = mesh.n_quads
    for i in range(n):
        for j in range(i + 1, n):
            matched_j = [
                any(edge_match(a, b) for a in edges[i]) for b in edges[j]
            ]
            matched_i = [
                any(edge_match(b, a) for b in edges[j]) for a in edges[i]
            ]
            # a corner of one quad on the interior of the other's
            # unmatched edge is a T junction
            for c in corners[j]:
                for a, used in zip(edges[i], matched_i):
                    if not used and corner_on_edge_interior(c, a):
                        return False
            for c in corners[i]:
                for b, used in zip(edges[j], matched_j):
                    if not used and corner_on_edge_interior(c, b):
                        return False
    return True


def test_constant_patch_partition_of_unity():
    c = np.array([0.7, -0.3, 2.0])
    coeffs = np.tile(c, (5, 5, 1))
    patch = SurfacePatch(coeffs=coeffs, root_id=0)
    st = np.random.default_rng(0).uniform(-1, 1, (20, 2))
    vals = geo.evaluate(patch, st[:, 0], st[:, 1])
    assert np.abs(vals - c).max() < 1e-14


def test_flat_patch_normal_and_metric(flat_square_patch):
    st = np.random.default_rng(1).uniform(-1, 1, (15, 2))
    n = geo.normal(flat_square_patch, st[:, 0], st[:, 1])
    g = _metric_det(flat_square_patch, st[:, 0], st[:, 1])
    assert np.abs(n - [0, 0, 1]).max() < 1e-13
    assert np.abs(g - g[0]).max() < 1e-13


def test_derivatives_match_finite_differences(random_cubic_patch):
    rng = np.random.default_rng(2)
    st = rng.uniform(-0.95, 0.95, (10, 2))
    h = 1e-6
    ps, pt = geo.derivatives(random_cubic_patch, st[:, 0], st[:, 1])
    fd_s = (
        geo.evaluate(random_cubic_patch, st[:, 0] + h, st[:, 1])
        - geo.evaluate(random_cubic_patch, st[:, 0] - h, st[:, 1])
    ) / (2 * h)
    fd_t = (
        geo.evaluate(random_cubic_patch, st[:, 0], st[:, 1] + h)
        - geo.evaluate(random_cubic_patch, st[:, 0], st[:, 1] - h)
    ) / (2 * h)
    scale = np.abs(ps).max()
    assert np.abs(ps - fd_s).max() < 1e-6 * scale
    assert np.abs(pt - fd_t).max() < 1e-6 * scale


def test_normal_orthogonal_to_tangents(random_cubic_patch):
    st = np.random.default_rng(3).uniform(-1, 1, (50, 2))
    n = geo.normal(random_cubic_patch, st[:, 0], st[:, 1])
    ps, pt = geo.derivatives(random_cubic_patch, st[:, 0], st[:, 1])
    assert np.abs(np.einsum("mk,mk->m", n, ps)).max() < 1e-12 * np.abs(ps).max()
    assert np.abs(np.einsum("mk,mk->m", n, pt)).max() < 1e-12 * np.abs(pt).max()


def test_quadrisect_children_reproduce_parent(random_cubic_patch):
    children = quadrisect_all([random_cubic_patch])[0]
    assert len(children) == 4
    rng = np.random.default_rng(4)
    st = rng.uniform(-1, 1, (100, 2))
    parent_vals = geo.evaluate(random_cubic_patch, st[:, 0], st[:, 1])
    for child in children:
        dom = child.domain
        # pull parent params into the child frame where they overlap
        cs, ct = dom.to_root(0.0, 0.0)
        sc = (st[:, 0] - cs) / dom.halfwidth
        tc = (st[:, 1] - ct) / dom.halfwidth
        mask = (np.abs(sc) <= 1) & (np.abs(tc) <= 1)
        vals = geo.evaluate(child, sc[mask], tc[mask])
        assert np.abs(vals - parent_vals[mask]).max() < 1e-12


def test_batched_quadrisection_keeps_the_reference_bits(unit_sphere_patches, random_cubic_patch):
    """A stacked subdivision gives each patch the bits of the plain einsum product."""
    rng = np.random.default_rng(11)
    for n in (1, 3, 10, 16):
        stack = rng.normal(size=(5, n + 1, n + 1, 3))
        stack[0, ..., 2] = 0.0
        for s_up in (False, True):
            for t_up in (False, True):
                ms = geo.subdivision_matrix(n, s_up)
                mt = geo.subdivision_matrix(n, t_up)
                out = geo.subdivide(stack, s_up, t_up)
                for c, got in zip(stack, out):
                    ref = np.einsum("il,lmd,jm->ijd", ms, c, mt)
                    assert got.tobytes() == ref.tobytes()
                    assert geo.subdivide(c, s_up, t_up).tobytes() == ref.tobytes()
    # one set per degree
    for patches in ([random_cubic_patch], [unit_sphere_patches[0], unit_sphere_patches[5]]):
        for patch, children in zip(patches, quadrisect_all(patches)):
            for got, one in zip(children, quadrisect_all([patch])[0]):
                assert got.coeffs.tobytes() == one.coeffs.tobytes()
                assert (got.domain, got.depth, got.root_id) == (one.domain, one.depth, one.root_id)


def test_patchset_control_boxes_match_each_patch(unit_sphere_patches, random_cubic_patch):
    for ps in (PatchSet([random_cubic_patch]), PatchSet(unit_sphere_patches.patches[:4])):
        lo, hi = ps.control_boxes()
        for i, p in enumerate(ps):
            pts = p.coeffs.reshape(-1, 3)
            assert np.array_equal(lo[i], pts.min(axis=0))
            assert np.array_equal(hi[i], pts.max(axis=0))
        assert ps.control_boxes()[0] is lo


def test_patchset_refuses_mixed_degrees_mixed_orientations_and_no_patches(
    unit_sphere_patches, random_cubic_patch
):
    """A set holds one degree and one orientation; quadrisect_all stacks its
    patches the same way, so it refuses the same lists."""
    from dataclasses import replace

    sphere = list(unit_sphere_patches.patches[:2])
    flipped = replace(sphere[1], orientation=-1.0)
    for bad in ([], [random_cubic_patch] + sphere, [sphere[0], flipped]):
        with pytest.raises(UsageError):
            PatchSet(bad)
        with pytest.raises(UsageError):
            quadrisect_all(bad)
    ps = PatchSet(sphere)
    assert (ps.degree, ps.orientation, ps.coeffs.shape) == (12, 1.0, (2, 13, 13, 3))
    assert PatchSet([flipped]).orientation == -1.0


def test_quadrisect_shared_corner():
    emb = geo.plate_embedding([0, 0, 0], [2, 0, 0], [0, 2, 0])
    patch = fit_patch(emb, 0, Subdomain(), 2)
    children = quadrisect_all([patch])[0]
    a = geo.evaluate(children[0], 1.0, 1.0)
    b = geo.evaluate(children[3], -1.0, -1.0)
    assert np.abs(a - b).max() < 1e-13


def test_quadrisect_area_partition(unit_sphere_patches):
    patch = unit_sphere_patches[0]
    parent_area = characteristic_length(patch) ** 2
    child_area = sum(characteristic_length(c) ** 2 for c in quadrisect_all([patch])[0])
    assert child_area == pytest.approx(parent_area, rel=1e-12)


def test_fit_reproduces_polynomial_embedding():
    rng = np.random.default_rng(5)
    coeffs = rng.normal(size=(4, 4, 3))
    emb = geo.BezierEmbedding(coeffs)
    patch = fit_patch(emb, 0, Subdomain(), 3)
    assert patch.fit_error < 1e-12
    st = rng.uniform(-1, 1, (30, 2))
    assert np.abs(
        geo.evaluate(patch, st[:, 0], st[:, 1]) - emb.position(st[:, 0], st[:, 1])
    ).max() < 1e-12


def test_bezier_embedding_shapes_and_bits_match_the_patch_evaluation(random_cubic_patch):
    """Scalar parameters give (3,) points and (3, 2) partials, arrays (M, 3)
    and (M, 3, 2), as for the analytic embeddings; the values are the bits
    of evaluate and derivatives on the same coefficients."""
    emb = geo.BezierEmbedding(random_cubic_patch.coeffs)
    plate = geo.plate_embedding([0, 0, 0], [1, 0, 0], [0, 1, 0])
    s = np.array([-1.0, -0.3, 0.1, 0.77])
    t = np.array([0.2, 1.0, -0.6, 0.0])
    for ss, tt, lead in ((0.1, 0.2, ()), (s, t, (4,))):
        assert emb.position(ss, tt).shape == plate.position(ss, tt).shape == lead + (3,)
        assert emb.jacobian(ss, tt).shape == plate.jacobian(ss, tt).shape == lead + (3, 2)
        ps, pt = derivatives(random_cubic_patch, ss, tt)
        assert emb.position(ss, tt).tobytes() == geo.evaluate(random_cubic_patch, ss, tt).tobytes()
        assert emb.jacobian(ss, tt).tobytes() == np.stack([ps, pt], axis=-1).tobytes()
        assert ps.shape == pt.shape == lead + (3,)
    # the bits of the one paired contraction the patch evaluation always made
    c, n = random_cubic_patch.coeffs, random_cubic_patch.degree
    direct = geo.eval_points(c, geo.bernstein_matrix(n, s), geo.bernstein_matrix(n, t))
    assert emb.position(s, t).tobytes() == direct.tobytes()


def test_fit_constant_map_gives_equal_control_points():
    emb = geo.AnalyticEmbedding(
        lambda s, t: np.broadcast_to(
            np.array([1.0, 2.0, 3.0]), np.shape(s) + (3,)
        ).copy()
    )
    patch = fit_patch(emb, 0, Subdomain(), 4)
    assert np.abs(patch.coeffs - patch.coeffs[0, 0]).max() < 1e-10


def test_sphere_face_fit_error_decreases_under_quadrisection():
    mesh = geo.sphere_mesh(1.0, per_face=1)
    errs = []
    for dom in [Subdomain(0, 0, 0), Subdomain(1, 0, 0), Subdomain(2, 0, 0)]:
        errs.append(fit_patch(mesh.embeddings[0], 0, dom, 8).fit_error)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-6  # a depth-2 sphere-face cell resolves at degree 8
    # geometric decay roughly like 4^{-c n} per level
    assert errs[0] / errs[1] > 50 and errs[1] / errs[2] > 50


def test_characteristic_length_flat_rectangle():
    emb = geo.plate_embedding([0, 0, 0], [2, 0, 0], [0, 3, 0])
    patch = fit_patch(emb, 0, Subdomain(), 2)
    assert characteristic_length(patch) == pytest.approx(np.sqrt(6.0), rel=1e-12)
    for child in quadrisect_all([patch])[0]:
        assert characteristic_length(child) == pytest.approx(
            np.sqrt(6.0) / 2.0, rel=1e-12
        )


def test_characteristic_length_sphere_sextant():
    mesh = geo.sphere_mesh(1.0, per_face=1)
    patch = fit_patch(mesh.embeddings[0], 0, Subdomain(), 20)
    assert characteristic_length(patch) == pytest.approx(
        np.sqrt(4.0 * np.pi / 6.0), abs=1e-6
    )


def test_characteristic_length_does_not_depend_on_call_order(unit_sphere_patches):
    """characteristic_length is the one-patch case of PatchSet.lengths: the
    same bits whichever of the two fills the patch's cache first."""

    def fresh(p):
        return SurfacePatch(coeffs=p.coeffs, root_id=p.root_id, domain=p.domain)

    for patch in unit_sphere_patches:
        a, b = fresh(patch), fresh(patch)
        one_first = characteristic_length(a)
        set_first = PatchSet([b]).lengths[0]
        assert PatchSet([a]).lengths[0] == one_first
        assert characteristic_length(b) == set_first
        assert one_first == set_first
    # in a set, whichever runs first fills the cache that the other reads
    ps = PatchSet([fresh(p) for p in unit_sphere_patches])
    each = [characteristic_length(p) for p in ps]
    assert ps.lengths.tolist() == each
    ps = PatchSet([fresh(p) for p in unit_sphere_patches])
    lengths = ps.lengths.tolist()
    assert [characteristic_length(p) for p in ps] == lengths


def test_lengths_do_not_depend_on_the_batch():
    """Each patch's L has the same bits alone as in the whole set, on the
    fine set of the benchmark's `targets` workload (1,320 patches)."""
    from dataclasses import replace

    from hedgehog.refinement import (
        AdmissibilityConfig,
        UpsamplingConfig,
        adaptive_upsample,
        enforce_admissibility,
        refine_for_geometry,
    )

    cfg = AdmissibilityConfig(eps_geometry=1e-5, b=0.2, a=0.2 / 6, p=6, q=6)
    coarse = refine_for_geometry(geo.sphere_mesh(1.0, per_face=2), 10, cfg.eps_geometry)
    fine = adaptive_upsample(enforce_admissibility(coarse, cfg), UpsamplingConfig(), cfg)
    for patches in (coarse, fine):
        whole = PatchSet([replace(p, _length=None) for p in patches]).lengths
        alone = [PatchSet([replace(p, _length=None)]).lengths[0] for p in patches]
        assert whole.tolist() == alone


def test_lengths_keep_the_bits_of_the_cross_product_norm(unit_sphere_patches, random_cubic_patch):
    """PatchSet.lengths forms |ps x pt| component by component; it keeps the
    bits of np.linalg.norm(np.cross(ps, pt), axis=2)."""
    from dataclasses import replace

    from hedgehog.chebyshev import cc_rule
    from hedgehog.geometry.bezier import bernstein_matrix, eval_grid
    from hedgehog.geometry.patches import LENGTH_RULE_ORDER

    rule = cc_rule(LENGTH_RULE_ORDER)
    w2 = np.outer(rule.weights, rule.weights).ravel()
    # one set per degree
    for patches in (list(unit_sphere_patches.as_fine().uniform_refined(1)), [random_cubic_patch]):
        got = PatchSet([replace(p, _length=None) for p in patches]).lengths
        for p, length in zip(patches, got):
            b0 = bernstein_matrix(p.degree, rule.nodes)
            b1 = bernstein_matrix(p.degree, rule.nodes, 1)
            ps = eval_grid(p.coeffs[None], b1, b0).reshape(1, -1, 3)
            pt = eval_grid(p.coeffs[None], b0, b1).reshape(1, -1, 3)
            sqrtg = np.linalg.norm(np.cross(ps, pt), axis=2)
            assert length == np.sqrt((sqrtg * w2).sum(axis=1))[0]


def test_bernstein_binomials_are_cached_read_only():
    """The binomial row is built once per degree, and the basis keeps the
    bits of the comb-per-call form."""
    from math import comb

    from hedgehog.geometry.bezier import _binomials, bernstein_matrix

    row = _binomials(7)
    assert row is _binomials(7) and not row.flags.writeable
    s = np.linspace(-1.0, 1.0, 33)
    u = 0.5 * (s + 1.0)
    binoms = np.array([comb(7, l) for l in range(8)], dtype=float)
    pu = np.vander(u, 8, increasing=True)
    pv = np.vander(1.0 - u, 8, increasing=True)[:, ::-1]
    assert np.array_equal(bernstein_matrix(7, s), binoms[None, :] * pu * pv)


def test_bezier_contractions_take_the_optimized_path_planned_once():
    """eval_grid and eval_points contract on the path optimize=True picks,
    planned once per operand shape, and keep the bits of optimize=True."""
    from hedgehog.geometry.bezier import _contraction_path, bernstein_matrix, eval_grid, eval_points

    rng = np.random.default_rng(4)
    coeffs = rng.normal(size=(5, 8, 8, 3))
    grid = bernstein_matrix(7, np.linspace(-1.0, 1.0, 6))
    deriv = bernstein_matrix(7, np.linspace(-1.0, 1.0, 9), 1)
    at = rng.uniform(-1.0, 1.0, (2, 40))
    bs, bt = bernstein_matrix(7, at[0]), bernstein_matrix(7, at[1])
    cases = [
        (eval_grid, "ai,pijd,bj->pabd", (grid, coeffs, deriv)),
        (eval_grid, "ai,ijd,bj->abd", (deriv, coeffs[0], grid)),
        (eval_points, "mi,ijd,mj->md", (bs, coeffs[1], bt)),
    ]
    for evaluate, subscripts, (left, c, right) in cases:
        shapes = (left.shape, c.shape, right.shape)
        path = np.einsum_path(subscripts, left, c, right, optimize=True)[0]
        assert list(_contraction_path(subscripts, *shapes)) == path
        misses = _contraction_path.cache_info().misses
        got = evaluate(c, left, right)
        assert _contraction_path.cache_info().misses == misses
        want = np.einsum(subscripts, left, c, right, optimize=True)
        assert got.tobytes() == want.tobytes()


def test_degenerate_jacobian_raises():
    coeffs = np.zeros((3, 3, 3))  # collapsed patch
    patch = SurfacePatch(coeffs=coeffs, root_id=0)
    with pytest.raises(geo.patches.DegenerateGeometryError):
        geo.normal(patch, 0.0, 0.0)


def test_quad_mesh_file_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    mesh = geo.QuadMesh(
        embeddings=[geo.BezierEmbedding(rng.normal(size=(4, 4, 3))) for _ in range(3)]
    )
    path = tmp_path / "mesh.txt"
    _write_quad_mesh(path, mesh)
    back = geo.read_quad_mesh(path)
    assert back.n_quads == 3
    st = rng.uniform(-1, 1, (10, 2))
    for a, b in zip(mesh.embeddings, back.embeddings):
        assert np.abs(
            a.position(st[:, 0], st[:, 1]) - b.position(st[:, 0], st[:, 1])
        ).max() < 1e-14


def _mesh_file_lines(tmp_path):
    """Lines of a valid two-quad degree-2 geometry file."""
    rng = np.random.default_rng(7)
    mesh = geo.QuadMesh(embeddings=[geo.BezierEmbedding(rng.normal(size=(3, 3, 3))) for _ in range(2)])
    path = tmp_path / "good.txt"
    _write_quad_mesh(path, mesh)
    return path.read_text().splitlines()


@pytest.mark.parametrize(
    "case",
    ["empty", "bad header", "negative quad", "duplicate line", "l out of range", "r out of range",
     "fractional index", "missing line"],
)
def test_quad_mesh_file_rejects_a_broken_file(tmp_path, case):
    """Every broken file raises UsageError: a quad index of -1 used to wrap
    onto the last quad, a duplicated line left zeros, and an empty file or an
    index out of range raised a bare IndexError."""
    from hedgehog.errors import UsageError

    lines = _mesh_file_lines(tmp_path)
    first, last = 2, len(lines) - 1  # the first and last control-point lines
    x, y, z = lines[first].split()[3:]
    edits = {
        "empty": [],
        "bad header": ["quads 2", "degree 2"] + lines[2:],
        "negative quad": lines[:last] + [f"-1 2 2 {x} {y} {z}"],
        "duplicate line": lines[:last] + [lines[first]],
        "l out of range": lines[:last] + [f"1 3 2 {x} {y} {z}"],
        "r out of range": lines[:last] + [f"2 2 2 {x} {y} {z}"],
        "fractional index": lines[:last] + [f"1 2 1.5 {x} {y} {z}"],
        "missing line": lines[:last],
    }
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(edits[case]) + "\n")
    with pytest.raises(UsageError):
        geo.read_quad_mesh(path)
    good = tmp_path / "good.txt"
    assert geo.read_quad_mesh(good).n_quads == 2


def test_builtin_meshes_have_outward_normals():
    # winding number at an interior point must be +1 with outward normals
    from hedgehog import kernels as K
    from hedgehog.quadrature import discretize, smooth_potential

    for name, interior in (
        ("sphere", [0.0, 0.0, 0.0]),
        ("spheroid", [0.0, 0.0, 0.0]),
        ("torus", [0.7, 0.0, 0.0]),
    ):
        mesh = geo.builtin_mesh(name) if name != "torus" else geo.torus_mesh()
        degree = 16 if name == "torus" else 12
        patches = PatchSet(
            [fit_patch(e, r, Subdomain(), degree) for r, e in enumerate(mesh.embeddings)],
            mesh=mesh,
        )
        nodes = discretize(patches, 16)
        val = smooth_potential(
            K.LAPLACE, "double", nodes, np.ones(len(nodes)), np.array([interior])
        )
        assert val[0, 0] == pytest.approx(1.0, abs=1e-5)


def test_builtin_meshes_are_conforming():
    assert _check_conforming(geo.sphere_mesh(1.0, per_face=2))
    assert _check_conforming(geo.torus_mesh())
    a = geo.plate_embedding([0, 0, 0], [1, 0, 0], [0, 1, 0])
    b = geo.plate_embedding([1, 0, 0], [1, 0, 0], [0, 0.5, 0])
    c = geo.plate_embedding([1, 0.5, 0], [1, 0, 0], [0, 0.5, 0])
    assert not _check_conforming(geo.QuadMesh([a, b, c]))


def test_fit_error_monotone_in_validation_surface():
    """fit error never increases under quadrisection plus refit"""
    mesh = geo.spheroid_mesh(per_face=1)
    parent = fit_patch(mesh.embeddings[2], 2, Subdomain(), 6)
    child_errs = [
        fit_patch(mesh.embeddings[2], 2, Subdomain().quadrant(su, tu), 6).fit_error
        for su in (False, True)
        for tu in (False, True)
    ]
    assert max(child_errs) <= parent.fit_error
