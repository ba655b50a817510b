from dataclasses import fields

import numpy as np
import pytest

import hedgehog.geometry as geo
from hedgehog import kernels as K
from hedgehog.chebyshev import extrapolate, extrapolation_weights
from hedgehog.errors import UsageError
from hedgehog.evaluation import (
    EvalOptions,
    Zone,
    ZoneLabels,
    evaluate_one_sided,
    evaluate_two_sided,
    mark_points,
    surface_node_labels,
)
from hedgehog.geometry.patches import PatchSet, Subdomain, characteristic_length, fit_patch
from hedgehog.quadrature import discretize, smooth_potential, upsample_density
from hedgehog.references import ReferenceSolution
from hedgehog.refinement import (
    AdmissibilityConfig,
    UpsamplingConfig,
    adaptive_upsample,
    enforce_admissibility,
    uniform_upsample,
)
from hedgehog.spatial import patch_normals, patch_points


@pytest.fixture(scope="module")
def sphere_system():
    """Admissible sphere with an adaptively upsampled fine set, q = 10."""
    mesh = geo.sphere_mesh(1.0, per_face=2)
    patches = PatchSet(
        [fit_patch(e, r, Subdomain(), 10) for r, e in enumerate(mesh.embeddings)],
        mesh=mesh,
    )
    cfg = AdmissibilityConfig(b=0.2, a=0.2 / 6, q=10)
    coarse = enforce_admissibility(patches, cfg)
    fine = adaptive_upsample(coarse, UpsamplingConfig(), cfg)
    nodes = discretize(coarse, 10)
    fine_nodes = discretize(fine, 10)
    opts = EvalOptions(p=6, b=0.2, q=10, eps_target=1e-6)
    return coarse, fine, nodes, fine_nodes, opts


def _check_line(patch, s, t, line, sign):
    """(anchor, check points, R, r) on the normal line at P(s, t)."""
    anchor = geo.evaluate(patch, s, t)
    normal = geo.normal(patch, s, t)
    length = np.array([characteristic_length(patch)])
    pts = line.points(anchor[None, :], normal[None, :], length, sign)
    ray, step = line.spacings(length)
    return anchor, pts, ray[0], step[0]


def test_check_point_formula(flat_square_patch):
    opts = EvalOptions(p=6, b=0.03, a=0.005, q=6)
    _, pts, ray, step = _check_line(flat_square_patch, 0.0, 0.0, opts, -1.0)
    assert pts.shape == (7, 3)
    # flat unit patch: L = 1, interior side runs along -n = -z
    assert ray == pytest.approx(0.03, rel=1e-12)
    assert step == pytest.approx(0.005, rel=1e-12)
    assert np.allclose(pts[0], [0, 0, -0.03], atol=1e-13)
    assert np.allclose(pts[6], [0, 0, -0.06], atol=1e-13)
    gaps = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    assert np.allclose(gaps, step, atol=1e-14)


def test_check_points_exterior_mirrors_interior(flat_square_patch):
    opts = EvalOptions(p=4, b=0.1, q=6)
    _, interior, _, _ = _check_line(flat_square_patch, 0.2, -0.3, opts, -1.0)
    _, exterior, _, _ = _check_line(flat_square_patch, 0.2, -0.3, opts, +1.0)
    mirrored = interior.copy()
    mirrored[:, 2] *= -1.0
    assert np.abs(exterior - mirrored).max() < 1e-13


def test_check_center_distance(flat_square_patch):
    opts = EvalOptions(p=6, b=0.03, a=0.005, q=6)
    anchor, pts, ray, step = _check_line(flat_square_patch, 0.0, 0.0, opts, -1.0)
    expected = 0.03 + 0.005 * (6 + 1) / 2.0
    dist = opts.center_distance(np.array([characteristic_length(flat_square_patch)]))
    assert dist[0] == pytest.approx(expected, rel=1e-12)
    # the center lies on the line, (p + 1) / 2 spacings beyond the first point
    assert (dist[0] - ray) / step == pytest.approx(3.5, rel=1e-12)


def test_check_point_t_coordinate(flat_square_patch):
    opts = EvalOptions(p=6, b=0.03, a=0.005, q=6)
    anchor, pts, ray, step = _check_line(flat_square_patch, 0.0, 0.0, opts, -1.0)

    def t_coordinate(x):
        # extrapolation coordinate t_x = (|x - y*| - R) / r
        return (np.linalg.norm(x - anchor) - ray) / step

    # on-surface target: t = -R / r = -b / a
    assert t_coordinate(anchor) == pytest.approx(-6.0, rel=1e-12)
    assert t_coordinate(pts[2]) == pytest.approx(2.0, rel=1e-12)


def test_sqrt_scaling_mode(flat_square_patch):
    emb = geo.plate_embedding([0, 0, 0], [0.25, 0, 0], [0, 0.25, 0])
    small = fit_patch(emb, 0, Subdomain(), 2)  # L = 0.25
    opts = EvalOptions(p=6, b=0.2, q=6, sqrt_scaling=True)
    anchor, pts, ray, _ = _check_line(small, 0.0, 0.0, opts, -1.0)
    assert ray == pytest.approx(0.2 * np.sqrt(0.25), rel=1e-12)
    assert np.linalg.norm(pts[0] - anchor) == pytest.approx(0.2 * np.sqrt(0.25), rel=1e-12)


def test_two_sided_constant_density_is_one(sphere_system):
    coarse, fine, nodes, fine_nodes, opts = sphere_system
    vals = evaluate_two_sided(nodes, K.LAPLACE, np.ones(len(nodes)), fine_nodes, opts)
    assert np.abs(vals - 1.0).max() < 1e-5


def test_two_sided_linear_in_density(sphere_system):
    coarse, fine, nodes, fine_nodes, opts = sphere_system
    rng = np.random.default_rng(0)
    phi1 = rng.normal(size=(len(nodes), 1))
    phi2 = rng.normal(size=(len(nodes), 1))
    a = -1.7
    lhs = evaluate_two_sided(nodes, K.LAPLACE, a * phi1 + phi2, fine_nodes, opts)
    rhs = a * evaluate_two_sided(nodes, K.LAPLACE, phi1, fine_nodes, opts) + \
        evaluate_two_sided(nodes, K.LAPLACE, phi2, fine_nodes, opts)
    assert np.abs(lhs - rhs).max() < 1e-11 * max(1.0, np.abs(lhs).max())


def test_one_sided_interior_limit_constant_density(sphere_system):
    coarse, fine, nodes, fine_nodes, opts = sphere_system
    labels = surface_node_labels(nodes)
    vals, mask = evaluate_one_sided(
        nodes.positions, labels, K.LAPLACE, np.ones(len(nodes)), nodes, fine_nodes, opts
    )
    assert mask.all()
    assert np.abs(vals - 1.0).max() < 1e-5


@pytest.fixture(scope="module")
def small_sphere(unit_sphere_patches):
    """The 24-patch sphere at q = 6 with one uniform upsampling level, and
    interior targets: 8 NEAR at 0.05-0.5 L below a node, 4 INTERMEDIATE
    within radius 0.4 of the centre."""
    q = 6
    nodes = discretize(unit_sphere_patches, q)
    fine_nodes = discretize(uniform_upsample(unit_sphere_patches, 1), q)
    opts = EvalOptions(p=6, b=0.2, q=q)
    rng = np.random.default_rng(12)
    picks = rng.choice(len(nodes), 8, replace=False)
    depth = rng.uniform(0.05, 0.5, 8) * unit_sphere_patches.lengths[nodes.patch_ids[picks]]
    near = nodes.positions[picks] - depth[:, None] * nodes.normals[picks]
    dirs = rng.normal(size=(4, 3))
    mid = dirs / np.linalg.norm(dirs, axis=1, keepdims=True) * rng.uniform(0.1, 0.4, (4, 1))
    labels = ZoneLabels(
        inside=np.ones(12, dtype=bool),
        zone=np.array([Zone.NEAR] * 8 + [Zone.INTERMEDIATE] * 4),
        patch_ids=np.concatenate([nodes.patch_ids[picks], np.full(4, -1)]),
        params=np.concatenate([nodes.params[picks], np.zeros((4, 2))]),
        distance=np.concatenate([depth, np.full(4, np.inf)]),
        winding=np.ones(12),
    )
    return nodes, fine_nodes, opts, np.concatenate([near, mid]), labels


def _densities(nodes, layer, support):
    """A seeded density for layer, dense or zero off one coarse patch."""
    rng = np.random.default_rng(13)
    parts = rng.normal(size=(2, len(nodes), 1))
    if support == "one patch":
        parts[:, nodes.patch_ids != 5] = 0.0
    return {"single": parts[0], "double": parts[1], "combined": (parts[0], parts[1])}[layer]


def _sum_then_extrapolate(small_sphere, upsampled_sum, layer, density):
    """Near-target reference: every check-point sum from the blocks of
    upsampled_blocks first, then one extrapolation of the full sums."""
    nodes, fine_nodes, opts, targets, labels = small_sphere
    patchset = nodes.patchset
    near = labels.zone == Zone.NEAR
    pids, params = labels.patch_ids[near], labels.params[near]
    anchors = patch_points(patchset, pids, params)
    lengths = patchset.lengths[pids]
    checks = opts.points(anchors, patch_normals(patchset, pids, params), lengths, -1.0)
    ray, step = opts.spacings(lengths)
    t_x = (np.linalg.norm(targets[near] - anchors, axis=1) - ray) / step
    weights = extrapolation_weights(opts.p, t_x)
    sums = upsampled_sum(K.LAPLACE, layer, nodes, density, fine_nodes, checks)
    return extrapolate(sums, weights), weights


@pytest.mark.parametrize("layer", ["single", "double", "combined"])
def test_one_sided_near_values_match_sum_then_extrapolate(small_sphere, upsampled_sum, layer):
    """Extrapolating each coarse patch's check block as it arrives gives the
    bits of extrapolating the full sums for a density on one coarse patch,
    and agrees with them within 10 eps sum|w| for a dense one."""
    nodes, fine_nodes, opts, targets, labels = small_sphere
    near = np.flatnonzero(labels.zone == Zone.NEAR)
    for support in ("one patch", "dense"):
        density = _densities(nodes, layer, support)
        got, mask = evaluate_one_sided(
            targets[near], labels.take(near), K.LAPLACE, density, nodes, fine_nodes, opts,
            layer=layer,
        )
        want, weights = _sum_then_extrapolate(small_sphere, upsampled_sum, layer, density)
        assert mask.all() and got.shape == want.shape == (len(near), 1)
        if support == "one patch":
            assert np.abs(want).max() > 0.0
            assert got.tobytes() == want.tobytes()
        else:
            floor = 10.0 * np.finfo(float).eps * np.abs(weights).sum(axis=1).max()
            assert np.abs(got - want).max() <= floor * np.abs(want).max()


def test_one_sided_takes_intermediate_only_far_only_and_no_targets(small_sphere, upsampled_sum):
    """Intermediate targets with no near ones leave an empty check block,
    which must extrapolate to nothing; a far target and an empty target set
    evaluate too.  Near targets alone are the test above."""
    nodes, fine_nodes, opts, targets, labels = small_sphere
    density = _densities(nodes, "double", "dense")
    args = (K.LAPLACE, density, nodes, fine_nodes, opts)
    mid = np.flatnonzero(labels.zone == Zone.INTERMEDIATE)
    got, mask = evaluate_one_sided(targets[mid], labels.take(mid), *args)
    want = upsampled_sum(K.LAPLACE, "double", nodes, density, fine_nodes, targets[mid])
    assert mask.all() and got.tobytes() == want.tobytes()
    centre = ZoneLabels(
        inside=np.ones(1, dtype=bool), zone=np.array([Zone.FAR]), patch_ids=np.array([-1]),
        params=np.zeros((1, 2)), distance=np.array([np.inf]), winding=np.ones(1),
    )
    got, mask = evaluate_one_sided(np.zeros((1, 3)), centre, *args)
    want = smooth_potential(K.LAPLACE, "double", nodes, density, np.zeros((1, 3)))
    assert mask.all() and got.tobytes() == want.tobytes()
    got, mask = evaluate_one_sided(np.zeros((0, 3)), centre.take([]), *args)
    assert got.shape == (0, 1) and mask.shape == (0,)


def test_two_sided_average_matches_flat_plate_principal_value():
    """for a flat plate the double-layer kernel vanishes in-plane, so the
    principal value of any density is exactly zero"""
    emb = geo.plate_embedding([-0.5, -0.5, 0], [1, 0, 0], [0, 1, 0])
    coarse = PatchSet([fit_patch(emb, 0, Subdomain(), 4)], mesh=geo.QuadMesh([emb]))
    fine = uniform_upsample(coarse, 2)
    q = 10
    nodes = discretize(coarse, q)
    fine_nodes = discretize(fine, q)
    opts = EvalOptions(p=6, b=0.2, q=q)
    # smooth bump density
    phi = ((1 - nodes.params[:, 0] ** 2) * (1 - nodes.params[:, 1] ** 2))[:, None]
    from hedgehog.evaluation import average_limits

    pv = average_limits(
        nodes.positions,
        nodes.normals,
        coarse.lengths[nodes.patch_ids],
        K.LAPLACE,
        nodes,
        phi,
        fine_nodes,
        opts,
    )
    assert np.abs(pv).max() < 1e-7


def test_one_sided_far_targets_match_plain_quadrature(sphere_system):
    coarse, fine, nodes, fine_nodes, opts = sphere_system
    rng = np.random.default_rng(1)
    phi = rng.normal(size=(len(nodes), 1))
    targets = rng.normal(size=(8, 3))
    targets *= 0.2 / np.linalg.norm(targets, axis=1, keepdims=True)
    labels = mark_points(targets, nodes, 1e-6)
    assert np.all(labels.zone == Zone.FAR) and labels.inside.all()
    vals, _ = evaluate_one_sided(
        targets, labels, K.LAPLACE, phi, nodes, fine_nodes, opts
    )
    direct = smooth_potential(K.LAPLACE, "double", nodes, phi, targets)
    assert np.abs(vals - direct).max() == 0.0


def test_one_sided_masks_exterior_targets(sphere_system):
    coarse, fine, nodes, fine_nodes, opts = sphere_system
    targets = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.1]])
    labels = mark_points(targets, nodes, 1e-6)
    vals, mask = evaluate_one_sided(
        targets, labels, K.LAPLACE, np.ones(len(nodes)), nodes, fine_nodes, opts
    )
    assert list(mask) == [False, True]
    assert vals[0, 0] == 0.0


@pytest.mark.parametrize("side", ["Interior", "inside", ""])
def test_one_sided_rejects_an_unknown_domain_side(sphere_system, side):
    """Only "interior" and "exterior" name a side; any other string used to
    evaluate the exterior side, masking the target inside."""
    coarse, fine, nodes, fine_nodes, opts = sphere_system
    targets = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 0.1]])
    labels = mark_points(targets, nodes, 1e-6)
    args = (targets, labels, K.LAPLACE, np.ones(len(nodes)), nodes, fine_nodes, opts)
    with pytest.raises(UsageError, match="domain_side"):
        evaluate_one_sided(*args, domain_side=side)
    _, mask = evaluate_one_sided(*args, domain_side="exterior")
    assert list(mask) == [True, False]


def test_mark_points_sphere_center_far_inside(sphere_system):
    coarse, fine, nodes, fine_nodes, opts = sphere_system
    labels = mark_points(np.zeros((1, 3)), nodes, 1e-6)
    assert labels.inside[0] and labels.zone[0] == Zone.FAR


def test_mark_points_near_by_construction(sphere_system):
    coarse, fine, nodes, fine_nodes, opts = sphere_system
    j = 40
    x = nodes.positions[j] - 0.5 * coarse.lengths[nodes.patch_ids[j]] * nodes.normals[j]
    labels = mark_points(x[None, :], nodes, 1e-6)
    assert labels.inside[0]
    assert labels.zone[0] == Zone.NEAR
    assert labels.distance[0] < coarse.lengths[labels.patch_ids[0]]


def test_near_and_intermediate_paths_agree_at_zone_boundary(sphere_system):
    # the same target just outside the near zone, evaluated through the
    # extrapolated path and through plain fine quadrature
    coarse, fine, nodes, fine_nodes, opts = sphere_system
    ref = ReferenceSolution.on_sphere(K.LAPLACE, m=15, radius=1.8, seed=9)
    phi = ref.field(nodes.positions)
    j = 25
    L = coarse.lengths[nodes.patch_ids[j]]
    x = nodes.positions[j] - 1.05 * L * nodes.normals[j]
    labels = mark_points(x[None, :], nodes, 1e-6)
    forced = surface_node_labels(nodes)
    near_labels = type(labels)(
        inside=np.array([True]),
        zone=np.array([int(Zone.NEAR)]),
        patch_ids=np.array([nodes.patch_ids[j]]),
        params=nodes.params[j][None, :],
        distance=np.array([1.05 * L]),
        winding=np.array([1.0]),
    )
    via_near, _ = evaluate_one_sided(
        x[None, :], near_labels, K.LAPLACE, phi, nodes, fine_nodes, opts
    )
    fine_phi = upsample_density(nodes, phi, fine_nodes)
    via_mid = smooth_potential(K.LAPLACE, "double", fine_nodes, fine_phi, x[None, :])
    assert abs(via_near[0, 0] - via_mid[0, 0]) < opts.eps_target


def test_mark_points_records_unconverged_closest_points(unit_sphere_patches, monkeypatch):
    """A Newton budget too small to converge shows in the labels' converged flags."""
    from hedgehog import spatial

    nodes = discretize(unit_sphere_patches, 10)
    rng = np.random.default_rng(3)
    dirs = rng.normal(size=(8, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    targets = np.concatenate([dirs * rng.uniform(0.95, 1.05, (8, 1)), np.zeros((1, 3))])
    labels = mark_points(targets, nodes, 1e-6)
    searched = labels.patch_ids >= 0
    assert searched[:-1].all() and not searched[-1], "the centre needs no search"
    assert labels.converged.all()
    assert surface_node_labels(nodes).converged.all()
    monkeypatch.setattr(spatial, "_NEWTON_STEPS", 1)
    starved = mark_points(targets, nodes, 1e-6)
    assert np.count_nonzero(~starved.converged[searched]) > 0
    assert starved.converged[~searched].all()


def test_zone_labels_take_keeps_every_field_in_row_order():
    m = 5
    labels = ZoneLabels(
        inside=np.arange(m) % 2 == 0,
        zone=np.arange(m) % 3,
        patch_ids=np.arange(m) + 10,
        params=np.arange(2 * m, dtype=float).reshape(m, 2),
        distance=np.arange(m) / 7.0,
        winding=np.arange(m) / 3.0,
        converged=np.arange(m) != 3,
    )
    rows = np.array([3, 0, 3])
    taken = labels.take(rows)
    for f in fields(ZoneLabels):
        assert np.array_equal(getattr(taken, f.name), getattr(labels, f.name)[rows]), f.name


def test_mark_points_partition(sphere_system):
    coarse, fine, nodes, fine_nodes, opts = sphere_system
    rng = np.random.default_rng(2)
    targets = rng.uniform(-1.3, 1.3, (200, 3))
    labels = mark_points(targets, nodes, 1e-6)
    assert len(labels) == 200
    assert np.all(np.isin(labels.zone, [Zone.FAR, Zone.INTERMEDIATE, Zone.NEAR]))


@pytest.mark.slow
def test_mark_points_torus_shell_matches_distance_oracle(torus_patches):
    from hedgehog.spatial import closest_point_on_patch

    nodes = discretize(torus_patches, 10)
    rng = np.random.default_rng(3)
    theta = rng.uniform(0, 2 * np.pi, 300)
    phi = rng.uniform(0, 2 * np.pi, 300)
    radial = 0.25 + rng.uniform(-0.15, 0.15, 300)
    ring = 0.7 + radial * np.cos(phi)
    pts = np.stack(
        [ring * np.cos(theta), ring * np.sin(theta), radial * np.sin(phi)], axis=1
    )
    labels = mark_points(pts, nodes, 1e-8)
    # oracle: distance to every patch by Newton, inside by radius
    all_d = np.stack(
        [closest_point_on_patch(p, pts).distance for p in torus_patches], axis=1
    )
    dist = all_d.min(axis=1)
    inside = radial < 0.25
    assert np.array_equal(labels.inside, inside)
    culled = labels.patch_ids >= 0
    assert np.allclose(labels.distance[culled], dist[culled], atol=1e-8)
    lengths = torus_patches.lengths
    near = dist <= lengths[np.argmin(all_d, axis=1)]
    got_near = labels.zone == Zone.NEAR
    assert np.array_equal(got_near[culled], near[culled])

