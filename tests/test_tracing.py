"""The benchmark's probes still fit the program.

perfbench/tracing.py wraps public functions by name and its hooks read
arguments by parameter name; perfbench/workloads.py builds its options by
keyword.  These tests fail fast when a refactor renames any of them, which
would otherwise only show when a traced benchmark run breaks.
"""

import inspect
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# parameters each hooked function must keep, by probe name
HOOK_PARAMS = {
    "backends.potential": ("targets", "sources"),
    "kernels.apply_double_layer": ("targets", "sources"),
    "kernels.apply_single_layer": ("targets", "sources"),
    "evaluation.average_limits": ("anchors", "opts"),
    "evaluation.evaluate_one_sided": ("labels", "domain_side", "opts"),
    "spatial.closest_point_global_bulk": ("points",),
    "spatial.closest_point_on_patch": ("points",),
}


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import tracing
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return tracing, workloads


def test_hooked_functions_keep_their_parameter_names(perfbench):
    tracing, _ = perfbench
    probes = tracing.probes()
    hooked = {name for name, _, _, _, hook in probes if hook}
    # solver.solve's hook reads the returned report, not an argument
    assert hooked - {"solver.solve"} == set(HOOK_PARAMS)
    for name, owner, attr, _, _ in probes:
        params = inspect.signature(vars(owner)[attr]).parameters
        missing = [p for p in HOOK_PARAMS.get(name, ()) if p not in params]
        assert not missing, f"{name} lost parameters {missing}"


def test_instrumentation_installs_and_removes_every_probe(perfbench):
    tracing, _ = perfbench
    from hedgehog import backends
    from hedgehog import kernels as K

    assert backends.HAVE_NUMBA is False
    originals = {(owner, attr): vars(owner)[attr] for _, owner, attr, _, _ in tracing.probes()}
    tracer = tracing.Tracer("check")
    with tracing.Instrumentation(tracer):
        for (owner, attr), fn in originals.items():
            assert vars(owner)[attr] is not fn, f"{attr} was not wrapped"
        rng = np.random.default_rng(0)
        sources = rng.normal(size=(5, 3))
        out = backends.DirectBackend().potential(
            K.LAPLACE, "double", sources, sources, np.ones(5), rng.normal(size=(3, 3)) + 4.0
        )
    assert out.shape == (3, 1)
    assert tracer.counts["backends.pairs"] == 15
    assert tracer.counts["kernels.apply_double_layer.pairs"] == 15
    for (owner, attr), fn in originals.items():
        assert vars(owner)[attr] is fn, f"{attr} was not restored"


def test_workloads_build_from_a_seed(perfbench):
    _, workloads = perfbench
    for make in workloads.WORKLOADS.values():
        make(1)


def test_traced_solve_sums_the_fine_set_once(perfbench):
    """A solve makes one matvec, and its pair count is the benchmark's formula."""
    tracing, workloads = perfbench
    from hedgehog import kernels as K
    from hedgehog import solver
    from hedgehog.evaluation import EvalOptions
    from hedgehog.geometry.embeddings import constant_boundary_condition, sphere_mesh
    from hedgehog.refinement import AdmissibilityConfig

    b, p, q = 0.2, workloads.P, 4
    system = solver.assemble(
        solver.BVProblem(
            kernel=K.LAPLACE,
            geometry=sphere_mesh(0.8, per_face=1),
            boundary_condition=constant_boundary_condition(1.0),
            degree=10,
            admissibility=AdmissibilityConfig(
                eps_geometry=1e-2, eps_boundary=1e-1, b=b, a=b / 6, p=p, q=q
            ),
            options=EvalOptions(p=p, b=b, q=q),
            uniform_levels=1,
        )
    )
    tracer = tracing.Tracer("solve")
    with tracing.Instrumentation(tracer):
        _, report = solver.solve(system)
    assert report.converged
    assert tracer.counts["solver.matvec.calls"] == 1
    pairs = 2 * (p + 1) * len(system.nodes) * len(system.fine_nodes)
    assert tracer.counts["backends.pairs"] == pairs
    solve_workload = workloads.WORKLOADS["laplace-solve"](1)
    assert solve_workload.expected_pairs(system, tracer.counts) == pairs


def test_traced_marking_reaches_the_per_point_tree_queries(perfbench, unit_sphere_patches):
    """Marking near-surface targets runs the per-point tree methods the benchmark probes.

    closest_point_global_bulk calls AABBTree.nearest_triangle and
    AABBTree.query_box once per point; a refactor that stops calling them
    fails here instead of leaving per-layer metrics that read zero.
    """
    tracing, _ = perfbench
    from hedgehog import evaluation
    from hedgehog.quadrature import discretize

    nodes = discretize(unit_sphere_patches, 6)
    rng = np.random.default_rng(3)
    dirs = rng.normal(size=(4, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    targets = dirs * np.array([0.97, 0.98, 1.02, 1.03])[:, None]
    tracer = tracing.Tracer("marking")
    with tracing.Instrumentation(tracer):
        labels = evaluation.mark_points(targets, nodes, 1e-6)
    assert np.all(labels.patch_ids >= 0), "every target needs the closest-point search"
    counts = tracer.counts
    assert counts["spatial.AABBTree.nearest_triangle.calls"] > 0
    assert counts["spatial.AABBTree.query_box.calls"] > 0
    assert counts["spatial.surface_index.calls"] == 1
    assert counts["spatial.closest_point_global_bulk.calls"] == 1
