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
