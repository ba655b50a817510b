"""Spans and counters recorded around the public functions of hedgehog's modules.

The wrappers are installed from the benchmark, not from the program. The
package imports names with ``from .x import y``, so a wrapper replaces the
function in its defining module and in every hedgehog module that holds the
same object under some name (``evaluation.closest_point_global_bulk``,
``refinement.fit_patch``, ``solver.evaluate_two_sided``, ...). Patching the
defining module alone would miss those calls.

Spans are kept in memory as (name, start, end, parent) and written out by the
caller when the run ends. A probe's self time is its span time minus the time
of its direct child spans; calls run on one thread, so children never
overlap.
"""

import inspect
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans and counters of one traced phase (a set-up or one operation)."""

    def __init__(self, phase: str):
        self.phase = phase
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def timed(self, name, fn, args, kwargs):
        rec = [name, time.perf_counter(), None, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()

    def add(self, name: str, n) -> None:
        self.counts[name] += n

    def peak(self, name: str, n) -> None:
        self.counts[name] = max(self.counts[name], n)

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def to_json(self) -> dict:
        return {
            "phase": self.phase,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans
            ],
            "counts": dict(self.counts),
        }


def _rows(x) -> int:
    return len(np.atleast_2d(np.asarray(x)))


def _pairs(prefix):
    def hook(tr, a, result):
        tr.add(prefix + ".pairs", _rows(a["targets"]) * _rows(a["sources"]))

    return hook


def _backend_pairs(tr, a, result):
    pairs = _rows(a["targets"]) * _rows(a["sources"])
    tr.add("backends.pairs", pairs)
    tr.peak("backends.max_pairs_per_call", pairs)


def _gmres_iterations(tr, a, result):
    tr.add("solver.gmres_iterations", result[1].iterations)


def _zones(tr, a, result):
    labels = a["labels"]
    inside = np.asarray(labels.inside)
    in_domain = inside if a["domain_side"] == "interior" else ~inside
    zone = np.asarray(labels.zone)[in_domain]
    counts = np.bincount(zone, minlength=3)
    tr.add("evaluation.zone.far", int(counts[0]))
    tr.add("evaluation.zone.intermediate", int(counts[1]))
    tr.add("evaluation.zone.near", int(counts[2]))
    tr.add("evaluation.check_points", int(counts[2]) * (a["opts"].p + 1))


def _two_sided_check_points(tr, a, result):
    tr.add("evaluation.check_points", 2 * _rows(a["anchors"]) * (a["opts"].p + 1))


def _points(prefix):
    def hook(tr, a, result):
        tr.add(prefix + ".points", _rows(a["points"]))

    return hook


def probes():
    """(metric prefix, owner, attribute, timed, hook) for every wrapped function.

    Timed probes record a span, its self time (``.s``) and ``.calls``;
    untimed ones only count calls, for functions called once per point.
    """
    from hedgehog import (
        backends,
        chebyshev,
        evaluation,
        kernels,
        quadrature,
        refinement,
        solver,
        spatial,
    )
    from hedgehog.geometry import patches

    tree = spatial.AABBTree
    return [
        ("backends.potential", backends.DirectBackend, "potential", True, _backend_pairs),
        ("kernels.apply_double_layer", kernels, "apply_double_layer", True,
         _pairs("kernels.apply_double_layer")),
        ("kernels.apply_single_layer", kernels, "apply_single_layer", True,
         _pairs("kernels.apply_single_layer")),
        ("solver.assemble", solver, "assemble", True, None),
        ("solver.solve", solver, "solve", True, _gmres_iterations),
        ("solver.matvec", solver, "matvec", True, None),
        ("evaluation.evaluate_two_sided", evaluation, "evaluate_two_sided", True, None),
        ("evaluation.average_limits", evaluation, "average_limits", True,
         _two_sided_check_points),
        ("evaluation.mark_points", evaluation, "mark_points", True, None),
        ("evaluation.evaluate_one_sided", evaluation, "evaluate_one_sided", True, _zones),
        ("chebyshev.extrapolation_weights", chebyshev, "extrapolation_weights", True, None),
        ("quadrature.discretize", quadrature, "discretize", True, None),
        ("quadrature.upsample_density", quadrature, "upsample_density", True, None),
        ("quadrature.smooth_potential", quadrature, "smooth_potential", True, None),
        ("spatial.closest_point_global_bulk", spatial, "closest_point_global_bulk", True,
         _points("spatial.closest_point_global_bulk")),
        ("spatial.closest_point_on_patch", spatial, "closest_point_on_patch", True,
         _points("spatial.closest_point_on_patch")),
        ("spatial.surface_index", spatial, "surface_index", True, None),
        ("spatial.AABBTree.nearest_triangle", tree, "nearest_triangle", False, None),
        ("spatial.AABBTree.query_box", tree, "query_box", False, None),
        ("spatial.AABBTree.query_points_bulk", tree, "query_points_bulk", False, None),
        ("refinement.refine_for_geometry", refinement, "refine_for_geometry", True, None),
        ("refinement.refine_for_boundary_condition", refinement,
         "refine_for_boundary_condition", True, None),
        ("refinement.enforce_admissibility", refinement, "enforce_admissibility", True, None),
        ("refinement.adaptive_upsample", refinement, "adaptive_upsample", True, None),
        ("refinement.uniform_upsample", refinement, "uniform_upsample", True, None),
        ("geometry.fit_patch", patches, "fit_patch", True, None),
    ]


# names the hooks above and layer_metrics add beside .calls and .s
DERIVED = (
    "backends.pairs",
    "backends.max_pairs_per_call",
    "kernels.apply_double_layer.pairs",
    "kernels.apply_double_layer.pairs_per_s",
    "kernels.apply_single_layer.pairs",
    "kernels.apply_single_layer.pairs_per_s",
    "solver.gmres_iterations",
    "evaluation.zone.far",
    "evaluation.zone.intermediate",
    "evaluation.zone.near",
    "evaluation.check_points",
    "spatial.closest_point_global_bulk.points",
    "spatial.closest_point_on_patch.points",
)


def metric_names() -> set[str]:
    """Every per-layer name the probes can produce."""
    names = set(DERIVED)
    for name, _, _, timed, _ in probes():
        names.add(name + ".calls")
        if timed:
            names.add(name + ".s")
    return names


def _wrapper(tracer: Tracer, name, fn, timed, hook):
    signature = inspect.signature(fn) if hook else None
    calls = name + ".calls"

    def traced(*args, **kwargs):
        tracer.add(calls, 1)
        if timed:
            result = tracer.timed(name, fn, args, kwargs)
        else:
            result = fn(*args, **kwargs)
        if hook:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            hook(tracer, bound.arguments, result)
        return result

    return traced


class Instrumentation:
    """Install the probes for one traced phase; ``with`` removes them again."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: list[tuple] = []

    def __enter__(self) -> Tracer:
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "hedgehog" or n.startswith("hedgehog."))
        ]
        for name, owner, attr, timed, hook in probes():
            original = vars(owner)[attr]
            wrapper = _wrapper(self.tracer, name, original, timed, hook)
            holders = [owner] + [m for m in modules if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._undo.append((holder, key, original))
        return self.tracer

    def __exit__(self, *exc):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()
        return False


def layer_metrics(setup: Tracer, ops: list[Tracer]) -> dict[str, float]:
    """Per-layer values: the traced set-up plus the mean of the traced operations.

    Counts repeat exactly from one operation to the next, so their mean is
    the per-operation count; ``max_pairs_per_call`` takes the maximum.
    """
    out: dict[str, float] = defaultdict(float)

    def fold(tracer: Tracer, weight: float):
        for name, value in tracer.counts.items():
            if name.endswith(".max_pairs_per_call"):
                out[name] = max(out[name], value)
            else:
                out[name] += weight * value
        for name, value in tracer.self_times().items():
            out[name + ".s"] += weight * value

    fold(setup, 1.0)
    for tracer in ops:
        fold(tracer, 1.0 / len(ops))
    for prefix in ("kernels.apply_double_layer", "kernels.apply_single_layer"):
        seconds = out.get(prefix + ".s", 0.0)
        out[prefix + ".pairs_per_s"] = out[prefix + ".pairs"] / seconds if seconds else 0.0
    return out
