"""SHA-256 prefixes of every benchmark workload's outputs, for bitwise comparisons.

    python3 tools/output_hashes.py --seeds 1 2 3

builds each workload of perfbench/workloads.py (imported read-only) from
the seed and prints one line per workload and seed: hashes of the coarse
and fine patch sets (stacked coefficients, (depth, ix, iy, root_id) keys,
lengths); for the solve workloads the formed operator (the matvec of the
identity) and the solved density; for ``targets`` the coarse and fine node
sets, every ZoneLabels field and the values; then the failed count and the
repr of the check's max_rel_error, which says by how much accuracy moved
when a hash changes. Two checkouts whose lines agree compute the same bits.
Run it from the root of a source checkout.

When the bits are meant to change, say by rounding, save the outputs of
one checkout and compare the other's against them:

    python3 tools/output_hashes.py --seeds 1 2 3 --save DIR      # in the first
    python3 tools/output_hashes.py --seeds 1 2 3 --against DIR   # in the second

--save writes the operator, density or values, the failed count and
max_rel_error of each workload and seed to DIR/<workload>_seed<N>.npz.
--against prints, after each line of hashes, one line that begins with
the workload, the seed and ``against``: the largest change of each saved
array relative to its largest magnitude, max |new - saved| / max |saved|,
then the failed count and max_rel_error with the saved ones.
"""

import argparse
import dataclasses
import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PREFIX = 16  # hex digits printed per hash


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()[:PREFIX]


def patchset_hash(patchset) -> str:
    coeffs = np.stack([p.coeffs for p in patchset])
    keys = np.array(
        [(p.domain.depth, p.domain.ix, p.domain.iy, p.root_id) for p in patchset], dtype=np.int64
    )
    return _digest(coeffs, keys, patchset.lengths)


def node_arrays(nodes) -> tuple:
    return nodes.positions, nodes.normals, nodes.weights, nodes.params, nodes.patch_ids


COMPARED = ("operator", "density", "values")  # the arrays --save keeps


def solve_outputs(work) -> dict:
    from hedgehog import solver  # importable once load_workloads put src on the path

    system = work.setup()
    n, d = system.n_unknowns, system.problem.kernel.d
    op = solver.matvec(system, np.eye(n).reshape(-1, d, n)).reshape(n, n)
    result = work.run(system)
    ok, error = work.check(system, result)
    density, _ = result
    return {
        "coarse": patchset_hash(system.coarse),
        "fine": patchset_hash(system.fine),
        "operator": op,
        "density": density.values,
        "failed": ok.count(False),
        "error": error,
    }


def targets_outputs(work) -> dict:
    state = work.setup()
    coarse, fine, nodes, fine_nodes, _ = state
    work.prepare(state)
    labels, values = result = work.run(state)
    ok, error = work.check(state, result)
    fields = [getattr(labels, f.name) for f in dataclasses.fields(labels)]
    return {
        "coarse": patchset_hash(coarse),
        "fine": patchset_hash(fine),
        "nodes": _digest(*node_arrays(nodes), *node_arrays(fine_nodes)),
        "labels": _digest(*fields),
        "values": values,
        "failed": ok.count(False),
        "error": error,
    }


def hash_line(outputs) -> str:
    """The fields of one line: hashes of the arrays, the failed count and
    the repr of max_rel_error."""
    fields = {
        k: _digest(v) if isinstance(v, np.ndarray) else repr(v) if k == "error" else v
        for k, v in outputs.items()
    }
    return " ".join(f"{k}={v}" for k, v in fields.items())


def relative_change(new, saved) -> float:
    """max |new - saved| / max |saved|; inf when the shapes differ."""
    if new.shape != saved.shape:
        return float("inf")
    scale = np.abs(saved).max(initial=0.0)
    change = np.abs(new - saved).max(initial=0.0)
    return change / scale if scale else change


def save(outputs, path):
    arrays = {k: outputs[k] for k in COMPARED if k in outputs}
    np.savez(path, failed=outputs["failed"], error=outputs["error"], **arrays)


def against_line(outputs, path) -> str:
    """The fields of one comparison line against the outputs saved at path."""
    with np.load(path) as saved:
        changes = [
            f"{k}={relative_change(np.asarray(outputs[k]), saved[k]):.3e}"
            for k in COMPARED if k in outputs
        ]
        return " ".join(changes + [
            f"failed={outputs['failed']} saved_failed={int(saved['failed'])}",
            f"error={outputs['error']!r} saved_error={float(saved['error'])!r}",
        ])


def load_workloads():
    """perfbench/workloads.py as a module, without adding perfbench to sys.path."""
    sys.path.insert(0, str(ROOT / "src"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    group = ap.add_mutually_exclusive_group()
    group.add_argument("--save", type=Path, metavar="DIR",
                       help="write the compared outputs of each workload and seed to DIR")
    group.add_argument("--against", type=Path, metavar="DIR",
                       help="compare with the outputs that --save wrote to DIR")
    args = ap.parse_args(argv)
    if args.save:
        args.save.mkdir(parents=True, exist_ok=True)
    workloads = load_workloads()
    for name, make in workloads.WORKLOADS.items():
        for seed in args.seeds:
            work = make(seed)
            outputs = targets_outputs(work) if name == "targets" else solve_outputs(work)
            print(f"{name} seed={seed} {hash_line(outputs)}", flush=True)
            path = f"{name}_seed{seed}.npz"
            if args.save:
                save(outputs, args.save / path)
            if args.against:
                print(f"{name} seed={seed} against {against_line(outputs, args.against / path)}",
                      flush=True)


if __name__ == "__main__":
    main()
