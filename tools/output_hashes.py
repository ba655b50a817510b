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


def solve_hashes(work) -> dict:
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
        "operator": _digest(op),
        "density": _digest(density.values),
        "failed": ok.count(False),
        "error": repr(error),
    }


def targets_hashes(work) -> dict:
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
        "values": _digest(values),
        "failed": ok.count(False),
        "error": repr(error),
    }


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
    args = ap.parse_args(argv)
    workloads = load_workloads()
    for name, make in workloads.WORKLOADS.items():
        for seed in args.seeds:
            work = make(seed)
            hashes = targets_hashes(work) if name == "targets" else solve_hashes(work)
            fields = " ".join(f"{k}={v}" for k, v in hashes.items())
            print(f"{name} seed={seed} {fields}", flush=True)


if __name__ == "__main__":
    main()
