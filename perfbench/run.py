"""Benchmark of the hedgehog solver: set-up, solve and off-surface evaluation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload of BENCHMARK.json from the root of a source checkout in
this process: it sets up ``setups`` times (median reported as ``setup_s``),
then repeats the workload's operation in a closed loop with one caller until
``--seconds`` have passed (median reported as ``op_s``). Every repetition is
checked against the point-charge reference. ``--trace 1`` instead reports
the per-layer metrics from spans recorded around the package's public
functions, and writes the spans to perfbench/out/. ``--workload all`` runs
every workload, each in its own process, and prints one table.

The last line of standard output is the JSON result.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the cores this process may use; before numpy loads."""
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or int(current) > cap:
            os.environ[var] = str(cap)
    return min(int(os.environ[var]) for var in BLAS_THREAD_VARS)


def parse_args(names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*names, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def run_all(args, spec):
    """Each workload in its own process, so peak RSS is that workload's own."""
    rows = []
    for name in (w["name"] for w in spec["workloads"]):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"workload {name} exited with code {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        accuracy = next(json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("accuracy "))
        rows.append((name, json.loads(lines[-1]), accuracy["max_rel_error"]))
    print(f"{'workload':<14} {'metric':<44} {'value':>14} unit")
    for name, res, max_rel_error in rows:
        for metric, m in res["metrics"].items():
            print(f"{name:<14} {metric:<44} {m['value']:>14.6g} {m['unit']}")
        print(f"{name:<14} {'max_rel_error':<44} {max_rel_error:>14.6g} ratio")
        print(f"{name:<14} {'attempted / failed':<44} {res['attempted']:>8} / {res['failed']}")
    print(json.dumps({
        "correct": all(r["correct"] for _, r, _ in rows),
        "attempted": sum(r["attempted"] for _, r, _ in rows),
        "failed": sum(r["failed"] for _, r, _ in rows),
        "metrics": {f"{n}.{k}": v for n, r, _ in rows for k, v in r["metrics"].items()},
    }))


def environment(args, blas_threads):
    import numpy
    import scipy

    from hedgehog import backends

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "have_numba": backends.HAVE_NUMBA,
    }


def run_workload(args, spec, env):
    from tracing import Instrumentation, Tracer, layer_metrics, metric_names
    from workloads import WORKLOADS

    work = WORKLOADS[args.workload](args.seed)
    trace = bool(args.trace)

    setup_times = []
    setup_tracer = Tracer("setup")
    for i in range(work.setups):
        traced = trace and i == work.setups - 1  # the last, with caches warm
        t0 = time.perf_counter()
        with Instrumentation(setup_tracer) if traced else nullcontext():
            state = work.setup()
        setup_times.append(time.perf_counter() - t0)
    work.prepare(state)

    op_times = {False: [], True: []}
    op_tracers = []
    passed = [True] * work.attempted
    errors = []
    pairs_ok = True
    start = time.perf_counter()
    while True:
        # in a traced run, operations alternate untraced and traced
        traced = trace and len(op_times[False]) > len(op_times[True])
        tracer = Tracer(f"op{len(op_tracers) + 1}")
        t0 = time.perf_counter()
        with Instrumentation(tracer) if traced else nullcontext():
            result = work.run(state)
        op_times[traced].append(time.perf_counter() - t0)
        if traced:
            op_tracers.append(tracer)
            pairs, expected = int(tracer.counts["backends.pairs"]), work.expected_pairs(
                state, tracer.counts
            )
            if pairs != expected:
                pairs_ok = False
                print(f"pair count {pairs} != expected {expected}")
        ok, err = work.check(state, result)
        passed = [a and b for a, b in zip(passed, ok)]
        errors.append(err)
        if time.perf_counter() - start >= args.seconds and (not trace or op_tracers):
            break

    # repetitions of one deterministic operation must agree
    repeatable = max(errors) - min(errors) <= 1e-9 * max(errors)
    max_err = max(errors)
    failed = passed.count(False)
    print("accuracy " + json.dumps({"max_rel_error": max_err, "tolerance": work.tolerance,
                                    "attempted": work.attempted, "failed": failed,
                                    "repetitions": len(errors)}))
    print("timings " + json.dumps({"setup_s": setup_times, "op_s": op_times[False],
                                   "traced_op_s": op_times[True]}))

    values = {}
    if trace:
        values.update(layer_metrics(setup_tracer, op_tracers))
        values.update(work.sizes(state))
        values["accuracy.max_rel_error"] = max_err
        values["trace.overhead_s"] = statistics.median(op_times[True]) - statistics.median(
            op_times[False]
        )
        OUT.mkdir(parents=True, exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump(
                {"env": env, "phases": [t.to_json() for t in [setup_tracer, *op_tracers]]}, fh
            )
        print(f"spans written to {path.relative_to(ROOT)}")
        wanted = spec["per_layer"]
    else:
        values["setup_s"] = statistics.median(setup_times)
        values["op_s"] = statistics.median(op_times[False])
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wanted = spec["end_to_end"]

    known = set(values) | (metric_names() if trace else set())
    unknown = [m["name"] for m in wanted if m["name"] not in known]
    if unknown:
        sys.exit(f"BENCHMARK.json names metrics this benchmark does not produce: {unknown}")
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in wanted}
    return {
        "correct": repeatable and pairs_ok,
        "attempted": work.attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main():
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "hedgehog").is_dir() or not spec_path.is_file():
        sys.exit("perfbench: run from a hedgehog source checkout (src/hedgehog and BENCHMARK.json)")
    with open(spec_path) as fh:
        spec = json.load(fh)
    args = parse_args([w["name"] for w in spec["workloads"]])
    if args.workload == "all":
        run_all(args, spec)
        return
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    env = environment(args, blas_threads)
    print("env " + json.dumps(env))
    print(json.dumps(run_workload(args, spec, env)))


if __name__ == "__main__":
    main()
