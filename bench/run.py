"""udbound benchmark: one client, one job at a time, gated per job.

Usage, from the root of a checkout:

    python3 bench/run.py --workload qudit_cli --seed 0 --seconds 55 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

A run imports udbound from ``src/`` next to this directory, makes its
inputs from ``--seed``, sets up three times (reporting the median), then
runs rounds of the workload's jobs until ``--seconds`` have passed.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` every round also runs traced
and the metrics are the per-layer ones.  The line before it records the
environment (versions, BLAS threads, CPU count) and the rounds run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fixed before numpy loads, so timings do not depend on the machine's
# default thread count; one thread also keeps runs on a shared host steady.
BLAS_THREADS = 1
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("qudit_cli", "qudit_d5", "random_global")

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import udbound; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    """Time to import udbound in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def environment() -> dict:
    import numpy
    import scipy

    def blas(module) -> str:
        deps = module.show_config(mode="dicts").get("Build Dependencies", {})
        info = deps.get("blas", {})
        return f"{info.get('name')} {info.get('version')}"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def end_to_end(result, setup_s: float) -> dict:
    def median(key: str) -> float:
        return statistics.median(r[key] for r in result.untraced)

    ledger = result.ledger
    return {
        "wall_s": metric(median("wall"), "s"),
        "solve_s": metric(median("solve"), "s"),
        "verify_s": metric(median("verify"), "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": metric(1.0 - ledger.failed / ledger.attempted, "frac"),
    }


def per_layer(result, tracer) -> dict:
    from tracing import LAYERS

    k = len(result.traced)
    calls, total, own = tracer.calls, tracer.total_s, tracer.self_s
    counts, peaks = tracer.counts, tracer.peaks
    out: dict = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = metric(value, unit)

    solves, iters = calls["solver.solve"], counts["solver.solve.iterations"]
    put("solver.solve.calls", solves / k, "count")
    put("solver.solve.s", total["solver.solve"] / k, "s")
    put("solver.solve.iterations", iters / k, "count")
    put("solver.solve.s_per_iter", total["solver.solve"] / iters if iters else 0.0, "s")
    put("solver.solve.optimal_frac", counts["solver.solve.optimal"] / solves if solves else 0.0, "frac")
    for name in ("svec", "smat", "cho_solve"):
        put(f"solver.{name}.calls", calls[f"solver.{name}"] / k, "count")
        put(f"solver.{name}.s", total[f"solver.{name}"] / k, "s")
    put("solver.cho_factor.s", total["solver.cho_factor"] / k, "s")
    put("solver.dense_A_mb", peaks["solver.dense_A_mb"], "MB-computed")
    put("programs.solve_global.self_s", own["programs.solve_global"] / k, "s")
    put("programs.solve_separable_bound.self_s", own["programs.solve_separable_bound"] / k, "s")
    put("programs.constraints", counts["programs.constraints"] / k, "count")
    put("programs.vars", counts["programs.vars"] / k, "count")
    put("programs.max_value_err", max(result.ledger.value_errors, default=0.0), "abs")
    subspaces = calls["cones.conclusive_subspace"]
    put("cones.conclusive_subspace.calls", subspaces / k, "count")
    put("cones.conclusive_subspace.s", total["cones.conclusive_subspace"] / k, "s")
    put("cones.conclusive_subspace.dim_max", peaks["cones.conclusive_subspace.dim_max"], "count")
    put(
        "cones.conclusive_subspace.distinct_frac",
        len(tracer.subspace_keys) / subspaces if subspaces else 0.0,
        "frac",
    )
    put("operators.min_eigenvalue.calls", calls["operators.min_eigenvalue"] / k, "count")
    put("operators.min_eigenvalue.s", total["operators.min_eigenvalue"] / k, "s")
    for name in ("reconstruct", "reconstruct_elements", "psd_residual"):
        put(f"ensembles.{name}.s", total[f"ensembles.{name}"] / k, "s")
    for name in ("verify_optimality", "verify_separable_certificate", "verify_locc_equality"):
        put(f"verify.{name}.self_s", own[f"verify.{name}"] / k, "s")
    put("verify.worst_residual_ratio", max(result.ledger.residual_ratios, default=0.0), "ratio")
    for name in ("write_json", "read_json"):
        put(f"jsonio.{name}.s", total[f"jsonio.{name}"] / k, "s")
        put(f"jsonio.{name}.bytes", counts[f"jsonio.{name}.bytes"] / k, "bytes")
    for name in ("matrix_to_json", "matrix_from_json"):
        put(f"jsonio.{name}.s", total[f"jsonio.{name}"] / k, "s")
    put("ensembles.load.s", (total["ensembles.load_ensemble"] + total["ensembles.load_measurement"]) / k, "s")
    put("cones.load_cones.s", total["cones.load_cones"] / k, "s")
    put("cli.main.self_s", own["cli.main"] / k, "s")

    layers = tracer.layer_self_s()
    for layer in LAYERS:
        put(f"layer.{layer}.self_s", layers[layer] / k, "s")
    traced_wall = sum(r["wall"] for r in result.traced)
    untraced_wall = sum(r["wall"] for r in result.untraced)
    put("trace.wall_s", traced_wall / k, "s")
    put("trace.unattributed_s", (traced_wall - sum(layers.values())) / k, "s")
    put("trace.overhead_frac", traced_wall / untraced_wall - 1.0, "frac")
    return out


def run_one(args) -> int:
    if not (SRC / "udbound" / "__init__.py").is_file():
        print(f"error: no udbound sources at {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import udbound

    if Path(udbound.__file__).resolve().parent != (SRC / "udbound").resolve():
        print(f"error: udbound imported from {udbound.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from harness import run_for
    from tracing import Tracer
    from workloads import WORKLOADS

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        import_s = statistics.median(import_seconds() for _ in range(SETUP_REPEATS))
        generate = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            generate.append(time.perf_counter() - start)
        setup_s = import_s + statistics.median(generate)
        tracer = Tracer() if args.trace else None
        result = run_for(args.seconds, workload.jobs, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if workdir.parent.is_dir() and not any(workdir.parent.iterdir()):
            workdir.parent.rmdir()

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(result.untraced),
        "round_wall_s": [round(r["wall"], 4) for r in result.untraced],
        "failed_frac": result.ledger.failed / result.ledger.attempted,
        **environment(),
    }
    if tracer is not None:
        spans = ROOT / ".bench_trace" / f"{args.workload}.spans.jsonl"
        tracer.write(spans)
        info["spans"] = str(spans.relative_to(ROOT))
        metrics = per_layer(result, tracer)
    else:
        metrics = end_to_end(result, setup_s)
    ledger = result.ledger
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"{name}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        frac = result["failed"] / result["attempted"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_frac={frac:g}")
        for key, m in result["metrics"].items():
            print(f"  {key:42s} {m['value']:<14.6g} {m['unit']}")
        status |= 0 if result["correct"] else 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
