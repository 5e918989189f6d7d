"""rrsplit benchmark: the paper's workloads, end to end and layer by layer.

Run from the root of a checkout:

    python3 benchmarks/bench.py --workload slanted_sweep --seed 1 --seconds 20 --trace 0

``--workload all`` runs the three workloads one after another in this
process. A workload repeats full passes until the next one would end after
``--seconds`` (at least one pass) and reports medians over the passes. With
``--trace 1`` it then makes one traced pass and reports the per-layer
metrics instead. The last line of standard output is one JSON object; a
results file (and, when traced, the spans) goes to ``benchmarks/results/``.
Under ``all`` each workload's peak_rss_mb is the process peak so far;
the workloads run in order of growing memory.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "dof_steps_per_s": "1/s",
    "peak_rss_mb": "MiB",
}


def import_solver():
    """Import rrsplit from this checkout's src/, never from anywhere else."""
    if not (SRC / "rrsplit" / "__init__.py").is_file():
        sys.exit(f"bench: no rrsplit sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import rrsplit

    if Path(rrsplit.__file__).resolve().parent != SRC / "rrsplit":
        sys.exit(f"bench: imported rrsplit from {rrsplit.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": NPROC,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure(workload, size, seed, seconds, trace):
    """Results of one workload, and the span recorder of its traced pass."""
    import spans
    import workloads

    passes = []
    while True:
        passes.append(workloads.run_pass(workload, size, seed))
        spent = sum(p.wall_s for p in passes)
        if spent + passes[-1].wall_s > seconds:
            break
    wall = statistics.median(p.wall_s for p in passes)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(p.setup_s for p in passes),
        "dof_steps_per_s": statistics.median(p.dof_steps / p.wall_s for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = dict(END_TO_END)
    checked = list(passes)
    recorder = None
    if trace:
        recorder = spans.Recorder()
        tp = workloads.run_pass(workload, size, seed, recorder=recorder)
        checked.append(tp)
        metrics = spans.layer_metrics(recorder.spans)
        total = spans.self_time_total(metrics)
        tp.check("layer self times add up to the traced wall within 5%",
                 abs(total - tp.wall_s) <= 0.05 * tp.wall_s,
                 f"{total:.4f} s vs {tp.wall_s:.4f} s")
        metrics.update({
            "harness.rows": tp.rows,
            "harness.rows_failed": tp.rows_failed,
            "trace.wall_s": tp.wall_s,
            "trace.overhead_s": tp.wall_s - wall,
        })
        units = {name: unit for name, (unit, _) in spans.LAYER_METRICS.items()}
    attempted = sum(len(p.checks) for p in checked)
    failed = sum(p.failed for p in checked)
    return {
        "workload": workload,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "deterministic": workload != "energy_audit",
        "environment": environment(),
        "passes": [{"wall_s": p.wall_s, "setup_s": p.setup_s, "dof_steps": p.dof_steps,
                    "rows": p.rows, "rows_failed": p.rows_failed} for p in passes],
        "failed_checks": [(name, detail) for p in checked
                          for name, ok, detail in p.checks if not ok],
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }, recorder


def report(res):
    w = res["workload"]
    print(f"{w}: {len(res['passes'])} pass(es), seed {res['seed']}, "
          f"trace {res['trace']}, {json.dumps(res['environment'])}")
    for name, m in res["metrics"].items():
        print(f"{w} {name} {m['value']:.6g} {m['unit']}")
    print(f"{w} failed_fraction {res['failed_fraction']:.6g} "
          f"({res['failed']} of {res['attempted']} checks)")
    for name, detail in res["failed_checks"]:
        print(f"{w} FAILED {name}: {detail}")


def write_results(res, recorder):
    out = HERE / "results"
    out.mkdir(exist_ok=True)
    stem = f"{res['workload']}-{res['size']}-seed{res['seed']}-trace{res['trace']}"
    if recorder is not None:
        import spans

        recorder.write_jsonl(out / f"{stem}.spans.jsonl")
        res["layer_map"] = {k: v for k, (_, v) in spans.LAYER_METRICS.items()}
    (out / f"{stem}.json").write_text(json.dumps(res, indent=1) + "\n")


def main(argv=None):
    # One BLAS thread unless the environment asks for more (at most one per
    # core); numpy reads this when it is imported. A second OpenBLAS thread
    # spins on the other core for the whole run without shortening it, and
    # then anything else on that core shows up in the wall times.
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        threads = int(value) if value.isdigit() else 1
        os.environ[var] = str(min(max(threads, 1), NPROC))
    import_solver()
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *workloads.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0,
                        help="feeds energy_audit's initial data; the sweeps are deterministic")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=list(workloads.SIZES), default="paper")
    args = parser.parse_args(argv)

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        res, recorder = measure(name, args.size, args.seed, args.seconds, args.trace)
        report(res)
        write_results(res, recorder)
        results.append(res)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
