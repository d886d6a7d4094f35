"""Benchmark of curlplast's public library path: three workloads, end-to-end
metrics from untraced runs and a per-module split from traced runs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--smoke] [--record FILE]

Every instance of a workload runs in a fresh process (bench/worker.py) with
its BLAS threads pinned to 1, one process at a time.  Instance i of a run
uses the input seed N + i; instances are started until the next one would end
after S seconds, with at least three untraced instances (or one traced and
untraced pair).  Each metric is the median over the run's instances.
--smoke shrinks every workload to a 2^3 grid and two steps and runs one
instance.  The last line of the output is one JSON object: correct,
attempted, failed and metrics.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("gradient_shear6", "certified_cycle6", "korn10")

END_TO_END = (
    ("run_s", "s"),
    ("run_cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    ("grid.build_blocks.s", "s"),
    ("grid.build_p_basis.s", "s"),
    ("solver.DiscreteProblem.self_s", "s"),
    ("solver.A_hat_nnz", "count"),
    ("solver.K_ff_nnz", "count"),
    ("solver.solve_u.s", "s"),
    ("solver.solve_u.calls", "count"),
    ("solver.cg_iters", "count"),
    ("solver.solve_p.s", "s"),
    ("solver.solve_p.calls", "count"),
    ("solver.fista_iters", "count"),
    ("solver.lipschitz.s", "s"),
    ("solver.A_hat_matvecs", "count"),
    ("solver.A_hat_matvec.s", "s"),
    ("solver.solve_p.nonmatvec_s", "s"),
    ("solver.outer_iters", "count"),
    ("solver.objective.s", "s"),
    ("solver.objective.calls", "count"),
    ("solver.time_step.p50_ms", "ms"),
    ("solver.time_step.max_ms", "ms"),
    ("solver.time_step.self_s", "s"),
    ("solver.kkt_check.s", "s"),
    ("solver.vi_residual.s", "s"),
    ("models.total_energy.s", "s"),
    ("models.eshelby_stress.s", "s"),
    ("models.sigma_nodal.s", "s"),
    ("vtk_io.write_structured_points.s", "s"),
    ("vtk_io.write_structured_points.calls", "count"),
    ("vtk_io.bytes", "B"),
    ("cli.run_scenario.self_s", "s"),
    ("korn.estimate_min_quotient.s", "s"),
    ("korn.iterate_s", "s"),
    ("trace.run_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
)

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
MIN_UNTRACED = 3
RUN_LIMIT_S = 150.0  # no instance starts that would end later; keeps a run under 180 s


def launch(name, seed, trace, smoke, timeout):
    """One worker process; returns its record, or a failed one if it died."""
    cmd = [sys.executable, str(BENCH / "worker.py"), name,
           "--seed", str(seed), "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **THREAD_ENV},
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"trace": int(trace), "attempted": 1, "failed": 1,
                "error": f"worker timed out after {timeout:.0f} s"}
    try:
        if proc.returncode == 0:
            return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        pass
    return {"trace": int(trace), "attempted": 1, "failed": 1,
            "error": f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"}


def measure(name, seed, seconds, trace, smoke):
    """Instances of one workload, one process at a time, for about `seconds`."""
    start = time.perf_counter()
    records = []
    i = 0
    while True:
        t0 = time.perf_counter()
        for mode in ((False, True) if trace else (False,)):
            timeout = max(RUN_LIMIT_S + 20.0 - (time.perf_counter() - start), 5.0)
            records.append(launch(name, seed + i, mode, smoke, timeout))
        i += 1
        now = time.perf_counter()
        next_end = now - start + (now - t0)
        if smoke or next_end > RUN_LIMIT_S:
            break
        if next_end > seconds and (trace or i >= MIN_UNTRACED):
            break
    return records


def summarize(records, trace):
    """Metrics of one run: medians over instances; counts from the first
    traced instance, which uses the run's own seed."""
    plain = [r for r in records if "run_s" in r and not r["trace"]]
    traced = [r for r in records if "layers" in r]
    metrics = {}
    if trace and traced:
        for metric, unit in PER_LAYER:
            if metric == "trace.overhead_s":
                if not plain:
                    continue
                value = (statistics.median(r["run_s"] for r in traced)
                         - statistics.median(r["run_s"] for r in plain))
            elif unit in ("count", "B"):
                value = traced[0]["layers"][metric]
            else:
                value = statistics.median(r["layers"][metric] for r in traced)
            metrics[metric] = {"value": value, "unit": unit}
    elif not trace and plain:
        for metric, unit in END_TO_END:
            metrics[metric] = {"value": statistics.median(r[metric] for r in plain), "unit": unit}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}


def environment(records, seconds, trace, smoke):
    versions = next((r["versions"] for r in records if "versions" in r), {})
    return {"nproc": os.cpu_count(), "machine": platform.machine(), **versions,
            "thread_env": THREAD_ENV, "seconds": seconds, "trace": int(trace), "smoke": smoke}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="2^3 grids, two steps, one instance")
    parser.add_argument("--record", help="also write the results and the environment to this JSON file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "curlplast" / "__init__.py").is_file():
        print(f"error: no curlplast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, all_records = {}, []
    for name in names:
        records = measure(name, args.seed, args.seconds, args.trace, args.smoke)
        all_records += records
        summary = summarize(records, args.trace)
        results[name] = {**summary, "instances": records}
        for metric, m in summary["metrics"].items():
            print(f"{name:18s} {metric:38s} {m['value']:<14.6g} {m['unit']}")
        frac = summary["failed"] / max(summary["attempted"], 1)
        print(f"{name:18s} {'failed_frac':38s} {frac:<14.6g} ratio  "
              f"({summary['failed']} of {summary['attempted']} operations, {len(records)} processes)")
        for r in records:
            if r.get("error"):
                print(f"{name}: seed {r.get('seed')}: {r['error']}", file=sys.stderr)

    if args.record:
        with open(args.record, "w") as f:
            json.dump({"environment": environment(all_records, args.seconds, args.trace, args.smoke),
                       "results": results}, f, indent=1)
            f.write("\n")
    if len(names) == 1:
        final = {k: v for k, v in results[names[0]].items() if k != "instances"}
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["metrics"] else 1


if __name__ == "__main__":
    sys.exit(main())
