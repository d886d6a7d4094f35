"""One instance of one workload, in a fresh process.

    python3 bench/worker.py NAME --seed N --trace 0|1 [--smoke]

Runs the workload's public call (`cli.run_scenario` or
`korn.estimate_min_quotient`) once, checks its output against the
workload's gate and prints one JSON record on its last line.  The package
is imported from the `src` directory of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import json
import re
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _step_of(error):
    """1-based step that run_scenario names in its NoConvergence."""
    m = re.match(r"step (\d+):", error.what)
    return int(m.group(1)) if m else 1


def _install(tracer, trace, korn_workload, shapes):
    from curlplast import cli, korn, solver
    from tracer import CountingMatrix

    if korn_workload:
        tracer.patch(korn, "build_blocks", "grid.build_blocks")
        tracer.patch(korn, "build_p_basis", "grid.build_p_basis")
    if not trace:
        if not korn_workload:
            tracer.patch(solver.DiscreteProblem, "__init__", "solver.DiscreteProblem")
        return

    def instrument(_, args):
        problem = args[0]
        shapes["A_hat_nnz"] = int(problem.A_hat.nnz)
        shapes["K_ff_nnz"] = int(problem.K_ff.nnz)
        problem.A_hat = CountingMatrix(problem.A_hat, tracer, "solver.A_hat_matvec")

    tracer.patch(solver.DiscreteProblem, "__init__", "solver.DiscreteProblem", after=instrument)
    tracer.patch(solver, "build_blocks", "grid.build_blocks")
    tracer.patch(solver, "build_p_basis", "grid.build_p_basis")
    for method in ("solve_u", "solve_p", "lipschitz", "objective", "kkt_check", "vi_residual"):
        tracer.patch(solver.DiscreteProblem, method, f"solver.{method}")
    tracer.patch(cli, "time_step", "solver.time_step", keep_durations=True)
    tracer.patch(solver, "total_energy", "models.total_energy")
    tracer.patch(cli, "eshelby_stress", "models.eshelby_stress")
    tracer.patch(cli, "sigma_nodal", "models.sigma_nodal")
    tracer.patch(cli, "write_structured_points", "vtk_io.write_structured_points")
    tracer.patch(cli, "run_scenario", "cli.run_scenario")
    tracer.patch(korn, "estimate_min_quotient", "korn.estimate_min_quotient")


def _layers(tracer, reports, shapes, vtk_bytes, run_s):
    total, own, calls = tracer.total, tracer.self_time, tracer.calls
    steps = tracer.durations["solver.time_step"]
    return {
        "grid.build_blocks.s": total["grid.build_blocks"],
        "grid.build_p_basis.s": total["grid.build_p_basis"],
        "solver.DiscreteProblem.self_s": own["solver.DiscreteProblem"],
        "solver.A_hat_nnz": shapes.get("A_hat_nnz", 0),
        "solver.K_ff_nnz": shapes.get("K_ff_nnz", 0),
        "solver.solve_u.s": total["solver.solve_u"],
        "solver.solve_u.calls": calls["solver.solve_u"],
        "solver.cg_iters": sum(r.cg_iterations for r in reports),
        "solver.solve_p.s": total["solver.solve_p"],
        "solver.solve_p.calls": calls["solver.solve_p"],
        "solver.fista_iters": sum(r.fista_iterations for r in reports),
        "solver.lipschitz.s": total["solver.lipschitz"],
        "solver.A_hat_matvecs": calls["solver.A_hat_matvec"],
        "solver.A_hat_matvec.s": total["solver.A_hat_matvec"],
        "solver.solve_p.nonmatvec_s": own["solver.solve_p"],
        "solver.outer_iters": sum(r.outer_iterations for r in reports),
        "solver.objective.s": total["solver.objective"],
        "solver.objective.calls": calls["solver.objective"],
        "solver.time_step.p50_ms": 1e3 * statistics.median(steps) if steps else 0.0,
        "solver.time_step.max_ms": 1e3 * max(steps) if steps else 0.0,
        "solver.time_step.self_s": own["solver.time_step"],
        "solver.kkt_check.s": total["solver.kkt_check"],
        "solver.vi_residual.s": total["solver.vi_residual"],
        "models.total_energy.s": total["models.total_energy"],
        "models.eshelby_stress.s": total["models.eshelby_stress"],
        "models.sigma_nodal.s": total["models.sigma_nodal"],
        "vtk_io.write_structured_points.s": total["vtk_io.write_structured_points"],
        "vtk_io.write_structured_points.calls": calls["vtk_io.write_structured_points"],
        "vtk_io.bytes": vtk_bytes,
        "cli.run_scenario.self_s": own["cli.run_scenario"],
        "korn.estimate_min_quotient.s": total["korn.estimate_min_quotient"],
        "korn.iterate_s": own["korn.estimate_min_quotient"],
        "trace.run_s": run_s,
        "trace.coverage": sum(own.values()) / run_s,
    }


def run_instance(name, seed, trace, smoke, workdir):
    import numpy as np
    import scipy
    from curlplast import cli, korn
    from curlplast.scenario import parse_scenario
    from curlplast.solver import NoConvergence

    import workloads
    from tracer import Tracer

    korn_workload = name == "korn10"
    if korn_workload:
        problem, kwargs = workloads.korn_inputs(seed, smoke)
        ops = 1
    else:
        scenario = parse_scenario(workloads.scenario_text(name, seed, smoke))
        ops = len(scenario.load_program)

    tracer, shapes = Tracer(), {}
    _install(tracer, trace, korn_workload, shapes)
    result = error = None
    failed, detail = ops, {}
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        if korn_workload:
            result = korn.estimate_min_quotient(problem, **kwargs)
        else:
            result = cli.run_scenario(scenario, str(workdir), quiet=True, keep_states=True)
    except NoConvergence as e:
        error = f"NoConvergence: {e}"
        failed = 1 if korn_workload else ops - _step_of(e) + 1
    run_s = time.perf_counter() - t0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    tracer.restore()

    if error is None:
        try:
            ok, detail = workloads.GATES[name](result, smoke)
            failed = sum(not v for v in ok)
        except Exception:  # a gate that cannot run fails every operation
            error = traceback.format_exc()
    record = {
        "workload": name, "seed": seed, "trace": int(trace), "smoke": smoke,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "attempted": ops,
        "failed": failed,
        "gate": detail,
        "error": error,
        "run_s": run_s,
        "run_cpu_s": (ru1.ru_utime + ru1.ru_stime) - (ru0.ru_utime + ru0.ru_stime),
        "setup_s": _setup_s(tracer, korn_workload),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
    }
    if trace:
        reports = result.reports if result is not None and not korn_workload else []
        vtk_bytes = sum(f.stat().st_size for f in workdir.rglob("*.vtk"))
        record["layers"] = _layers(tracer, reports, shapes, vtk_bytes, run_s)
    return record


def _setup_s(tracer, korn_workload):
    if korn_workload:
        return tracer.total["grid.build_blocks"] + tracer.total["grid.build_p_basis"]
    return tracer.total["solver.DiscreteProblem"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("name")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "curlplast" / "__init__.py").is_file():
        print(f"error: no curlplast sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work_root = BENCH / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.name}-", dir=work_root))
    try:
        record = run_instance(args.name, args.seed, bool(args.trace), args.smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
