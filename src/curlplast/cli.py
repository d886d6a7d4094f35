"""Command-line front end: run scenarios, sweep parameters, estimate the
coercivity constant, and exercise the oracle self-tests.

Exit codes: 0 success, 1 oracle self-test failure, 2 validation error or
out of memory, 3 solver non-convergence, 4 I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .grid import Grid
from .korn import KornProblem, estimate_min_quotient
from .models import SimState, sigma_nodal, eshelby_stress
from .oracles import selftest
from .scenario import Scenario, ValidationError, parse_scenario
from .solver import CERT_WORKERS, CertificatePool, DiscreteProblem, NoConvergence, extrapolate, time_step
from .tensors import dev
from .vtk_io import write_structured_points


@dataclass
class TimeSeriesRow:
    step: int
    level: float
    elastic_energy: float
    defect_energy: float
    hardening_energy: float
    cumulative_dissipation: float
    max_dev_eshelby: float
    mean_gamma: float
    active_fraction: float
    vi_residual: float


CSV_COLUMNS = tuple(f.name for f in fields(TimeSeriesRow))


def _csv_line(values):
    """One CSV line; floats are written by repr, so they read back exactly."""
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values) + "\n"


@dataclass
class RunResult:
    scenario: Scenario
    rows: list
    states: list
    reports: list
    sigma12_max: list  # per step, feeds the apparent hardening slope


def run_scenario(scenario: Scenario, out_dir=".", quiet=True, keep_states=False) -> RunResult:
    """Drive the solver over the load program and write CSV/VTK outputs.

    The micromorphic variant has no history, so its program collapses to the
    final load level: exactly one step is executed and reported.  Each step
    starts from the extrapolation of the last three states (the zero state
    at level 0 included) to its level, when there is one.  Each step's VI
    certificate runs on a CertificatePool while later steps are solved, at
    most CERT_WORKERS at a time; its row and VTK file follow in step order,
    and a failing step has every step before it written first.  The pool is
    joined before the call returns or raises.
    """
    problem = DiscreteProblem(scenario.grid, scenario.boundary, scenario.variant,
                              scenario.dirichlet_array(), scenario.solver)
    program = scenario.load_program
    if not scenario.variant.has_dissipation and len(program) > 1:
        program = (program[-1],)
    state = SimState.zeros(scenario.grid)
    recent = [state]  # the newest states, for the starting guess
    pending = deque()  # (k, load, state, report) of the steps solved and not yet written
    rows, states, reports, sig12 = [], [], [], []
    # the CSV is opened before the first step, so that a path that cannot be
    # written fails the run before any solve
    csv_path = os.path.join(out_dir, scenario.output.csv)
    os.makedirs(os.path.dirname(csv_path) or ".", exist_ok=True)
    with CertificatePool() as pool, open(csv_path, "w", newline="\n") as csv_file:
        csv_file.write(_csv_line(CSV_COLUMNS))
        vtk_dir = None
        if scenario.output.vtk_dir:
            vtk_dir = os.path.join(out_dir, scenario.output.vtk_dir)
            os.makedirs(vtk_dir, exist_ok=True)

        def write_oldest():
            k, load, state, report = pending.popleft()
            if isinstance(report.vi_residual, Future):
                report.vi_residual = report.vi_residual.result()
            sig_e = eshelby_stress(scenario.grid, scenario.variant, state.u, state.p)
            dev_norm = np.linalg.norm(dev(sig_e), axis=(1, 2))
            sig = sigma_nodal(scenario.grid, scenario.variant.params, state.u, state.p)
            sig12.append(float(np.max(np.abs(sig[:, 0, 1]))))
            row = TimeSeriesRow(
                step=k + 1,
                level=load.level,
                elastic_energy=report.energy.elastic,
                defect_energy=report.energy.defect,
                hardening_energy=report.energy.hardening,
                cumulative_dissipation=(rows[-1].cumulative_dissipation if rows else 0.0)
                + report.dissipation_functional,
                max_dev_eshelby=float(np.max(dev_norm)),
                mean_gamma=float(np.mean(state.gamma.values)),
                active_fraction=report.active_node_fraction,
                vi_residual=float(report.vi_residual) if report.vi_residual is not None else 0.0,
            )
            rows.append(row)
            csv_file.write(_csv_line(vars(row).values()))
            reports.append(report)
            if keep_states:
                states.append(state)
            if not quiet:
                print(f"step {row.step}: level {row.level} active {row.active_fraction:.3f} "
                      f"outer {report.outer_iterations} objective_increase {report.objective_increase:.3e} "
                      f"started_from_guess {report.started_from_guess}")
            if vtk_dir and (k % scenario.output.vtk_stride == 0 or k == len(program) - 1):
                write_structured_points(
                    os.path.join(vtk_dir, f"fields_{k + 1:04d}.vtk"),
                    scenario.grid,
                    scalars={"gamma": state.gamma.values,
                             "dev_eshelby_norm": dev_norm},
                    vectors={"displacement": state.u.values},
                    fields={"plastic_distortion": state.p.values.reshape(-1, 9)},
                    title=f"load level {load.level}",
                )

        for k, load in enumerate(program):
            if len(pending) == CERT_WORKERS:
                write_oldest()
            try:
                state, report = time_step(problem, state, load, extrapolate(recent, load.level), pool)
            except Exception as e:  # the steps before a failing one are written first
                while pending:
                    write_oldest()
                if isinstance(e, NoConvergence):
                    raise NoConvergence(f"step {k + 1}: {e.what}", e.iterations, e.residual, e.tol) from e
                raise
            recent = recent[-2:] + [state]
            pending.append((k, load, state, report))
        while pending:
            write_oldest()
    if not states:
        states = [state]
    return RunResult(scenario, rows, states, reports, sig12)


SWEEP_PARAMS = ("Lc", "k1", "k2", "grid")

SUMMARY_COLUMNS = (
    "parameter", "value", "status", "elastic_energy", "defect_energy",
    "hardening_energy", "cumulative_dissipation", "hardening_slope",
    "outer_iterations", "cg_iterations", "fista_iterations",
)


def apply_sweep_value(scenario: Scenario, parameter: str, value) -> Scenario:
    """Scenario copy with one swept parameter replaced; validates applicability.

    An inadmissible value raises ValidationError, which sweep records as a
    failed row.
    """
    if parameter not in SWEEP_PARAMS:
        raise ValidationError(f"sweep parameter must be one of {SWEEP_PARAMS}")
    var = scenario.variant
    if parameter == "k1" and var.k1_eff == 0.0:
        raise ValidationError(f"k1 does not apply to variant {var.tag}")
    if parameter == "k2" and not var.isotropic:
        raise ValidationError(f"k2 does not apply to variant {var.tag}")
    if parameter == "grid":
        if not (float(value).is_integer() and value >= 1):
            raise ValidationError("grid sweep values must be positive integers")
        n = int(value)
        size = tuple(c * h for c, h in zip(scenario.grid.n, scenario.grid.h))
        grid = Grid((n, n, n), tuple(s / n for s in size), scenario.grid.origin)
        return replace(scenario, grid=grid)
    try:
        params = replace(var.params, **{parameter: float(value)}, kappa=None)
        return replace(scenario, variant=replace(var, params=params))
    except ValueError as e:  # MaterialParams or ModelVariant admissibility
        raise ValidationError(f"{parameter}={value}: {e}") from e


def hardening_slope(rows, sigma12):
    """Finite-difference slope of max |sigma_12| vs load level over the last
    two plastically active steps; nan when fewer than two exist."""
    idx = [i for i, r in enumerate(rows) if r.active_fraction > 0.0]
    if len(idx) < 2:
        return float("nan")
    i, j = idx[-2], idx[-1]
    dl = rows[j].level - rows[i].level
    return (sigma12[j] - sigma12[i]) / dl if dl else float("nan")


def sweep(scenario: Scenario, parameter: str, values, out_dir=".", quiet=True):
    """Run one scenario per value; per-value failures are recorded, not fatal.

    Writes summary.csv with final energies, the apparent hardening slope and
    iteration totals for each value.
    """
    results = []
    # summary.csv is created before the first value, so that a refused value
    # still has a folder to be recorded in, and gets each row when its value
    # is done
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "summary.csv"), "w", newline="\n") as summary:
        summary.write(_csv_line(SUMMARY_COLUMNS))
        for value in values:
            tag = f"{parameter}_{value}"
            try:
                sub = apply_sweep_value(scenario, parameter, value)
                sub_dir = os.path.join(out_dir, tag)
                os.makedirs(sub_dir, exist_ok=True)
                res = run_scenario(sub, sub_dir, quiet=quiet)
                last = res.rows[-1]
                row = {
                    "parameter": parameter, "value": value, "status": "ok",
                    "elastic_energy": last.elastic_energy,
                    "defect_energy": last.defect_energy,
                    "hardening_energy": last.hardening_energy,
                    "cumulative_dissipation": last.cumulative_dissipation,
                    "hardening_slope": hardening_slope(res.rows, res.sigma12_max),
                    "outer_iterations": sum(r.outer_iterations for r in res.reports),
                    "cg_iterations": sum(r.cg_iterations for r in res.reports),
                    "fista_iterations": sum(r.fista_iterations for r in res.reports),
                }
            except (ValidationError, NoConvergence, OSError) as e:
                row = dict.fromkeys(SUMMARY_COLUMNS, "")
                row.update(parameter=parameter, value=value, status=f"failed: {e}")
            results.append(row)
            summary.write(_csv_line(row[c] for c in SUMMARY_COLUMNS))
    return results


def _load_scenario(path) -> Scenario:
    with open(path) as f:
        text = f.read()
    return parse_scenario(text)


def _cmd_run(args):
    scenario = _load_scenario(args.config)
    run_scenario(scenario, args.out, quiet=args.quiet)
    if not args.quiet:
        print(f"wrote {os.path.join(args.out, scenario.output.csv)}")
    return 0


def _cmd_sweep(args):
    scenario = _load_scenario(args.config)
    if args.param == "grid":
        values = [int(v) for v in args.values.split(",")]
    else:
        values = [float(v) for v in args.values.split(",")]
    results = sweep(scenario, args.param, values, args.out, quiet=args.quiet)
    if not args.quiet:
        for r in results:
            print(f"{args.param}={r['value']}: {r['status']}")
    failed = [r for r in results if r["status"] != "ok"]
    return 0 if not failed else 3


def _cmd_korn(args):
    scenario = _load_scenario(args.config)
    faces = () if args.no_bc else scenario.boundary.micro_hard_faces
    problem = KornProblem(scenario.grid, faces)
    lam = estimate_min_quotient(problem, tol=args.tol)
    if lam > 0:
        print(f"lambda_min = {lam!r}  korn_constant = {float(1.0 / np.sqrt(lam))!r}")
    else:
        print(f"lambda_min = {lam!r}  (kernel contains constant skew fields; no constant exists)")
    return 0


def _cmd_oracle_check(args):
    results = selftest(verbose=not args.quiet)
    bad = [name for name, ok, _ in results if not ok]
    if args.quiet and bad:
        for name in bad:
            print(f"[FAIL] {name}")
    return 0 if not bad else 1


def build_parser():
    parser = argparse.ArgumentParser(prog="curlplast",
                                     description="gradient plasticity with plastic spin on structured grids")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--out", default=".", help="output directory (default: current)")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one scenario")
    p.add_argument("config", help="scenario JSON file")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="run a parameter sweep")
    p.add_argument("config", help="base scenario JSON file")
    p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("korn", help="estimate the coercivity constant on the scenario grid")
    p.add_argument("config", help="scenario JSON file")
    p.add_argument("--no-bc", action="store_true", help="drop all tangential boundary conditions")
    p.add_argument("--tol", type=float, default=1e-8,
                   help="bound on the eigenvector residual ||K x - lambda M x|| (default 1e-8)")
    p.set_defaults(func=_cmd_korn)

    p = sub.add_parser("oracle-check", help="run the oracle self-test suite")
    p.set_defaults(func=_cmd_oracle_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as e:  # ParseError and ValidationError included
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NoConvergence as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except MemoryError as e:  # also one raised on a certificate thread, read with its result
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
