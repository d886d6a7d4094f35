"""The benchmark's workloads: their inputs, made from a seed, and the
correctness gate every run of them must pass.

A seed changes only the unit shear direction of the Dirichlet matrix, the
solver seed (the VI probe directions) and the Korn start vector.  The shear
directions a seed picks from are images of each other under the symmetries
of the cube and of the boundary conditions, so every seed does the same
work and reaches the same energies; seed 0 gives the reference scenarios.
Grid sizes, step counts and tolerances never depend on the seed.
"""

from __future__ import annotations

import json

import numpy as np

from curlplast.grid import FACES, Grid
from curlplast.korn import KornProblem
from curlplast.models import sigma_nodal
from curlplast.oracles import radial_return_0d
from curlplast.tensors import sym

MU, LAM, SY = 80.0, 110.0, 0.3
A_YIELD = SY / (np.sqrt(2.0) * MU)  # uniform shear amplitude at first yield

# (row, column, sign) of the single nonzero of the Dirichlet matrix.  Shear
# on the z faces may point along +-x or +-y; the homogeneous cycle may use any
# ordered pair of distinct axes with either sign.
_Z_FACE_SHEARS = ((0, 2, 1.0), (1, 2, 1.0), (0, 2, -1.0), (1, 2, -1.0))
_CUBE_SHEARS = tuple((i, j, s) for s in (1.0, -1.0)
                     for i, j in ((0, 1), (1, 2), (2, 0), (1, 0), (2, 1), (0, 2)))

# Values the seed commit computes with seed 0; the gates compare with them.
# The first entry of each pair is the full workload, the second the smoke
# version.  gradient_shear6: final elastic, defect and hardening energy and
# cumulative dissipation; korn10: lambda_min.
REFERENCE = {
    "gradient_shear6": (
        (0.001580435232686013, 0.00024667480686459467, 0.0006002830007362358,
         0.0017750955820506492),
        (0.0015741223218129, 8.369506417456389e-05, 0.0008106207399546147,
         0.0023320512664377897),
    ),
    "korn10": (0.8210948775932474, 6.664621835001496),
}


def shear_matrix(choices, seed):
    i, j, sign = choices[seed % len(choices)]
    m = np.zeros((3, 3))
    m[i, j] = sign
    return m


def _program(amplitudes):
    return [{"level": k + 1, "amplitude": float(a)} for k, a in enumerate(amplitudes)]


def scenario_doc(name, seed, smoke=False):
    """Scenario document for one of the scenario workloads, as `curlplast run` reads it.

    smoke shrinks the grid to 2^3 and the program to two steps.
    """
    if name == "gradient_shear6":
        cells = 2 if smoke else 6
        amps = np.linspace(0.0, 6.0 * A_YIELD, (2 if smoke else 24) + 1)[1:]
        return {
            "version": 1,
            "variant": "kin_spin",
            "material": {"mu": MU, "lambda": LAM, "k1": 0.5, "Lc": 0.2, "sigma_y": SY},
            "grid": {"cells": [cells] * 3, "size": [1.0, 1.0, 1.0]},
            "boundary": {
                "gamma_faces": ["zmin", "zmax"],
                "micro_hard_faces": ["zmin", "zmax"],
                "dirichlet": {"matrix": shear_matrix(_Z_FACE_SHEARS, seed).tolist()},
            },
            "load_program": _program(amps),
            "solver": {"tol_outer": 1e-11, "tol_cg": 1e-11, "tol_fista": 1e-10,
                       "vi_probes": 0, "seed": seed},
            "output": {"csv": "timeseries.csv"},
        }
    if name == "certified_cycle6":
        if smoke:
            amps = np.array([3.0, -1.5]) * A_YIELD
        else:
            up = np.linspace(0.0, 3.0 * A_YIELD, 21)[1:]
            amps = np.concatenate([up, np.linspace(3.0 * A_YIELD, -1.5 * A_YIELD, 21)[1:]])
        cells = 2 if smoke else 6
        return {
            "version": 1,
            "variant": "iso_irrot",
            "material": {"mu": MU, "lambda": LAM, "k2": 0.4, "Lc": 0.0, "sigma_y": SY},
            "grid": {"cells": [cells] * 3, "size": [1.0, 1.0, 1.0]},
            "boundary": {
                "gamma_faces": list(FACES),
                "micro_hard_faces": [],
                "dirichlet": {"matrix": shear_matrix(_CUBE_SHEARS, seed).tolist()},
            },
            "load_program": _program(amps),
            "solver": {"tol_outer": 1e-13, "tol_cg": 1e-12, "tol_fista": 1e-12,
                       "vi_probes": 1000, "seed": seed},
            "output": {"csv": "timeseries.csv", "vtk_dir": "fields", "vtk_stride": 1},
        }
    raise ValueError(f"{name} is not a scenario workload")


def scenario_text(name, seed, smoke=False):
    return json.dumps(scenario_doc(name, seed, smoke))


def korn_inputs(seed, smoke=False):
    """(problem, keyword arguments) of the korn10 estimate."""
    return KornProblem(Grid.unit_cube(2 if smoke else 10), FACES), {"tol": 1e-8, "seed": seed}


# -- correctness gates -------------------------------------------------------
#
# Each gate returns one bool per operation (a load step, or the one Korn
# solve) and the worst values it saw.


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _reference(name, smoke):
    ref = REFERENCE[name]
    return ref[1] if smoke else ref[0]


def gate_gradient(result, smoke):
    """KKT violation and misalignment <= 1e-6 and the dissipation pairing
    >= -1e-10 at every step; final energies equal the reference to 1e-6."""
    ok, kkt, pairing = [], 0.0, 0.0
    for rep in result.reports:
        v = max(rep.kkt_max_violation, rep.kkt_max_misalignment)
        d = rep.dissipation_increment / max(rep.energy.magnitude(), 1e-300)
        kkt, pairing = max(kkt, v), min(pairing, d)
        ok.append(v <= 1e-6 and d >= -1e-10)
    last = result.rows[-1]
    final = (last.elastic_energy, last.defect_energy, last.hardening_energy,
             last.cumulative_dissipation)
    energy_err = max(_rel(a, b) for a, b in zip(final, _reference("gradient_shear6", smoke)))
    ok[-1] = ok[-1] and energy_err <= 1e-6
    return ok, {"kkt": kkt, "pairing": pairing, "energy_rel_err": energy_err}


def gate_certified(result, smoke):
    """sigma, sym p and gamma equal the pointwise radial return to 1e-8 of their
    largest value over the path, and every VI residual is >= -1e-8."""
    scenario = result.scenario
    params, grid = scenario.variant.params, scenario.grid
    shear = sym(scenario.dirichlet_array())
    oracle = radial_return_0d(params, [s.amplitude * shear for s in scenario.load_program], "iso")
    sig_scale = max(np.abs(s).max() for s, _, _ in oracle)
    ep_scale = max(np.abs(e).max() for _, e, _ in oracle)
    g_scale = max(max(g for _, _, g in oracle), 1e-300)
    ok, worst, vi = [], 0.0, np.inf
    for state, row, (sig_o, ep_o, g_o) in zip(result.states, result.rows, oracle):
        sig = sigma_nodal(grid, params, state.u, state.p)
        err = max(np.abs(sig - sig_o).max() / sig_scale,
                  np.abs(sym(state.p.values) - ep_o).max() / ep_scale,
                  np.abs(state.gamma.values - g_o).max() / g_scale)
        worst, vi = max(worst, err), min(vi, row.vi_residual)
        ok.append(err <= 1e-8 and row.vi_residual >= -1e-8)
    return ok, {"oracle_rel_err": worst, "vi_residual": vi}


def gate_korn(lam, smoke):
    """lambda_min equals the reference to 1e-6."""
    err = _rel(lam, _reference("korn10", smoke))
    return [err <= 1e-6], {"lambda_min": lam, "rel_err": err}


GATES = {
    "gradient_shear6": gate_gradient,
    "certified_cycle6": gate_certified,
    "korn10": gate_korn,
}
