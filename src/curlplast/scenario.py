"""Scenario configuration: JSON schema, validation, canonical form.

A scenario is one self-contained simulation description: model variant and
material, grid, boundary conditions, the load program (a strictly
increasing sequence of pseudo-time levels with the Dirichlet amplitude and
body force applied at each level) and solver/output settings.  The schema
is versioned; see the README for a worked example.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .grid import FACES, BoundaryConfig, Grid
from .models import VARIANT_TAGS, ModelVariant
from .solver import LoadStep, SolverConfig
from .tensors import MaterialParams

SCHEMA_VERSION = 1


class ParseError(ValueError):
    """The configuration document is not well-formed."""


class ValidationError(ValueError):
    """The configuration is well-formed but inadmissible."""


@dataclass(frozen=True)
class OutputConfig:
    csv: str = "timeseries.csv"
    vtk_dir: str | None = None
    vtk_stride: int = 1

    def __post_init__(self):
        if self.vtk_stride < 1:
            raise ValidationError("output.vtk_stride must be at least 1")


@dataclass(frozen=True)
class Scenario:
    variant: ModelVariant
    grid: Grid
    boundary: BoundaryConfig
    dirichlet_matrix: tuple  # 3x3 nested tuple; u = amplitude * matrix @ x
    load_program: tuple[LoadStep, ...]
    solver: SolverConfig = field(default_factory=SolverConfig)
    output: OutputConfig = field(default_factory=OutputConfig)

    def dirichlet_array(self):
        return np.asarray(self.dirichlet_matrix, dtype=float)


def _require(cond, message):
    if not cond:
        raise ValidationError(message)


def _get(d, key, message=None):
    if key not in d:
        raise ValidationError(message or f"missing required field '{key}'")
    return d[key]


def _is_finite_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool) and np.isfinite(x)


def _as_int(x, what):
    """x as an int: booleans and non-integral numbers are refused, not truncated."""
    if isinstance(x, float) and x.is_integer():
        return int(x)
    _require(isinstance(x, int) and not isinstance(x, bool), f"{what} must be an integer")
    return x


def _as_floats(x, n, what):
    try:
        out = [float(v) for v in x]
    except (TypeError, ValueError):
        raise ValidationError(f"{what} must be a list of {n} numbers")
    _require(len(out) == n, f"{what} must have {n} entries")
    _require(all(np.isfinite(out)), f"{what} must be finite")
    return tuple(out)


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a JSON scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object")
    return scenario_from_dict(doc)


_TOP_LEVEL = {"version", "variant", "material", "grid", "boundary", "load_program", "solver", "output"}


def scenario_from_dict(doc: dict) -> Scenario:
    unknown = set(doc) - _TOP_LEVEL
    _require(not unknown, f"unknown top-level fields: {sorted(unknown)}")
    version = _get(doc, "version", "missing required field 'version'")
    _require(version == SCHEMA_VERSION, f"unsupported config version {version!r}, expected {SCHEMA_VERSION}")

    tag = _get(doc, "variant")
    _require(isinstance(tag, str) and tag in VARIANT_TAGS,
             f"variant must be one of {', '.join(VARIANT_TAGS)}")

    mat = _get(doc, "material")
    _require(isinstance(mat, dict), "material must be an object")
    known = {"mu", "lambda", "kappa", "k1", "k2", "Lc", "sigma_y"}
    unknown = set(mat) - known
    _require(not unknown, f"unknown material fields: {sorted(unknown)}")
    try:
        params = MaterialParams(
            mu=float(_get(mat, "mu", "material.mu is required")),
            lam=float(_get(mat, "lambda", "material.lambda is required")),
            k1=float(mat.get("k1", 0.0)),
            k2=float(mat.get("k2", 0.0)),
            Lc=float(mat.get("Lc", 0.0)),
            sigma_y=float(mat.get("sigma_y", 0.0)),
            kappa=float(mat["kappa"]) if "kappa" in mat else None,
        )
    except (TypeError, ValueError) as e:
        raise ValidationError(f"material: {e}") from e

    try:
        variant = ModelVariant(tag, params)
    except ValueError as e:
        raise ValidationError(str(e)) from e

    gspec = _get(doc, "grid")
    _require(isinstance(gspec, dict), "grid must be an object")
    cells = _get(gspec, "cells", "grid.cells is required")
    try:
        n = tuple(_as_int(v, "grid.cells") for v in cells)
    except TypeError:
        raise ValidationError("grid.cells must be three integers")
    _require(len(n) == 3 and all(v >= 1 for v in n), "grid.cells must be three integers >= 1")
    if "spacing" in gspec:
        h = _as_floats(gspec["spacing"], 3, "grid.spacing")
    else:
        size = _as_floats(_get(gspec, "size", "grid needs 'spacing' or 'size'"), 3, "grid.size")
        h = tuple(s / c for s, c in zip(size, n))
    _require(all(v > 0 for v in h), "grid spacing must be positive")
    origin = _as_floats(gspec.get("origin", (0.0, 0.0, 0.0)), 3, "grid.origin")
    grid = Grid(n, h, origin)

    bspec = _get(doc, "boundary")
    _require(isinstance(bspec, dict), "boundary must be an object")
    gamma = _get(bspec, "gamma_faces", "boundary.gamma_faces is required")
    _require(isinstance(gamma, list) and gamma, "boundary.gamma_faces must be a non-empty list")
    for f in gamma:
        _require(f in FACES, f"unknown face {f!r} in gamma_faces, expected one of {FACES}")
    hard = bspec.get("micro_hard_faces", None)
    if hard is not None:
        for f in hard:
            _require(f in FACES, f"unknown face {f!r} in micro_hard_faces, expected one of {FACES}")
        hard = tuple(hard)
    boundary = BoundaryConfig(tuple(gamma), hard)
    dmat = bspec.get("dirichlet", {}).get("matrix", ((0.0,) * 3,) * 3)
    rows = [_as_floats(r, 3, "boundary.dirichlet.matrix rows") for r in dmat]
    _require(len(rows) == 3, "boundary.dirichlet.matrix must be 3x3")
    dirichlet = tuple(rows)

    prog = _get(doc, "load_program", "load_program is required")
    _require(isinstance(prog, list) and prog, "load_program must be a non-empty list")
    steps = []
    prev_level = -np.inf
    for i, entry in enumerate(prog):
        _require(isinstance(entry, dict), f"load_program[{i}] must be an object")
        level = entry.get("level")
        _require(_is_finite_number(level), f"load_program[{i}].level must be a finite number")
        _require(level > prev_level, "load_program levels must be strictly increasing")
        prev_level = level
        amp = entry.get("amplitude", 0.0)
        _require(_is_finite_number(amp), f"load_program[{i}].amplitude must be a finite number")
        bf = _as_floats(entry.get("body_force", (0.0, 0.0, 0.0)), 3, f"load_program[{i}].body_force")
        steps.append(LoadStep(float(level), float(amp), bf))

    sspec = doc.get("solver", {})
    _require(isinstance(sspec, dict), "solver must be an object")
    integers = {"max_outer", "max_cg", "max_fista", "vi_probes", "seed"}
    unknown = set(sspec) - integers - {"tol_outer", "tol_cg", "tol_fista"}
    _require(not unknown, f"unknown solver fields: {sorted(unknown)}")
    try:
        solver = SolverConfig(**{k: (_as_int(v, k) if k in integers else float(v))
                                 for k, v in sspec.items()})
    except (TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"solver: {e}") from e

    ospec = doc.get("output", {})
    _require(isinstance(ospec, dict), "output must be an object")
    csv = ospec.get("csv", "timeseries.csv")
    vtk_dir = ospec.get("vtk_dir", None)
    _require(isinstance(csv, str), "output.csv must be a string")
    _require(vtk_dir is None or isinstance(vtk_dir, str), "output.vtk_dir must be a string")
    output = OutputConfig(csv, vtk_dir, _as_int(ospec.get("vtk_stride", 1), "output.vtk_stride"))
    return Scenario(variant, grid, boundary, dirichlet, tuple(steps), solver, output)


def canonical_dict(s: Scenario) -> dict:
    """Canonical plain-dict form; parse(canonical) == original."""
    p = s.variant.params
    out = {
        "version": SCHEMA_VERSION,
        "variant": s.variant.tag,
        "material": {"mu": p.mu, "lambda": p.lam, "k1": p.k1, "k2": p.k2,
                     "Lc": p.Lc, "sigma_y": p.sigma_y},
        "grid": {"cells": list(s.grid.n), "spacing": list(s.grid.h), "origin": list(s.grid.origin)},
        "boundary": {
            "gamma_faces": list(s.boundary.gamma_faces),
            "micro_hard_faces": list(s.boundary.micro_hard_faces),
            "dirichlet": {"matrix": [list(r) for r in s.dirichlet_matrix]},
        },
        "load_program": [
            {"level": st.level, "amplitude": st.amplitude, "body_force": list(st.body_force)}
            for st in s.load_program
        ],
        "solver": {
            "tol_outer": s.solver.tol_outer, "tol_cg": s.solver.tol_cg,
            "tol_fista": s.solver.tol_fista, "max_outer": s.solver.max_outer,
            "max_cg": s.solver.max_cg, "max_fista": s.solver.max_fista,
            "vi_probes": s.solver.vi_probes, "seed": s.solver.seed,
        },
        "output": {"csv": s.output.csv, "vtk_stride": s.output.vtk_stride,
                   **({"vtk_dir": s.output.vtk_dir} if s.output.vtk_dir else {})},
    }
    return out


def canonical_text(s: Scenario) -> str:
    return json.dumps(canonical_dict(s), indent=2, sort_keys=True) + "\n"
