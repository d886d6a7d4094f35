"""Scenario configuration: JSON schema, validation, canonical form.

A scenario is one self-contained simulation description: model variant and
material, grid, boundary conditions, the load program (a strictly
increasing sequence of pseudo-time levels with the Dirichlet amplitude and
body force applied at each level) and solver/output settings.  The schema
is versioned; see the README for a worked example.
"""

from __future__ import annotations

import json
import os
import sys
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
        _require(self.vtk_stride >= 1, "output.vtk_stride must be at least 1")
        _require(os.path.basename(self.csv) not in ("", ".", ".."), "output.csv must name a file")
        _require(self.vtk_dir is None or not (os.path.normpath(self.vtk_dir) + os.sep).startswith(
            os.path.normpath(self.csv) + os.sep), "output.csv must not be output.vtk_dir or a folder above it")


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


def _object(d, what, known):
    """d, checked to be an object whose fields are all in known."""
    _require(isinstance(d, dict), f"{what} must be an object")
    unknown = set(d) - known
    _require(not unknown, f"unknown {what} fields: {sorted(unknown)}")
    return d


def _get(d, key, message=None):
    if key not in d:
        raise ValidationError(message or f"missing required field '{key}'")
    return d[key]


def _as_float(x, what):
    """x as a float: strings, booleans and numbers beyond the float range are refused."""
    _require(isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max,
             f"{what} must be a finite number")
    return float(x)


def _as_int(x, what):
    """x as an int: booleans, non-integral numbers and integers beyond 64 bits are refused, not truncated."""
    if isinstance(x, float) and x.is_integer():
        x = int(x)
    _require(isinstance(x, int) and not isinstance(x, bool) and abs(x) <= sys.maxsize,
             f"{what} must be a 64-bit integer")
    return x


def _as_floats(x, n, what):
    """x as a tuple of n floats: a list of finite numbers, never a string of digits."""
    _require(isinstance(x, (list, tuple)) and len(x) == n, f"{what} must be a list of {n} finite numbers")
    return tuple(_as_float(v, f"each entry of {what}") for v in x)


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
    _object(doc, "top-level", _TOP_LEVEL)
    version = _get(doc, "version", "missing required field 'version'")
    _require(version == SCHEMA_VERSION and not isinstance(version, bool),
             f"unsupported config version {version!r}, expected {SCHEMA_VERSION}")

    tag = _get(doc, "variant")
    _require(isinstance(tag, str) and tag in VARIANT_TAGS,
             f"variant must be one of {', '.join(VARIANT_TAGS)}")

    mat = _object(_get(doc, "material"), "material", {"mu", "lambda", "kappa", "k1", "k2", "Lc", "sigma_y"})
    for key in ("mu", "lambda"):
        _get(mat, key, f"material.{key} is required")
    m = {key: _as_float(v, f"material.{key}") for key, v in mat.items()}
    try:
        params = MaterialParams(mu=m["mu"], lam=m["lambda"], k1=m.get("k1", 0.0), k2=m.get("k2", 0.0),
                                Lc=m.get("Lc", 0.0), sigma_y=m.get("sigma_y", 0.0), kappa=m.get("kappa"))
    except ValueError as e:
        raise ValidationError(f"material: {e}") from e

    try:
        variant = ModelVariant(tag, params)
    except ValueError as e:
        raise ValidationError(str(e)) from e

    gspec = _object(_get(doc, "grid"), "grid", {"cells", "size", "spacing", "origin"})
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

    bspec = _object(_get(doc, "boundary"), "boundary", {"gamma_faces", "micro_hard_faces", "dirichlet"})
    gamma = _get(bspec, "gamma_faces", "boundary.gamma_faces is required")
    _require(isinstance(gamma, list) and gamma, "boundary.gamma_faces must be a non-empty list")
    hard = bspec.get("micro_hard_faces")  # None: the gamma faces
    _require(hard is None or isinstance(hard, list), "boundary.micro_hard_faces must be a list")
    for key, faces in (("gamma_faces", gamma), ("micro_hard_faces", hard or [])):
        for f in faces:
            _require(f in FACES, f"unknown face {f!r} in {key}, expected one of {FACES}")
    boundary = BoundaryConfig(tuple(gamma), None if hard is None else tuple(hard))
    dspec = _object(bspec.get("dirichlet", {}), "boundary.dirichlet", {"matrix"})
    dmat = dspec.get("matrix", ((0.0,) * 3,) * 3)
    _require(isinstance(dmat, (list, tuple)) and len(dmat) == 3, "boundary.dirichlet.matrix must be 3x3")
    dirichlet = tuple(_as_floats(r, 3, "boundary.dirichlet.matrix rows") for r in dmat)

    prog = _get(doc, "load_program", "load_program is required")
    _require(isinstance(prog, list) and prog, "load_program must be a non-empty list")
    steps = []
    prev_level = -np.inf
    for i, entry in enumerate(prog):
        _object(entry, f"load_program[{i}]", {"level", "amplitude", "body_force"})
        level = _as_float(entry.get("level"), f"load_program[{i}].level")
        _require(level > prev_level, "load_program levels must be strictly increasing")
        prev_level = level
        amp = _as_float(entry.get("amplitude", 0.0), f"load_program[{i}].amplitude")
        bf = _as_floats(entry.get("body_force", (0.0, 0.0, 0.0)), 3, f"load_program[{i}].body_force")
        steps.append(LoadStep(level, amp, bf))

    integers = {"max_outer", "max_cg", "max_fista", "vi_probes", "seed"}
    sspec = _object(doc.get("solver", {}), "solver", integers | {"tol_outer", "tol_cg", "tol_fista"})
    try:
        solver = SolverConfig(**{k: (_as_int(v, k) if k in integers else _as_float(v, k))
                                 for k, v in sspec.items()})
    except (TypeError, ValueError, OverflowError) as e:
        raise ValidationError(f"solver: {e}") from e

    ospec = _object(doc.get("output", {}), "output", {"csv", "vtk_dir", "vtk_stride"})
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
