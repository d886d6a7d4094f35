"""Legacy ASCII VTK writer for structured-points snapshots.

Nodes are written x-fastest, matching the grid's node numbering, so nodal
arrays can be dumped without reordering.  Only the legacy version 3.0
STRUCTURED_POINTS dialect is emitted: a VECTORS array, SCALARS arrays and
one FIELD block for tensor components.
"""

from __future__ import annotations

import re

import numpy as np

from .grid import Grid


# trailing zeros of a "%.12e" mantissa, with its '.' when nothing is left
_MANTISSA_ZEROS = re.compile(r"\.?0+(?=e)")
_TINY = np.finfo(float).tiny


def _fmt(x):
    return np.format_float_scientific(x, precision=12, trim="-")


def _format_values(values):
    """Each value as _fmt writes it, from one "%.12e" pass and one regex.

    Two kinds of value go through _fmt itself: nonzero subnormals, which it
    writes with their shortest unique digits, and values whose 13-digit
    rounding is one digit times a power of ten, for which it keeps the bare
    '.' when the rounding dropped digits ("1.e+00" for 1.00000000000004).
    """
    values = np.asarray(values, dtype=float).reshape(-1)
    words = _MANTISSA_ZEROS.sub("", ("%.12e " * values.size) % tuple(values.tolist())).split()
    a = np.abs(values)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m = a / 10.0 ** np.floor(np.log10(a))
        one_digit = np.isfinite(m) & (np.abs(m - np.rint(m)) < 1e-11 * m)
    for i in np.flatnonzero(((a > 0.0) & (a < _TINY)) | one_digit):
        words[i] = _fmt(values[i])
    return words


def _write_rows(f, data, per_line):
    words = _format_values(data)
    row = " ".join(["%s"] * per_line) + "\n"
    f.write((row * (len(words) // per_line)) % tuple(words))


def write_structured_points(path, grid: Grid, scalars=None, vectors=None, fields=None, title="snapshot"):
    """Write one legacy VTK STRUCTURED_POINTS file with nodal point data.

    scalars: dict name -> (N,); vectors: dict name -> (N, 3);
    fields: dict name -> (N, k) written as one FIELD array with k components.
    """
    scalars = scalars or {}
    vectors = vectors or {}
    fields = fields or {}
    n = grid.node_count
    with open(path, "w", newline="\n") as f:
        f.write("# vtk DataFile Version 3.0\n")
        f.write(title + "\n")
        f.write("ASCII\n")
        f.write("DATASET STRUCTURED_POINTS\n")
        f.write("DIMENSIONS {} {} {}\n".format(*grid.node_shape))
        f.write("ORIGIN {} {} {}\n".format(*(_fmt(v) for v in grid.origin)))
        f.write("SPACING {} {} {}\n".format(*(_fmt(v) for v in grid.h)))
        f.write(f"POINT_DATA {n}\n")
        for name, data in vectors.items():
            data = np.asarray(data)
            if data.shape != (n, 3):
                raise ValueError(f"vector array {name!r} must have shape ({n}, 3)")
            f.write(f"VECTORS {name} double\n")
            _write_rows(f, data, 3)
        for name, data in scalars.items():
            data = np.asarray(data)
            if data.shape != (n,):
                raise ValueError(f"scalar array {name!r} must have shape ({n},)")
            f.write(f"SCALARS {name} double 1\n")
            f.write("LOOKUP_TABLE default\n")
            _write_rows(f, data, 1)
        if fields:
            f.write(f"FIELD FieldData {len(fields)}\n")
            for name, data in fields.items():
                data = np.asarray(data).reshape(n, -1)
                f.write(f"{name} {data.shape[1]} {n} double\n")
                _write_rows(f, data, data.shape[1])


def read_structured_points_header(path):
    """Parse the header of a legacy VTK file; used by the output checks."""
    info = {"arrays": {}}
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f]
    if not lines or not lines[0].startswith("# vtk DataFile Version 3.0"):
        raise ValueError("not a legacy VTK 3.0 file")
    if lines[2].strip() != "ASCII":
        raise ValueError("expected an ASCII VTK file")
    if lines[3].strip() != "DATASET STRUCTURED_POINTS":
        raise ValueError("expected STRUCTURED_POINTS")
    for ln in lines[4:]:
        parts = ln.split()
        if not parts:
            continue
        if parts[0] == "DIMENSIONS":
            info["dimensions"] = tuple(int(v) for v in parts[1:4])
        elif parts[0] == "ORIGIN":
            info["origin"] = tuple(float(v) for v in parts[1:4])
        elif parts[0] == "SPACING":
            info["spacing"] = tuple(float(v) for v in parts[1:4])
        elif parts[0] == "POINT_DATA":
            info["point_data"] = int(parts[1])
        elif parts[0] == "VECTORS":
            info["arrays"][parts[1]] = 3
        elif parts[0] == "SCALARS":
            info["arrays"][parts[1]] = 1
        elif parts[0] == "FIELD":
            pass
        elif len(parts) == 4 and parts[3] == "double" and parts[1].isdigit():
            info["arrays"][parts[0]] = int(parts[1])
    return info
