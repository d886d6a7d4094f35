"""Legacy ASCII VTK writer for structured-points snapshots.

Nodes are written x-fastest, matching the grid's node numbering, so nodal
arrays can be dumped without reordering.  Only the legacy version 3.0
STRUCTURED_POINTS dialect is emitted: a VECTORS array, SCALARS arrays and
one FIELD block for tensor components.  Every number, in the arrays and in
the ORIGIN and SPACING lines, is written with the one C format "%.13g":
13 significant digits, so a parsed value is within 5e-13 relative of the
double it was written from, and inf and nan are written as such.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid


def _write_rows(f, data, per_line):
    values = tuple(np.ravel(data).tolist())
    row = " ".join(["%.13g"] * per_line) + "\n"
    f.write((row * (len(values) // per_line)) % values)


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
        f.write("ORIGIN ")
        _write_rows(f, grid.origin, 3)
        f.write("SPACING ")
        _write_rows(f, grid.h, 3)
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
