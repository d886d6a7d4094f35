"""Reader for the legacy ASCII VTK files curlplast writes.

Test support only: pytest does not collect it.  It parses the header, and
the arrays back into numpy, for the output checks and the round-trip test.
"""

from __future__ import annotations

import numpy as np


def read_structured_points_header(path):
    """Parse the header of a legacy VTK file: dimensions, origin, spacing,
    point count and each array's number of components."""
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


def read_structured_points_arrays(path):
    """Each point-data array of a legacy VTK file, as (N, k) floats by name."""
    info = read_structured_points_header(path)
    n = info["point_data"]
    with open(path) as f:
        lines = f.read().splitlines()
    arrays = {}
    i = 4
    while i < len(lines):
        parts = lines[i].split()
        i += 1
        if parts[:1] == ["VECTORS"]:
            name = parts[1]
        elif parts[:1] == ["SCALARS"]:
            name = parts[1]
            i += 1  # its LOOKUP_TABLE line
        elif len(parts) == 4 and parts[3] == "double" and parts[1].isdigit():
            name = parts[0]  # an array of the FIELD block
        else:
            continue
        arrays[name] = np.array([[float(v) for v in row.split()] for row in lines[i:i + n]])
        i += n
    return arrays
