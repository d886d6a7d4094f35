"""Property-based checks of the scenario parser.

Starting from a valid document that spells out every optional field, any
one field, at any depth, replaced by a value of the wrong type or by an
integer too large for a float, must be either accepted or refused with
ParseError or ValidationError: the two errors the command line turns into
exit code 2.  Any other exception would reach the user as a traceback.

Any valid document, with any choice of its optional fields, must survive
the round trip through its canonical text unchanged.

Run through `curlplast run`, the same documents with any one field replaced
by a wrong, extreme or non-finite value must end in exit code 0, 2, 3 or 4,
each failure with exactly one `error:` line and no traceback or warning.
"""

import contextlib
import io
import json
import os
import tempfile
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from curlplast.cli import main
from curlplast.grid import FACES
from curlplast.models import VARIANT_TAGS
from curlplast.scenario import ParseError, ValidationError, canonical_dict, canonical_text, parse_scenario


def full_doc(grid):
    return {
        "version": 1,
        "variant": "iso_spin",
        "material": {"mu": 80.0, "lambda": 110.0, "k1": 0.5, "k2": 0.4, "Lc": 0.2, "sigma_y": 0.3},
        "grid": grid,
        "boundary": {
            "gamma_faces": ["zmin", "zmax"],
            "micro_hard_faces": ["zmin"],
            "dirichlet": {"matrix": [[0, 0, 1], [0, 0, 0], [0, 0, 0]]},
        },
        "load_program": [
            {"level": 1, "amplitude": 0.001, "body_force": [0, 0, -1.0]},
            {"level": 2, "amplitude": 0.003, "body_force": [0, 0, 0]},
        ],
        "solver": {"tol_outer": 1e-10, "tol_cg": 1e-10, "tol_fista": 1e-9, "max_outer": 50,
                   "max_cg": 1000, "max_fista": 1000, "vi_probes": 10, "seed": 3},
        "output": {"csv": "ts.csv", "vtk_dir": "fields", "vtk_stride": 2},
    }


# the grid is given once by size and once by spacing: the parser reads only
# one of the two when both are present
DOCS = [full_doc({"cells": [2, 2, 2], "size": [1.0, 1.0, 1.0], "origin": [0, 0, 0]}),
        full_doc({"cells": [2, 2, 2], "spacing": [0.5, 0.5, 0.5], "origin": [0, 0, 0]})]


def field_paths(node, path=()):
    """Paths (key and index tuples) to every value below the root."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from field_paths(child, path + (key,))


CASES = [(i, path) for i, doc in enumerate(DOCS) for path in field_paths(doc)]

wrong_values = st.one_of(
    st.text(max_size=4),
    st.text("0123456789", min_size=1, max_size=4),
    st.lists(st.one_of(st.integers(-3, 3), st.text(max_size=2)), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 3), max_size=2),
    st.booleans(),
    st.none(),
    st.just(float("nan")),
    st.just(10 ** 400),  # an integer no float or 64-bit integer holds
)


def test_base_documents_are_valid():
    for doc in DOCS:
        parse_scenario(json.dumps(doc))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(CASES), wrong_values)
def test_mistyped_field_is_refused_with_a_documented_error(case, value):
    i, path = case
    doc = json.loads(json.dumps(DOCS[i]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        parse_scenario(json.dumps(doc))
    except (ParseError, ValidationError):
        pass


# every integer here, and every integral float, is at most 4 or refused, so no
# replacement asks for a large grid or a long run
extreme_values = st.one_of(
    st.floats(-4.0, 4.0),
    st.integers(-4, 4),
    st.sampled_from([1e308, -1e308, 1e-320, float("nan"), float("inf"), float("-inf"), 10 ** 400, 2 ** 63,
                     True, None]),
    st.text("ab0", max_size=3),  # no path separator or dot: outputs stay in the run's folder
    st.lists(st.integers(-1, 2), max_size=4),
    st.dictionaries(st.text("ab", max_size=2), st.integers(-1, 2), max_size=2),
)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(CASES), extreme_values)
def test_any_refused_run_prints_one_error_line(case, value):
    i, path = case
    doc = json.loads(json.dumps(DOCS[i]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as out:
        cfg = os.path.join(out, "config.json")
        with open(cfg, "w") as f:
            f.write(json.dumps(doc))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["--quiet", "--out", out, "run", cfg])
    assert [str(w.message) for w in caught] == []
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


finite = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
positive = st.floats(1e-3, 1e3, allow_subnormal=False)
triples = st.lists(finite, min_size=3, max_size=3)
face_lists = st.lists(st.sampled_from(FACES), unique=True, max_size=len(FACES))


def optional(draw, strategy):
    """A drawn value, or None to leave the field out."""
    return draw(st.one_of(st.none(), strategy))


def csv_names_a_file(output):
    """The csv path ends in a file name and is neither the VTK folder nor one above it."""
    csv, vtk_dir = output.get("csv", "timeseries.csv"), output.get("vtk_dir")
    return os.path.basename(csv) not in ("", ".", "..") and (
        vtk_dir is None or not (os.path.normpath(vtk_dir) + os.sep).startswith(os.path.normpath(csv) + os.sep))


@st.composite
def valid_documents(draw):
    tag = draw(st.sampled_from(VARIANT_TAGS))
    mu = draw(positive)
    material = {"mu": mu, "lambda": draw(st.floats(-0.66 * mu, 1e3, allow_subnormal=False)),
                "sigma_y": draw(positive), "k1": draw(positive), "k2": draw(positive)}
    lc = optional(draw, st.floats(0.0, 10.0, allow_subnormal=False))
    if lc is not None:
        material["Lc"] = lc

    grid = {"cells": draw(st.lists(st.integers(1, 4), min_size=3, max_size=3))}
    grid["spacing" if draw(st.booleans()) else "size"] = draw(st.lists(positive, min_size=3, max_size=3))
    origin = optional(draw, triples)
    if origin is not None:
        grid["origin"] = origin

    boundary = {"gamma_faces": draw(face_lists.filter(bool))}
    hard = optional(draw, face_lists)
    if hard is not None:
        boundary["micro_hard_faces"] = hard
    matrix = optional(draw, st.lists(triples, min_size=3, max_size=3))
    if matrix is not None:
        boundary["dirichlet"] = {"matrix": matrix}

    steps = draw(st.integers(1, 4))
    gaps = draw(st.lists(positive, min_size=steps, max_size=steps))
    level = draw(finite)
    program = []
    for gap in gaps:
        level += gap
        entry = {"level": level}
        amplitude = optional(draw, finite)
        if amplitude is not None:
            entry["amplitude"] = amplitude
        body_force = optional(draw, triples)
        if body_force is not None:
            entry["body_force"] = body_force
        program.append(entry)

    doc = {"version": 1, "variant": tag, "material": material, "grid": grid,
           "boundary": boundary, "load_program": program}
    solver = draw(st.fixed_dictionaries({}, optional={
        "tol_outer": positive, "tol_cg": positive, "tol_fista": positive,
        "max_outer": st.integers(1, 10 ** 6), "max_cg": st.integers(1, 10 ** 6),
        "max_fista": st.integers(1, 10 ** 6), "vi_probes": st.integers(0, 10 ** 6),
        "seed": st.integers(0, 2 ** 62)}))
    if solver or draw(st.booleans()):
        doc["solver"] = solver
    output = draw(st.fixed_dictionaries({}, optional={
        "csv": st.text(min_size=1, max_size=8), "vtk_dir": st.text(min_size=1, max_size=8),
        "vtk_stride": st.integers(1, 100)}).filter(csv_names_a_file))
    if output or draw(st.booleans()):
        doc["output"] = output
    return doc


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(valid_documents())
def test_canonical_text_round_trips(doc):
    first = parse_scenario(json.dumps(doc))
    again = parse_scenario(canonical_text(first))
    assert canonical_dict(again) == canonical_dict(first)
    assert again == first  # the canonical form leaves nothing out
