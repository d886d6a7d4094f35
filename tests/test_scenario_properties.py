"""Property-based check of the scenario parser on mistyped fields.

Starting from a valid document that spells out every optional field, any
one field, at any depth, replaced by a value of the wrong type or by an
integer too large for a float, must be either accepted or refused with
ParseError or ValidationError: the two errors the command line turns into
exit code 2.  Any other exception would reach the user as a traceback.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from curlplast.scenario import ParseError, ValidationError, parse_scenario


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
