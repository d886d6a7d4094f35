import io

import numpy as np
import pytest

from curlplast.vtk_io import _write_rows

TINY = np.finfo(float).tiny


def reference(x):
    """numpy's trimmed scientific formatter at 13 digits; the files write
    inf and nan with its tokens."""
    return np.format_float_scientific(x, precision=12, trim="-")


def awkward_values():
    rng = np.random.default_rng(11)
    tiny = np.finfo(float).tiny
    big = np.finfo(float).max
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e22, 1e23, -1e23, 5e-324, -5e-324,
               tiny, -tiny, np.nextafter(tiny, 0.0), big, -big, 1.0, 0.5, 0.1, 1 / 3,
               1.00000000000004, 1.00000000000005, 9.99999999999996, 9.99999999999995,
               1.99999999999996, 2.50000000000004, 123456789012.5]
    powers = 10.0 ** np.arange(-307, 309)
    near_powers = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
    # 14-digit decimals ending in 5: ties at the 13th digit, exact for the
    # half-integers below 2**53 and within an ulp of the tie elsewhere
    halves = rng.integers(10 ** 12, 10 ** 14, 2000) + 0.5
    digits = rng.integers(10 ** 13, 10 ** 14, 2000) // 10 * 10 + 5
    ties = np.array([float(f"{m}e{e}") for m, e in zip(digits, rng.integers(-300, 290, 2000))])
    # one digit and a rounding tail, which rounds to one digit at 13 digits
    tails = (rng.integers(1, 10, 2000) * (1.0 + rng.integers(1, 400, 2000) * 2.0 ** -52)
             * 10.0 ** rng.integers(-300, 300, 2000))
    subnormals = rng.random(2000) * tiny * rng.choice([-1.0, 1.0], 2000)
    spread = rng.standard_normal(20000) * 10.0 ** rng.integers(-300, 300, 20000)
    return np.concatenate([special, near_powers, -near_powers, halves, ties, -ties, tails,
                           subnormals, spread])


def written(values, per_line):
    f = io.StringIO()
    _write_rows(f, values, per_line)
    return f.getvalue()


def assert_parses_back(values, tokens):
    """Every token parses within 5e-13 relative of its value (within 5e-13
    of the smallest normal for subnormals), zeros keep their sign, and inf
    and nan are written as the reference writes them."""
    values = np.ravel(values)
    assert len(tokens) == values.size
    finite = np.isfinite(values)
    for v, t in zip(values[~finite], np.asarray(tokens)[~finite]):
        assert t == reference(v)
    parsed = np.array([float(t) for t in tokens])[finite]
    values = values[finite]
    err = np.abs(parsed - values)
    normal = np.abs(values) >= TINY
    assert np.max(err[normal] / np.abs(values[normal])) <= 5e-13
    assert np.max(err[~normal]) <= 5e-13 * TINY
    assert np.array_equal(np.signbit(parsed[values == 0.0]), np.signbit(values[values == 0.0]))


def test_values_parse_back_within_half_a_unit_of_the_13th_digit():
    values = awkward_values()
    assert_parses_back(values, written(values, 1).split())


@pytest.mark.parametrize("per_line", [1, 3, 9])
def test_rows_hold_per_line_values(per_line):
    values = np.random.default_rng(12).standard_normal((5, per_line))
    values[0, 0] = -0.0
    values[-1, -1] = 1.00000000000004
    values[1, 0] = np.nan
    values[2, -1] = -np.inf
    rows = written(values, per_line).split("\n")
    assert rows[-1] == "" and len(rows) == 6
    assert all(len(row.split(" ")) == per_line for row in rows[:-1])
    assert_parses_back(values, " ".join(rows).split())
