import io

import numpy as np
import pytest

from curlplast.vtk_io import _format_values, _write_rows


def reference(x):
    """The per-value formatter the VTK files have always been written with."""
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
    # one digit and a rounding tail: the dot-keeping case of the reference
    tails = (rng.integers(1, 10, 2000) * (1.0 + rng.integers(1, 400, 2000) * 2.0 ** -52)
             * 10.0 ** rng.integers(-300, 300, 2000))
    subnormals = rng.random(2000) * tiny * rng.choice([-1.0, 1.0], 2000)
    spread = rng.standard_normal(20000) * 10.0 ** rng.integers(-300, 300, 20000)
    return np.concatenate([special, near_powers, -near_powers, halves, ties, -ties, tails,
                           subnormals, spread])


def test_values_format_as_the_reference_does():
    values = awkward_values()
    got = _format_values(values)
    want = [reference(v) for v in values]
    diff = [(v, g, w) for v, g, w in zip(values, got, want) if g != w]
    assert not diff, diff[:5]


@pytest.mark.parametrize("per_line", [1, 3, 9])
def test_rows_match_the_per_value_writer(per_line):
    values = np.random.default_rng(12).standard_normal((5, per_line))
    values[0, 0] = -0.0
    values[-1, -1] = 1.00000000000004
    f = io.StringIO()
    _write_rows(f, values, per_line)
    assert f.getvalue() == "".join(" ".join(reference(v) for v in row) + "\n" for row in values)
