"""Property-based checks of the exact nodal prox of the incremental dissipation.

D_inc(q) = sigma_y |q| + mu k2 ((gamma + |q|)^2 - gamma^2) / 2 is convex for
gamma >= 0, so its proximal map must be firmly nonexpansive and must satisfy
the first-order condition z - prox(z) in tau * dD_inc(prox(z)).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from curlplast.models import ModelVariant
from curlplast.solver import prox_dissipation
from curlplast.tensors import MaterialParams, norm

PARAMS = MaterialParams(mu=80.0, lam=110.0, k1=0.5, k2=0.4, Lc=0.2, sigma_y=0.3)
VARIANTS = {"kin": ModelVariant("kin_spin", PARAMS), "iso": ModelVariant("iso_spin", PARAMS)}

tensors = arrays(np.float64, (3, 3), elements=st.floats(-10.0, 10.0, allow_subnormal=False))
taus = st.floats(1e-3, 10.0)
gammas = st.floats(0.0, 5.0, allow_subnormal=False)
hardening = st.sampled_from(sorted(VARIANTS))
checked = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@checked
@given(hardening, tensors, tensors, taus, gammas)
def test_prox_is_firmly_nonexpansive(kind, x, y, tau, gamma):
    variant = VARIANTS[kind]
    d = prox_dissipation(variant, x, tau, gamma) - prox_dissipation(variant, y, tau, gamma)
    slack = 1e-12 * (1.0 + float(np.sum(x * x) + np.sum(y * y)))
    assert float(np.sum(d * d)) <= float(np.sum(d * (x - y))) + slack


@checked
@given(hardening, tensors, taus, gammas)
def test_prox_satisfies_first_order_condition(kind, z, tau, gamma):
    variant = VARIANTS[kind]
    p = prox_dissipation(variant, z, tau, gamma)
    h = PARAMS.mu * PARAMS.k2 if variant.isotropic else 0.0
    radius = tau * (PARAMS.sigma_y + h * gamma)
    tol = 1e-10 * (1.0 + norm(z))
    if norm(p) > 0.0:
        # on the active branch the subgradient is the unit direction of p,
        # scaled by the radius at the new gamma + |p|
        want = tau * (PARAMS.sigma_y + h * (gamma + norm(p))) * p / norm(p)
        assert np.max(np.abs((z - p) - want)) <= tol
    else:
        assert norm(z) <= radius + tol


def test_micromorphic_prox_is_the_identity():
    # micromorphic dissipates nothing, so nothing is shrunk, whatever sigma_y
    variant = ModelVariant("micromorphic", PARAMS)
    z = 0.1 * np.diag([1.0, -1.0, 0.0])
    assert np.array_equal(prox_dissipation(variant, z, 1.0), z)
    assert np.array_equal(variant.shrink(1.0, 0.0)(np.array([0.0, 0.2, 5.0])), np.ones(3))
