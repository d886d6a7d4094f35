from fractions import Fraction

import numpy as np
import pytest
from gauss_reference import cauchy_stress, tau_p_microforce

from curlplast.grid import Grid, ScalarField, TensorField, VectorField
from curlplast.models import (
    ModelVariant,
    SimState,
    eshelby_stress,
    incremental_dissipation,
    sigma_nodal,
    total_energy,
    yield_value,
)
from curlplast.oracles import PolyTensorField, symbolic_curl
from curlplast.tensors import MaterialParams, cross_matrix, dev, frobenius, norm, sym

PARAMS = MaterialParams(mu=80.0, lam=110.0, k1=0.5, k2=0.4, Lc=0.2, sigma_y=0.3)
KIN = ModelVariant("kin_spin", PARAMS)
ISO = ModelVariant("iso_spin", PARAMS)
ISO_IRROT = ModelVariant("iso_irrot", PARAMS)


def random_state(grid, rng, symmetric=False):
    u = VectorField(rng.standard_normal((grid.node_count, 3)) * 1e-3)
    P = rng.standard_normal((grid.node_count, 3, 3)) * 1e-3
    if symmetric:
        P = sym(P)
    P = dev(P)
    g = np.abs(rng.standard_normal(grid.node_count)) * 1e-3
    return SimState(u, TensorField(P), ScalarField(g), 0.0)


class TestVariantCatalog:
    def test_admissibility_messages(self):
        bad = MaterialParams(mu=80.0, lam=110.0, sigma_y=0.3)
        with pytest.raises(ValueError, match="kin_spin requires k1 > 0"):
            ModelVariant("kin_spin", bad)
        with pytest.raises(ValueError, match="iso_spin requires k2 > 0"):
            ModelVariant("iso_spin", bad)
        with pytest.raises(ValueError, match="sigma_y > 0"):
            ModelVariant("kin_irrot", MaterialParams(mu=80.0, lam=110.0, k1=0.5))
        # micromorphic has no flow, so sigma_y is not required
        ModelVariant("micromorphic", MaterialParams(mu=80.0, lam=110.0, k1=0.5))
        with pytest.raises(ValueError, match="unknown variant"):
            ModelVariant("table_2", PARAMS)

    def test_constraint_flags(self):
        assert not KIN.symmetric and ISO_IRROT.symmetric
        assert KIN.k1_eff == PARAMS.k1 and KIN.k2_eff == 0.0
        assert ISO.k1_eff == 0.0 and ISO.k2_eff == PARAMS.k2


class TestCauchyStress:
    grid = Grid.unit_cube(2)

    def test_zero_state(self):
        s = SimState.zeros(self.grid)
        assert np.all(cauchy_stress(self.grid, PARAMS, s.u, s.p) == 0.0)

    def test_gradient_equals_p(self):
        # grad u = p pointwise leaves no elastic strain
        A = np.array([[0.0, 0.002, 0.0], [0.001, 0.0, 0.0], [0.0, 0.0, 0.0]])
        u = VectorField(self.grid.node_coords() @ A.T)
        p = TensorField(np.tile(A, (self.grid.node_count, 1, 1)))
        sig = cauchy_stress(self.grid, PARAMS, u, p)
        assert np.max(np.abs(sig)) < 1e-15

    def test_uniform_simple_shear(self):
        gs = 1.7e-3
        D = np.zeros((3, 3))
        D[0, 1] = gs
        u = VectorField(self.grid.node_coords() @ D.T)
        p = TensorField.zeros(self.grid)
        sig = cauchy_stress(self.grid, PARAMS, u, p)
        want = np.zeros((3, 3))
        want[0, 1] = want[1, 0] = PARAMS.mu * gs
        assert np.max(np.abs(sig - want)) < 1e-14


class TestTotalEnergy:
    grid = Grid((3, 2, 2), (1 / 3, 0.5, 0.5))

    def test_zero_state(self):
        e = total_energy(self.grid, KIN, SimState.zeros(self.grid))
        assert e.total == 0.0

    def test_superposed_rotation_state_has_no_energy(self):
        A = cross_matrix([0.1, -0.2, 0.05])
        u = VectorField(self.grid.node_coords() @ A.T)
        p = TensorField(np.tile(A, (self.grid.node_count, 1, 1)))
        e = total_energy(self.grid, KIN, SimState(u, p, ScalarField.zeros(self.grid), 0.0))
        assert abs(e.total) < 1e-14

    def test_homogeneous_elastic_closed_form(self):
        E = np.array([[1.0, 0.5, 0.0], [0.5, -0.2, 0.1], [0.0, 0.1, 0.4]]) * 1e-3
        u = VectorField(self.grid.node_coords() @ E.T)
        s = SimState(u, TensorField.zeros(self.grid), ScalarField.zeros(self.grid), 0.0)
        e = total_energy(self.grid, KIN, s)
        C_E = 2 * PARAMS.mu * sym(E) + PARAMS.lam * np.trace(E) * np.eye(3)
        want = self.grid.volume * 0.5 * frobenius(C_E, E)
        assert e.elastic == pytest.approx(want, rel=1e-12)
        assert e.defect == 0.0 and e.hardening == 0.0

    def test_euclidean_invariance_under_superposed_motion(self):
        # probes drawn at the deformation scale so the exact cancellation is
        # measured at comparable magnitudes
        rng = np.random.default_rng(0)
        state = random_state(self.grid, rng)
        e0 = total_energy(self.grid, KIN, state)
        scale = e0.magnitude()
        coords = self.grid.node_coords()
        for _ in range(100):
            A = cross_matrix(rng.standard_normal(3) * 1e-3)
            b = rng.standard_normal(3) * 1e-3
            u2 = VectorField(state.u.values + coords @ A.T + b)
            p2 = TensorField(state.p.values + A)
            e1 = total_energy(self.grid, KIN,
                              SimState(u2, p2, state.gamma, 0.0))
            assert abs(e1.total - e0.total) <= 1e-12 * scale

    def test_isotropic_hardening_term(self):
        s = SimState.zeros(self.grid)
        s.gamma.values[:] = 2.0
        e = total_energy(self.grid, ISO, s)
        want = 0.5 * PARAMS.mu * PARAMS.k2 * 4.0 * self.grid.volume
        assert e.hardening == pytest.approx(want, rel=1e-12)


class TestEshelbyStress:
    def test_local_limit_is_nodal_stress(self):
        params = MaterialParams(mu=80.0, lam=110.0, k2=0.4, Lc=0.0, sigma_y=0.3)
        var = ModelVariant("iso_spin", params)  # no kinematic term, no curl term
        grid = Grid.unit_cube(2)
        E = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]) * 1e-3
        u = VectorField(grid.node_coords() @ E.T)
        p = TensorField.zeros(grid)
        sig_e = eshelby_stress(grid, var, u, p)
        sig = sigma_nodal(grid, params, u, p)
        assert np.max(np.abs(sig_e - sig)) < 1e-14
        want = 2 * params.mu * sym(E)
        assert np.max(np.abs(sig - want)) < 1e-13

    def test_constant_p_no_curl_contribution_inside(self):
        grid = Grid.unit_cube(3)
        varA = ModelVariant("kin_spin", PARAMS)
        varB = ModelVariant("kin_spin",
                            MaterialParams(mu=80.0, lam=110.0, k1=0.5, Lc=0.0, sigma_y=0.3))
        P = dev(np.tile(np.array([[0.0, 1.0, 0.0], [0.2, 0.0, 0.0], [0.0, 0.0, 0.0]]),
                        (grid.node_count, 1, 1))) * 1e-3
        u = VectorField.zeros(grid)
        a = eshelby_stress(grid, varA, u, TensorField(P))
        b = eshelby_stress(grid, varB, u, TensorField(P))
        ijk = grid.node_ijk()
        interior = np.all((ijk > 0) & (ijk < np.asarray(grid.n)), axis=1)
        # with constant p the double-curl term vanishes away from the boundary
        assert np.max(np.abs(a[interior] - b[interior])) < 1e-12

    def test_weak_double_curl_matches_symbolic_oracle(self):
        # manufactured cubic p: at interior nodes the lumped weak recovery is
        # a symmetric second-difference stencil, exact through cubic fields,
        # so it must reproduce the symbolic double curl to roundoff
        rng = np.random.default_rng(6)
        F = PolyTensorField.random(rng, degree=3, symmetric=True, trace_free=True, scale=1e-3)
        cc = symbolic_curl(symbolic_curl(F))
        grid = Grid.unit_cube(4)
        params = MaterialParams(mu=1.0, lam=0.0, Lc=1.0, k1=1e-30, sigma_y=1.0)
        var = ModelVariant("kin_spin", params)
        coords = grid.node_coords()
        P = TensorField(F(coords))
        # cancel the stress and backstress parts to isolate the curl term
        r = eshelby_stress(grid, var, VectorField.zeros(grid), P)
        sig = sigma_nodal(grid, params, VectorField.zeros(grid), P)
        curl_part = (sig - r) / (params.mu * params.Lc ** 2)
        ijk = grid.node_ijk()
        interior = np.all((ijk > 0) & (ijk < np.asarray(grid.n)), axis=1)
        exact = cc(coords)
        scale = np.abs(exact).max()
        assert np.max(np.abs(curl_part[interior] - exact[interior])) < 1e-11 * scale


class TestYieldValue:
    def test_origin(self):
        assert yield_value(KIN, np.zeros((3, 3))) == pytest.approx(-PARAMS.sigma_y)

    def test_on_surface(self):
        N = dev(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        N /= norm(N)
        assert yield_value(KIN, PARAMS.sigma_y * N) == pytest.approx(0.0, abs=1e-15)

    def test_isotropic_radius_growth(self):
        N = dev(np.diag([1.0, -0.5, -0.5]))
        N /= norm(N)
        val = yield_value(ISO, PARAMS.sigma_y * N, gamma=1.0)
        assert val == pytest.approx(-PARAMS.mu * PARAMS.k2, rel=1e-12)

    def test_irrotational_uses_symmetric_part(self):
        A = cross_matrix([1.0, 2.0, 3.0])  # skew: no symmetric deviator
        assert yield_value(ISO_IRROT, 100.0 * A) == pytest.approx(-PARAMS.sigma_y)
        assert yield_value(ISO, 100.0 * A) > 0.0

    def test_micromorphic_has_none(self):
        var = ModelVariant("micromorphic", PARAMS)
        with pytest.raises(ValueError):
            yield_value(var, np.zeros((3, 3)))


class TestIncrementalDissipation:
    def test_zero(self):
        assert incremental_dissipation(KIN, np.zeros((3, 3))) == 0.0

    def test_unit_increment_kinematic(self):
        N = dev(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        N /= norm(N)
        assert incremental_dissipation(KIN, N) == pytest.approx(PARAMS.sigma_y)

    def test_unit_increment_isotropic(self):
        N = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]) / np.sqrt(2)
        got = incremental_dissipation(ISO, N, gamma_prev=0.0)
        assert got == pytest.approx(PARAMS.sigma_y + 0.5 * PARAMS.mu * PARAMS.k2)

    def test_isotropic_elimination_against_brute_force(self):
        # minimizing sigma_y * dg + 1/2 mu k2 (g + dg)^2 - 1/2 mu k2 g^2 over
        # dg >= |dq| is attained at dg = |dq| because the integrand increases
        rng = np.random.default_rng(8)
        for _ in range(10):
            dq = dev(rng.standard_normal((3, 3))) * 0.01
            g0 = abs(rng.standard_normal()) * 0.01
            n = norm(dq)
            dgs = np.linspace(n, n + 0.1, 20001)
            h = PARAMS.mu * PARAMS.k2
            vals = PARAMS.sigma_y * dgs + 0.5 * h * (g0 + dgs) ** 2 - 0.5 * h * g0 ** 2
            # the one-homogeneous part charges sigma_y |dq|; the remaining
            # terms come from the eliminated internal variable
            want = incremental_dissipation(ISO, dq, g0)
            got = PARAMS.sigma_y * n + vals.min() - PARAMS.sigma_y * dgs[np.argmin(vals)]
            assert got == pytest.approx(want, rel=1e-9)

    def test_one_homogeneity_kinematic(self):
        rng = np.random.default_rng(9)
        dq = dev(rng.standard_normal((3, 3)))
        for alpha in (0.0, 0.25, 1.0, 7.5):
            assert incremental_dissipation(KIN, alpha * dq) == pytest.approx(
                alpha * incremental_dissipation(KIN, dq), rel=1e-12, abs=1e-15)

    def test_micromorphic_zero(self):
        var = ModelVariant("micromorphic", PARAMS)
        assert incremental_dissipation(var, np.ones((3, 3))) == 0.0

    @pytest.mark.parametrize("gamma", [1.0, 1e3])
    @pytest.mark.parametrize("n", [1e-9, 1e-12])
    def test_small_increment_after_large_gamma_is_exact(self, n, gamma):
        # sigma_y n + h ((gamma + n)^2 - gamma^2) / 2 in exact arithmetic on
        # the same floats; the difference of squares, formed in floating
        # point, cancels all but a few digits of an increment n << gamma
        h, sy = Fraction(ISO.drag), Fraction(PARAMS.sigma_y)
        exact = sy * Fraction(n) + h / 2 * ((Fraction(gamma) + Fraction(n)) ** 2 - Fraction(gamma) ** 2)
        got = Fraction(float(ISO.dissipation(n, gamma)))
        assert abs(got - exact) <= Fraction(1e-15) * exact

    @pytest.mark.parametrize("tag", ["kin_spin", "kin_irrot"])
    def test_without_drag_is_sigma_y_n_bit_for_bit(self, tag):
        var = ModelVariant(tag, PARAMS)
        assert var.drag == 0.0
        rng = np.random.default_rng(12)
        n = np.abs(rng.standard_normal(200)) * 10.0 ** rng.integers(-12, 12, 200)
        n = np.concatenate([[0.0, 1e-300, 1e300], n])
        for gamma in (0.0, 1e3, rng.uniform(0.0, 5.0, n.size)):
            assert var.dissipation(n, gamma).tobytes() == (PARAMS.sigma_y * n).tobytes()


class TestFlowRuleConsistency:
    def test_primal_inequality(self):
        # D(q) >= D(dp) + <Sigma, q - dp> for Sigma on the yield surface and
        # dp along the flow direction, probed over random trace-free q
        rng = np.random.default_rng(10)
        sy = PARAMS.sigma_y
        for _ in range(10):
            S = dev(rng.standard_normal((3, 3)))
            Sigma = sy * S / norm(S) + 0.0  # on the surface, purely deviatoric
            lam = abs(rng.standard_normal())
            dp = lam * dev(Sigma) / norm(dev(Sigma))
            q = dev(rng.standard_normal((1000, 3, 3)))
            lhs = sy * norm(q)
            rhs = sy * norm(dp) + frobenius(np.broadcast_to(Sigma, q.shape), q - dp)
            assert np.all(lhs >= rhs - 1e-12 * sy * (1 + norm(q)))


class TestMicroforceIdentification:
    def test_tau_p_equals_dev_sym_eshelby(self):
        # microforce-balance route and direct recovery agree on a field state
        grid = Grid.unit_cube(3)
        params = MaterialParams(mu=80.0, lam=110.0, k2=0.4, Lc=0.25, sigma_y=0.3)
        var = ModelVariant("iso_irrot", params)
        rng = np.random.default_rng(11)
        state = random_state(grid, rng, symmetric=True)
        tau = tau_p_microforce(grid, var, state.u, state.p)
        ref = dev(sym(eshelby_stress(grid, var, state.u, state.p)))
        scale = np.abs(ref).max()
        assert np.max(np.abs(tau - ref)) < 1e-10 * scale

    def test_symbolic_identification(self):
        # dev sigma - mu Lc^2 dev sym CurlCurl eps equals dev sym of the
        # generalized stress, exactly, for polynomial fields
        rng = np.random.default_rng(12)
        params = MaterialParams(mu=80.0, lam=110.0, Lc=0.4)
        F = PolyTensorField.random(rng, degree=2, symmetric=True, trace_free=True)
        pts = rng.uniform(-1, 1, (20, 3))
        eps = F(pts)
        sig = 2 * params.mu * eps  # any symmetric stress consistent with eps
        cc = symbolic_curl(symbolic_curl(F))(pts)
        Sigma = sig - params.mu * params.Lc ** 2 * cc
        tau = dev(sig) - params.mu * params.Lc ** 2 * dev(sym(cc))
        assert np.max(np.abs(dev(sym(Sigma)) - tau)) < 1e-12 * max(1.0, np.abs(tau).max())
