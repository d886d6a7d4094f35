import threading
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from curlplast.grid import FACES, BoundaryConfig, Grid, ScalarField, TensorField, VectorField
from curlplast.models import ModelVariant, SimState, eshelby_stress, sigma_nodal
from curlplast.oracles import radial_return_0d
from curlplast.solver import (
    DiscreteProblem,
    InfeasibleBC,
    LoadStep,
    NoConvergence,
    SolverConfig,
    accelerated_prox_gradient,
    extrapolate,
    probe_blocks,
    probe_seed,
    prox_dissipation,
    time_step,
    weighted_norm,
)
from curlplast.tensors import MaterialParams, dev, norm, sym

PARAMS = MaterialParams(mu=80.0, lam=110.0, k1=0.5, k2=0.4, Lc=0.2, sigma_y=0.3)
KIN = ModelVariant("kin_spin", PARAMS)
ISO = ModelVariant("iso_spin", PARAMS)

TIGHT = SolverConfig(tol_outer=1e-14, tol_cg=1e-13, tol_fista=1e-12)

SHEAR01 = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def full_dirichlet():
    return BoundaryConfig(FACES, micro_hard_faces=())


def unit_direction(rng):
    n = dev(rng.standard_normal((3, 3)))
    return n / norm(n)


class TestProxDissipation:
    def test_inside_ball_returns_zero(self):
        rng = np.random.default_rng(0)
        tau = 0.37
        for _ in range(20):
            z = unit_direction(rng) * rng.uniform(0.0, tau * PARAMS.sigma_y)
            assert np.all(prox_dissipation(KIN, z, tau) == 0.0)

    def test_tie_at_threshold_returns_zero(self):
        tau = 0.5
        z = unit_direction(np.random.default_rng(1)) * tau * PARAMS.sigma_y
        assert np.all(prox_dissipation(KIN, z, tau) == 0.0)

    def test_kinematic_shrinkage(self):
        tau = 0.25
        n = unit_direction(np.random.default_rng(2))
        z = 2.0 * tau * PARAMS.sigma_y * n
        out = prox_dissipation(KIN, z, tau)
        assert np.allclose(out, tau * PARAMS.sigma_y * n, rtol=1e-13)

    def test_kinematic_prox_solves_first_order_condition(self):
        # z - p must lie in tau * sigma_y * subdifferential of |.| at p
        rng = np.random.default_rng(3)
        tau = 0.8
        for _ in range(20):
            z = dev(rng.standard_normal((3, 3)))
            p = prox_dissipation(KIN, z, tau)
            r = z - p
            if norm(p) > 0:
                assert np.allclose(r, tau * PARAMS.sigma_y * p / norm(p), rtol=1e-10)
            else:
                assert norm(r) <= tau * PARAMS.sigma_y * (1 + 1e-12)

    def test_isotropic_magnitude_against_scalar_brute_force(self):
        # refine a 1d grid on the magnitude down to 1e-8 and compare
        rng = np.random.default_rng(4)
        tau = 0.6
        for _ in range(5):
            zn = rng.uniform(0.0, 3.0)
            g0 = rng.uniform(0.0, 2.0)
            got = zn * ISO.shrink(zn, tau, g0)

            def f(m):
                return (0.5 * (m - zn) ** 2 / tau + PARAMS.sigma_y * m
                        + 0.5 * PARAMS.mu * PARAMS.k2 * (g0 + m) ** 2)

            lo, hi = 0.0, zn + 1.0
            for _ in range(12):
                ms = np.linspace(lo, hi, 2001)
                best = ms[np.argmin(f(ms))]
                span = (hi - lo) / 2000
                lo, hi = max(0.0, best - 2 * span), best + 2 * span
            assert got == pytest.approx(best, abs=1e-8)

    def test_requires_positive_tau(self):
        with pytest.raises(ValueError):
            prox_dissipation(KIN, np.zeros((3, 3)), 0.0)


class TestOneNodeMinimization:
    def test_fista_against_nested_grid_search(self):
        # single-node subproblem over the 8 trace-free coordinates: the
        # engine must agree with direct minimization refined to 1e-6
        rng = np.random.default_rng(5)
        n = 8
        Q = rng.standard_normal((n, n))
        A = Q @ Q.T + 0.5 * np.eye(n)
        b = rng.standard_normal(n) * 2.0
        w = np.full(n, 0.7)
        sy = 1.3

        def prox(z, t=None):
            nz = np.linalg.norm(z)
            m = max(0.0, nz - step * sy)
            return z * (m / nz) if nz > 0 else z

        step = 1.0 / (np.linalg.eigvalsh(A / 0.7).max() * 1.1)
        c, _ = accelerated_prox_gradient(
            gradient=lambda v: A @ v - b, w=w,
            prox=lambda z: prox(z), c0=np.zeros(n),
            step=step, tol=1e-13, maxiter=100000)

        def objective(x):
            quad = 0.5 * np.einsum("...i,ij,...j->...", x, A, x) - x @ b
            return quad + 0.7 * sy * np.linalg.norm(x, axis=-1)

        center = c.copy()
        span = 2.0 * max(1.0, np.abs(c).max())
        best = center
        while span > 1e-6:
            grids = [np.linspace(v - span, v + span, 5) for v in best]
            mesh = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, n)
            best = mesh[np.argmin(objective(mesh))]
            span *= 0.55
        assert np.max(np.abs(c - best)) < 1e-5

    def test_huge_yield_stress_gives_smooth_minimizer(self):
        rng = np.random.default_rng(6)
        n = 6
        Q = rng.standard_normal((n, n))
        A = Q @ Q.T + np.eye(n)
        b = rng.standard_normal(n)
        w = np.ones(n)
        step = 1.0 / (np.linalg.eigvalsh(A).max() * 1.1)
        c, _ = accelerated_prox_gradient(
            gradient=lambda v: A @ v - b, w=w,
            prox=lambda z: z, c0=np.zeros(n),  # infinite threshold: identity prox
            step=step, tol=1e-14, maxiter=100000)
        assert np.allclose(c, np.linalg.solve(A, b), rtol=1e-10)

    def test_zero_data_returns_zero(self):
        A = np.eye(4)
        c, its = accelerated_prox_gradient(
            gradient=lambda v: A @ v, w=np.ones(4),
            prox=lambda z: np.maximum(0.0, 1 - 0.1 / max(np.linalg.norm(z), 1e-300)) * z,
            c0=np.zeros(4), step=0.5, tol=1e-12, maxiter=100)
        assert np.all(c == 0.0) and its == 1

    def test_one_matvec_and_one_prox_per_iteration(self):
        rng = np.random.default_rng(7)
        n = 6
        Q = rng.standard_normal((n, n))
        A = Q @ Q.T + np.eye(n)
        b = rng.standard_normal(n)
        w = np.full(n, 0.7)
        step = 1.0 / (np.linalg.eigvalsh(A / 0.7).max() * 1.1)
        calls = {"matvec": 0, "prox": 0}

        def matvec(v):
            calls["matvec"] += 1
            return A @ v - b

        def prox(z):
            calls["prox"] += 1
            nz = np.linalg.norm(z)
            return z * (max(0.0, nz - 0.1 * step) / nz) if nz > 0 else z

        _, its = accelerated_prox_gradient(
            gradient=matvec, w=w, prox=prox, c0=np.zeros(n),
            step=step, tol=1e-12, maxiter=100000)
        assert its > 1
        assert calls == {"matvec": its, "prox": its}

    def test_nan_matvec_fails_fast(self):
        with pytest.raises(NoConvergence) as err:
            accelerated_prox_gradient(
                gradient=lambda v: np.full_like(v, np.nan), w=np.ones(4),
                prox=lambda z: z, c0=np.zeros(4), step=0.5, tol=1e-12, maxiter=100000)
        assert err.value.iterations == 1


def test_probe_seed_keeps_the_seed_of_every_finite_scaled_level():
    for seed in (0, 5):
        for level in (1.0, 0.5, -3.0, 1e-7, 1e290):
            assert probe_seed(seed, level) == seed + int(round(level * 1e6)) % (2 ** 31)
    # level * 1e6 beyond 2^84 in magnitude is a multiple of 2^31, and an
    # overflow to infinity continues that
    assert probe_seed(5, 1e20) == probe_seed(5, 1e303) == probe_seed(5, -1e303) == 5


class TestStoredOperators:
    def test_each_operator_is_stored_once(self):
        # the coupling is kept only as its free rows S_f, whose transpose S_pf
        # is a view of the same arrays, and the displacement form only as its
        # free block K_ff; a step, the monolithic micromorphic one included,
        # stores no joint, prescribed or full-space matrix in the problem or
        # its blocks
        grid = Grid.unit_cube(2)
        for variant in (KIN, ModelVariant("micromorphic", PARAMS)):
            prob = DiscreteProblem(grid, BoundaryConfig(("zmin",)), variant)
            time_step(prob, SimState.zeros(grid), LoadStep(1.0, 0.0, (0.0, 0.0, -5.0)))
            stored = {name: value for name, value in vars(prob).items() if sp.issparse(value)}
            assert set(stored) == {"A_hat", "K_ff", "S_f", "S_pf"}, variant.tag
            owners = {name: stored[name] for name in ("A_hat", "K_ff", "S_f")}
            arrays = ("data", "indices", "indptr")
            for name, value in stored.items():
                holders = [owner for owner, M in owners.items()
                           if all(np.shares_memory(getattr(value, a), getattr(M, a)) for a in arrays)]
                assert holders == ["S_f" if name == "S_pf" else name], (variant.tag, name)
            assert (prob.S_pf != prob.S_f.T).nnz == 0, variant.tag
            assert not [name for name, value in vars(prob.blocks).items() if sp.issparse(value)], variant.tag

    def test_split_products_match_the_full_coupling(self):
        # every field of the step load, and the free displacement residual
        # and the objective formed from it (J_g included), equal their
        # full-space forms
        grid = Grid.unit_cube(3)
        prob = DiscreteProblem(grid, BoundaryConfig(("zmin", "zmax")), KIN, SHEAR01)
        rng = np.random.default_rng(3)
        U = rng.standard_normal(3 * grid.node_count)
        c, c_prev = rng.standard_normal((2, prob.basis.size))
        gamma_prev = np.zeros(grid.node_count)
        F = prob.blocks.body_force_vector((0.0, 0.0, -5.0))
        K_uu = prob.blocks.assemble(prob.blocks.terms["K_uu"], 3)
        S_up = prob.blocks.assemble(prob.blocks.terms["K_up"], 3, prob.basis)
        load = prob.step_load(U, F)
        U_p = np.where(prob.presc, U, 0.0)
        KU = K_uu @ U_p
        for name, got, want in (("f_u", load.f_u, (F - KU)[prob.free]), ("f_p", load.f_p, -(S_up.T @ U_p))):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max(), name
        assert load.J_g == pytest.approx(0.5 * U_p @ KU - F @ U_p, rel=1e-13)
        u_scale = max(np.linalg.norm(F[prob.free]), np.linalg.norm(KU[prob.free]))
        assert load.u_scale == pytest.approx(u_scale, rel=1e-13)
        r_u = (K_uu @ U + S_up @ c - F)[prob.free]
        assert np.abs(prob.displacement_residual(U[prob.free], c, load) - r_u).max() <= 1e-13 * np.abs(r_u).max()
        smooth = 0.5 * U @ (K_uu @ U) + U @ (S_up @ c) + 0.5 * c @ (prob.A_hat @ c) - F @ U
        J, dissipation = prob.objective(U[prob.free], c, c_prev, gamma_prev, load)
        assert J - dissipation == pytest.approx(smooth, rel=1e-13)


class TestSolveU:
    def test_affine_reproduction_exact(self):
        grid = Grid.unit_cube(3)
        prob = DiscreteProblem(grid, full_dirichlet(), KIN, SHEAR01, TIGHT)
        U = prob.lift(2.5e-3)
        c = np.zeros(prob.basis.size)
        U[prob.free], _ = prob.solve_u(U[prob.free], c, prob.step_load(U, np.zeros_like(U)), TIGHT.tol_cg)
        want = 2.5e-3 * grid.node_coords() @ SHEAR01.T
        assert np.max(np.abs(U.reshape(-1, 3) - want)) < 1e-12

    def test_manufactured_trilinear_solution(self):
        grid = Grid((3, 2, 2), (1 / 3, 0.5, 0.5))
        bc = BoundaryConfig(("xmin", "xmax"))
        prob = DiscreteProblem(grid, bc, KIN, None, TIGHT)
        rng = np.random.default_rng(7)
        U_star = rng.standard_normal(3 * grid.node_count) * 1e-3
        F = np.asarray(prob.blocks.assemble(prob.blocks.terms["K_uu"], 3) @ U_star)
        U = np.where(prob.presc, U_star, 0.0)
        U[prob.free], _ = prob.solve_u(U[prob.free], np.zeros(prob.basis.size), prob.step_load(U, F), TIGHT.tol_cg)
        assert np.max(np.abs(U - U_star)) < 1e-10 * np.abs(U_star).max()

    def test_cg_contract(self):
        grid = Grid.unit_cube(2)
        prob = DiscreteProblem(grid, BoundaryConfig(("zmin",)), KIN, None, TIGHT)
        rng = np.random.default_rng(8)
        b = rng.standard_normal(prob.K_ff.shape[0])
        x, _ = prob.pcg(prob.K_ff.dot, b, np.zeros_like(b), 1e-10, 10000, prob.jacobi_ff)
        assert np.linalg.norm(b - prob.K_ff @ x) <= 1e-10 * np.linalg.norm(b)

    def test_cg_nan_operator_fails_fast(self):
        grid = Grid.unit_cube(2)
        prob = DiscreteProblem(grid, BoundaryConfig(("zmin",)), KIN, None, TIGHT)
        A = prob.K_ff.copy()
        A.data[:] = np.nan
        b = np.ones(A.shape[0])
        with pytest.raises(NoConvergence) as err:
            prob.pcg(A.dot, b, np.zeros_like(b), 1e-10, 20000, prob.jacobi_ff)
        assert err.value.iterations <= 1

    def test_cg_overflowing_right_hand_side_fails_fast(self):
        # every entry is finite, but the norm of b overflows
        grid = Grid.unit_cube(2)
        prob = DiscreteProblem(grid, BoundaryConfig(("zmin",)), KIN, None, TIGHT)
        b = np.full(prob.K_ff.shape[0], 1e308)
        with pytest.raises(NoConvergence) as err, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # fails fast without a warning
            prob.pcg(prob.K_ff.dot, b, np.zeros_like(b), 1e-10, 20000, prob.jacobi_ff)
        assert err.value.what == "conjugate gradients" and err.value.iterations == 0


class TestSolveP:
    def test_vanishing_yield_stress_gives_smooth_minimizer(self):
        # with no dissipation threshold the prox is the identity and the
        # solve in c, u eliminated, returns the joint quadratic minimizer
        import scipy.sparse.linalg as spla

        grid = Grid.unit_cube(2)
        params = MaterialParams(mu=80.0, lam=110.0, k1=0.5, Lc=0.1, sigma_y=1e-30)
        var = ModelVariant("kin_spin", params)
        prob = DiscreteProblem(grid, BoundaryConfig(FACES), var, SHEAR01,
                               SolverConfig(tol_fista=1e-13))
        U = prob.lift(1e-3)
        z = np.zeros(prob.basis.size)
        c, _, _ = prob.solve_p(U[prob.free], z, z, np.zeros(grid.node_count), prob.step_load(U, np.zeros_like(U)))
        K = sp.bmat([[prob.K_ff, prob.S_f], [prob.S_pf, prob.A_hat]])
        # U is the lifted prescribed field, zero at the free dofs
        K_uu = prob.blocks.assemble(prob.blocks.terms["K_uu"], 3)
        S_up = prob.blocks.assemble(prob.blocks.terms["K_up"], 3, prob.basis)
        rhs = -np.concatenate([(K_uu @ U)[prob.free], S_up.T @ U])
        c_direct = spla.spsolve(K.tocsc(), rhs)[int(prob.free.sum()):]
        assert np.abs(c - c_direct).max() < 1e-10 * np.abs(c_direct).max()

    def test_huge_yield_stress_freezes_plastic_field(self):
        grid = Grid.unit_cube(2)
        params = MaterialParams(mu=80.0, lam=110.0, k1=0.5, Lc=0.1, sigma_y=1e12)
        var = ModelVariant("kin_spin", params)
        prob = DiscreteProblem(grid, full_dirichlet(), var, SHEAR01, SolverConfig())
        U = prob.lift(1e-3)
        z = np.zeros(prob.basis.size)
        c, _, _ = prob.solve_p(U[prob.free], z, z, np.zeros(grid.node_count), prob.step_load(U, np.zeros_like(U)))
        assert np.all(c == 0.0)

    def test_no_force_no_motion(self):
        grid = Grid.unit_cube(2)
        prob = DiscreteProblem(grid, full_dirichlet(), KIN, SHEAR01, TIGHT)
        z = np.zeros(prob.basis.size)
        U = np.zeros(3 * grid.node_count)
        c, _, its = prob.solve_p(U[prob.free], z, z, np.zeros(grid.node_count), prob.step_load(U, U))
        assert np.all(c == 0.0)

    def test_elastic_below_yield(self):
        grid = Grid.unit_cube(2)
        prob = DiscreteProblem(grid, full_dirichlet(), KIN, SHEAR01, TIGHT)
        a = 0.3 * PARAMS.sigma_y / (np.sqrt(2) * PARAMS.mu)
        U = prob.lift(a)
        z = np.zeros(prob.basis.size)
        c, _, _ = prob.solve_p(U[prob.free], z, z, np.zeros(grid.node_count), prob.step_load(U, np.zeros_like(U)))
        assert np.all(c == 0.0)


class TestTimeStep:
    def test_zero_load_keeps_zero_state(self):
        grid = Grid.unit_cube(2)
        prob = DiscreteProblem(grid, BoundaryConfig(("zmin", "zmax")), KIN, SHEAR01, TIGHT)
        state, rep = time_step(prob, SimState.zeros(grid), LoadStep(1.0, 0.0))
        assert np.all(state.u.values == 0.0) and np.all(state.p.values == 0.0)
        assert rep.dissipation_functional == 0.0

    def test_elastic_step_has_no_flow(self):
        grid = Grid.unit_cube(2)
        cfg = SolverConfig(tol_outer=1e-14, tol_cg=1e-13, tol_fista=1e-12, vi_probes=200)
        prob = DiscreteProblem(grid, full_dirichlet(), KIN, SHEAR01, cfg)
        a = 0.5 * PARAMS.sigma_y / (np.sqrt(2) * PARAMS.mu)
        state, rep = time_step(prob, SimState.zeros(grid), LoadStep(1.0, a))
        assert np.all(state.p.values == 0.0)
        assert rep.active_node_fraction == 0.0
        sig = sigma_nodal(grid, PARAMS, state.u, state.p)
        assert np.max(np.abs(sig[:, 0, 1] - PARAMS.mu * a)) < 1e-12
        # smooth optimality: the inequality holds essentially exactly
        assert rep.vi_residual >= -1e-12

    def test_single_cell_shear_matches_pointwise_update(self):
        params = MaterialParams(mu=80.0, lam=110.0, k1=0.5, Lc=0.0, sigma_y=0.3)
        var = ModelVariant("kin_spin", params)
        grid = Grid((1, 1, 1), (1.0, 1.0, 1.0))
        prob = DiscreteProblem(grid, full_dirichlet(), var, SHEAR01, TIGHT)
        amps = np.linspace(0, 4 * params.sigma_y / (np.sqrt(2) * params.mu), 9)[1:]
        oracle = radial_return_0d(params, [a * sym(SHEAR01) for a in amps], "kin")
        state = SimState.zeros(grid)
        scale = max(np.linalg.norm(s) for s, _, _ in oracle)
        for k, a in enumerate(amps):
            state, _ = time_step(prob, state, LoadStep(float(k + 1), float(a)))
            sig = sigma_nodal(grid, params, state.u, state.p)
            assert np.max(np.abs(sig - oracle[k][0])) < 1e-8 * scale
            assert np.max(np.abs(sym(state.p.values) - oracle[k][1])) < 1e-8

    @pytest.mark.parametrize("tag,hardening", [
        ("iso_spin", "iso"), ("kin_irrot", "kin"), ("iso_irrot", "iso"),
    ])
    def test_homogeneous_limit_matches_pointwise_update_all_variants(self, tag, hardening):
        params = MaterialParams(mu=80.0, lam=110.0, k1=0.5, k2=0.4, Lc=0.0, sigma_y=0.3)
        var = ModelVariant(tag, params)
        grid = Grid((2, 2, 2), (0.5, 0.5, 0.5))
        prob = DiscreteProblem(grid, full_dirichlet(), var, SHEAR01, TIGHT)
        amps = np.linspace(0, 4 * params.sigma_y / (np.sqrt(2) * params.mu), 9)[1:]
        oracle = radial_return_0d(params, [a * sym(SHEAR01) for a in amps], hardening)
        state = SimState.zeros(grid)
        scale = max(np.linalg.norm(s) for s, _, _ in oracle)
        for k, a in enumerate(amps):
            state, _ = time_step(prob, state, LoadStep(float(k + 1), float(a)))
            sig = sigma_nodal(grid, params, state.u, state.p)
            assert np.max(np.abs(sig - oracle[k][0])) < 1e-8 * scale
            assert np.max(np.abs(sym(state.p.values) - oracle[k][1])) < 1e-8
            assert np.max(np.abs(state.gamma.values - oracle[k][2])) < 1e-8
        if var.symmetric:
            assert TensorField(state.p.values).max_symmetry_violation() < 1e-14

    def test_symmetry_preserved_without_length_scale(self):
        params = MaterialParams(mu=80.0, lam=110.0, k1=0.5, Lc=0.0, sigma_y=0.3)
        var = ModelVariant("kin_spin", params)
        grid = Grid.unit_cube(2)
        prob = DiscreteProblem(grid, full_dirichlet(), var, SHEAR01, TIGHT)
        state = SimState.zeros(grid)
        for k, a in enumerate(np.linspace(0, 0.01, 6)[1:]):
            state, _ = time_step(prob, state, LoadStep(float(k + 1), float(a)))
        assert TensorField(state.p.values).max_symmetry_violation() < 1e-10
        assert np.abs(state.p.values).max() > 1e-4  # plastic flow happened

    def test_dissipation_and_kkt_on_gradient_run(self):
        grid = Grid.unit_cube(4)
        bc = BoundaryConfig(("zmin", "zmax"))
        D = np.zeros((3, 3))
        D[0, 2] = 1.0
        cfg = SolverConfig(tol_outer=1e-11, tol_cg=1e-11, tol_fista=1e-10, vi_probes=100)
        prob = DiscreteProblem(grid, bc, KIN, D, cfg)
        state = SimState.zeros(grid)
        a_y = PARAMS.sigma_y / (np.sqrt(2) * PARAMS.mu)
        for k, a in enumerate(np.linspace(0, 5 * a_y, 8)[1:]):
            state, rep = time_step(prob, state, LoadStep(float(k + 1), float(a)))
            scale = rep.energy.magnitude()
            assert rep.dissipation_increment >= -1e-12 * scale
            assert rep.kkt_max_violation <= 1e-6
            assert rep.kkt_max_misalignment <= 1e-6
            assert rep.vi_residual >= -1e-8
            # block descent: the objective never increases beyond tolerance
            assert rep.objective_increase <= 1e-9
        assert rep.active_node_fraction > 0.1

    def test_gradient_run_steps_take_at_most_three_passes(self):
        # u is eliminated inside solve_p, so a step is one solve plus one
        # confirming pass started from its result
        grid = Grid.unit_cube(4)
        bc = BoundaryConfig(("zmin", "zmax"))
        D = np.zeros((3, 3))
        D[0, 2] = 1.0
        cfg = SolverConfig(tol_outer=1e-11, tol_cg=1e-11, tol_fista=1e-10)
        prob = DiscreteProblem(grid, bc, KIN, D, cfg)
        state = SimState.zeros(grid)
        a_y = PARAMS.sigma_y / (np.sqrt(2) * PARAMS.mu)
        plastic = 0
        for k, a in enumerate(np.linspace(0, 5 * a_y, 8)[1:]):
            state, rep = time_step(prob, state, LoadStep(float(k + 1), float(a)))
            assert rep.outer_iterations <= 3
            plastic += rep.active_node_fraction > 0.0
        assert plastic >= 4

    def test_perturbed_state_violates_inequality(self):
        grid = Grid.unit_cube(3)
        bc = BoundaryConfig(("zmin", "zmax"))
        D = np.zeros((3, 3))
        D[0, 2] = 1.0
        prob = DiscreteProblem(grid, bc, KIN, D, TIGHT)
        state = SimState.zeros(grid)
        a = 4 * PARAMS.sigma_y / (np.sqrt(2) * PARAMS.mu)
        prev = SimState.zeros(grid)
        state, rep = time_step(prob, prev, LoadStep(1.0, a))
        U = state.u.values.reshape(-1)
        c = prob.basis.to_reduced(state.p.values.reshape(-1))
        c_prev = prob.basis.to_reduced(prev.p.values.reshape(-1))
        load = prob.step_load(U, np.zeros(3 * grid.node_count))
        rng = np.random.default_rng(9)
        ok = prob.vi_residual(U[prob.free], c, c_prev, prev.gamma.values, load, probe_blocks(prob, rng, 500))
        bad = prob.vi_residual(U[prob.free], 1.1 * c, c_prev, prev.gamma.values, load, probe_blocks(prob, rng, 500))
        assert ok >= -1e-8
        assert bad < -1e-8  # detection of a non-minimizer

    def test_rate_independence_on_proportional_path(self):
        grid = Grid.unit_cube(3)
        prob = DiscreteProblem(grid, full_dirichlet(), KIN, SHEAR01, TIGHT)
        a_y = PARAMS.sigma_y / (np.sqrt(2) * PARAMS.mu)

        def run(nsteps):
            st = SimState.zeros(grid)
            out = {}
            for a in np.linspace(0, 4 * a_y, nsteps + 1)[1:]:
                st, _ = time_step(prob, st, LoadStep(float(a), float(a)))
                out[round(float(a), 14)] = st
            return out

        coarse, fine = run(4), run(8)
        scale = max(np.abs(st.p.values).max() for st in coarse.values())
        for lvl, st in coarse.items():
            st2 = fine[lvl]
            assert np.max(np.abs(st.p.values - st2.p.values)) < 1e-8 * scale

    def test_infeasible_bc(self):
        grid = Grid.unit_cube(2)
        prob = DiscreteProblem(grid, full_dirichlet(), KIN, SHEAR01, TIGHT)
        with pytest.raises(InfeasibleBC):
            time_step(prob, SimState.zeros(grid), LoadStep(1.0, np.inf))

    def test_no_convergence_is_reported(self):
        grid = Grid.unit_cube(2)
        cfg = SolverConfig(tol_outer=1e-16, tol_cg=1e-16, tol_fista=1e-16,
                           max_outer=1, max_cg=2, max_fista=3)
        prob = DiscreteProblem(grid, BoundaryConfig(("zmin", "zmax")), KIN, SHEAR01, cfg)
        with pytest.raises(NoConvergence):
            time_step(prob, SimState.zeros(grid), LoadStep(1.0, 0.05))

    def test_outer_pass_limit_reports_the_descent_test(self):
        # the recovered u meets tol_cg after a single pass, so the test that
        # fails is the confirming pass's descent, inf before any second pass
        grid = Grid.unit_cube(2)
        cfg = SolverConfig(max_outer=1)
        prob = DiscreteProblem(grid, BoundaryConfig(("zmin", "zmax")), KIN, SHEAR01, cfg)
        with pytest.raises(NoConvergence) as info:
            time_step(prob, SimState.zeros(grid), LoadStep(1.0, 0.05))
        e = info.value
        assert e.what == "outer passes"
        assert e.tol == cfg.tol_outer
        assert e.residual > e.tol

    def test_non_finite_objective_fails_within_one_pass(self):
        grid = Grid.unit_cube(2)
        prob = DiscreteProblem(grid, BoundaryConfig(("zmin", "zmax")), KIN, SHEAR01, TIGHT)
        real, calls = prob.solve_p, []

        def solve_p(*args):
            calls.append(args)
            return real(*args)

        prob.solve_p = solve_p
        prob.objective = lambda *args: (np.nan, 0.0)
        with pytest.raises(NoConvergence) as info:
            time_step(prob, SimState.zeros(grid), LoadStep(1.0, 0.05))
        assert info.value.what == "outer passes" and info.value.iterations == 1
        assert len(calls) == 1


def field_state(grid, t, coeffs):
    """State whose u and p are the polynomial sum_k coeffs[k] t^k (gamma zero)."""
    u = sum(a * t ** k for k, a in enumerate(coeffs[0]))
    p = sum(a * t ** k for k, a in enumerate(coeffs[1]))
    return SimState(VectorField(u), TensorField(p), ScalarField.zeros(grid), t)


class TestStartingGuess:
    @pytest.mark.parametrize("degree", [1, 2])
    def test_extrapolation_is_exact_for_polynomial_states(self, degree):
        grid = Grid.unit_cube(2)
        rng = np.random.default_rng(3)
        coeffs = ([rng.standard_normal((grid.node_count, 3)) for _ in range(degree + 1)],
                  [rng.standard_normal((grid.node_count, 3, 3)) for _ in range(degree + 1)])
        # the zero state, off the polynomial, is the fourth distinct t, and a
        # repeated t is skipped
        history = [SimState.zeros(grid)] + [field_state(grid, t, coeffs) for t in (0.5, 1.5, 1.5, 2.0)]
        guess = extrapolate(history, 3.25)
        exact = field_state(grid, 3.25, coeffs)
        assert guess.t == 3.25
        assert np.allclose(guess.u.values, exact.u.values, rtol=1e-12, atol=1e-12)
        assert np.allclose(guess.p.values, exact.p.values, rtol=1e-12, atol=1e-12)

    def test_the_zero_state_counts_as_a_point(self):
        grid = Grid.unit_cube(2)
        rng = np.random.default_rng(4)
        coeffs = ([0.0, rng.standard_normal((grid.node_count, 3))],
                  [0.0, rng.standard_normal((grid.node_count, 3, 3))])
        guess = extrapolate([SimState.zeros(grid), field_state(grid, 0.5, coeffs)], 2.0)
        assert np.allclose(guess.p.values, field_state(grid, 2.0, coeffs).p.values, rtol=1e-14, atol=0.0)

    def test_single_usable_state_gives_no_guess(self):
        grid = Grid.unit_cube(2)
        zero = SimState.zeros(grid)
        assert extrapolate([zero], 1.0) is None
        assert extrapolate([zero, SimState.zeros(grid)], 1.0) is None  # one distinct t

    def test_overflowing_weights_give_no_guess(self):
        # levels far apart overflow the Lagrange weights; no warning, no guess
        grid = Grid.unit_cube(2)
        rng = np.random.default_rng(5)
        coeffs = ([0.0, rng.standard_normal((grid.node_count, 3))],
                  [0.0, rng.standard_normal((grid.node_count, 3, 3))])
        history = [SimState.zeros(grid)] + [field_state(grid, t, coeffs) for t in (1.0, 2.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert extrapolate(history, 1e200) is None
            assert extrapolate(history, 3.0) is not None

    @staticmethod
    def gradient_ramp():
        grid = Grid.unit_cube(4)
        D = np.zeros((3, 3))
        D[0, 2] = 1.0
        cfg = SolverConfig(tol_outer=1e-11, tol_cg=1e-11, tol_fista=1e-10)
        prob = DiscreteProblem(grid, BoundaryConfig(("zmin", "zmax")), KIN, D, cfg)
        a_y = PARAMS.sigma_y / (np.sqrt(2) * PARAMS.mu)
        loads = [LoadStep(float(k + 1), float(a)) for k, a in enumerate(np.linspace(0, 5 * a_y, 8)[1:])]
        history = [SimState.zeros(grid)]
        for load in loads[:5]:
            history.append(time_step(prob, history[-1], load)[0])
        return prob, history, loads[5]

    @staticmethod
    def assert_same_state(a, b, tol=1e-9):
        for name in ("u", "p", "gamma"):
            x, y = getattr(a, name).values, getattr(b, name).values
            assert np.max(np.abs(x - y)) <= tol * np.max(np.abs(y)), name

    def test_good_guess_is_taken_and_saves_iterations(self):
        prob, history, load = self.gradient_ramp()
        ref, ref_rep = time_step(prob, history[-1], load)
        assert ref_rep.active_node_fraction > 0.0 and not ref_rep.started_from_guess
        state, rep = time_step(prob, history[-1], load, extrapolate(history, load.level))
        assert rep.started_from_guess
        assert rep.fista_iterations < ref_rep.fista_iterations
        self.assert_same_state(state, ref)

    def test_bad_guess_still_reaches_the_solution(self):
        # the step functional is strictly convex: a poor start costs
        # iterations, not accuracy
        prob, history, load = self.gradient_ramp()
        ref, _ = time_step(prob, history[-1], load)
        good = extrapolate(history, load.level)
        bad = SimState(good.u, TensorField(5.0 * good.p.values), good.gamma, good.t)
        state, rep = time_step(prob, history[-1], load, bad)
        assert rep.started_from_guess
        self.assert_same_state(state, ref)

    def test_guess_is_the_start_with_no_solve_before_the_plastic_solve(self, monkeypatch):
        prob, history, load = self.gradient_ramp()
        calls = []
        for name in ("solve_u", "objective", "solve_p"):
            def recorded(*args, name=name, real=getattr(prob, name)):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(prob, name, recorded)
        _, rep = time_step(prob, history[-1], load, extrapolate(history, load.level))
        assert rep.started_from_guess and calls[0] == "solve_p"


class TestStressRecoveries:
    @pytest.mark.parametrize("tag, boundary", [
        ("kin_spin", BoundaryConfig(("zmin", "zmax"))),
        ("iso_irrot", full_dirichlet()),
    ])
    def test_full_space_recovery_matches_reduced_residual(self, tag, boundary):
        # the nodal generalized stress written to the CSV and VTK output and
        # the reduced residual certified by KKT and the VI probes are one stress
        grid = Grid.unit_cube(3)
        shear = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        prob = DiscreteProblem(grid, boundary, ModelVariant(tag, PARAMS), shear, TIGHT)
        state, report = time_step(prob, SimState.zeros(grid), LoadStep(1.0, 0.02))
        assert report.active_node_fraction > 0.0
        U = state.u.values.reshape(-1)
        c = prob.basis.to_reduced(state.p.values.reshape(-1))
        r_hat = prob.smooth_residual_reduced(U[prob.free], c, prob.step_load(U, np.zeros_like(U)))
        sig_e = eshelby_stress(grid, prob.variant, state.u, state.p)
        got = prob.basis.to_reduced(sig_e.reshape(-1) * prob.blocks.m_lump)
        assert np.abs(got - r_hat).max() <= 1e-12 * np.abs(r_hat).max()


def vi_residual_per_probe(prob, U, c, c_prev, gamma_prev, F, probes, rng, r_hat=None):
    """The certificate with every probe drawn and scored on its own: the
    reference for DiscreteProblem.vi_residual's blocked scoring."""
    S_up = prob.blocks.assemble(prob.blocks.terms["K_up"], 3, prob.basis)
    K_uu = prob.blocks.assemble(prob.blocks.terms["K_uu"], 3)
    r_u = (np.asarray(K_uu @ U) + np.asarray(S_up @ c) - F)[prob.free]
    if r_hat is None:
        r_hat = prob.smooth_residual_reduced(U[prob.free], c, prob.step_load(U, F))
    r_p = -r_hat
    dc = c - c_prev
    j0 = prob.dissipation_value(dc, gamma_prev)
    size = max(weighted_norm(dc, prob.w_seg), 1e-8)
    nf = int(prob.free.sum())
    m = prob.basis.size
    directions = [(np.zeros(nf), -dc), (np.zeros(nf), dc.copy())]
    for _ in range(probes):
        dv = rng.standard_normal(nf)
        dq = rng.standard_normal(m)
        nrm = np.sqrt(dv @ dv + dq @ dq)
        if nrm > 0:
            dv *= size / nrm
            dq *= size / nrm
        directions.append((dv, dq))
    worst = np.inf
    for dv, dq in directions:
        lin = float(r_u @ dv) + float(r_p @ dq)
        jq = prob.dissipation_value(dc + dq, gamma_prev)
        viol = lin + jq - j0
        scale = abs(lin) + jq + j0 + 1e-300
        worst = min(worst, viol / scale)
    return float(worst)


def vi_case(name):
    """(problem, U, c, c_prev, gamma_prev, F) after a solved step on a 3^3 grid."""
    grid = Grid.unit_cube(3)
    a = 3 * PARAMS.sigma_y / (np.sqrt(2) * PARAMS.mu)
    if name == "micromorphic":
        prob = DiscreteProblem(grid, BoundaryConfig(("zmin",)), ModelVariant("micromorphic", PARAMS),
                               None, SolverConfig(tol_cg=1e-12))
        loads = [LoadStep(1.0, 0.0, (0.0, 0.0, -5.0))]
    elif name == "kin_spin_micro_hard":
        D = np.zeros((3, 3))
        D[0, 2] = 1.0
        prob = DiscreteProblem(grid, BoundaryConfig(("zmin", "zmax")), KIN, D, TIGHT)
        loads = [LoadStep(1.0, a), LoadStep(2.0, 2 * a)]
    else:
        var = ModelVariant("iso_irrot", MaterialParams(mu=80.0, lam=110.0, k2=0.4, sigma_y=0.3))
        prob = DiscreteProblem(grid, full_dirichlet(), var, SHEAR01, TIGHT)
        loads = [LoadStep(1.0, a), LoadStep(2.0, 2 * a)]
    prev = state = SimState.zeros(grid)
    for load in loads:
        prev = state
        state, _ = time_step(prob, prev, load)
    U = state.u.values.reshape(-1)
    c = prob.basis.to_reduced(state.p.values.reshape(-1))
    c_prev = prob.basis.to_reduced(prev.p.values.reshape(-1))
    F = prob.blocks.body_force_vector(loads[-1].body_force)
    return prob, U, c, c_prev, prev.gamma.values, F


@pytest.fixture(scope="module", params=["kin_spin_micro_hard", "iso_irrot", "micromorphic"])
def solved_step(request):
    return vi_case(request.param)


class TestVIResidual:
    @pytest.mark.parametrize("probes", [0, 1, 64, 65, 130])
    def test_blocks_match_per_probe_reference(self, solved_step, probes):
        prob, U, c, c_prev, gamma_prev, F = solved_step
        rng_ref, rng = np.random.default_rng(17), np.random.default_rng(17)
        want = vi_residual_per_probe(prob, U, c, c_prev, gamma_prev, F, probes, rng_ref)
        got = prob.vi_residual(U[prob.free], c, c_prev, gamma_prev, prob.step_load(U, F),
                               probe_blocks(prob, rng, probes))
        assert abs(got - want) <= 1e-14
        # the same number of draws: the next probe set starts at the same place
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_peak_memory_does_not_grow_with_probe_count(self):
        prob, U, c, c_prev, gamma_prev, F = vi_case("iso_irrot")
        load = prob.step_load(U, F)
        r_hat = prob.smooth_residual_reduced(U[prob.free], c, load)

        def peak(probes):
            tracemalloc.start()
            try:
                blocks = probe_blocks(prob, np.random.default_rng(0), probes)
                prob.vi_residual(U[prob.free], c, c_prev, gamma_prev, load, blocks, r_hat)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(1000) <= 2 * peak(64)

    def test_step_without_a_pool_scores_on_the_calling_thread(self, monkeypatch):
        # a library call of time_step starts no thread
        grid = Grid.unit_cube(2)
        prob = DiscreteProblem(grid, full_dirichlet(), KIN, SHEAR01, SolverConfig(vi_probes=130))
        score, seen = DiscreteProblem.vi_residual, []

        def recording_score(*args):
            seen.append((threading.current_thread(), threading.active_count()))
            return score(*args)

        monkeypatch.setattr(DiscreteProblem, "vi_residual", recording_score)
        before = threading.active_count()
        _, rep = time_step(prob, SimState.zeros(grid), LoadStep(1.0, 0.01))
        assert isinstance(rep.vi_residual, float)
        assert seen == [(threading.current_thread(), before)]


class TestMicromorphic:
    def test_monolithic_solve_and_microbalance(self):
        grid = Grid.unit_cube(3)
        var = ModelVariant("micromorphic", PARAMS)
        bc = BoundaryConfig(("zmin",))
        cfg = SolverConfig(tol_cg=1e-12)
        prob = DiscreteProblem(grid, bc, var, None, cfg)
        state, rep = time_step(prob, SimState.zeros(grid), LoadStep(1.0, 0.0, (0.0, 0.0, -5.0)))
        assert rep.dissipation_functional == 0.0
        assert np.all(state.gamma.values == 0.0)
        F = prob.blocks.body_force_vector((0.0, 0.0, -5.0))
        c = prob.basis.to_reduced(state.p.values.reshape(-1))
        S_up = prob.blocks.assemble(prob.blocks.terms["K_up"], 3, prob.basis)
        r_p = np.asarray(S_up.T @ state.u.values.reshape(-1)) + np.asarray(prob.A_hat @ c)
        assert np.linalg.norm(r_p) <= 1e-9 * np.linalg.norm(F[prob.free])
        assert np.abs(state.p.values).max() > 0.0
