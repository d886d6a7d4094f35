import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import CountingOperator, traced_peak

from curlplast import solver
from curlplast.grid import (
    FACES,
    BoundaryConfig,
    Grid,
    ScalarField,
    TensorField,
    VectorField,
    build_blocks,
    dirichlet_mask,
    lame_inverse,
    transposed,
)
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
            got = zn * ISO.shrink(tau, g0)(zn)

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
            quad = 0.5 * np.einsum("ij,ij->i", x @ A, x) - x @ b
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
        # every field of the step load, both residuals and the objective
        # formed from it (J_g included) equal their full-space forms
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
        u_f = U[prob.free]
        wants = (-(S_up.T @ U) - prob.A_hat @ c, (K_uu @ U + S_up @ c - F)[prob.free])  # r_hat, r_u
        for got, want in zip(prob.residuals(u_f, c, load), wants):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        smooth = 0.5 * U @ (K_uu @ U) + U @ (S_up @ c) + 0.5 * c @ (prob.A_hat @ c) - F @ U
        J, dissipation = prob.objective(u_f, c, c_prev, gamma_prev, load,
                                        prob.K_ff @ u_f, prob.S_pf @ u_f, prob.A_hat @ c)
        assert J - dissipation == pytest.approx(smooth, rel=1e-13)


def solved_u(prob, u_f, c, load):
    """The free displacement that solve_u gives at c, from u_f, to tol_cg."""
    disp = prob.displacement(u_f, c, load)
    prob.solve_u(disp, c, load, prob.config.tol_cg)
    return disp.u_f


def solved_p(prob, U, c_prev, load):
    """solve_p's (c, (FISTA, CG iterations)) from c_prev and the free part of U, at zero gamma."""
    disp = prob.displacement(U[prob.free], c_prev, load)
    return prob.solve_p(disp, c_prev, c_prev, np.zeros(prob.grid.node_count), load)


class TestSolveU:
    def test_affine_reproduction_exact(self):
        grid = Grid.unit_cube(3)
        prob = DiscreteProblem(grid, full_dirichlet(), KIN, SHEAR01, TIGHT)
        U = prob.lift(2.5e-3)
        U[prob.free] = solved_u(prob, U[prob.free], np.zeros(prob.basis.size), prob.step_load(U, np.zeros_like(U)))
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
        U[prob.free] = solved_u(prob, U[prob.free], np.zeros(prob.basis.size), prob.step_load(U, F))
        assert np.max(np.abs(U - U_star)) < 1e-10 * np.abs(U_star).max()

    def test_zero_right_hand_side_gives_a_zero_state(self):
        # b = 0 gives u_f = 0 with no CG step, from any start, and S_pf u_f
        # follows u_f
        prob = DiscreteProblem(Grid.unit_cube(3), BoundaryConfig(("zmin", "zmax")), KIN, None, TIGHT)
        load = prob.step_load(np.zeros(3 * prob.grid.node_count), np.zeros(3 * prob.grid.node_count))
        z = np.zeros(prob.basis.size)
        disp = prob.displacement(np.random.default_rng(2).standard_normal(prob.K_ff.shape[0]), z, load)
        assert disp.S_u.any() and prob.solve_u(disp, z, load, TIGHT.tol_cg) == 0
        assert not (disp.u_f.any() or disp.r.any() or disp.S_u.any())

    def test_cg_contract(self):
        grid = Grid.unit_cube(2)
        prob = DiscreteProblem(grid, BoundaryConfig(("zmin",)), KIN, None, TIGHT)
        rng = np.random.default_rng(8)
        b = rng.standard_normal(prob.K_ff.shape[0])
        x, _ = prob.pcg(prob.K_ff.dot, b, np.zeros_like(b), 1e-10, 10000, prob.lame_ff)
        assert np.linalg.norm(b - prob.K_ff @ x) <= 1e-10 * np.linalg.norm(b)

    def test_cg_nan_operator_fails_fast(self):
        grid = Grid.unit_cube(2)
        prob = DiscreteProblem(grid, BoundaryConfig(("zmin",)), KIN, None, TIGHT)
        A = prob.K_ff.copy()
        A.data[:] = np.nan
        b = np.ones(A.shape[0])
        with pytest.raises(NoConvergence) as err:
            prob.pcg(A.dot, b, np.zeros_like(b), 1e-10, 20000, prob.lame_ff)
        assert err.value.iterations <= 1

    def test_cg_overflowing_right_hand_side_fails_fast(self):
        # every entry is finite, but the norm of b overflows
        grid = Grid.unit_cube(2)
        prob = DiscreteProblem(grid, BoundaryConfig(("zmin",)), KIN, None, TIGHT)
        b = np.full(prob.K_ff.shape[0], 1e308)
        with pytest.raises(NoConvergence) as err, warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # fails fast without a warning
            prob.pcg(prob.K_ff.dot, b, np.zeros_like(b), 1e-10, 20000, prob.lame_ff)
        assert err.value.what == "conjugate gradients" and err.value.iterations == 0


    def test_given_start_residual_gives_the_same_bits(self):
        prob = DiscreteProblem(Grid.unit_cube(3), BoundaryConfig(("zmin",)), KIN, None, TIGHT)
        b, x0 = np.random.default_rng(11).standard_normal((2, prob.K_ff.shape[0]))
        want, want_its = prob.pcg(prob.K_ff.dot, b, x0, 1e-10, 1000, prob.lame_ff)
        r0 = b - prob.K_ff @ x0
        x, its = prob.pcg(prob.K_ff.dot, b, x0, 1e-10, 1000, prob.lame_ff, r0)
        assert its == want_its > 0 and np.array_equal(x, want)
        # r0 is now the recurrence's residual of the returned x
        assert np.linalg.norm(r0 - (b - prob.K_ff @ x)) <= 1e-12 * np.linalg.norm(b)

    def test_maxiter_exit_leaves_the_true_residual_in_r0(self):
        # with maxiter the count a solve needs, the loop ends without testing
        # its last step, and the exit forms b - A x
        prob = DiscreteProblem(Grid.unit_cube(3), BoundaryConfig(("zmin",)), KIN, None, TIGHT)
        b, x0 = np.random.default_rng(12).standard_normal((2, prob.K_ff.shape[0]))
        _, needed = prob.pcg(prob.K_ff.dot, b, x0, 1e-10, 1000, prob.lame_ff)
        r0 = b - prob.K_ff @ x0
        x, its = prob.pcg(prob.K_ff.dot, b, x0, 1e-10, needed, prob.lame_ff, r0)
        assert its == needed and np.array_equal(r0, b - prob.K_ff @ x)

    def test_warm_start_that_meets_tol_is_returned_as_a_copy(self):
        # tested before anything else: no preconditioner, a new array, and
        # r0, when given, still the start's residual
        prob = DiscreteProblem(Grid.unit_cube(3), BoundaryConfig(("zmin",)), KIN, None, TIGHT)
        b = np.random.default_rng(13).standard_normal(prob.K_ff.shape[0])
        x0, _ = prob.pcg(prob.K_ff.dot, b, np.zeros_like(b), 1e-12, 1000, prob.lame_ff)
        kept = x0.copy()

        def unreachable(r, out):
            raise AssertionError("preconditioner applied to a start that meets tol")

        for r0 in (None, b - prob.K_ff @ x0):
            start_residual = None if r0 is None else r0.copy()
            x, its = prob.pcg(prob.K_ff.dot, b, x0, 1e-10, 1000, unreachable, r0)
            assert its == 0 and x is not x0 and not np.shares_memory(x, x0)
            assert np.array_equal(x, kept) and np.array_equal(x0, kept)
            if r0 is not None:
                assert np.array_equal(r0, start_residual)


class TestLamePreconditioner:
    @pytest.mark.parametrize("grid", [Grid.unit_cube(6), Grid.unit_cube(10), Grid.unit_cube(16),
                                      Grid((5, 7, 9), (0.3, 0.2, 0.13)), Grid((10, 14, 18), (0.15, 0.1, 0.065))],
                             ids=["6^3", "10^3", "16^3", "5x7x9", "10x14x18"])
    def test_solve_iterations_do_not_grow_with_the_grid(self, grid):
        # a K_ff solve of a random right-hand side from zero to 1e-10; Jacobi
        # took 60, 98 and 157 iterations on the cubes with two faces.  The
        # count follows how well the faces hold the body, not h: with one
        # face it is 32-36 on the cubes and 34-37 on 5x7x9 (35-39 refined)
        bl = build_blocks(grid, PARAMS)
        K_uu = bl.assemble(bl.terms["K_uu"], 3)
        counts = []
        for faces in [("zmin", "zmax")] + [(f,) for f in FACES]:
            free = ~dirichlet_mask(grid, BoundaryConfig(faces))
            K_ff = K_uu[free][:, free]
            b = np.random.default_rng(0).standard_normal(K_ff.shape[0])
            x, its = DiscreteProblem.pcg(K_ff.dot, b, np.zeros_like(b), 1e-10, 1000, lame_inverse(bl, faces))
            assert np.linalg.norm(b - K_ff @ x) <= 1e-10 * np.linalg.norm(b)
            counts.append(its)
        assert counts[0] <= 35 and max(counts[1:]) <= 40

    def test_converged_warm_start_applies_no_preconditioner(self):
        prob = DiscreteProblem(Grid.unit_cube(2), BoundaryConfig(("zmin",)), KIN, None, TIGHT)
        b = np.random.default_rng(3).standard_normal(prob.K_ff.shape[0])
        x, _ = prob.pcg(prob.K_ff.dot, b, np.zeros_like(b), 1e-12, 1000, prob.lame_ff)

        def unreachable(r, out):
            raise AssertionError("preconditioner applied to a converged start")

        again, its = prob.pcg(prob.K_ff.dot, b, x, 1e-10, 1000, unreachable)
        assert its == 0 and np.array_equal(again, x)


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
        c, _ = solved_p(prob, U, z, prob.step_load(U, np.zeros_like(U)))
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
        c, _ = solved_p(prob, U, z, prob.step_load(U, np.zeros_like(U)))
        assert np.all(c == 0.0)

    def test_no_force_no_motion(self):
        grid = Grid.unit_cube(2)
        prob = DiscreteProblem(grid, full_dirichlet(), KIN, SHEAR01, TIGHT)
        z = np.zeros(prob.basis.size)
        U = np.zeros(3 * grid.node_count)
        c, its = solved_p(prob, U, z, prob.step_load(U, U))
        assert np.all(c == 0.0)

    def test_elastic_below_yield(self):
        grid = Grid.unit_cube(2)
        prob = DiscreteProblem(grid, full_dirichlet(), KIN, SHEAR01, TIGHT)
        a = 0.3 * PARAMS.sigma_y / (np.sqrt(2) * PARAMS.mu)
        U = prob.lift(a)
        z = np.zeros(prob.basis.size)
        c, _ = solved_p(prob, U, z, prob.step_load(U, np.zeros_like(U)))
        assert np.all(c == 0.0)


def prox_per_point(prob, x, c_prev, tau, gamma_prev):
    """Reference of DiscreteProblem.prox_reduced: the nodewise prox with the
    shrink's threshold, drag and scale formed anew at every point."""
    d = x - c_prev
    n = prob.basis.node_norms(d)
    h = prob.variant.drag
    m = np.maximum(0.0, (n - tau * prob.variant.params.sigma_y - tau * h * np.asarray(gamma_prev)) / (1.0 + tau * h))
    factor = np.where(n > 0.0, m / np.maximum(n, 1e-300), 0.0)
    return c_prev + d * prob.basis.scatter_per_node(factor)


class TestProxReduced:
    @pytest.mark.parametrize("tag, micro_hard, nodes", [
        ("kin_spin", FACES, "some empty"),  # corner and edge nodes hold no coordinates
        ("kin_spin", ("zmin", "zmax"), "all held"),  # not all the same number
        ("iso_spin", ("zmin",), "all held"),
        ("iso_irrot", (), "uniform"),
        ("kin_irrot", ("xmin", "ymax"), "some empty"),
    ])
    def test_shrink_formed_once_gives_the_per_point_bits(self, tag, micro_hard, nodes):
        grid = Grid.unit_cube(3)
        prob = DiscreteProblem(grid, BoundaryConfig(FACES, micro_hard), ModelVariant(tag, PARAMS))
        basis, rng = prob.basis, np.random.default_rng(21)
        dims = basis.dims()
        assert nodes == ("uniform" if dims.min() == dims.max() else "all held" if dims.min() > 0 else "some empty")
        assert (prob.variant.drag > 0.0) == tag.startswith("iso")
        tau = 0.37 / prob.lipschitz()
        threshold = tau * PARAMS.sigma_y
        # one node's increment is zero and one's lies exactly on the
        # threshold, its gamma_prev zero; the others fall inside and outside
        zero, tie = np.flatnonzero(dims > 0)[:2]
        at_tie = slice(basis.offsets[tie], basis.offsets[tie + 1])
        gamma_prev = rng.uniform(0.0, 0.02, grid.node_count)
        gamma_prev[tie] = 0.0
        c_prev = rng.standard_normal(basis.size)
        c_prev[at_tie] = 0.0
        shrink = prob.variant.shrink(tau, gamma_prev)  # formed once for every point
        for scale in (0.1, 1.0, 10.0):
            d = rng.standard_normal(basis.size) * scale * threshold
            d[basis.offsets[zero]:basis.offsets[zero + 1]] = 0.0
            d[at_tie] = 0.0
            d[basis.offsets[tie]] = threshold
            x = c_prev + d
            assert basis.node_norms(x - c_prev)[zero] == 0.0 and basis.node_norms(x - c_prev)[tie] == threshold
            want = prox_per_point(prob, x, c_prev, tau, gamma_prev)
            got = prob.prox_reduced(x, c_prev, shrink)
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


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
        ok, bad = (prob.vi_residual(*prob.residuals(U[prob.free], x, load), x - c_prev, prev.gamma.values)
                   for x in (c, 1.1 * c))
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


class TestProductsPerStep:
    """One dissipative step of the 4^3 gradient problem, with micro-hard z faces."""

    @staticmethod
    def plastic_step(prob, on_solve_u):
        """One plastic step from rest; on_solve_u(args, its, inner) sees every
        solve_u call once it returns, inner telling whether solve_p made it."""
        real_u, real_p, inside = prob.solve_u, prob.solve_p, []

        def solve_u(*args):
            result = real_u(*args)
            on_solve_u(args, result, bool(inside))
            return result

        def solve_p(*args):
            inside.append(True)
            try:
                return real_p(*args)
            finally:
                inside.pop()

        prob.solve_u, prob.solve_p = solve_u, solve_p
        a_y = PARAMS.sigma_y / (np.sqrt(2) * PARAMS.mu)
        _, rep = time_step(prob, SimState.zeros(prob.grid), LoadStep(1.0, 3 * a_y))
        assert rep.active_node_fraction > 0.0 and rep.outer_iterations >= 2
        return rep

    @staticmethod
    def problem():
        D = np.zeros((3, 3))
        D[0, 2] = 1.0
        cfg = SolverConfig(tol_outer=1e-11, tol_cg=1e-11, tol_fista=1e-10)
        return DiscreteProblem(Grid.unit_cube(4), BoundaryConfig(("zmin", "zmax")), KIN, D, cfg)

    def test_each_product_is_made_once_per_iterate_and_pass(self):
        prob = self.problem()
        prob.lipschitz()  # the power iteration's A_hat products, made once per problem
        ops = {name: CountingOperator(getattr(prob, name)) for name in ("K_ff", "S_f", "S_pf", "A_hat")}
        for name, op in ops.items():
            setattr(prob, name, op)
        solves, inner = [], []

        def count(args, its, is_inner):
            solves.append(its)
            if is_inner:
                inner.append(its)

        rep = self.plastic_step(prob, count)
        passes = rep.outer_iterations
        assert 0 in inner and max(inner) > 0  # both kinds of inner solve occur
        # one true start residual for the step's Displacement and one per
        # pass test, which the next pass starts from
        assert ops["K_ff"].count <= rep.cg_iterations + passes + 1
        # one S_pf u_f for the Displacement, and one per solve that took a CG
        # step, inner or recovery
        assert ops["S_pf"].count == 1 + sum(its > 0 for its in solves)
        # one S_f c for the Displacement, and one per solve but the first
        # inner one of each pass, which is at the state's own point
        assert ops["S_f"].count == 1 + len(solves) - passes
        # r_hat takes the last pass's products and makes none
        assert ops["A_hat"].count == rep.fista_iterations + passes

    def test_carried_residual_stays_true(self):
        prob = self.problem()
        K_ff, worst = prob.K_ff, []

        def check(args, its, is_inner):
            disp = args[0]
            true = disp.b - K_ff @ disp.u_f
            nb = np.linalg.norm(disp.b)
            assert np.linalg.norm(disp.r - true) <= 1e-12 * nb
            worst.append(np.linalg.norm(true) / (args[3] * nb))

        self.plastic_step(prob, check)
        assert len(worst) > 20 and max(worst) <= 1.0

    def test_state_is_at_the_point_of_every_solve(self):
        # after every solve the Displacement is at the solve's c, and its b
        # and S_pf u_f are the bits of the products at its point
        prob = self.problem()
        S_f, S_pf, seen = prob.S_f, prob.S_pf, []

        def check(args, its, is_inner):
            disp, c, load = args[:3]
            assert disp.c is c
            assert np.array_equal(disp.b, load.f_u - S_f @ c)
            assert np.array_equal(disp.S_u, S_pf @ disp.u_f)
            seen.append(its)

        self.plastic_step(prob, check)
        assert 0 in seen and max(seen) > 0


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
        r_hat, _ = prob.residuals(U[prob.free], c, prob.step_load(U, np.zeros_like(U)))
        sig_e = eshelby_stress(grid, prob.variant, state.u, state.p)
        got = prob.basis.to_reduced(sig_e.reshape(-1) * prob.blocks.m_lump)
        assert np.abs(got - r_hat).max() <= 1e-12 * np.abs(r_hat).max()


def probe_scores_reference(prob, U, c, c_prev, gamma_prev):
    """The scores of the probes -dc, dc and T(c) - c at the state (U, c), each
    formed on its own from full-space fields: the residual from Blocks.apply
    of the coupling and the plastic form on U and on PBasis.to_full(c), the
    gradient-mapping step T(c) - c = (f - 1) dc + f t W^-1 r_hat from the
    full nodal tensors, f being the prox's factor ModelVariant.shrink at
    each node's Frobenius norm of dc + t W^-1 r_hat, and each dissipation
    from the full tensors' norms; the reference for
    DiscreteProblem.probe_scores."""
    blocks, basis, variant = prob.blocks, prob.basis, prob.variant
    form = blocks.form(K_pp_el=1.0, **variant.form_weights)
    r_hat = -basis.to_reduced(blocks.apply(transposed(blocks.terms["K_up"]), U) + blocks.apply(form, basis.to_full(c)))
    dc = c - c_prev
    t = 1.0 / prob.lipschitz()
    stress = r_hat / prob.w_seg
    dc_full, step = (basis.to_full(x).reshape(-1, 3, 3) for x in (dc, t * stress))
    f = variant.shrink(t, gamma_prev)(norm(dc_full + step))[:, None, None]
    d = basis.to_reduced(((f - 1.0) * dc_full + f * step).reshape(-1))  # T(c) - c

    def dissipation(x):
        return float(variant.dissipation(norm(basis.to_full(x).reshape(-1, 3, 3)), gamma_prev) @ prob.w_node)

    radius = variant.dissipation_weights(gamma_prev)[0]
    floor = solver.VI_FLOOR * t * (weighted_norm(stress, prob.w_seg) + weighted_norm(radius, prob.w_node)) ** 2
    j0, scores = dissipation(dc), []
    for q in (-dc, dc, d):
        lin, jq = -float(r_hat @ q), dissipation(dc + q)
        scores.append((lin + jq - j0) / (abs(lin) + jq + j0 + floor + 1e-300))
    return np.array(scores)


def vi_case(name, cells=3):
    """(problem, U, c, c_prev, gamma_prev, F, state_prev, load) after a solved
    step on a cells^3 grid, state_prev and load being that step's inputs."""
    grid = Grid.unit_cube(cells)
    a = 3 * PARAMS.sigma_y / (np.sqrt(2) * PARAMS.mu)
    if name == "micromorphic":
        prob = DiscreteProblem(grid, BoundaryConfig(("zmin",)), ModelVariant("micromorphic", PARAMS),
                               None, SolverConfig(tol_cg=1e-12))
        loads = [LoadStep(1.0, 0.0, (0.0, 0.0, -5.0))]
    elif name == "iso_spin_body_force":
        # the micromorphic case's loading on a dissipative variant: its
        # scores weigh magnitudes, where micromorphic's zero dissipation
        # weights leave each score the sign of its linear term
        prob = DiscreteProblem(grid, BoundaryConfig(("zmin",)), ISO, None, TIGHT)
        loads = [LoadStep(1.0, 0.0, (0.0, 0.0, -2.5)), LoadStep(2.0, 0.0, (0.0, 0.0, -5.0))]
    elif name in ("kin_spin_micro_hard", "kin_spin_corner"):
        # the corner case's micro-hard xmin, ymin and zmin leave five node
        # types, one of them (the edge and corner nodes') with no coordinates
        D = np.zeros((3, 3))
        D[0, 2] = 1.0
        hard = ("xmin", "ymin", "zmin") if name == "kin_spin_corner" else None
        prob = DiscreteProblem(grid, BoundaryConfig(("zmin", "zmax"), hard), KIN, D, TIGHT)
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
    return prob, U, c, c_prev, prev.gamma.values, F, prev, loads[-1]


@pytest.fixture(scope="module", params=["kin_spin_micro_hard", "kin_spin_corner", "iso_irrot",
                                                "iso_spin_body_force", "micromorphic"])
def solved_step(request):
    return vi_case(request.param)


def perturbed(prob, load, u_f, c, size, seed):
    """(u_f, c) with c moved by a relative w-norm error of size in a direction
    drawn from seed, and u_f re-solved there."""
    g = np.random.default_rng(seed).standard_normal(c.size)
    c = c + g * (size * weighted_norm(c, prob.w_seg) / weighted_norm(g, prob.w_seg))
    u_f, _ = prob.pcg(prob.K_ff.dot, load.f_u - prob.S_f @ c, u_f, 1e-14, 20000, prob.lame_ff)
    return u_f, c


class TestVIResidual:
    @pytest.mark.parametrize("probes", [0, 1, 64, 65, 130])
    def test_blocks_match_per_probe_reference(self, solved_step, probes, monkeypatch):
        # probe_scores forms the three scores as one block; the reference forms
        # each probe on its own from full-space fields, at the solution and
        # 1e-3 away from it, where the gradient-mapping probe is far from zero
        prob, U, c, c_prev, gamma_prev, F, prev, step = solved_step
        load = prob.step_load(U, F)
        u_f = U[prob.free]
        worst = []
        for x_u, x in ((u_f, c), perturbed(prob, load, u_f, c, 1e-3, 11)):
            X = U.copy()
            X[prob.free] = x_u
            want = probe_scores_reference(prob, X, x, c_prev, gamma_prev)
            r_hat, r_u = prob.residuals(x_u, x, load)
            got = prob.probe_scores(r_hat, x - c_prev, gamma_prev)
            assert got.shape == (3,) and np.abs(got - want).max() <= 1e-14
            assert prob.vi_residual(r_hat, r_u, x - c_prev, gamma_prev) == got.min()
            worst.append(want.min())
        # the step itself at vi_probes = probes: the same solution, and a
        # certificate of its own residual, the same for every positive count
        # and none at 0 or where the variant has no inequality
        monkeypatch.setattr(prob, "config", replace(prob.config, vi_probes=probes))
        state, rep = time_step(prob, prev, step)
        assert np.array_equal(state.u.values.reshape(-1), U)
        if probes == 0 or not prob.variant.has_dissipation:
            assert rep.vi_residual is None
        else:
            assert abs(rep.vi_residual - worst[0]) <= 1e-12

    def test_probes_without_unknowns_score_zero(self):
        # a 1^3 grid with every face Dirichlet and micro-hard has no free
        # displacement and no plastic coordinate: every probe is empty, and
        # the certificate reads 0.0 without a warning
        grid = Grid.unit_cube(1)
        prob = DiscreteProblem(grid, BoundaryConfig(FACES, FACES), KIN, SHEAR01, SolverConfig(vi_probes=130))
        assert prob.K_ff.shape[0] == prob.basis.size == 0
        empty = np.zeros(0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, rep = time_step(prob, SimState.zeros(grid), LoadStep(1.0, 0.01))
            scores = prob.probe_scores(empty, empty, np.zeros(grid.node_count))
        assert rep.vi_residual == 0.0
        assert scores.tolist() == [0.0, 0.0, 0.0]

    def test_roundoff_increment_passes_the_gate(self, monkeypatch):
        # an elastic unloading step keeps c = c_prev; c_prev round-tripped
        # through to_full and to_reduced differs from it by roundoff, which
        # the floor keeps above the gate, and which reads far below it without
        var = ModelVariant("iso_irrot", MaterialParams(mu=80.0, lam=110.0, k2=0.4, sigma_y=0.3))
        grid = Grid.unit_cube(3)
        prob = DiscreteProblem(grid, full_dirichlet(), var, SHEAR01, TIGHT)
        a = PARAMS.sigma_y / (np.sqrt(2) * PARAMS.mu)
        prev, _ = time_step(prob, SimState.zeros(grid), LoadStep(1.0, 3 * a))
        state, rep = time_step(prob, prev, LoadStep(2.0, 2.5 * a))
        assert rep.active_node_fraction == 0.0
        c_prev = prob.basis.to_reduced(prev.p.values.reshape(-1))
        c = prob.basis.to_reduced(prob.basis.to_full(c_prev))
        assert 0.0 < np.abs(c - c_prev).max() <= 1e-15 * np.abs(c_prev).max()
        U = state.u.values.reshape(-1)
        residuals = prob.residuals(U[prob.free], c, prob.step_load(U, np.zeros_like(U)))
        assert prob.vi_residual(*residuals, c - c_prev, prev.gamma.values) >= -1e-8
        monkeypatch.setattr(solver, "VI_FLOOR", 0.0)
        assert prob.vi_residual(*residuals, c - c_prev, prev.gamma.values) < -1e-8

    def test_handed_over_residuals_score_as_its_own(self, solved_step):
        # time_step hands the certificate its last pass's residual
        # -(f_u - S_f c - K_ff u_f) as r_u, which differs from residuals' by
        # roundoff; no probe has a displacement part, so r_u changes nothing
        prob, U, c, c_prev, gamma_prev, F, *_ = solved_step
        load, u_f = prob.step_load(U, F), U[prob.free]
        r_hat, r_u = prob.residuals(u_f, c, load)
        handed = -((load.f_u - prob.S_f @ c) - prob.K_ff @ u_f)
        own, *others = (prob.vi_residual(r_hat, r, c - c_prev, gamma_prev) for r in (r_u, handed, np.zeros_like(r_u)))
        assert others == [own, own]

    def test_peak_memory_does_not_grow_with_probe_count(self):
        # any positive vi_probes switches the certificate on: the largest
        # count gives the step of one probe, at no more memory
        grid = Grid.unit_cube(3)
        peaks, reports = [], []
        for probes in (1, solver.VI_PROBES_MAX):
            prob = DiscreteProblem(grid, full_dirichlet(), KIN, SHEAR01, SolverConfig(vi_probes=probes))
            prob.lipschitz()
            peaks.append(traced_peak(lambda: reports.append(time_step(prob, SimState.zeros(grid), LoadStep(1.0, 0.01)))))
        assert reports[0][1] == reports[1][1] and isinstance(reports[0][1].vi_residual, float)
        assert peaks[1] <= 1.05 * peaks[0]

    def test_step_without_a_pool_scores_on_the_calling_thread(self, monkeypatch):
        # a library call of time_step starts no thread: a certified step
        # scores here, and a certified, an uncertified and a micromorphic
        # step make every A_hat product here
        grid = Grid.unit_cube(2)
        score, seen = DiscreteProblem.vi_residual, []

        def recording_score(*args):
            seen.append((threading.current_thread(), threading.active_count()))
            return score(*args)

        monkeypatch.setattr(DiscreteProblem, "vi_residual", recording_score)
        before = threading.active_count()
        for variant, probes in ((KIN, 130), (KIN, 0), (ModelVariant("micromorphic", PARAMS), 0)):
            prob = DiscreteProblem(grid, full_dirichlet(), variant, SHEAR01, SolverConfig(vi_probes=probes))
            prob.A_hat = CountingOperator(prob.A_hat)
            _, rep = time_step(prob, SimState.zeros(grid), LoadStep(1.0, 0.01))
            assert isinstance(rep.vi_residual, float) if probes else rep.vi_residual is None
            assert prob.A_hat.count > 0 and set(prob.A_hat.threads) == {threading.current_thread().name}
            assert threading.active_count() == before
        assert seen == [(threading.current_thread(), before)]


def detection_case(name):
    """(problem, step load, u_f, c, c_prev, gamma_prev, LoadStep, state_prev) of a solved,
    partly or fully active step on a 4^3 grid."""
    grid = Grid.unit_cube(4)
    a = PARAMS.sigma_y / (np.sqrt(2) * PARAMS.mu)
    D = np.zeros((3, 3))
    D[0, 2] = 1.0
    # shear on the z faces alone: free side faces leave a field that is not
    # homogeneous, which a loose p iteration does not reach in a few steps
    var = KIN if name == "kin_spin" else ModelVariant("iso_irrot", MaterialParams(mu=80.0, lam=110.0, k2=0.4,
                                                                                 sigma_y=0.3))
    prob = DiscreteProblem(grid, BoundaryConfig(("zmin", "zmax")), var, D, TIGHT)
    prev, _ = time_step(prob, SimState.zeros(grid), LoadStep(1.0, 2 * a))
    load = LoadStep(2.0, 4 * a)
    state, rep = time_step(prob, prev, load)
    assert rep.active_node_fraction > 0.0
    U = state.u.values.reshape(-1)
    c, c_prev = (prob.basis.to_reduced(s.p.values.reshape(-1)) for s in (state, prev))
    return prob, prob.step_load(U, np.zeros_like(U)), U[prob.free], c, c_prev, prev.gamma.values, load, prev


@pytest.fixture(scope="module", params=["kin_spin", "iso_irrot"])
def detection_step(request):
    return detection_case(request.param)


class TestVIDetection:
    """The certificate detects a step that is not its minimizer, and passes the minimizer."""

    def test_true_solution_passes(self, detection_step):
        prob, load, u_f, c, c_prev, gamma_prev, _, _ = detection_step
        assert prob.vi_residual(*prob.residuals(u_f, c, load), c - c_prev, gamma_prev) >= -1e-12

    def test_perturbed_solution_is_detected(self, detection_step):
        # a relative w-norm error of 1e-4 with the displacement re-solved
        prob, load, u_f, c, c_prev, gamma_prev, _, _ = detection_step
        u_f, c = perturbed(prob, load, u_f, c, 1e-4, 3)
        assert prob.vi_residual(*prob.residuals(u_f, c, load), c - c_prev, gamma_prev) < 0.0

    def test_early_stop_is_detected(self, detection_step):
        # the same step re-solved with tol_fista = 1e-3 and the default pass
        # tolerances: it reads -6e-6 and -5e-11, where the solution reads
        # 1e-16 at most in magnitude
        prob, *_, step, prev = detection_step
        loose = DiscreteProblem(prob.grid, prob.boundary, prob.variant, prob.dirichlet_matrix,
                                SolverConfig(tol_fista=1e-3, vi_probes=1))
        _, rep = time_step(loose, prev, step)
        assert rep.vi_residual < 0.0


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


class TestProductWorker:
    """Every A_hat product of a step is made on the thread that calls
    time_step, and a step starts no thread."""

    def test_failing_product_raises_in_the_step(self):
        # the A_hat product of the first gradient fails on the calling thread
        grid = Grid.unit_cube(2)
        prob = DiscreteProblem(grid, BoundaryConfig(("zmin", "zmax")), KIN, SHEAR01)
        prob.lipschitz()
        made = []

        class Failing:
            def __matmul__(self, v):
                made.append((threading.current_thread(), threading.active_count()))
                raise MemoryError("Unable to allocate 3.20 GiB for an array")

        prob.A_hat = Failing()
        before = threading.active_count()
        with pytest.raises(MemoryError, match="3.20 GiB"):
            time_step(prob, SimState.zeros(grid), LoadStep(1.0, 0.05))
        assert made == [(threading.current_thread(), before)]
        assert threading.active_count() == before

    def test_step_after_a_failed_one_makes_each_product_here(self):
        # the inner CG of the first gradient fails; the next step makes one
        # A_hat product per FISTA gradient and one per pass, each on the
        # calling thread, and equals a repeat of itself
        grid = Grid.unit_cube(2)
        bc = BoundaryConfig(("zmin", "zmax"))
        failing = DiscreteProblem(grid, bc, KIN, SHEAR01, SolverConfig(tol_cg=1e-16, max_cg=2))
        prob = DiscreteProblem(grid, bc, KIN, SHEAR01)
        prob.lipschitz()  # the power iteration's products, made once per problem
        prob.A_hat = CountingOperator(prob.A_hat)
        load = LoadStep(1.0, 0.05)
        before = threading.active_count()
        with pytest.raises(NoConvergence) as info:
            time_step(failing, SimState.zeros(grid), load)
        assert info.value.what == "conjugate gradients"
        state, report = time_step(prob, SimState.zeros(grid), load)
        assert threading.active_count() == before
        assert prob.A_hat.count == report.fista_iterations + report.outer_iterations
        assert set(prob.A_hat.threads) == {threading.current_thread().name}
        want_state, want = time_step(prob, SimState.zeros(grid), load)
        assert report == want
        for got, ref in zip((state.u, state.p, state.gamma), (want_state.u, want_state.p, want_state.gamma)):
            assert np.array_equal(got.values, ref.values)
