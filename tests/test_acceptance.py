"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the whole module is sized for a couple of minutes on a laptop.
"""

import time

import numpy as np
import pytest
from gauss_reference import discrete_curl, reduced_reference, skewgrad_curl_form, tau_p_microforce

from curlplast.grid import (
    FACES,
    BoundaryConfig,
    Grid,
    ScalarField,
    TensorField,
    VectorField,
)
from curlplast.korn import KornProblem, estimate_min_quotient, korn_quotient
from curlplast.models import (
    ModelVariant,
    SimState,
    eshelby_stress,
    sigma_nodal,
    total_energy,
)
from curlplast.oracles import (
    PolyTensorField,
    microstress_identity_check,
    radial_return_0d,
    symbolic_curl,
)
from curlplast.solver import DiscreteProblem, LoadStep, SolverConfig, probe_blocks, time_step
from curlplast.tensors import MaterialParams, cross_matrix, dev, skew, sym

MU, LAM, SY = 80.0, 110.0, 0.3
A_YIELD = SY / (np.sqrt(2.0) * MU)  # uniform shear amplitude at first yield
SHEAR_XY = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
SHEAR_XZ = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])

TIGHT = SolverConfig(tol_outer=1e-14, tol_cg=1e-13, tol_fista=1e-12)


def _report(num, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d}: {label}" + (f"  ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {label} {detail}"


# ---------------------------------------------------------------------------
# criteria 1 and 2 share the homogeneous load-reverse cycle


@pytest.fixture(scope="module")
def homogeneous_cycle():
    params = MaterialParams(mu=MU, lam=LAM, k1=0.5, Lc=0.0, sigma_y=SY)
    variant = ModelVariant("kin_spin", params)
    grid = Grid((2, 2, 2), (0.5, 0.5, 0.5))
    boundary = BoundaryConfig(FACES, micro_hard_faces=())
    problem = DiscreteProblem(grid, boundary, variant, SHEAR_XY, TIGHT)
    up = np.linspace(0.0, 3.0 * A_YIELD, 21)[1:]
    amps = np.concatenate([up, np.linspace(3.0 * A_YIELD, -1.5 * A_YIELD, 21)[1:]])
    assert len(amps) == 40
    t0 = time.perf_counter()
    state = SimState.zeros(grid)
    states = []
    for k, a in enumerate(amps):
        state, _ = time_step(problem, state, LoadStep(float(k + 1), float(a)))
        states.append(state)
    elapsed = time.perf_counter() - t0
    oracle = radial_return_0d(params, [a * sym(SHEAR_XY) for a in amps], "kin")
    return dict(grid=grid, params=params, amps=amps, states=states,
                oracle=oracle, elapsed=elapsed)


def test_criterion_01_oracle_equivalence(homogeneous_cycle):
    run = homogeneous_cycle
    grid, params = run["grid"], run["params"]
    sig_scale = max(np.linalg.norm(s) for s, _, _ in run["oracle"])
    ep_scale = max(np.linalg.norm(e) for _, e, _ in run["oracle"])
    worst = 0.0
    for state, (sig_o, ep_o, _) in zip(run["states"], run["oracle"]):
        sig = sigma_nodal(grid, params, state.u, state.p)
        worst = max(worst, np.max(np.abs(sig - sig_o)) / sig_scale)
        worst = max(worst, np.max(np.abs(sym(state.p.values) - ep_o)) / ep_scale)
    ok = worst <= 1e-8 and run["elapsed"] <= 5.0
    _report(1, "pointwise-update equivalence over a 40-step shear cycle", ok,
            f"max rel err {worst:.2e}, {run['elapsed']:.2f}s")


def test_criterion_02_symmetry_preservation(homogeneous_cycle):
    worst = 0.0
    for state in homogeneous_cycle["states"]:
        p = state.p.values
        pmax = np.abs(p).max()
        if pmax > 0:
            worst = max(worst, np.abs(skew(p)).max() / pmax)
    _report(2, "plastic distortion stays symmetric without a length scale",
            worst <= 1e-10, f"max |skew p| / max |p| = {worst:.2e}")


# ---------------------------------------------------------------------------
# criteria 3, 4, 5 share the gradient-plasticity run on the 6^3 grid


@pytest.fixture(scope="module")
def gradient_run():
    params = MaterialParams(mu=MU, lam=LAM, k1=0.5, Lc=0.2, sigma_y=SY)
    variant = ModelVariant("kin_spin", params)
    grid = Grid((6, 6, 6), (1 / 6, 1 / 6, 1 / 6))
    boundary = BoundaryConfig(("zmin", "zmax"))  # micro-hard on the driven faces
    config = SolverConfig(tol_outer=1e-11, tol_cg=1e-11, tol_fista=1e-10, vi_probes=1000)
    problem = DiscreteProblem(grid, boundary, variant, SHEAR_XZ, config)
    amps = np.linspace(0.0, 6.0 * A_YIELD, 25)[1:]
    state = SimState.zeros(grid)
    steps = []
    for k, a in enumerate(amps):
        prev = state
        state, report = time_step(problem, state, LoadStep(float(k + 1), float(a)))
        steps.append((prev, state, report))
    return dict(problem=problem, steps=steps, grid=grid, variant=variant)


def test_criterion_03_dissipation_inequality(gradient_run):
    steps = gradient_run["steps"]
    plastic = sum(1 for _, _, rep in steps if rep.active_node_fraction > 0)
    worst = 0.0
    cumulative, prev_cum = 0.0, 0.0
    monotone = True
    for _, _, rep in steps:
        scale = max(rep.energy.magnitude(), 1e-300)
        worst = min(worst, rep.dissipation_increment / scale)
        cumulative += rep.dissipation_functional
        monotone &= cumulative >= prev_cum
        prev_cum = cumulative
    ok = plastic >= 20 and worst >= -1e-10 and monotone
    _report(3, "per-step dissipation nonnegative, cumulative nondecreasing", ok,
            f"{plastic} plastic steps, worst normalized pairing {worst:.2e}")


def test_criterion_04_kkt_complementarity(gradient_run):
    worst_r = max(rep.kkt_max_violation for _, _, rep in gradient_run["steps"])
    worst_a = max(rep.kkt_max_misalignment for _, _, rep in gradient_run["steps"])
    ok = worst_r <= 1e-6 and worst_a <= 1e-6
    _report(4, "nodal complementarity and flow alignment at every step", ok,
            f"max radius violation {worst_r:.2e} sigma_y, max misalignment {worst_a:.2e} rad")


def test_criterion_05_variational_inequality_residual(gradient_run):
    problem = gradient_run["problem"]
    worst = min(rep.vi_residual for _, _, rep in gradient_run["steps"])
    prev, state, _ = gradient_run["steps"][-1]
    U = state.u.values.reshape(-1)
    c = problem.basis.to_reduced(state.p.values.reshape(-1))
    c_prev = problem.basis.to_reduced(prev.p.values.reshape(-1))
    F = np.zeros(3 * gradient_run["grid"].node_count)
    control = problem.vi_residual(U[problem.free], 1.1 * c, c_prev, prev.gamma.values,
                                  problem.step_load(U, F), probe_blocks(problem, np.random.default_rng(17), 1000))
    ok = worst >= -1e-8 and control < -1e-8
    _report(5, "incremental inequality holds; perturbed state detected", ok,
            f"worst probe {worst:.2e}, negative control {control:.2e}")


def test_criterion_06_korn_structure():
    t0 = time.perf_counter()
    lam4 = estimate_min_quotient(KornProblem(Grid.unit_cube(4), FACES), 1e-7)
    lam8 = estimate_min_quotient(KornProblem(Grid.unit_cube(8), FACES), 1e-7)
    grid = Grid.unit_cube(4)
    P = TensorField(np.tile(cross_matrix([0.7, -0.3, 1.1]), (grid.node_count, 1, 1)))
    q0 = korn_quotient(KornProblem(grid), P)
    elapsed = time.perf_counter() - t0
    # conforming estimates converge from above; change measured against the
    # first (coarse) estimate
    change = abs(lam4 - lam8) / lam4
    ok = lam4 > 0 and lam8 > 0 and change < 0.5 and q0 == 0.0 and elapsed <= 60.0
    _report(6, "coercivity eigenvalue positive and stable; no-BC kernel exact", ok,
            f"lam4 {lam4:.4f}, lam8 {lam8:.4f}, change {change:.1%}, "
            f"skew quotient {q0!r}, {elapsed:.1f}s")


def test_criterion_07_euclidean_invariance():
    params = MaterialParams(mu=MU, lam=LAM, k1=0.5, Lc=0.2, sigma_y=SY)
    variant = ModelVariant("kin_spin", params)
    grid = Grid((3, 3, 3), (1 / 3, 1 / 3, 1 / 3))
    rng = np.random.default_rng(23)
    scale = 1e-3
    u = VectorField(rng.standard_normal((grid.node_count, 3)) * scale)
    p = TensorField(dev(rng.standard_normal((grid.node_count, 3, 3)) * scale))
    state = SimState(u, p, ScalarField.zeros(grid), 0.0)
    e0 = total_energy(grid, variant, state)
    coords = grid.node_coords()
    worst = 0.0
    for _ in range(100):
        A = cross_matrix(rng.standard_normal(3) * scale)
        b = rng.standard_normal(3) * scale
        shifted = SimState(VectorField(state.u.values + coords @ A.T + b),
                           TensorField(state.p.values + A), state.gamma, 0.0)
        e1 = total_energy(grid, variant, shifted)
        worst = max(worst, abs(e1.total - e0.total))
    rel = worst / e0.magnitude()
    _report(7, "superposed infinitesimal rotations leave the energy unchanged",
            rel <= 1e-12, f"max rel change {rel:.2e} over 100 probes")


def test_criterion_08_identity_suite():
    # curl of the interpolated gradient of a quadratic vanishes at the Gauss
    # points: v = (x1^2 + x2 x3, -x1 x2 + x2^2, x1 x3 + x2 x3 + x1 + 2 x2)
    grid = Grid.unit_cube(3)
    x = grid.node_coords()
    G = np.zeros((grid.node_count, 3, 3))
    G[:, 0, 0] = 2 * x[:, 0]
    G[:, 0, 1] = x[:, 2]
    G[:, 0, 2] = x[:, 1]
    G[:, 1, 0] = -x[:, 1]
    G[:, 1, 1] = -x[:, 0] + 2 * x[:, 1]
    G[:, 2, 0] = x[:, 2] + 1.0
    G[:, 2, 1] = x[:, 2] + 2.0
    G[:, 2, 2] = x[:, 0] + x[:, 1]
    d1 = np.max(np.abs(discrete_curl(grid, TensorField(G))))

    # pointwise inner-product identity between the curl and the skew gradient
    rng = np.random.default_rng(29)
    pts = rng.uniform(-1, 1, (25, 3))
    X = PolyTensorField.random(rng, degree=3)
    Y = PolyTensorField.random(rng, degree=3)
    cx, cy = symbolic_curl(X)(pts), symbolic_curl(Y)(pts)
    lhs = np.einsum("nij,nij->n", cx, cy)
    GX = np.empty((len(pts), 3, 3, 3))
    GY = np.empty((len(pts), 3, 3, 3))
    for i, j, k in np.ndindex(3, 3, 3):
        GX[:, i, j, k] = X.entries[i, j].diff(k)(pts)
        GY[:, i, j, k] = Y.entries[i, j].diff(k)(pts)
    rhs = 2.0 * sum(np.einsum("nab,nab->n", skew(GX[:, i]), GY[:, i]) for i in range(3))
    d2 = np.max(np.abs(lhs - rhs)) / (np.abs(lhs).max() + 1.0)

    # microstress divergence identity on 20 random quadratic fields
    params = MaterialParams(mu=MU, lam=LAM, Lc=0.3)
    d3 = 0.0
    for _ in range(20):
        F = PolyTensorField.random(rng, degree=2, symmetric=True, trace_free=True)
        r1, r2 = microstress_identity_check(params, F, rng=rng)
        d3 = max(d3, r1, r2)
    ok = d1 <= 1e-12 and d2 <= 1e-12 and d3 <= 1e-12
    _report(8, "curl-gradient, inner-product and microstress identities", ok,
            f"residuals {d1:.1e} / {d2:.1e} / {d3:.1e}")


def test_criterion_09_micromorphic_microbalance():
    params = MaterialParams(mu=MU, lam=LAM, k1=0.5, Lc=0.2, sigma_y=SY)
    variant = ModelVariant("micromorphic", params)
    grid = Grid((6, 6, 6), (1 / 6, 1 / 6, 1 / 6))
    boundary = BoundaryConfig(("zmin",))
    problem = DiscreteProblem(grid, boundary, variant, None, SolverConfig(tol_cg=1e-12))
    body = (0.0, 0.0, -8.0)
    state, _ = time_step(problem, SimState.zeros(grid), LoadStep(1.0, 0.0, body))
    F = problem.blocks.body_force_vector(body)
    c = problem.basis.to_reduced(state.p.values.reshape(-1))
    S_up = problem.blocks.assemble(problem.blocks.terms["K_up"], 3, problem.basis)
    r_p = np.asarray(S_up.T @ state.u.values.reshape(-1)) + np.asarray(problem.A_hat @ c)
    rel = np.linalg.norm(r_p) / np.linalg.norm(F[problem.free])
    _report(9, "monolithic solve satisfies the microbalance weakly",
            rel <= 1e-9, f"residual {rel:.2e} of the load norm")


def test_criterion_10_rate_independence():
    params = MaterialParams(mu=MU, lam=LAM, k1=0.5, Lc=0.2, sigma_y=SY)
    variant = ModelVariant("kin_spin", params)
    grid = Grid.unit_cube(4)
    boundary = BoundaryConfig(FACES, micro_hard_faces=())
    problem = DiscreteProblem(grid, boundary, variant, SHEAR_XY, TIGHT)

    def run(nsteps):
        state = SimState.zeros(grid)
        out = {}
        for a in np.linspace(0.0, 5.0 * A_YIELD, nsteps + 1)[1:]:
            state, _ = time_step(problem, state, LoadStep(float(a), float(a)))
            out[round(float(a), 14)] = state
        return out

    coarse, fine = run(6), run(12)
    su = max(np.abs(s.u.values).max() for s in coarse.values())
    sp = max(np.abs(s.p.values).max() for s in coarse.values())
    worst = 0.0
    for lvl, st in coarse.items():
        st2 = fine[lvl]
        worst = max(worst,
                    np.abs(st.u.values - st2.u.values).max() / su,
                    np.abs(st.p.values - st2.p.values).max() / sp)
    _report(10, "halved increments reproduce the states of a monotone program",
            worst <= 1e-8, f"max rel diff {worst:.2e}")


def test_criterion_11_formulation_parity():
    params = MaterialParams(mu=MU, lam=LAM, k2=0.4, Lc=0.25, sigma_y=SY)
    grid = Grid.unit_cube(4)
    boundary = BoundaryConfig(("zmin", "zmax"))
    amps = np.linspace(0.0, 5.0 * A_YIELD, 9)[1:]
    variant = ModelVariant("iso_irrot", params)

    def trajectory(problem):
        state = SimState.zeros(grid)
        out = []
        for k, a in enumerate(amps):
            state, _ = time_step(problem, state, LoadStep(float(k + 1), float(a)))
            out.append(state)
        return out

    # defect form from the discrete curl, assembled by the package
    problem = DiscreteProblem(grid, boundary, variant, SHEAR_XZ, TIGHT)
    # defect form from the microforce pairing, assembled and reduced at the
    # Gauss points
    swapped = DiscreteProblem(grid, boundary, variant, SHEAR_XZ, TIGHT)
    swapped.A_hat, _ = reduced_reference(grid, variant, swapped.basis, skewgrad_curl_form(grid))
    # the two operators differ in roundoff, so a swap that reaches the solver
    # moves the trajectory by a small nonzero amount
    swap_diff = abs(swapped.A_hat - problem.A_hat).max()
    direct = trajectory(problem)
    balance = trajectory(swapped)
    sp = max(np.abs(s.p.values).max() for s in direct)
    su = max(np.abs(s.u.values).max() for s in direct)
    worst = 0.0
    for a, b in zip(direct, balance):
        worst = max(worst,
                    np.abs(a.p.values - b.p.values).max() / sp,
                    np.abs(a.u.values - b.u.values).max() / su,
                    np.abs(a.gamma.values - b.gamma.values).max() / max(a.gamma.values.max(), 1e-300))
    # the deviatoric microstress from the balance equals dev sym of the
    # generalized stress along the trajectory
    final = direct[-1]
    tau = tau_p_microforce(grid, variant, final.u, final.p)
    ref = dev(sym(eshelby_stress(grid, variant, final.u, final.p)))
    tau_err = np.max(np.abs(tau - ref)) / max(np.abs(ref).max(), 1e-300)
    ok = swap_diff > 0.0 and 0.0 < worst <= 1e-10 and tau_err <= 1e-10
    _report(11, "irrotational model and microforce formulation coincide", ok,
            f"A_hat diff {swap_diff:.2e}, trajectory diff {worst:.2e}, microstress identification {tau_err:.2e}")
