"""Implicit stepping of the incremental variational inequality.

Each load step minimizes the jointly convex functional

    J(u, p) = 1/2 a((u,p),(u,p)) - <load, u> + sum_j w_j D_inc(p_j - p_j^prev)

in the step's unknowns (u_f, c), the free displacement and the reduced
plastic coordinates.  The prescribed displacement and the body force enter J
only through the ReducedLoad that DiscreteProblem.step_load forms once per
step: a linear load on u_f and on c, and a constant.  u_f enters J through
one linear solve with the free displacement block K_ff, so it is eliminated
and an accelerated proximal-gradient (FISTA) iteration runs on the reduced
functional c -> min_u J(u_f, c), whose smooth part has the Schur complement
S = A_hat - S_pf K_ff^-1 S_f as its operator.  Each gradient at y is
A_hat y + S_pf u_f - f_p, where u_f solves K_ff u_f = f_u - S_f y by
DiscreteProblem.solve_u, which makes every displacement solve: a
warm-started conjugate gradient, preconditioned by the exact inverse of each
component's Lame diagonal block of K_ff (grid.lame_inverse, fast
diagonalization on the free box), so that its iteration count does not grow
with the grid; here to a tolerance that tightens with the FISTA step
(Schmidt, Le Roux & Bach, "Convergence rates of inexact proximal-gradient
methods", NIPS 2011).  A_hat, K_ff and
S_f are the only sparse matrices DiscreteProblem stores, each assembled
straight into CSR on the coordinates its products use; S_pf is a view of
S_f.  The step functional is strictly convex, so it has one minimizer,
which moves continuously with the load: a step may start from any guess,
such as one extrapolated from the previous steps, and the start changes only
the work.  The nonsmooth term is the lumped (nodal) quadrature of the
one-homogeneous dissipation, so its proximal map is an exact per-node
shrinkage by ModelVariant.shrink; the time-step size cancels and steps are
parameterized by load increments.

The p iteration runs in the lumped-mass metric: gradients are divided by
the nodal weights and the shrinkage threshold becomes uniform across nodes,
which both preconditions the iteration and keeps the prox closed-form.
A dissipative step carries its displacement in one Displacement: u_f at a
plastic point c, with b = f_u - S_f c, the CG's residual r of u_f and
S_pf u_f, formed once from the step's start.  solve_u moves it to a new c
by one S_f c, which changes r by the change of b, solves there by one K_ff
product per CG step, and re-forms S_pf u_f only after a CG step.  Each p
iteration makes one prox, one A_hat y and one such solve at y; the first
is at the state's own point and moves nothing.  A pass makes, besides its
recovery solve, one K_ff u_f and one A_hat c: the true residual, which the
pass tests and the next pass starts from, J, and r_hat = f_p - S_pf u_f -
A_hat c, which the step's checks take with r_u = -r.  The p iteration
stops on the gradient-mapping residual of the step it has just taken.
S <= A_hat in the Loewner order, so the step 1/L(A_hat) is safe for the
reduced functional too.

vi_residual certifies a step's inequality along three admissible probes,
with no operator product and no random draw: the canonical pair +/- dc and
the gradient-mapping direction T(c) - c, T being one step of the p
iteration from the solution, which is zero only at the minimizer and
violates the inequality everywhere else.  Every product and every
certificate is made on the thread that calls time_step, so the package
starts no thread.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import isfinite, prod, sqrt
from typing import NamedTuple

import numpy as np

from .grid import (
    BoundaryConfig,
    Grid,
    ScalarField,
    TensorField,
    VectorField,
    build_blocks,
    build_p_basis,
    dirichlet_mask,
    lame_inverse,
    transposed,
)
from .models import EnergySplit, ModelVariant, SimState, total_energy
from .tensors import norm as frob_norm


class NoConvergence(RuntimeError):
    """An iteration that stopped short of its tolerance, or on a non-finite value.

    history holds the last RESIDUAL_HISTORY residuals of the iteration,
    oldest first; the message leaves them out.
    """

    def __init__(self, what, iterations, residual, tol, history=()):
        super().__init__(f"{what} did not converge in {iterations} iterations (residual {residual:.3e}, tol {tol:.3e})")
        self.what = what
        self.iterations = iterations
        self.residual = residual
        self.tol = tol
        self.history = tuple(history)[-RESIDUAL_HISTORY:]


class InfeasibleBC(ValueError):
    """Dirichlet data is not finite or not representable on the grid."""


# 30 power iterations approach lambda_max from below; the margin measured
# 1.08-1.10x lambda_max on 4^3-8^3 grids
LIPSCHITZ_SAFETY = 1.1

# The VI score's absolute floor, relative to the energy of one gradient step
# at the step's scale (DiscreteProblem.probe_scores).  A violation below
# 1e-8 VI_FLOOR of that energy is roundoff and cannot fail the -1e-8 gate
# alone: the 8.7e-19 increment that a round trip through PBasis.to_full and
# to_reduced leaves on an elastic step of the 6^3 load-reverse cycle reads
# -1.7e-10, and -1.0 without the floor
VI_FLOOR = 1e-6

# Residuals an iteration keeps, one bounded append per iteration, for the
# NoConvergence it may raise
RESIDUAL_HISTORY = 5

# Largest vi_probes a scenario may give.  Any positive count switches the
# certificate on and costs the same; the bound keeps the range that earlier
# versions, which drew that many random probes, validated
VI_PROBES_MAX = 10 ** 6

# Inner displacement solves of the reduced p iteration: the first gradient
# of a solve_p call is solved to tol_cg; later ones to
# max(tol_cg, min(INNER_TOL_CAP, INNER_TOL_FACTOR * ||y_k - y_k-1||_w / ||y_k||_w)),
# errors that shrink with the FISTA steps
INNER_TOL_FACTOR = 0.1
INNER_TOL_CAP = 1e-3


@dataclass(frozen=True)
class SolverConfig:
    tol_outer: float = 1e-10
    tol_cg: float = 1e-10
    tol_fista: float = 1e-9
    max_outer: int = 200
    max_cg: int = 20000
    max_fista: int = 100000
    vi_probes: int = 0  # any positive count switches the certificate on (vi_residual)
    seed: int = 0  # still validated and written to canonical text; it changes nothing

    def __post_init__(self):
        for name in ("tol_outer", "tol_cg", "tol_fista"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("max_outer", "max_cg", "max_fista"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        for name in ("vi_probes", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.vi_probes > VI_PROBES_MAX:
            raise ValueError(f"vi_probes must be at most {VI_PROBES_MAX}")


@dataclass(frozen=True)
class LoadStep:
    """One entry of the load program: pseudo-time level and actual loading."""

    level: float
    amplitude: float = 0.0
    body_force: tuple[float, float, float] = (0.0, 0.0, 0.0)


@dataclass
class StepReport:
    energy: EnergySplit
    dissipation_increment: float  # discrete pairing of the generalized stress with dp
    dissipation_functional: float  # sigma_y * integral |dp|, the dissipated work
    vi_residual: float | None  # None when the step certifies nothing
    kkt_max_violation: float
    kkt_max_misalignment: float
    active_node_fraction: float
    outer_iterations: int
    cg_iterations: int
    fista_iterations: int
    objective: float
    # worst relative rise of J from one pass to the next; the confirming pass
    # starts from the returned c, so anything above roundoff is an uphill move
    objective_increase: float = 0.0
    # the step started from the caller's guess, not from the previous state
    started_from_guess: bool = False


class ReducedLoad(NamedTuple):
    """The fixed data of one load step: in its unknowns (u_f, c) the smooth part of J is
    1/2 u_f' K_ff u_f + c' S_pf u_f + 1/2 c' A_hat c - f_u' u_f - f_p' c + J_g."""

    f_u: np.ndarray  # F_f - (K_uu U_p)_f, U_p the prescribed part of U
    f_p: np.ndarray  # -B' K_up' U_p
    J_g: float  # 1/2 U_p' K_uu U_p - F' U_p
    u_scale: float  # max(||F_f||, ||(K_uu U_p)_f||), the fixed part of the pass test's displacement scale


@dataclass(slots=True, eq=False)
class Displacement:
    """The free displacement u_f of a load step at a plastic point c, as its solves leave it:
    DiscreteProblem.displacement makes one, and each solve_u moves it to its c and solves there."""

    u_f: np.ndarray
    c: np.ndarray
    b: np.ndarray  # f_u - S_f c
    r: np.ndarray  # b - K_ff u_f, up to the roundoff of the CG recurrence that keeps it
    S_u: np.ndarray  # S_pf u_f


def prox_dissipation(variant: ModelVariant, z, tau, gamma_prev=0.0):
    """Proximal map of tau * D_inc on 3x3 tensors: z scaled by
    ModelVariant.shrink at its norm (ties at the threshold give 0)."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    z = np.asarray(z, dtype=float)
    return z * variant.shrink(tau, gamma_prev)(frob_norm(z))[..., None, None]


def weighted_norm(x, w):
    """sqrt(x' diag(w) x), the norm of the lumped-mass metric."""
    return float(np.sqrt(x @ (w * x))) if x.size else 0.0


def accelerated_prox_gradient(gradient, w, prox, c0, step, tol, maxiter, scale_floor=0.0):
    """Accelerated proximal-gradient iteration in the diagonal metric w.

    prox maps a point to the exact minimizer of the nonsmooth term plus half
    the squared w-distance scaled by the step.  Each iteration makes one
    gradient and one prox, the prox-gradient step c_new = T(y) from the
    extrapolated point y, and restarts the momentum when it points uphill.
    It returns c_new once the gradient-mapping residual of that step meets
    ||c_new - y||_w <= tol * max(||c_new||_w, scale_floor).  By the prox
    optimality condition, w (y - T(y)) / step + grad f(T(y)) - grad f(y) is a
    subgradient of the objective at T(y), so 0 is within (1/step + L)
    ||T(y) - y||_w of the subdifferential, L being the Lipschitz constant of
    grad f in the metric w.  A non-finite residual raises NoConvergence.
    prox may return the vector it is handed, overwritten, or a new one;
    gradient may keep each y, the first being c0 itself.
    """
    c = c0.copy()
    y = c0  # the first gradient is at c0 itself; no y is written in place
    step_w = step / w
    point, taken, taken_w, moved = (np.empty_like(c0) for _ in range(4))
    tk = 1.0
    res = 0.0
    recent = deque(maxlen=RESIDUAL_HISTORY)
    # an iterate that overflows gives a residual that is not finite, which fails below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(maxiter):
            np.multiply(step_w, gradient(y), out=point)
            c_new = prox(np.subtract(y, point, out=point))
            np.subtract(c_new, y, out=taken)
            np.multiply(taken, w, out=taken_w)
            res = float(np.sqrt(taken @ taken_w))
            recent.append(res)
            if not np.isfinite(res):
                raise NoConvergence("proximal gradient", it + 1, res, tol, recent)
            scale = max(weighted_norm(c_new, w), scale_floor)
            if res <= tol * max(scale, 1e-300):
                return c_new, it + 1
            np.subtract(c_new, c, out=moved)
            if float(taken_w @ moved) < 0.0:
                tk = 1.0  # adaptive restart: momentum points uphill
            tk_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
            moved *= (tk - 1.0) / tk_next
            y = c_new + moved
            point, c, tk = c, c_new, tk_next  # the old c takes the next gradient step
    raise NoConvergence("proximal gradient", maxiter, res, tol, recent)


class DiscreteProblem:
    """Assembled, constraint-reduced operators for one variant on one grid.

    Plastic dofs live in reduced coordinates c with p = B c; displacement
    dofs are split into free and prescribed parts by the Dirichlet faces,
    which prescribe all three components of their nodes.  Each operator is
    assembled once, straight into CSR in the coordinates its products use,
    so no full-space block is formed or sliced: A_hat on the reduced
    coordinates; K_ff, the displacement form on the free nodes; and the
    coupling S_f from the reduced coordinates to the free nodes, whose
    transpose S_pf is a CSC view of its arrays.  lame_ff, the
    preconditioner of every K_ff solve, is the exact inverse of each
    component's diagonal block (grid.lame_inverse), built from closed-form
    1D pencils.  step_load applies the term lists to the
    prescribed field; every other method works in the unknowns (u_f, c) and
    takes its step load.
    """

    def __init__(self, grid: Grid, boundary: BoundaryConfig, variant: ModelVariant,
                 dirichlet_matrix=None, config: SolverConfig | None = None):
        self.grid = grid
        self.boundary = boundary
        self.variant = variant
        self.config = config or SolverConfig()

        self.blocks = build_blocks(grid, variant.params)
        self.basis = build_p_basis(grid, boundary.micro_hard_faces, "sym_sl" if variant.symmetric else "sl")
        self.A_hat = self.blocks.assemble(self.blocks.form(K_pp_el=1.0, **variant.form_weights), self.basis)

        self.presc = dirichlet_mask(grid, boundary)
        self.free = ~self.presc
        free = (3, self.free[::3])  # the free nodes, with three components each
        self.K_ff = self.blocks.assemble(self.blocks.terms["K_uu"], free)
        self.S_f = self.blocks.assemble(self.blocks.terms["K_up"], free, self.basis)
        self.S_pf = self.S_f.T  # reduced p-rows, free u-columns: a CSC view of S_f's arrays
        self.lame_ff = lame_inverse(self.blocks, boundary.gamma_faces)

        self.w_node = self.blocks.w_node
        self.w_seg = self.basis.scatter_per_node(self.w_node)
        self.dirichlet_matrix = None if dirichlet_matrix is None else np.asarray(dirichlet_matrix, dtype=float)
        self._coords = grid.node_coords()
        self._lipschitz = None

    # -- boundary data -----------------------------------------------------

    def lift(self, amplitude):
        """Full displacement vector holding the prescribed affine data."""
        U = np.zeros(3 * self.grid.node_count)
        if self.dirichlet_matrix is not None and amplitude != 0.0:
            vals = amplitude * (self._coords @ self.dirichlet_matrix.T)
            if not np.all(np.isfinite(vals)):
                raise InfeasibleBC("Dirichlet data is not finite")
            U = vals.reshape(-1)
        U = np.where(self.presc, U, 0.0)
        return U

    def step_load(self, U, F):
        """ReducedLoad of the prescribed part U_p of U and the body force vector F; the term lists act on U_p."""
        U_p, terms = np.where(self.presc, U, 0.0), self.blocks.terms
        with np.errstate(over="ignore", invalid="ignore"):  # data that overflows fails the first solve
            KU, K_pu_U = self.blocks.apply_all([terms["K_uu"], transposed(terms["K_up"])], U_p)
            f_p = -self.basis.to_reduced(K_pu_U)
            J_g = 0.5 * float(U_p @ KU) - float(F @ U_p)
            u_scale = max(np.linalg.norm(F[self.free]), np.linalg.norm(KU[self.free]))
            return ReducedLoad(F[self.free] - KU[self.free], f_p, J_g, u_scale)

    # -- linear algebra helpers --------------------------------------------

    @staticmethod
    def pcg(matvec, b, x0, tol, maxiter, precond, r0=None):
        """Preconditioned conjugate gradients with warm start.

        matvec(x) is A x, and precond(r, out) writes the preconditioned
        residual into out and returns it.  r0, when given, is b - A x0, which
        the call does not form and keeps, in place, the residual of the
        returned x: the recurrence's, or b - A x after maxiter steps.  A start
        that meets tol is tested first and returned as a copy of x0.  Each step
        makes one product; x, r, z and p are updated in place: p *= beta;
        p += z gives the bits of z + beta * p.
        """
        # a norm or an iterate that overflows is not finite, which fails below
        with np.errstate(over="ignore", invalid="ignore"):
            nb = sqrt(float(b @ b))
            if not isfinite(nb):
                raise NoConvergence("conjugate gradients", 0, nb, tol)
            if nb == 0.0:
                if r0 is not None:
                    np.copyto(r0, b)
                return np.zeros_like(b), 0
            r = b - matvec(x0) if r0 is None else r0
            res = sqrt(float(r @ r))
            if res <= tol * nb:
                return x0.copy(), 0
            x, z, step, p = x0.copy(), np.empty_like(r), np.empty_like(r), None
            recent = deque(maxlen=RESIDUAL_HISTORY)  # relative residuals
            for it in range(maxiter):
                if it:  # the start's residual is tested above
                    res = sqrt(float(r @ r))
                    if res <= tol * nb:
                        return x, it
                recent.append(res / nb)
                if not isfinite(res):
                    raise NoConvergence("conjugate gradients", it, res / nb, tol, recent)
                rz_new = float(r @ precond(r, z))
                if p is None:  # the first direction
                    p = z.copy()
                else:
                    p *= rz_new / rz
                    p += z
                rz = rz_new
                Ap = matvec(p)
                pAp = float(p @ Ap)
                if not (pAp > 0.0 and rz > 0.0):  # no curvature left along p, or roundoff took it
                    raise NoConvergence("conjugate gradients", it, res / nb, tol, recent)
                alpha = rz / pAp
                x += np.multiply(alpha, p, out=step)
                r -= np.multiply(alpha, Ap, out=step)
            np.subtract(b, matvec(x), out=r)
            res = sqrt(float(r @ r)) / nb
        if res <= tol:
            return x, maxiter
        recent.append(res)
        raise NoConvergence("conjugate gradients", maxiter, res, tol, recent)

    def lipschitz(self):
        """Estimate of the largest eigenvalue of the mass-scaled p operator, padded.

        30 power iterations on diag(w_seg)^-1 A_hat approach lambda_max from
        below, so the Rayleigh quotient they end on is a lower estimate, not
        a bound.  It is multiplied by LIPSCHITZ_SAFETY, a margin that covered
        the gap on the grids where it was measured but is not proven to
        cover it; a guaranteed bound is still open.
        """
        if self._lipschitz is None:
            m = self.basis.size
            if m == 0:
                self._lipschitz = 1.0
            else:
                rng = np.random.default_rng(1234)
                v = rng.standard_normal(m)
                # an operator that overflows gives an estimate that is not
                # finite, and the first plastic solve then fails
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    for _ in range(30):
                        v = np.asarray(self.A_hat @ v) / self.w_seg
                        nv = np.linalg.norm(v)
                        if nv == 0.0:
                            break
                        v /= nv
                    Av = np.asarray(self.A_hat @ v)
                    denom = float(v @ (self.w_seg * v))
                    lam = max(float(v @ Av) / denom, 1e-300) if denom > 0 else 1.0
                self._lipschitz = lam * LIPSCHITZ_SAFETY
        return self._lipschitz

    # -- dissipation bookkeeping --------------------------------------------

    def dissipation_value(self, dc, gamma_prev):
        """Lumped-quadrature value of the incremental dissipation functional."""
        return float(self.variant.dissipation(self.basis.node_norms(dc), gamma_prev) @ self.w_node)

    def prox_reduced(self, x, c_prev, shrink):
        """Exact nodewise prox in reduced coordinates (uniform threshold), shrink being a
        ModelVariant.shrink: c_prev + d * shrink(node norms of d), d = x - c_prev, written into d."""
        d = x - c_prev
        d *= self.basis.scatter_per_node(shrink(self.basis.node_norms(d)))
        return np.add(d, c_prev, out=d)

    # -- displacement and plastic solves ---------------------------------------

    def displacement(self, u_f, c, load):
        """The Displacement at (u_f, c): one S_f, one K_ff and one S_pf product."""
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing load fails the first solve
            b = load.f_u - self.S_f @ c
            return Displacement(u_f, c, b, b - self.K_ff @ u_f, np.asarray(self.S_pf @ u_f))

    def solve_u(self, disp, c, load, tol):
        """Solve the Displacement disp, in place, at plastic field c; every displacement solve is one call.

        Unless c is disp.c itself (a point is known by identity, so an array
        changed in place is not a new one), disp moves to c: b = f_u - S_f c,
        one product, and r += b - b_prev.  The CG solve of K_ff u_f = b then
        runs from the warm start u_f, to tol, preconditioned by lame_ff, with
        one K_ff product per CG step, and keeps r.  S_u is re-formed when u_f
        changed: after a CG step, or when b = 0 gave u_f = 0.  Returns the CG
        iterations.
        """
        if c is not disp.c:
            b = self.S_f @ c
            np.subtract(load.f_u, b, out=b)
            disp.r += np.subtract(b, disp.b, out=disp.b)
            disp.c, disp.b = c, b
        disp.u_f, its = self.pcg(self.K_ff.dot, disp.b, disp.u_f, tol, self.config.max_cg, self.lame_ff, disp.r)
        if its or not disp.u_f.any():
            disp.S_u = np.asarray(self.S_pf @ disp.u_f)
        return its

    def solve_p(self, disp, c_prev, c0, gamma_prev, load):
        """Accelerated proximal-gradient solve of the step in c, with u_f eliminated.

        Minimizes c -> min_u_f J(u_f, c) from c0.  Each gradient at an
        extrapolated point y is A_hat y + S_pf u_f - f_p, u_f being the
        solution solve_u leaves in disp at y; the call leaves disp at the
        last y.  The first gradient is at c0 itself, which moves nothing when
        disp is at c0, and meets tol_cg; later ones meet the looser
        INNER_TOL_* schedule.  A gradient makes one A_hat product besides
        solve_u's, and every product is made on the calling thread.  Runs in
        the lumped-mass metric, in which the nodal shrinkage has one uniform
        threshold; the prox is exact per node, its shrink formed once per
        call.  Returns c and the pair (FISTA iterations, inner CG iterations).
        """
        tol_cg, w = self.config.tol_cg, self.w_seg
        t = 1.0 / self.lipschitz()
        # the size of one full gradient step off zero at the entry u_f bounds
        # the minimizer scale; it floors the relative test when the increment
        # is tiny
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing load fails the first solve
            data_scale = t * weighted_norm((disp.S_u - load.f_p) / w, w)
        y_last, cg_its = None, 0

        def gradient(y):
            nonlocal y_last, cg_its
            tol_in = tol_cg
            if y_last is not None:
                move = weighted_norm(y - y_last, w) / max(weighted_norm(y, w), 1e-300)
                tol_in = max(tol_cg, min(INNER_TOL_CAP, INNER_TOL_FACTOR * move))
            y_last = y
            cg_its += self.solve_u(disp, y, load, tol_in)
            g = np.asarray(self.A_hat @ y)
            g += disp.S_u
            return np.subtract(g, load.f_p, out=g)

        shrink = self.variant.shrink(t, gamma_prev)
        c, its = accelerated_prox_gradient(
            gradient, w, lambda z: self.prox_reduced(z, c_prev, shrink), c0, t,
            self.config.tol_fista, self.config.max_fista, max(weighted_norm(c_prev, w), data_scale))
        return c, (its, cg_its)

    # -- functional evaluation ------------------------------------------------

    def objective(self, u_f, c, c_prev, gamma_prev, load, K_u, S_u, A_c):
        """The step functional J at (u_f, c), given K_u = K_ff u_f, S_u = S_pf u_f and A_c = A_hat c, and its
        dissipation term."""
        smooth = (0.5 * float(u_f @ K_u) + float(c @ S_u) + 0.5 * float(c @ A_c)
                  - float(load.f_u @ u_f) - float(load.f_p @ c) + load.J_g)
        dissipation = self.dissipation_value(c - c_prev, gamma_prev)
        return smooth + dissipation, dissipation

    def residuals(self, u_f, c, load):
        """(r_hat, r_u) at (u_f, c): r_hat = f_p - S_pf u_f - A_hat c, the weighted weak generalized stress in
        reduced coordinates, and r_u = K_ff u_f + S_f c - f_u, the free rows of the displacement equation.  A
        step takes both from its last pass; this forms them at any other point."""
        r_hat = load.f_p - np.asarray(self.S_pf @ u_f) - np.asarray(self.A_hat @ c)
        return r_hat, self.K_ff @ u_f + self.S_f @ c - load.f_u

    def kkt_check(self, r_hat, dc, gamma_new, active_tol=1e-12):
        """Discrete complementarity of the flow law at every node.

        r_hat is f_p - S_pf u_f - A_hat c at the solution.  Returns (max radius
        violation / sigma_y, max sine of the flow misalignment, active
        fraction).  The generalized stress is the weak recovery projected on
        each node's admissible subspace, its deviator at unconstrained nodes.
        """
        if not self.variant.has_dissipation:
            return 0.0, 0.0, 0.0
        sy = self.variant.params.sigma_y
        T = r_hat / self.w_seg
        tn = self.basis.node_norms(T)
        dn = self.basis.node_norms(dc)
        radius = self.variant.radius(gamma_new)
        active = dn > active_tol
        viol_in = np.maximum(0.0, tn - radius)[~active]
        viol_ac = np.abs(tn - radius)[active]
        with np.errstate(over="ignore"):  # relative to a subnormal sigma_y the violation may be inf
            worst = max(viol_in.max() / sy if viol_in.size else 0.0,
                        viol_ac.max() / sy if viol_ac.size else 0.0)
        dots = self.basis.node_dots(T, dc)
        with np.errstate(invalid="ignore", divide="ignore"):
            cosang = dots / np.maximum(tn * dn, 1e-300)
        sin2 = np.maximum(0.0, 1.0 - np.minimum(cosang, 1.0) ** 2)
        mis = np.sqrt(sin2[active]).max() if active.any() else 0.0
        if (active & (cosang < 0.0)).any():  # flow against the stress
            mis = 1.0
        return float(worst), float(mis), float(active.mean())

    def probe_scores(self, r_hat, dc, gamma_prev):
        """Normalized violation of the incremental inequality along the probes -dc, dc and T(c) - c.

        r_hat is the residual at a step's solution (u_f, c), as residuals
        gives it, and dc = c - c_prev its increment.  A probe q of the plastic
        coordinates, with no displacement part, violates the inequality by
        viol = -r_hat' q + D(dc + q) - D(dc), D being dissipation_value, and
        scores viol / (|r_hat' q| + D(dc + q) + D(dc) + floor).  Besides the
        canonical pair, q is the gradient-mapping direction T(c) - c, where
        T(c) = prox_t(c + t W^-1 r_hat) is the p iteration's step from c with
        t = 1/lipschitz(), and the prox is solve_p's nodal shrink around
        c_prev: T(c) - c_prev is dc + t W^-1 r_hat shrunk by each node's
        factor f, so T(c) - c = (f - 1) dc + f t W^-1 r_hat, written so that
        it does not cancel dc.  T(c) = c only at the minimizer, and elsewhere
        the prox's optimality gives viol <= -||T(c) - c||_w^2 / t < 0.
        D(dc + q) is evaluated directly, not through the prox.  The floor is
        VI_FLOOR t (||W^-1 r_hat||_w + ||radius||_w)^2, the energy of one
        gradient step at the step's scale; it changes no score's sign.
        """
        t = 1.0 / self.lipschitz()
        stress = r_hat / self.w_seg
        step = t * stress
        factor = self.basis.scatter_per_node(self.variant.shrink(t, gamma_prev)(self.basis.node_norms(dc + step)))
        d = (factor - 1.0) * dc + factor * step  # T(c) - c, exactly t W^-1 r_hat where the prox keeps all
        a, _ = self.variant.dissipation_weights(gamma_prev)
        floor = VI_FLOOR * t * (sqrt(float(stress @ r_hat)) + sqrt(float(np.sum(self.w_node * a * a)))) ** 2
        j0 = self.dissipation_value(dc, gamma_prev)
        along = float(r_hat @ dc)
        lin = np.array([along, -along, -float(r_hat @ d)])
        jq = np.array([0.0, self.dissipation_value(2.0 * dc, gamma_prev), self.dissipation_value(dc + d, gamma_prev)])
        return (lin + jq - j0) / (np.abs(lin) + jq + j0 + floor + 1e-300)

    def vi_residual(self, r_hat, r_u, dc, gamma_prev):
        """Worst probe_scores value: nonnegative values up to roundoff certify the minimizer.  r_u, the
        displacement equation's residual, enters no probe: the pass test bounds it."""
        return float(self.probe_scores(r_hat, dc, gamma_prev).min())


def extrapolate(history, level):
    """Lagrange extrapolation of u and p to pseudo-time level, or None.

    history lists states oldest first, the zero state at t = 0 included.
    The polynomial runs through the newest three states of distinct t, or
    two when only two exist; with a single one there is no guess.  gamma is
    the newest state's: a guess is only a starting point, and gamma is not
    part of it.  Levels far apart can overflow the weights; a guess that is
    not finite is no guess.
    """
    nodes = []
    for state in reversed(history):
        if all(state.t != s.t for s in nodes):
            nodes.append(state)
        if len(nodes) == 3:
            break
    if len(nodes) < 2:
        return None
    ts = [s.t for s in nodes]
    with np.errstate(over="ignore", invalid="ignore"):
        weights = [prod((level - tj) / (ti - tj) for tj in ts if tj != ti) for ti in ts]
        u = sum(wt * s.u.values for wt, s in zip(weights, nodes))
        p = sum(wt * s.p.values for wt, s in zip(weights, nodes))
    if not (all(map(isfinite, weights)) and np.isfinite(u).all() and np.isfinite(p).all()):
        return None
    return SimState(VectorField(u), TensorField(p), nodes[0].gamma, level)


def time_step(problem: DiscreteProblem, state_prev: SimState, load: LoadStep, guess: SimState | None = None):
    """Advance one load step; returns the new state and its report.

    The step starts from guess, a state near the step's solution, or else
    from state_prev.  Its functional is strictly convex, so the start
    changes the work and not the minimizer.  Every solve works in (u_f, c)
    on the step's ReducedLoad, formed once, and a dissipative step's solves
    share one Displacement, made at the start.  A dissipative step with
    vi_probes > 0 certifies itself by vi_residual, at its last pass's
    residuals; the count itself changes nothing.  A step without dissipation
    has no inequality to certify and reports no vi_residual.  Everything runs
    on the calling thread.
    """
    cfg = problem.config
    variant = problem.variant
    if not np.all(np.isfinite([load.level, load.amplitude, *load.body_force])):
        raise InfeasibleBC("load step contains non-finite data")

    U = problem.lift(load.amplitude)
    data = problem.step_load(U, problem.blocks.body_force_vector(load.body_force))
    start = state_prev if guess is None else guess
    u_f = start.u.values.reshape(-1)[problem.free]
    c = problem.basis.to_reduced(start.p.values.reshape(-1))
    c_prev = problem.basis.to_reduced(state_prev.p.values.reshape(-1))
    gamma_prev = state_prev.gamma.values
    cg_total = fista_total = 0
    uphill = 0.0

    if not variant.has_dissipation:
        # single monolithic SPD solve replaces the flow law; the joint matrix
        # [[K_ff, S_f], [S_pf, A_hat]] is applied block by block, never formed
        nf = problem.K_ff.shape[0]

        def joint(x):
            x_f, x_c = x[:nf], x[nf:]
            return np.concatenate([problem.K_ff @ x_f + problem.S_f @ x_c, problem.S_pf @ x_f + problem.A_hat @ x_c])

        diagonal = problem.A_hat.diagonal()
        jacobi_c = 1.0 / np.where(diagonal > 0.0, diagonal, 1.0)  # 1 where not positive

        def precond(r, out):
            problem.lame_ff(r[:nf], out[:nf])
            np.multiply(jacobi_c, r[nf:], out=out[nf:])
            return out

        x, cg_total = problem.pcg(joint, np.concatenate([data.f_u, data.f_p]), np.concatenate([u_f, c]), cfg.tol_cg,
                                  cfg.max_cg, precond)
        u_f, c = x[:nf], x[nf:]
        outer = 1
        S_u, A_c = np.asarray(problem.S_pf @ u_f), np.asarray(problem.A_hat @ c)
        J, _ = problem.objective(u_f, c, c_prev, gamma_prev, data, problem.K_ff @ u_f, S_u, A_c)
    else:
        # pass 1 solves the step; pass 2 restarts from its c with an exact
        # first gradient and confirms that J no longer descends
        J_prev = np.inf
        u_scale = None
        recent = deque(maxlen=RESIDUAL_HISTORY)  # (u_res, descent) of the latest passes
        disp = problem.displacement(u_f, c, data)
        for outer in range(1, cfg.max_outer + 1):
            c, (its_p, its_in) = problem.solve_p(disp, c_prev, c, gamma_prev, data)
            its_u = problem.solve_u(disp, c, data, cfg.tol_cg)
            cg_total += its_in + its_u
            fista_total += its_p
            if u_scale is None:
                u_scale = max(data.u_scale, np.linalg.norm(data.f_u - disp.b), 1e-300)  # ||S_f c||
            K_u, A_c = problem.K_ff @ disp.u_f, np.asarray(problem.A_hat @ c)
            # the true residual f_u - S_f c - K_ff u_f: the pass test's, and the next pass's start
            np.subtract(disp.b, K_u, out=disp.r)
            u_res = np.linalg.norm(disp.r) / u_scale
            J, dissipation = problem.objective(disp.u_f, c, c_prev, gamma_prev, data, K_u, disp.S_u, A_c)
            for column, (value, tol) in enumerate(((u_res, cfg.tol_cg), (J, cfg.tol_outer))):
                if not isfinite(value):  # a NaN or Inf never meets the pass test
                    raise NoConvergence("outer passes", outer, value, tol, [*(v[column] for v in recent), value])
            scale_J = abs(J) + dissipation + 1e-300
            if np.isfinite(J_prev):
                uphill = max(uphill, (J - J_prev) / scale_J)
            descent = (J_prev - J) / scale_J  # inf after a single pass
            recent.append((u_res, descent))
            if u_res <= cfg.tol_cg and J_prev - J <= cfg.tol_outer * scale_J:
                break
            J_prev = J
        else:
            # report the criterion that failed, with its latest values
            if u_res > cfg.tol_cg:
                raise NoConvergence("outer passes", cfg.max_outer, u_res, cfg.tol_cg, [u for u, _ in recent])
            raise NoConvergence("outer passes", cfg.max_outer, descent, cfg.tol_outer, [d for _, d in recent])
        u_f, S_u = disp.u_f, disp.S_u

    U[problem.free] = u_f
    dc = c - c_prev
    dn = problem.basis.node_norms(dc)
    # gamma tracks the accumulated plastic multiplier; the micromorphic field
    # is elastic, so nothing accumulates there
    gamma_new = gamma_prev + dn if variant.has_dissipation else gamma_prev
    state = SimState(
        u=VectorField(U.reshape(-1, 3)),
        p=TensorField(problem.basis.to_full(c).reshape(-1, 3, 3)),
        gamma=ScalarField(gamma_new),
        t=load.level,
    )

    r_hat = data.f_p - S_u - A_c
    diss_func = variant.params.sigma_y * float(problem.w_node @ dn) if variant.has_dissipation else 0.0
    kkt_viol, kkt_mis, active = problem.kkt_check(r_hat, dc, gamma_new)
    energy = total_energy(problem.grid, variant, state, load.body_force)
    vi = None
    if cfg.vi_probes and variant.has_dissipation:
        vi = problem.vi_residual(r_hat, -disp.r, dc, gamma_prev)
    report = StepReport(
        energy=energy,
        dissipation_increment=float(r_hat @ dc),
        dissipation_functional=diss_func,
        vi_residual=vi,
        kkt_max_violation=kkt_viol,
        kkt_max_misalignment=kkt_mis,
        active_node_fraction=active,
        outer_iterations=outer,
        cg_iterations=cg_total,
        fista_iterations=fista_total,
        objective=J,
        objective_increase=uphill,
        started_from_guess=guess is not None,
    )
    return state, report
