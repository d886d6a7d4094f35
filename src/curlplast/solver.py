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
warm-started, Jacobi-preconditioned conjugate gradient, here to a tolerance
that tightens with the FISTA step (Schmidt, Le Roux & Bach, "Convergence
rates of inexact proximal-gradient methods", NIPS 2011).  A_hat, K_ff and
S_f are the only sparse matrices DiscreteProblem stores; S_pf is a view of
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
Each p iteration makes one A_hat product, one inner displacement solve and
one prox, and stops on the gradient-mapping residual of the step it has
just taken.  S <= A_hat in the Loewner order, so the step 1/L(A_hat) is safe
for the reduced functional too.

vi_residual certifies a step's inequality on random admissible probes from
a generator seeded by the step; in a run, a CertificatePool thread draws
and scores them while the next step is solved, with a serial run's values.
"""
from __future__ import annotations

from concurrent.futures import CancelledError, ThreadPoolExecutor
from dataclasses import dataclass
from math import isfinite, prod
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
    transposed,
)
from .models import EnergySplit, ModelVariant, SimState, total_energy
from .tensors import norm as frob_norm


class NoConvergence(RuntimeError):
    def __init__(self, what, iterations, residual, tol):
        super().__init__(f"{what} did not converge in {iterations} iterations (residual {residual:.3e}, tol {tol:.3e})")
        self.what = what
        self.iterations = iterations
        self.residual = residual
        self.tol = tol


class InfeasibleBC(ValueError):
    """Dirichlet data is not finite or not representable on the grid."""


# 30 power iterations approach lambda_max from below; the margin measured
# 1.08-1.10x lambda_max on 4^3-8^3 grids
LIPSCHITZ_SAFETY = 1.1

# VI probes drawn and scored per block: enough rows that numpy, not the
# interpreter, does the work, and a fixed count so that the memory of the
# certificate does not grow with the number of probes: a certificate scores
# each block before it draws the next one into the same memory
VI_PROBE_BLOCK = 64

# Threads of a CertificatePool, each certifying one step at a time; a run
# keeps at most this many certificates pending
CERT_WORKERS = 2

# Most VI probes a step may ask for: a million probes already take about a
# minute per step on a 6^3 grid
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
    vi_probes: int = 0
    seed: int = 0

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
    vi_residual: float | None  # or, from a CertificatePool, the Future of the float
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


def prox_dissipation(variant: ModelVariant, z, tau, gamma_prev=0.0):
    """Proximal map of tau * D_inc on 3x3 tensors: z scaled by
    ModelVariant.shrink of its norm (ties at the threshold give 0)."""
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    z = np.asarray(z, dtype=float)
    return z * variant.shrink(frob_norm(z), tau, gamma_prev)[..., None, None]


def jacobi(diagonal):
    """Jacobi preconditioner of an operator's diagonal: its reciprocal, 1 where not positive."""
    return 1.0 / np.where(diagonal > 0.0, diagonal, 1.0)


def weighted_norm(x, w):
    """sqrt(x' diag(w) x), the norm of the lumped-mass metric."""
    return float(np.sqrt(x @ (w * x))) if x.size else 0.0


def probe_blocks(problem, rng, probes, pool=None):
    """`probes` rows of standard normals from rng, one entry per unknown of
    problem, drawn VI_PROBE_BLOCK rows at a time into one reused block.
    numpy's Generator gives the same values for one (k, n) draw as for k
    draws of n, and the same into out as into a new array, so the probes do
    not depend on the block size.  Once pool is stopped, the next block
    raises CancelledError instead."""
    block = np.empty((min(VI_PROBE_BLOCK, probes), problem.K_ff.shape[0] + problem.basis.size))
    for start in range(0, probes, VI_PROBE_BLOCK):
        if pool is not None and pool.stopped:
            raise CancelledError
        rng.standard_normal(out=block[:probes - start])
        yield block[:probes - start]


class CertificatePool(ThreadPoolExecutor):
    """CERT_WORKERS threads, each scoring one step's vi_residual on the
    probe_blocks it draws.  The threads start with the first certificate, so
    a run without one starts none.  Leaving the context cancels the
    certificates no thread has taken, stops a running one at its next block
    and joins the threads."""

    def __init__(self):
        super().__init__(CERT_WORKERS, thread_name_prefix="vi-certificate")
        self.stopped = False

    def __exit__(self, *exc):
        self.stopped = True
        self.shutdown(cancel_futures=True)


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
    """
    c = c0.copy()
    y = c0.copy()
    tk = 1.0
    res = 0.0
    # an iterate that overflows gives a residual that is not finite, which fails below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for it in range(maxiter):
            c_new = prox(y - step * gradient(y) / w)
            taken = c_new - y
            res = weighted_norm(taken, w)
            if not np.isfinite(res):
                raise NoConvergence("proximal gradient", it + 1, res, tol)
            scale = max(weighted_norm(c_new, w), scale_floor)
            if res <= tol * max(scale, 1e-300):
                return c_new, it + 1
            if float((taken * w) @ (c_new - c)) < 0.0:
                tk = 1.0  # adaptive restart: momentum points uphill
            tk_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
            y = c_new + ((tk - 1.0) / tk_next) * (c_new - c)
            c, tk = c_new, tk_next
    raise NoConvergence("proximal gradient", maxiter, res, tol)


class DiscreteProblem:
    """Assembled, constraint-reduced operators for one variant on one grid.

    Plastic dofs live in reduced coordinates c with p = B c; displacement
    dofs are split into free and prescribed parts by the Dirichlet faces.
    Each operator is stored once, as CSR in the coordinates its products
    use: A_hat; K_ff, the free block of the displacement form; and the
    coupling's free rows S_f, whose transpose S_pf is a CSC view of its
    arrays.  step_load applies the term lists to the prescribed field; every
    other method works in the unknowns (u_f, c) and takes its step load.
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
        self.K_ff = self.blocks.assemble(self.blocks.terms["K_uu"], 3)[self.free][:, self.free]
        self.S_f = self.blocks.assemble(self.blocks.terms["K_up"], 3, self.basis)[self.free]
        self.S_pf = self.S_f.T  # reduced p-rows, free u-columns: a CSC view of S_f's arrays
        self.jacobi_ff = jacobi(self.K_ff.diagonal())

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
            KU = self.blocks.apply(terms["K_uu"], U_p)
            f_p = -self.basis.to_reduced(self.blocks.apply(transposed(terms["K_up"]), U_p))
            J_g = 0.5 * float(U_p @ KU) - float(F @ U_p)
            u_scale = max(np.linalg.norm(F[self.free]), np.linalg.norm(KU[self.free]))
            return ReducedLoad(F[self.free] - KU[self.free], f_p, J_g, u_scale)

    # -- linear algebra helpers --------------------------------------------

    def pcg(self, matvec, b, x0, tol, maxiter, precond):
        """Jacobi-preconditioned conjugate gradients with warm start; matvec(x) is A x."""
        with np.errstate(over="ignore"):
            nb = np.linalg.norm(b)
        if not np.isfinite(nb):
            raise NoConvergence("conjugate gradients", 0, nb, tol)
        if nb == 0.0:
            return np.zeros_like(b), 0
        # an iterate that overflows gives a residual that is not finite, which fails below
        with np.errstate(over="ignore", invalid="ignore"):
            x = x0.copy()
            r = b - matvec(x)
            z = precond * r
            p = z.copy()
            rz = float(r @ z)
            for it in range(maxiter):
                res = np.linalg.norm(r)
                if res <= tol * nb:
                    return x, it
                if not np.isfinite(res):
                    raise NoConvergence("conjugate gradients", it, res / nb, tol)
                Ap = matvec(p)
                pAp = float(p @ Ap)
                if not (pAp > 0.0 and rz > 0.0):  # no curvature left along p, or roundoff took it
                    raise NoConvergence("conjugate gradients", it, res / nb, tol)
                alpha = rz / pAp
                x += alpha * p
                r -= alpha * Ap
                z = precond * r
                rz_new = float(r @ z)
                p = z + (rz_new / rz) * p
                rz = rz_new
            res = np.linalg.norm(b - matvec(x)) / nb
        if res <= tol:
            return x, maxiter
        raise NoConvergence("conjugate gradients", maxiter, res, tol)

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

    def _prox_reduced(self, x, c_prev, tau, gamma_prev):
        """Exact nodewise prox in reduced coordinates (uniform threshold tau)."""
        d = x - c_prev
        factor = self.variant.shrink(self.basis.node_norms(d), tau, gamma_prev)
        return c_prev + d * self.basis.scatter_per_node(factor)

    # -- displacement and plastic solves ---------------------------------------

    def solve_u(self, u_f, c, load, tol):
        """Free displacement at plastic field c: the CG solve of K_ff u_f = f_u - S_f c
        from the warm start u_f, to tol.  Every displacement solve, the inner
        ones of solve_p included, is one call.  Returns (u_f, CG iterations)."""
        return self.pcg(self.K_ff.dot, load.f_u - self.S_f @ c, u_f, tol, self.config.max_cg, self.jacobi_ff)

    def solve_p(self, u_f, c_prev, c0, gamma_prev, load):
        """Accelerated proximal-gradient solve of the step in c, with u_f eliminated.

        Minimizes c -> min_u_f J(u_f, c) from c0.  Each gradient at an
        extrapolated point y is A_hat y + S_pf u_f - f_p, where u_f is
        solve_u's solution at y, warm-started from the previous one and the
        first from the given u_f.  The first inner solve meets tol_cg, later
        ones the looser INNER_TOL_* schedule.  Runs in the lumped-mass metric,
        in which the nodal shrinkage has one uniform threshold; the prox is
        exact per node.  Returns c, the last inner u_f and the pair (FISTA
        iterations, inner CG iterations).
        """
        tol_cg, w = self.config.tol_cg, self.w_seg
        t = 1.0 / self.lipschitz()
        # the size of one full gradient step off zero at the entry u_f bounds
        # the minimizer scale; it floors the relative test when the increment
        # is tiny
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing load fails the first solve
            data_scale = t * weighted_norm((np.asarray(self.S_pf @ u_f) - load.f_p) / w, w)
        y_last = None
        cg_its = 0

        def gradient(y):
            nonlocal u_f, y_last, cg_its
            tol_in = tol_cg
            if y_last is not None:
                move = weighted_norm(y - y_last, w) / max(weighted_norm(y, w), 1e-300)
                tol_in = max(tol_cg, min(INNER_TOL_CAP, INNER_TOL_FACTOR * move))
            y_last = y
            u_f, its = self.solve_u(u_f, y, load, tol_in)
            cg_its += its
            return np.asarray(self.A_hat @ y) + np.asarray(self.S_pf @ u_f) - load.f_p

        c, its = accelerated_prox_gradient(
            gradient, w, lambda z: self._prox_reduced(z, c_prev, t, gamma_prev), c0, t,
            self.config.tol_fista, self.config.max_fista, max(weighted_norm(c_prev, w), data_scale))
        return c, u_f, (its, cg_its)

    # -- functional evaluation ------------------------------------------------

    def objective(self, u_f, c, c_prev, gamma_prev, load):
        """The step functional J at (u_f, c) and its dissipation term, which scales the descent test."""
        smooth = (0.5 * float(u_f @ (self.K_ff @ u_f)) + float(c @ (self.S_pf @ u_f)) + 0.5 * float(c @ (self.A_hat @ c))
                  - float(load.f_u @ u_f) - float(load.f_p @ c) + load.J_g)
        dissipation = self.dissipation_value(c - c_prev, gamma_prev)
        return smooth + dissipation, dissipation

    def smooth_residual_reduced(self, u_f, c, load):
        """b - A c in reduced coordinates: the weighted weak generalized stress."""
        return load.f_p - np.asarray(self.S_pf @ u_f) - np.asarray(self.A_hat @ c)

    def displacement_residual(self, u_f, c, load):
        """K_ff u_f + S_f c - f_u: the free rows of the displacement equation."""
        return self.K_ff @ u_f + self.S_f @ c - load.f_u

    def kkt_check(self, r_hat, dc, gamma_new, active_tol=1e-12):
        """Discrete complementarity of the flow law at every node.

        r_hat is smooth_residual_reduced at the solution.  Returns (max radius
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

    def vi_residual(self, u_f, c, c_prev, gamma_prev, load, blocks, r_hat=None):
        """Worst normalized violation of the incremental inequality.

        Random admissible directions (free displacement part, reduced plastic
        part) plus the two canonical probes along +/- the computed increment;
        nonnegative values up to roundoff certify the minimizer.  r_hat is
        smooth_residual_reduced(u_f, c, load) when the caller already holds it.

        blocks are the step's probe blocks, such as probe_blocks gives: a
        probe is one row [dv, dq] of standard normals, scaled to the w-norm
        of the increment.  Each block is scored in place, D @ r first and then
        the squares of dc + dq, so the scoring makes no block-sized temporary.
        It writes only into the blocks, so a CertificatePool thread may run it
        while the next step is solved.
        """
        r_u = self.displacement_residual(u_f, c, load)
        if r_hat is None:
            r_hat = self.smooth_residual_reduced(u_f, c, load)
        r = np.concatenate([r_u, -r_hat])
        nf = r_u.size
        dc = c - c_prev
        j0 = self.dissipation_value(dc, gamma_prev)
        size = max(weighted_norm(dc, self.w_seg), 1e-8)

        def worst_of(D):
            """Worst score of the rows of D, whose plastic part it overwrites."""
            lin = D @ r
            Q = D[:, nf:]
            Q += dc
            np.multiply(Q, Q, out=Q)
            jq = self.variant.dissipation(np.sqrt(self.basis.node_sums(Q)), gamma_prev) @ self.w_node
            viol = lin + jq - j0
            scale = np.abs(lin) + jq + j0 + 1e-300
            return float(np.min(viol / scale))

        canonical = np.zeros((2, r.size))
        canonical[0, nf:] = -dc
        canonical[1, nf:] = dc
        worst = worst_of(canonical)
        for D in blocks:
            nrm = np.sqrt(np.einsum("ij,ij->i", D, D))
            D *= np.divide(size, nrm, out=np.ones_like(nrm), where=nrm > 0.0)[:, None]
            worst = min(worst, worst_of(D))
        return worst


def probe_seed(seed, level):
    """Seed of a step's VI probes: seed + round(level * 1e6) mod 2^31, which is
    seed for every |level * 1e6| >= 2^84 and so also for one that overflows."""
    scaled = level * 1e6
    return seed + (int(round(scaled)) % (2 ** 31) if isfinite(scaled) else 0)


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


def time_step(problem: DiscreteProblem, state_prev: SimState, load: LoadStep, guess: SimState | None = None,
              pool: CertificatePool | None = None):
    """Advance one load step; returns the new state and its report.

    The step starts from guess, a state near the step's solution, or else
    from state_prev.  Its functional is strictly convex, so the start
    changes the work and not the minimizer.  Every solve works in (u_f, c)
    on the step's ReducedLoad, formed once.  A dissipative step with VI
    probes scores the probe_blocks of the generator probe_seed gives it: on
    the calling thread, or with a pool on one of its threads, and then the
    report's vi_residual is the Future of the score.  A step without
    dissipation has no inequality to certify and reports no vi_residual.
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

        x, cg_total = problem.pcg(joint, np.concatenate([data.f_u, data.f_p]), np.concatenate([u_f, c]), cfg.tol_cg,
                                  cfg.max_cg, np.concatenate([problem.jacobi_ff, jacobi(problem.A_hat.diagonal())]))
        u_f, c = x[:nf], x[nf:]
        outer = 1
        J, _ = problem.objective(u_f, c, c_prev, gamma_prev, data)
    else:
        # pass 1 solves the step; pass 2 restarts from its c with an exact
        # first gradient and confirms that J no longer descends
        J_prev = np.inf
        u_scale = None
        for outer in range(1, cfg.max_outer + 1):
            c, u_f, (its_p, its_in) = problem.solve_p(u_f, c_prev, c, gamma_prev, data)
            u_f, its_u = problem.solve_u(u_f, c, data, cfg.tol_cg)
            cg_total += its_in + its_u
            fista_total += its_p
            if u_scale is None:
                u_scale = max(data.u_scale, np.linalg.norm(problem.S_f @ c), 1e-300)
            u_res = np.linalg.norm(problem.displacement_residual(u_f, c, data)) / u_scale
            J, dissipation = problem.objective(u_f, c, c_prev, gamma_prev, data)
            for value, tol in ((u_res, cfg.tol_cg), (J, cfg.tol_outer)):
                if not isfinite(value):  # a NaN or Inf never meets the pass test
                    raise NoConvergence("outer passes", outer, value, tol)
            scale_J = abs(J) + dissipation + 1e-300
            if np.isfinite(J_prev):
                uphill = max(uphill, (J - J_prev) / scale_J)
            if u_res <= cfg.tol_cg and J_prev - J <= cfg.tol_outer * scale_J:
                break
            descent = (J_prev - J) / scale_J  # inf after a single pass
            J_prev = J
        else:
            # report the criterion that failed
            if u_res > cfg.tol_cg:
                raise NoConvergence("outer passes", cfg.max_outer, u_res, cfg.tol_cg)
            raise NoConvergence("outer passes", cfg.max_outer, descent, cfg.tol_outer)

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

    r_hat = problem.smooth_residual_reduced(u_f, c, data)
    diss_func = variant.params.sigma_y * float(problem.w_node @ dn) if variant.has_dissipation else 0.0
    kkt_viol, kkt_mis, active = problem.kkt_check(r_hat, dc, gamma_new)
    energy = total_energy(problem.grid, variant, state, load.body_force)
    vi = None
    if cfg.vi_probes and variant.has_dissipation:
        rng = np.random.default_rng(probe_seed(cfg.seed, load.level))
        args = (u_f, c, c_prev, gamma_prev, data, probe_blocks(problem, rng, cfg.vi_probes, pool), r_hat)
        vi = problem.vi_residual(*args) if pool is None else pool.submit(problem.vi_residual, *args)
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
