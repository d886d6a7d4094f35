"""Numerical study of the coercivity inequality for incompatible fields.

For tensor fields with vanishing tangential trace on part of the boundary,
the L2 norm of the field is controlled by the L2 norms of its symmetric
part and of its row-wise curl.  This module estimates the smallest discrete
Rayleigh quotient

    ( ||sym P||^2 + ls^2 ||Curl P||^2 ) / ||P||^2

over the nodal trilinear subspace with the tangential constraint imposed at
the nodes, and exhibits the failure of the inequality without boundary
conditions (constant skew fields lie in the kernel).  The estimate is an
upper bound for the infimum over the conforming subspace only; no certified
constant is claimed.  The eigen-solve is the module's own block-size-1
LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) on numpy, with Rayleigh-Ritz
by numpy's eigh, preconditioned by fast diagonalization (Lynch, Rice &
Thomas, Numer. Math. 6, 1964), exact here; it loads neither
scipy.sparse.linalg nor scipy.linalg.  Both forms are applied matrix-free,
in one pass through their exact 1D factors (Blocks.apply_all) between the
basis products B and B'; nothing in this module assembles an operator.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .grid import (
    ROUNDOFF,
    Grid,
    TensorField,
    allowed_columns,
    build_blocks,
    build_p_basis,
    face_axis_side,
    fd_inverse,
    free_box,
    magnitudes,
)
from .solver import RESIDUAL_HISTORY, NoConvergence
from .tensors import MaterialParams

# material values are irrelevant for the unit-coefficient blocks; any
# admissible moduli give the same K_sym / K_curl_cc / mass operators
_UNIT = MaterialParams(mu=1.0, lam=0.0)

# the largest length scale whose square is finite
_MAX_LENGTH_SCALE = float(np.sqrt(np.finfo(float).max))


class ZeroField(ValueError):
    """The probe field vanishes after the tangential constraint is applied."""


@dataclass(frozen=True)
class KornProblem:
    """Grid, constrained faces (possibly none) and the curl length scale, a
    positive number whose square is finite."""

    grid: Grid
    gamma_faces: tuple[str, ...] = ()
    length_scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.length_scale <= _MAX_LENGTH_SCALE:
            raise ValueError("length_scale must be a positive number whose square is finite")
        object.__setattr__(self, "gamma_faces", tuple(self.gamma_faces))


def _operators(problem: KornProblem):
    """Basis of the constrained space and the quotient's forms as products on it.

    Returns (basis, KM, Kbound), functions of reduced coordinates c:
    KM c = (Khat c, Mhat c), with Khat c = B'(K_sym + ls^2 K_curl_cc)B c
    and Mhat c = B' M_cons B c, both from one B c and one Blocks.apply_all
    pass, which makes the 1D-factor products of K_sym and the mass once;
    and Kbound c = B' |K| B c with |K| the magnitudes() of K's terms, so that
    |Khat x| <= Kbound |x| entrywise for every x (B only selects nodal
    components, so it is its own magnitude).  Nothing is assembled.
    Raises ValueError when |K| 1 or |M| 1 is not finite, that is when an
    entry of a form overflows, or when a row of M sums to less than the
    smallest normal number, a mass that underflows.
    """
    blocks = build_blocks(problem.grid, _UNIT)
    basis = build_p_basis(problem.grid, problem.gamma_faces, "none")
    K = blocks.form(K_sym=1.0, K_curl_cc=problem.length_scale ** 2)
    M, K_abs = blocks.terms["M_cons"], magnitudes(K)
    # an overflowing entry makes its row sum infinite, which is rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        ones = np.ones(basis.B.shape[0])
        K_rows, M_rows = blocks.apply_all([K_abs, magnitudes(M)], ones)
    if not (np.isfinite(K_rows).all() and np.isfinite(M_rows).all() and M_rows.min() >= np.finfo(float).tiny):
        raise ValueError("a Korn form overflows or its mass underflows: the grid or the length scale is out of range")
    B, BT = basis.B, basis.BT

    def KM(c):
        Kc, Mc = blocks.apply_all([K, M], B @ c)
        return BT @ Kc, BT @ Mc

    return basis, KM, lambda c: BT @ blocks.apply(K_abs, B @ c)


def _column_boxes(problem: KornProblem, basis):
    """Yield (reduced indices, fd_inverse of ls^2 L + M, L the H1 seminorm) per nonempty
    column j, which is allowed on a box: the nodes on no constrained face of another axis.
    A node lists its allowed columns in order, three coordinates each."""
    allowed = allowed_columns(problem.grid, problem.gamma_faces)
    for j in range(3):
        nodes = np.nonzero(allowed[:, j])[0]
        if nodes.size:
            lo, hi = free_box(problem.grid, [f for f in problem.gamma_faces if face_axis_side(f)[0] != j])
            idx = (basis.offsets[nodes] + 3 * allowed[nodes, :j].sum(axis=1))[:, None] + np.arange(3)
            inverse = fd_inverse(problem.grid, lo, hi, problem.length_scale ** 2)
            yield idx.reshape(*np.subtract(hi, lo)[::-1], 3), inverse


def korn_quotient(problem: KornProblem, P: TensorField) -> float:
    """Rayleigh quotient of a nodal field after applying the tangential mask.

    Both forms are applied matrix-free, in one pass (_operators).  A
    numerator at or below the roundoff floor ROUNDOFF * |x|' Kbound |x|, the
    accumulated magnitude of its summands, is indistinguishable from zero at
    double precision and is flushed to exactly 0, so exact kernel members
    such as constant skew fields report 0.0.
    """
    basis, KM, Kbound = _operators(problem)
    x = basis.to_reduced(P.values.reshape(-1))
    Kx, Mx = KM(x)
    denom = float(x @ Mx)
    if denom <= 0.0:
        raise ZeroField("field vanishes on the constrained space")
    num = float(x @ Kx)
    ax = np.abs(x)
    if abs(num) <= ROUNDOFF * float(ax @ Kbound(ax)):
        return 0.0
    return num / denom


def estimate_min_quotient(problem: KornProblem, tol: float = 1e-8,
                          max_iterations: int = 2000, seed: int = 0) -> float:
    """Smallest generalized eigenvalue of the constrained quotient.

    With no constrained face the constant skew fields lie in the kernel, so
    the infimum is 0 and no eigen-solve runs.  A constrained face keeps only
    the normal column of the field at its nodes, and a constant skew field
    with one nonzero column is zero, so with any face no constant skew field
    survives.  Then a single-vector LOBPCG run (_min_eigenvector) on
    K x = lambda M x, with the constrained mass as M, the exact inverse of
    ls^2 L + M on each column's box (_column_boxes) as preconditioner and a
    random start vector drawn from seed, returns the smallest eigenvalue once
    the residual ||K x - lambda M x|| of the M-normalized eigenvector is at
    most tol, a finite positive number (ValueError otherwise, and for a
    negative max_iterations).  The eigenvalue error is then of order
    tol^2 / gap, where gap is the distance to the next eigenvalue.  Raises NoConvergence, carrying that residual, when
    max_iterations iterations do not reach tol, and at once when an iterate
    is not finite.  1/sqrt of the returned value estimates the constant in
    the inequality.  The NoConvergence also carries the last residuals.
    Both forms are applied matrix-free; their data (_operators) and the
    preconditioner's pencils (fd_inverse) are checked before the first
    iteration, and a grid or length scale out of range raises ValueError.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be a finite positive number")
    if not max_iterations >= 0:
        raise ValueError("max_iterations must be a non-negative number")
    basis, KM, _ = _operators(problem)
    if not problem.gamma_faces:
        return 0.0
    n = basis.size
    if n == 0:
        raise ZeroField("constrained space is empty")

    boxes = list(_column_boxes(problem, basis))

    def precond(r):
        out = np.empty_like(r)
        for idx, inverse in boxes:
            out[idx] = inverse(r[idx])
        return out

    start = np.random.default_rng(seed).standard_normal(n)
    recent = deque(maxlen=RESIDUAL_HISTORY)
    x = _min_eigenvector(KM, precond, start, tol, max_iterations, recent)
    Kx, Mx = KM(x)
    mass = float(x @ Mx)
    lam = float(x @ Kx) / mass
    residual = float(np.linalg.norm(Kx - lam * Mx)) / np.sqrt(mass)
    if not residual <= tol:
        raise NoConvergence("LOBPCG", max_iterations, residual, tol, [*recent, residual])
    return lam


def _min_eigenvector(KM, precond, x, tol, max_iterations, recent):
    """Approximate eigenvector of the smallest eigenvalue of K x = lambda M x, by
    LOBPCG with block size 1 from the start vector x, stopped once the
    M-normalized iterate has a residual of at most tol or after max_iterations
    iterations.  KM is a function that returns the products (K x, M x).

    Each iteration makes one K and one M product, on the preconditioned residual
    w; the K- and M-images of the iterate and of the search direction p are
    updated with them.  The trial basis [x, w, p] and its two images are the
    rows of one preallocated block per iteration parity, so nothing is
    stacked: the Gram matrices are products of the first k rows, and one
    product writes the next iterate and search direction, with their images,
    into the other block.  The basis is M-orthonormalized through the
    eigenvectors of its Gram matrix, after scaling each row to unit M-norm,
    dropping directions whose Gram eigenvalue is below 1e-14 of the largest;
    the smallest Ritz pair of K on it gives the next iterate.  Each
    iteration's residual is appended to recent, a bounded deque.  A
    non-finite residual, or a non-finite Gram matrix of the basis that the
    next iterate would combine, raises NoConvergence at once.
    """
    Kx, Mx = KM(x)
    # blocks[parity] holds S, KS and MS, each with the rows x, w and p
    blocks = np.empty((2, 3, 3, x.size))
    np.multiply(1.0 / np.sqrt(float(x @ Mx)), [x, Kx, Mx], out=blocks[0, :, 0])
    k = 2  # rows of the trial basis: [x, w] until a search direction exists
    for iteration in range(max_iterations + 1):
        S, KS, MS = trial = blocks[iteration % 2]
        x, Kx, Mx = S[0], KS[0], MS[0]
        r = Kx - float(x @ Kx) * Mx
        residual = float(np.linalg.norm(r))
        recent.append(residual)
        if not np.isfinite(residual):
            raise NoConvergence("LOBPCG", iteration, residual, tol, recent)
        if residual <= tol or iteration == max_iterations:
            return x
        S[1] = precond(r)
        KS[1], MS[1] = KM(S[1])
        G, H = S[:k] @ MS[:k].T, S[:k] @ KS[:k].T
        if not (np.isfinite(G).all() and np.isfinite(H).all()):
            # the next iterate, a combination of these rows, is not finite
            raise NoConvergence("LOBPCG", iteration + 1, np.nan, tol, recent)
        norms = np.sqrt(np.diag(G))
        d, V = np.linalg.eigh(G / np.outer(norms, norms))
        keep = d > 1e-14 * d[-1]
        T = V[:, keep] / np.sqrt(d[keep]) / norms[:, None]
        c = T @ np.linalg.eigh(T.T @ H @ T)[1][:, 0]
        c /= np.sqrt(c @ G @ c)
        # the new search direction is the Ritz vector's part along w and the old p
        Ct = np.array([c, np.concatenate([[0.0], c[1:]])])
        np.matmul(Ct, trial[:, :k], out=blocks[1 - iteration % 2, :, ::2])
        k = 3
