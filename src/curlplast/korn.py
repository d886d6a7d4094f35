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
scipy.sparse.linalg nor scipy.linalg.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ROUNDOFF, Grid, TensorField, allowed_columns, build_blocks, build_p_basis, fd_inverse
from .solver import NoConvergence
from .tensors import MaterialParams

# material values are irrelevant for the unit-coefficient blocks; any
# admissible moduli give the same K_sym / K_curl_cc / mass operators
_UNIT = MaterialParams(mu=1.0, lam=0.0)


class ZeroField(ValueError):
    """The probe field vanishes after the tangential constraint is applied."""


@dataclass(frozen=True)
class KornProblem:
    """Grid, constrained faces (possibly none) and the curl length scale."""

    grid: Grid
    gamma_faces: tuple[str, ...] = ()
    length_scale: float = 1.0

    def __post_init__(self):
        if not self.length_scale > 0.0:
            raise ValueError("length_scale must be positive")
        object.__setattr__(self, "gamma_faces", tuple(self.gamma_faces))


def _operators(problem: KornProblem):
    """Basis of the constrained space and the quotient's forms reduced onto it.

    Returns (basis, Khat, Mhat) with Khat = B'(K_sym + ls^2 K_curl_cc)B and
    Mhat = B' M_cons B, both CSR and assembled straight into the reduced
    coordinates.
    """
    blocks = build_blocks(problem.grid, _UNIT)
    basis = build_p_basis(problem.grid, problem.gamma_faces, "none")
    Khat = blocks.assemble(blocks.form(K_sym=1.0, K_curl_cc=problem.length_scale ** 2), basis)
    return basis, Khat, blocks.assemble(blocks.terms["M_cons"], basis)


def _column_boxes(problem: KornProblem, basis):
    """Yield (reduced indices, fd_inverse of ls^2 L + M, L the H1 seminorm) per nonempty
    column j, which is allowed on a box: the nodes on no constrained face of another axis.
    A node lists its allowed columns in order, three coordinates each."""
    allowed = allowed_columns(problem.grid, problem.gamma_faces)
    for j in range(3):
        nodes = np.nonzero(allowed[:, j])[0]
        if nodes.size:
            box = problem.grid.node_ijk()[nodes]
            lo, hi = box.min(axis=0), box.max(axis=0) + 1
            idx = (basis.offsets[nodes] + 3 * allowed[nodes, :j].sum(axis=1))[:, None] + np.arange(3)
            yield idx.reshape(*(hi - lo)[::-1], 3), fd_inverse(problem.grid, lo, hi, problem.length_scale ** 2)


def _roundoff_floor(K, x):
    """Upper bound for the roundoff in x' K x; form values below it are zero."""
    ax = np.abs(x)
    return ROUNDOFF * float(ax @ np.abs(K) @ ax)


def korn_quotient(problem: KornProblem, P: TensorField) -> float:
    """Rayleigh quotient of a nodal field after applying the tangential mask.

    Quadratic-form values indistinguishable from zero at double precision
    (at or below the accumulated-roundoff floor) are flushed to exactly 0,
    so exact kernel members such as constant skew fields report 0.0.
    """
    basis, Khat, Mhat = _operators(problem)
    x = basis.to_reduced(P.values.reshape(-1))
    denom = float(x @ (Mhat @ x))
    if denom <= 0.0:
        raise ZeroField("field vanishes on the constrained space")
    num = float(x @ (Khat @ x))
    if abs(num) <= _roundoff_floor(Khat, x):
        return 0.0
    return num / denom


def estimate_min_quotient(problem: KornProblem, tol: float = 1e-8,
                          max_iterations: int = 2000, seed: int = 0) -> float:
    """Smallest generalized eigenvalue of the constrained quotient.

    With no constrained face the constant skew fields lie in the kernel, so
    the infimum is 0 and nothing is assembled.  A constrained face keeps only
    the normal column of the field at its nodes, and a constant skew field
    with one nonzero column is zero, so with any face no constant skew field
    survives.  Then a single-vector LOBPCG run (_min_eigenvector) on
    K x = lambda M x, with the constrained mass as M, the exact inverse of
    ls^2 L + M on each column's box (_column_boxes) as preconditioner and a
    random start vector drawn from seed, returns the smallest eigenvalue once
    the residual ||K x - lambda M x|| of the M-normalized eigenvector is at
    most tol, a finite positive number (ValueError otherwise).  The eigenvalue
    error is then of order tol^2 / gap, where gap is the distance to the next
    eigenvalue.  Raises NoConvergence, carrying that residual, when
    max_iterations iterations do not reach tol, and at once when an iterate
    is not finite.  1/sqrt of the returned value estimates the constant in
    the inequality.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be a finite positive number")
    if not problem.gamma_faces:
        return 0.0
    basis, Khat, Mhat = _operators(problem)
    n = Khat.shape[0]
    if n == 0:
        raise ZeroField("constrained space is empty")

    boxes = list(_column_boxes(problem, basis))

    def precond(r):
        out = np.empty_like(r)
        for idx, inverse in boxes:
            out[idx] = inverse(r[idx])
        return out

    start = np.random.default_rng(seed).standard_normal(n)
    x = _min_eigenvector(Khat, Mhat, precond, start, tol, max_iterations)
    x = x / np.sqrt(float(x @ (Mhat @ x)))
    lam = float(x @ (Khat @ x))
    residual = float(np.linalg.norm(Khat @ x - lam * (Mhat @ x)))
    if not residual <= tol:
        raise NoConvergence("LOBPCG", max_iterations, residual, tol)
    return lam


def _min_eigenvector(K, M, precond, x, tol, max_iterations):
    """Approximate eigenvector of the smallest eigenvalue of K x = lambda M x, by
    LOBPCG with block size 1 from the start vector x, stopped once the
    M-normalized iterate has a residual of at most tol or after max_iterations
    iterations.

    Each iteration makes one K and one M product, on the preconditioned residual
    w; the K- and M-images of the iterate and of the search direction p are
    updated with them.  The trial basis [x, w, p] is M-orthonormalized through
    the eigenvectors of its Gram matrix, after scaling each column to unit
    M-norm, dropping directions whose Gram eigenvalue is below 1e-14 of the
    largest; the smallest Ritz pair of K on it gives the next iterate.  A
    non-finite residual, or a non-finite Gram matrix of the basis that the
    next iterate would combine, raises NoConvergence at once.
    """
    Mx = M @ x
    scale = 1.0 / np.sqrt(float(x @ Mx))
    S, KS, MS = (scale * v[:, None] for v in (x, K @ x, Mx))
    for iteration in range(max_iterations + 1):
        # column 0 of S is the M-normalized iterate, column 1 (after the
        # first iteration) the search direction; KS and MS hold their images
        x, Kx, Mx = S[:, 0], KS[:, 0], MS[:, 0]
        r = Kx - float(x @ Kx) * Mx
        residual = float(np.linalg.norm(r))
        if not np.isfinite(residual):
            raise NoConvergence("LOBPCG", iteration, residual, tol)
        if residual <= tol or iteration == max_iterations:
            return x
        w = precond(r)
        S, KS, MS = (np.column_stack([a[:, :1], b, a[:, 1:]]) for a, b in ((S, w), (KS, K @ w), (MS, M @ w)))
        G, H = S.T @ MS, S.T @ KS
        if not (np.isfinite(G).all() and np.isfinite(H).all()):
            # the next iterate, a combination of these columns, is not finite
            raise NoConvergence("LOBPCG", iteration + 1, np.nan, tol)
        norms = np.sqrt(np.diag(G))
        d, V = np.linalg.eigh(G / np.outer(norms, norms))
        keep = d > 1e-14 * d[-1]
        T = V[:, keep] / np.sqrt(d[keep]) / norms[:, None]
        c = T @ np.linalg.eigh(T.T @ H @ T)[1][:, 0]
        c /= np.sqrt(c @ G @ c)
        # the new search direction is the Ritz vector's part along w and the old p
        C = np.column_stack([c, np.concatenate([[0.0], c[1:]])])
        S, KS, MS = S @ C, KS @ C, MS @ C
