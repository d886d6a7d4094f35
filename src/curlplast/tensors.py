"""3x3 tensor algebra: additive decompositions, the axial-vector map for
skew tensors, the isotropic elasticity tensor and the row-wise curl of a
tensor field expressed through its gradient.

All functions broadcast over leading axes, so they work on single tensors
of shape (3, 3) as well as on nodal / quadrature-point stacks (..., 3, 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

IDENTITY = np.eye(3)

# Relative tolerance for "is this tensor skew" checks.
SKEW_RTOL = 1e-12


class NonSkewInput(ValueError):
    """Raised when axl() receives a tensor with a non-negligible symmetric part."""


def sym(X):
    return 0.5 * (X + np.swapaxes(X, -1, -2))


def skew(X):
    return 0.5 * (X - np.swapaxes(X, -1, -2))


def trace(X):
    return np.trace(X, axis1=-2, axis2=-1)


def dev(X):
    t = trace(X)[..., None, None] / 3.0
    return X - t * IDENTITY


def frobenius(A, B):
    """Inner product <A, B> = tr(A B^T), broadcast over leading axes."""
    return np.einsum("...ij,...ij->...", A, B)


def norm(A):
    return np.sqrt(frobenius(A, A))


def decompose(X):
    """Split X into (sym, skew, dev, trace)."""
    return sym(X), skew(X), dev(X), trace(X)


def axl(A, check=True):
    """Axial vector a of a skew tensor A, defined by A v = a x v.

    Raises NonSkewInput if |sym A| > SKEW_RTOL * |A| and check is True.
    """
    A = np.asarray(A, dtype=float)
    if check:
        s = norm(sym(A))
        if np.any(s > SKEW_RTOL * np.maximum(norm(A), 1e-300)):
            raise NonSkewInput("axl expects a skew-symmetric tensor")
    return np.stack([A[..., 2, 1], A[..., 0, 2], A[..., 1, 0]], axis=-1)


def cross_matrix(a):
    """Skew tensor A with A v = a x v; inverse of axl."""
    a = np.asarray(a, dtype=float)
    Z = np.zeros(a.shape[:-1] + (3, 3))
    Z[..., 0, 1] = -a[..., 2]
    Z[..., 0, 2] = a[..., 1]
    Z[..., 1, 0] = a[..., 2]
    Z[..., 1, 2] = -a[..., 0]
    Z[..., 2, 0] = -a[..., 1]
    Z[..., 2, 1] = a[..., 0]
    return Z


def curl_from_gradient(G):
    """Row-wise curl of a tensor field from its gradient.

    G has shape (..., 3, 3, 3) with G[..., i, j, k] = d X_ij / d x_k.  The
    i-th row of the result is 2 axl(skew(J_i)) where J_i is the Jacobian of
    row i; when G is an exact gradient this is Curl X.
    """
    G = np.asarray(G, dtype=float)
    out = np.empty(G.shape[:-1])
    # (Curl X)_{ik} = d/dx_a X_{ib} contracted with the permutation symbol.
    out[..., 0] = G[..., 2, 1] - G[..., 1, 2]
    out[..., 1] = G[..., 0, 2] - G[..., 2, 0]
    out[..., 2] = G[..., 1, 0] - G[..., 0, 1]
    return out


@dataclass(frozen=True)
class MaterialParams:
    """Isotropic elastic moduli plus hardening and length-scale parameters.

    kappa is stored redundantly and forced to lam + 2 mu / 3 so both forms of
    the isotropic stiffness agree; passing an inconsistent kappa raises.
    """

    mu: float
    lam: float
    k1: float = 0.0
    k2: float = 0.0
    Lc: float = 0.0
    sigma_y: float = 0.0
    kappa: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        for name in ("mu", "lam", "k1", "k2", "Lc", "sigma_y"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.mu > 0.0:
            raise ValueError("mu must be positive")
        if not 3.0 * self.lam + 2.0 * self.mu > 0.0:
            raise ValueError("3*lam + 2*mu must be positive")
        kappa = self.lam + 2.0 * self.mu / 3.0
        if self.kappa is None:
            object.__setattr__(self, "kappa", kappa)
        elif not abs(self.kappa - kappa) <= 1e-12 * max(abs(kappa), self.mu):
            raise ValueError("kappa inconsistent with lam + 2*mu/3")
        for name in ("k1", "k2", "Lc", "sigma_y"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be nonnegative")


def elasticity_apply(params: MaterialParams, X):
    """Isotropic stiffness C X = 2 mu sym X + lam tr(X) 1."""
    t = trace(X)[..., None, None]
    return 2.0 * params.mu * sym(X) + params.lam * t * IDENTITY


def elasticity_matrix(params: MaterialParams):
    """C as a symmetric 9x9 matrix acting on row-major vec(X)."""
    C = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            C[3 * i + j, 3 * i + j] += params.mu
            C[3 * i + j, 3 * j + i] += params.mu
    for i in range(3):
        for j in range(3):
            C[3 * i + i, 3 * j + j] += params.lam
    return C


# 9x9 projector onto the symmetric part of row-major vec(X), used by the assembly.
def _sym_projector():
    P_sym = np.zeros((9, 9))
    for i in range(3):
        for j in range(3):
            P_sym[3 * i + j, 3 * i + j] += 0.5
            P_sym[3 * i + j, 3 * j + i] += 0.5
    return P_sym


PROJ_SYM = _sym_projector()
