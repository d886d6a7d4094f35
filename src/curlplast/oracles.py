"""Independent reference computations used by the test suite.

Three oracles live here:

* exact trivariate-polynomial tensor calculus (gradient, row-wise curl,
  divergence), for checking the discrete curl operators against hand
  differentiation;
* the classical pointwise radial-return update for small-strain von Mises
  plasticity with linear kinematic or isotropic hardening, the reference
  for the homogeneous limit of the field solver;
* the microstress divergence identity relating the defect-energy variation
  to the row-wise double curl.

Everything is deliberately written without reference to the finite-element
code so the two sides stay independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensors import MaterialParams, dev, trace

MAX_DEGREE = 3


class DegreeOverflow(ValueError):
    """Raised when a polynomial exceeds the supported total degree."""


class Poly3:
    """Polynomial in (x1, x2, x3) with dense coefficient array.

    coeffs[i, j, k] multiplies x1^i x2^j x3^k; total degree is capped at
    MAX_DEGREE, which is enough to exercise every curl identity nontrivially.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.zeros((MAX_DEGREE + 1,) * 3)
        a = np.asarray(coeffs, dtype=float)
        if any(s > MAX_DEGREE + 1 for s in a.shape):
            raise DegreeOverflow(f"degree above {MAX_DEGREE} not supported")
        c[: a.shape[0], : a.shape[1], : a.shape[2]] = a
        idx = np.indices(c.shape).sum(axis=0)
        if np.any(c[idx > MAX_DEGREE] != 0.0):
            raise DegreeOverflow(f"total degree above {MAX_DEGREE} not supported")
        self.coeffs = c

    @classmethod
    def constant(cls, value):
        c = np.zeros((1, 1, 1))
        c[0, 0, 0] = value
        return cls(c)

    @classmethod
    def monomial(cls, powers, value=1.0):
        i, j, k = powers
        c = np.zeros((i + 1, j + 1, k + 1))
        c[i, j, k] = value
        return cls(c)

    def __add__(self, other):
        if not isinstance(other, Poly3):
            other = Poly3.constant(other)
        return Poly3(self.coeffs + other.coeffs)

    def __sub__(self, other):
        if not isinstance(other, Poly3):
            other = Poly3.constant(other)
        return Poly3(self.coeffs - other.coeffs)

    def __mul__(self, scalar):
        return Poly3(self.coeffs * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return Poly3(-self.coeffs)

    def diff(self, axis):
        """Exact partial derivative along axis in {0, 1, 2}."""
        c = np.moveaxis(self.coeffs, axis, 0)
        n = c.shape[0]
        out = c[1:] * np.arange(1, n)[:, None, None]
        return Poly3(np.moveaxis(np.concatenate([out, np.zeros((1,) + c.shape[1:])]), 0, axis))

    def __call__(self, points):
        """Evaluate at points of shape (..., 3)."""
        pts = np.asarray(points, dtype=float)
        n = MAX_DEGREE + 1
        px = pts[..., 0, None] ** np.arange(n)
        py = pts[..., 1, None] ** np.arange(n)
        pz = pts[..., 2, None] ** np.arange(n)
        return np.einsum("ijk,...i,...j,...k->...", self.coeffs, px, py, pz)


def poly_vector(polys):
    return np.array(polys, dtype=object)


class PolyTensorField:
    """3x3 tensor field with Poly3 entries and exact differential calculus."""

    def __init__(self, entries):
        e = np.empty((3, 3), dtype=object)
        for i in range(3):
            for j in range(3):
                p = entries[i][j]
                e[i, j] = p if isinstance(p, Poly3) else Poly3.constant(p)
        self.entries = e

    @classmethod
    def constant(cls, M):
        return cls([[Poly3.constant(M[i][j]) for j in range(3)] for i in range(3)])

    @classmethod
    def random(cls, rng, degree=2, symmetric=False, trace_free=False, scale=1.0):
        """Random polynomial field with the requested pointwise structure."""
        n = degree + 1
        raw = np.zeros((3, 3, n, n, n))
        for i, j, k in np.ndindex(n, n, n):
            if i + j + k <= degree:
                raw[:, :, i, j, k] = rng.standard_normal((3, 3)) * scale
        if symmetric:
            raw = 0.5 * (raw + raw.transpose(1, 0, 2, 3, 4))
        if trace_free:
            t = (raw[0, 0] + raw[1, 1] + raw[2, 2]) / 3.0
            for d in range(3):
                raw[d, d] -= t
        return cls([[Poly3(raw[i, j]) for j in range(3)] for i in range(3)])

    @classmethod
    def gradient_of_vector(cls, v):
        """Jacobian field of a polynomial vector field (rows = components)."""
        return cls([[v[i].diff(j) for j in range(3)] for i in range(3)])

    def __call__(self, points):
        pts = np.asarray(points, dtype=float)
        out = np.empty(pts.shape[:-1] + (3, 3))
        for i in range(3):
            for j in range(3):
                out[..., i, j] = self.entries[i, j](pts)
        return out

    def apply(self, a):
        """Polynomial vector field X^T a ... rows contracted with constant a."""
        return poly_vector(
            [sum((self.entries[i, j] * a[i] for i in range(3)), Poly3.constant(0.0)) for j in range(3)]
        )

    def grad(self):
        """G[i][j][k] = d X_ij / d x_k as a 3x3x3 object array."""
        G = np.empty((3, 3, 3), dtype=object)
        for i, j, k in np.ndindex(3, 3, 3):
            G[i, j, k] = self.entries[i, j].diff(k)
        return G

    def curl(self):
        """Row-wise curl: row i of the result is curl of row i of X."""
        e = self.entries
        rows = []
        for i in range(3):
            rows.append(
                [
                    e[i, 2].diff(1) - e[i, 1].diff(2),
                    e[i, 0].diff(2) - e[i, 2].diff(0),
                    e[i, 1].diff(0) - e[i, 0].diff(1),
                ]
            )
        return PolyTensorField(rows)


def curl_of_vector(v):
    """curl of a polynomial vector field, as a polynomial 3-vector."""
    return poly_vector(
        [
            v[2].diff(1) - v[1].diff(2),
            v[0].diff(2) - v[2].diff(0),
            v[1].diff(0) - v[0].diff(1),
        ]
    )


def symbolic_curl(P: PolyTensorField) -> PolyTensorField:
    """Exact row-wise curl; apply twice for the double curl."""
    return P.curl()


@dataclass
class MicroStress:
    """Third-order microstress built from the gradient of a plastic strain field.

    components[i][a][b] holds the raw row-wise definition, twice the material
    factor times the skew part of the Jacobian of row i.  reduced() returns the
    representative that is symmetric and trace-free in the value indices (i, a),
    the only part that survives pairing with a symmetric trace-free strain rate.
    """

    components: np.ndarray  # (3, 3, 3) object array of Poly3

    @classmethod
    def from_plastic_strain(cls, params: MaterialParams, eps_p: PolyTensorField):
        f = params.mu * params.Lc ** 2
        e = eps_p.entries
        m = np.empty((3, 3, 3), dtype=object)
        for i, a, b in np.ndindex(3, 3, 3):
            # 2 * f * skew(Jacobian of row i), entry (a, b)
            m[i, a, b] = (e[i, a].diff(b) - e[i, b].diff(a)) * f
        return cls(m)

    def reduced(self) -> "MicroStress":
        """Symmetrize and remove the trace in the value indices (i, a)."""
        m = self.components
        out = np.empty((3, 3, 3), dtype=object)
        for b in range(3):
            tr_b = sum((m[c, c, b] for c in range(3)), Poly3.constant(0.0)) * (1.0 / 3.0)
            for i in range(3):
                for a in range(3):
                    s = (m[i, a, b] + m[a, i, b]) * 0.5
                    out[i, a, b] = s - tr_b if i == a else s
        return MicroStress(out)

    def divergence(self) -> PolyTensorField:
        """(Div m)_{ia} = d m_{iab} / d x_b, contracting the derivative index."""
        m = self.components
        rows = []
        for i in range(3):
            rows.append([m[i, a, 0].diff(0) + m[i, a, 1].diff(1) + m[i, a, 2].diff(2) for a in range(3)])
        return PolyTensorField(rows)


def microstress_identity_check(params: MaterialParams, eps_p: PolyTensorField, points=None, rng=None):
    """Verify the defect-energy variation identities on a polynomial field.

    Returns (d1, d2) where d1 is the max pointwise residual of
    Div m + mu Lc^2 CurlCurl eps_p (raw microstress) and d2 the max of
    |tr(Div m_reduced)|; both vanish up to roundoff for any smooth field.
    """
    if points is None:
        rng = rng or np.random.default_rng(0)
        points = rng.uniform(-1.0, 1.0, size=(20, 3))
    f = params.mu * params.Lc ** 2
    m = MicroStress.from_plastic_strain(params, eps_p)
    div_m = m.divergence()(points)
    curl_curl = symbolic_curl(symbolic_curl(eps_p))(points)
    d1 = np.max(np.abs(div_m + f * curl_curl))
    div_red = m.reduced().divergence()(points)
    d2 = np.max(np.abs(trace(div_red)))
    return d1, d2


def radial_return_0d(params: MaterialParams, strain_path, hardening="kin"):
    """Pointwise implicit elastoplastic update along a strain path.

    strain_path is a sequence of symmetric 3x3 strains starting near zero.
    With hardening="kin" the relative stress is the deviatoric stress minus
    the linear backstress mu k1 eps_p; with "iso" the yield radius grows as
    sigma_y + mu k2 gamma.  Returns a list of (sigma, eps_p, gamma).
    """
    if hardening not in ("kin", "iso"):
        raise ValueError("hardening must be 'kin' or 'iso'")
    mu, lam = params.mu, params.lam
    hard = params.mu * (params.k1 if hardening == "kin" else params.k2)
    eps_p = np.zeros((3, 3))
    gamma = 0.0
    out = []
    for eps in strain_path:
        eps = np.asarray(eps, dtype=float)
        s_trial = 2.0 * mu * dev(eps - eps_p)
        if hardening == "kin":
            eta = s_trial - hard * eps_p
            radius = params.sigma_y
        else:
            eta = s_trial
            radius = params.sigma_y + hard * gamma
        eta_norm = np.linalg.norm(eta)
        if eta_norm > radius:
            dlam = (eta_norm - radius) / (2.0 * mu + hard)
            n = eta / eta_norm
            eps_p = eps_p + dlam * n
            gamma += dlam
        sigma = 2.0 * mu * (eps - eps_p) + lam * trace(eps) * np.eye(3)
        out.append((sigma, eps_p.copy(), gamma))
    return out


def selftest(verbose=False):
    """Oracle self-consistency suite; returns a list of (name, ok, detail)."""
    rng = np.random.default_rng(20240817)
    results = []

    def record(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    # curl of a gradient vanishes identically
    v = poly_vector([Poly3(rng.standard_normal((3, 3, 3)) * (np.add.outer(np.add.outer(np.arange(3), np.arange(3)), np.arange(3)) <= 2)) for _ in range(3)])
    G = PolyTensorField.gradient_of_vector(v)
    pts = rng.uniform(-1, 1, size=(10, 3))
    record("curl(grad v) == 0", np.max(np.abs(symbolic_curl(G)(pts))) < 1e-12)

    # rows a_i x x have curl rows 2 a_i
    A = rng.standard_normal((3, 3))
    x = [Poly3.monomial((1, 0, 0)), Poly3.monomial((0, 1, 0)), Poly3.monomial((0, 0, 1))]
    rows = []
    for i in range(3):
        a = A[i]
        rows.append([a[1] * x[2] - a[2] * x[1], a[2] * x[0] - a[0] * x[2], a[0] * x[1] - a[1] * x[0]])
    P = PolyTensorField(rows)
    want = np.broadcast_to(2.0 * A, (len(pts), 3, 3))
    record("curl of a_i cross x rows", np.max(np.abs(symbolic_curl(P)(pts) - want)) < 1e-12)

    # symbolic derivative matches central finite differences
    F = PolyTensorField.random(rng, degree=3)
    h = 1e-5
    cols = []
    for k in range(3):
        dp = np.zeros(3)
        dp[k] = h
        cols.append((F(pts + dp) - F(pts - dp)) / (2 * h))
    dF = np.stack(cols, axis=-1)  # (npts, 3, 3, 3): d F_ij / d x_k
    fd = np.zeros((len(pts), 3, 3))
    fd[:, :, 0] = dF[:, :, 2, 1] - dF[:, :, 1, 2]
    fd[:, :, 1] = dF[:, :, 0, 2] - dF[:, :, 2, 0]
    fd[:, :, 2] = dF[:, :, 1, 0] - dF[:, :, 0, 1]
    record("symbolic curl vs finite differences", np.max(np.abs(symbolic_curl(F)(pts) - fd)) < 1e-7)

    # microstress identities on random quadratic symmetric trace-free fields
    params = MaterialParams(mu=2.0, lam=1.0, Lc=0.7)
    worst = 0.0
    for _ in range(5):
        ep = PolyTensorField.random(rng, degree=2, symmetric=True, trace_free=True)
        d1, d2 = microstress_identity_check(params, ep, points=pts)
        worst = max(worst, d1, d2)
    record("microstress divergence identity", worst < 1e-12, f"max residual {worst:.2e}")

    # radial return: perfect plasticity plateaus at the yield surface
    mat = MaterialParams(mu=80.0, lam=110.0, sigma_y=0.3)
    path = [s * np.array([[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]]) for s in np.linspace(0, 0.02, 30)]
    res = radial_return_0d(mat, path, hardening="kin")
    dev_norms = [np.linalg.norm(dev(sig)) for sig, _, _ in res]
    record("perfect plasticity stress plateau", max(dev_norms) <= mat.sigma_y * (1 + 1e-12))

    # radial return: Bauschinger effect under kinematic hardening
    mat = MaterialParams(mu=80.0, lam=110.0, k1=0.6, sigma_y=0.3)
    up = np.linspace(0, 0.02, 21)
    cycle = np.concatenate([up, up[-2::-1], -up[1:]])
    path = [s * np.array([[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]]) for s in cycle]
    res = radial_return_0d(mat, path, hardening="kin")
    gammas = np.array([g for _, _, g in res])
    sig12 = np.array([sig[0, 1] for sig, _, _ in res])
    fwd_onset = next(abs(sig12[i]) for i in range(1, len(up)) if gammas[i] > gammas[i - 1])
    rev = range(len(up), len(cycle))
    rev_onset = next(abs(sig12[i]) for i in rev if gammas[i] > gammas[i - 1])
    record("Bauschinger reverse onset below forward", rev_onset < fwd_onset, f"{rev_onset:.4f} < {fwd_onset:.4f}")

    # rate independence: refining a monotone path changes nothing
    mat = MaterialParams(mu=80.0, lam=110.0, k2=0.5, sigma_y=0.3)
    coarse = np.linspace(0, 0.015, 8)
    fine = np.linspace(0, 0.015, 15)
    shear = np.array([[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]])
    res_c = radial_return_0d(mat, [s * shear for s in coarse], hardening="iso")
    res_f = radial_return_0d(mat, [s * shear for s in fine], hardening="iso")
    diff = max(
        np.max(np.abs(res_c[i][0] - res_f[2 * i][0])) for i in range(len(coarse))
    )
    record("radial return is rate independent", diff < 1e-10, f"max diff {diff:.2e}")

    if verbose:
        for name, ok, detail in results:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    return results
