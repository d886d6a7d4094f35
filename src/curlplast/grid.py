"""Structured hexahedral grid with nodal trilinear elements.

Displacements and the plastic distortion are stored at nodes; all nine
tensor components share one scalar trilinear space, which is H1-conforming
and therefore conforming for the row-wise curl.

Quadratic-form blocks (Blocks) are Kronecker products of scalar nodal
pairings with constant 9x9 (or 3x3) algebraic kernels.  On the uniform grid
each scalar pairing is in turn the Kronecker product of three exact 1D
tridiagonal factors (mass, stiffness, derivative-mass), one per axis, so the
blocks equal the 2x2x2 Gauss-rule assembly without storing its roundoff in
analytically zero entries.  Blocks are assembled on first use.  The
Gauss-point assembly itself is kept only as a test reference
(tests/gauss_reference.py).

Pointwise constraints on the plastic field (trace-free, symmetric, rows
parallel to the outward normal on micro-hard faces) are realized through a
per-node orthonormal basis of the admissible subspace; the sparse matrix B
stacking those bases converts between full nodal tensors (9 dofs per node)
and reduced coordinates, in which the Frobenius norm of a nodal tensor is
the plain Euclidean norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .tensors import PROJ_SYM, MaterialParams, elasticity_matrix

FACES = ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")


class SingularBlock(ValueError):
    """Requested operator is singular on the admissible space."""


def face_axis_side(face):
    if face not in FACES:
        raise ValueError(f"unknown face {face!r}, expected one of {FACES}")
    idx = FACES.index(face)
    return idx // 2, idx % 2


@dataclass(frozen=True)
class Grid:
    """Axis-aligned box of n[d] identical cells of size h[d] per axis."""

    n: tuple[int, int, int]
    h: tuple[float, float, float]
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        object.__setattr__(self, "n", tuple(int(v) for v in self.n))
        object.__setattr__(self, "h", tuple(float(v) for v in self.h))
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        if any(v < 1 for v in self.n):
            raise ValueError("need at least one cell per axis")
        if any(v <= 0 for v in self.h):
            raise ValueError("cell sizes must be positive")

    @classmethod
    def unit_cube(cls, n):
        return cls((n, n, n), (1.0 / n, 1.0 / n, 1.0 / n))

    @property
    def node_shape(self):
        return (self.n[0] + 1, self.n[1] + 1, self.n[2] + 1)

    @property
    def node_count(self):
        nx, ny, nz = self.node_shape
        return nx * ny * nz

    @property
    def cell_count(self):
        return self.n[0] * self.n[1] * self.n[2]

    @property
    def volume(self):
        return float(np.prod(self.n) * np.prod(self.h))

    def node_index(self, ix, iy, iz):
        nx, ny, _ = self.node_shape
        return ix + nx * (iy + ny * iz)

    def node_ijk(self):
        """Integer lattice coordinates of every node, x fastest."""
        nx, ny, nz = self.node_shape
        iz, iy, ix = np.meshgrid(range(nz), range(ny), range(nx), indexing="ij")
        return np.stack([ix.ravel(), iy.ravel(), iz.ravel()], axis=1)

    def node_coords(self):
        return np.asarray(self.origin) + self.node_ijk() * np.asarray(self.h)

    def nodes_on_face(self, face):
        axis, side = face_axis_side(face)
        ijk = self.node_ijk()
        bound = 0 if side == 0 else self.n[axis]
        return np.nonzero(ijk[:, axis] == bound)[0]


@dataclass(frozen=True)
class BoundaryConfig:
    """Dirichlet faces for the displacement and micro-hard faces for p.

    micro_hard_faces defaults to gamma_faces; pass an empty tuple to leave
    the plastic distortion unconstrained at the boundary.
    """

    gamma_faces: tuple[str, ...]
    micro_hard_faces: tuple[str, ...] | None = None

    def __post_init__(self):
        gamma = tuple(self.gamma_faces)
        if not gamma:
            raise ValueError("gamma_faces must be non-empty")
        for f in gamma:
            face_axis_side(f)
        hard = gamma if self.micro_hard_faces is None else tuple(self.micro_hard_faces)
        for f in hard:
            face_axis_side(f)
        object.__setattr__(self, "gamma_faces", gamma)
        object.__setattr__(self, "micro_hard_faces", hard)


# --------------------------------------------------------------------------
# nodal fields

@dataclass
class VectorField:
    values: np.ndarray  # (N, 3)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[1] != 3:
            raise ValueError("VectorField expects shape (N, 3)")

    @classmethod
    def zeros(cls, grid):
        return cls(np.zeros((grid.node_count, 3)))


@dataclass
class TensorField:
    values: np.ndarray  # (N, 3, 3)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 3 or self.values.shape[1:] != (3, 3):
            raise ValueError("TensorField expects shape (N, 3, 3)")

    @classmethod
    def zeros(cls, grid):
        return cls(np.zeros((grid.node_count, 3, 3)))

    def max_trace_violation(self):
        t = np.abs(np.trace(self.values, axis1=1, axis2=2))
        scale = np.maximum(np.linalg.norm(self.values, axis=(1, 2)), 1e-300)
        return float(np.max(t / scale, initial=0.0))

    def max_symmetry_violation(self):
        s = np.linalg.norm(self.values - self.values.transpose(0, 2, 1), axis=(1, 2))
        scale = np.maximum(np.linalg.norm(self.values, axis=(1, 2)), 1e-300)
        return float(np.max(s / scale, initial=0.0))


@dataclass
class ScalarField:
    values: np.ndarray  # (N,)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1:
            raise ValueError("ScalarField expects shape (N,)")

    @classmethod
    def zeros(cls, grid):
        return cls(np.zeros(grid.node_count))


# --------------------------------------------------------------------------
# Kronecker-composed assembly: constant algebraic kernels and exact 1D factors

def _curl_kernels():
    """C_a with (C_a)[3i+k, 3i+b] = eps_{kab}: curl from the a-th derivative."""
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k] = 1.0
        eps[i, k, j] = -1.0
    out = []
    for a in range(3):
        C = np.zeros((9, 9))
        for i in range(3):
            for k in range(3):
                for b in range(3):
                    C[3 * i + k, 3 * i + b] = eps[k, a, b]
        out.append(C)
    return out


_CURL_K = _curl_kernels()


def _sel(b):
    """9x3 selector placing u-component i into tensor slot (i, b)."""
    S = np.zeros((9, 3))
    for i in range(3):
        S[3 * i + b, i] = 1.0
    return S


_SEL = [_sel(b) for b in range(3)]


def _factors_1d(n, h):
    """Exact 1D factors (M, K, G) of n linear cells of size h, n + 1 nodes.

    M[i, j] = int phi_i phi_j, K[i, j] = int phi_i' phi_j' and
    G[i, j] = int phi_i' phi_j; the 2-point Gauss rule integrates all three
    exactly.  G keeps only its two end diagonal entries: the interior ones
    are zero and are not stored.
    """
    cells = np.full(n + 1, 2.0)  # cells touching each node
    cells[0] = cells[-1] = 1.0
    off = np.ones(n)
    M = sp.diags([h / 6.0 * off, h / 3.0 * cells, h / 6.0 * off], [-1, 0, 1], format="csr")
    K = sp.diags([-off / h, cells / h, -off / h], [-1, 0, 1], format="csr")
    i = np.arange(n)
    rows = np.concatenate([i, i + 1, [0, n]])
    cols = np.concatenate([i + 1, i, [0, n]])
    vals = np.concatenate([-0.5 * off, 0.5 * off, [-0.5, 0.5]])
    G = sp.csr_matrix((vals, (rows, cols)), shape=(n + 1, n + 1))
    return M, K, G


def _symmetrized(K):
    K = K.tocsr()
    return 0.5 * (K + K.T)


class Blocks:
    """All assembled full-space operators for one grid and elastic moduli.

    p-blocks act on row-major nodal tensors flattened to length 9N; u-blocks
    on nodal vectors flattened to length 3N.  Every block is a sum of
    Kronecker products of a scalar nodal pairing with a constant 9x9 (or
    3x3) algebraic kernel, and every scalar pairing is itself a Kronecker
    product of the exact 1D factors of _factors_1d, one per axis:

    - M0 = int phi_I phi_J: M on all three axes;
    - _pair(a, a) = int d_a phi_I d_a phi_J: K on axis a, M on the others;
    - _pair(a, b) = int d_a phi_I d_b phi_J, a != b: G on axis a, G' on
      axis b, M on the third;
    - ME[b] = int d_b phi_I phi_J: G on axis b, M on the others;
    - w_node, the lumped (row-sum) weights: the product of the 1D row sums.

    The blocks equal the 2x2x2 Gauss-point assembly, and analytically zero
    entries are never stored.  Each block is assembled on first use, so a
    run pays only for the blocks it reads.  The defect form K_curl_cc
    composes the discrete row-wise curl with itself.
    """

    def __init__(self, grid: Grid, params):
        self.grid = grid
        self._chat = elasticity_matrix(params)
        self._1d = []
        for n, h in zip(grid.n, grid.h):
            M, K, G = _factors_1d(n, h)
            self._1d.append({"M": M, "K": K, "G": G, "Gt": G.T.tocsr()})

    def _scalar(self, names):
        """Scalar nodal pairing from one named 1D factor per axis, x first.

        Nodes are numbered x fastest, so the pairing is kron(z, kron(y, x)).
        """
        x, y, z = (f[name] for f, name in zip(self._1d, names))
        return sp.kron(z, sp.kron(y, x, format="csr"), format="csr")

    def _pair(self, a, b):
        names = ["M"] * 3
        if a == b:
            names[a] = "K"
        else:
            names[a], names[b] = "G", "Gt"
        return self._scalar(names)

    def _pairs(self):
        return [[self._pair(a, b) for b in range(3)] for a in range(3)]

    @cached_property
    def M0(self):
        return self._scalar("MMM")

    @cached_property
    def w_node(self):
        x, y, z = (np.asarray(f["M"].sum(axis=1)).ravel() for f in self._1d)
        return np.kron(z, np.kron(y, x))

    @cached_property
    def m_lump(self):
        return np.repeat(self.w_node, 9)

    @cached_property
    def K_uu(self):
        A = self._pairs()
        K = sum(
            sp.kron(A[b][b2], sp.csr_matrix(_SEL[b].T @ self._chat @ _SEL[b2]), format="csr")
            for b in range(3)
            for b2 in range(3)
        )
        return _symmetrized(K)

    @cached_property
    def K_up(self):
        ME = [self._scalar(["G" if d == b else "M" for d in range(3)]) for b in range(3)]
        return -sum(sp.kron(ME[b], sp.csr_matrix(_SEL[b].T @ self._chat), format="csr") for b in range(3))

    # kron of the symmetric M0 with a symmetric kernel is exactly symmetric
    @cached_property
    def K_pp_el(self):
        return sp.kron(self.M0, sp.csr_matrix(self._chat), format="csr")

    @cached_property
    def K_sym(self):
        return sp.kron(self.M0, sp.csr_matrix(PROJ_SYM), format="csr")

    @cached_property
    def M_cons(self):
        return sp.kron(self.M0, sp.eye(9), format="csr")

    @cached_property
    def K_curl_cc(self):
        A = self._pairs()
        K = sum(
            sp.kron(A[a][a2], sp.csr_matrix(_CURL_K[a].T @ _CURL_K[a2]), format="csr")
            for a in range(3)
            for a2 in range(3)
        )
        return _symmetrized(K)

    def body_force_vector(self, f):
        """Assembled load for a constant body force, flattened (3N,)."""
        return np.outer(self.w_node, np.asarray(f, dtype=float)).ravel()


@lru_cache(maxsize=8)
def _blocks_cache(grid: Grid, mu, lam):
    return Blocks(grid, MaterialParams(mu=mu, lam=lam))


def build_blocks(grid: Grid, params) -> Blocks:
    """Cached blocks; they depend on the material only through mu and lam."""
    return _blocks_cache(grid, params.mu, params.lam)


# --------------------------------------------------------------------------
# admissible-subspace bases and constraint handling

def allowed_columns(grid: Grid, micro_hard_faces) -> np.ndarray:
    """(N, 3) bool: which tensor columns may be nonzero at each node."""
    allowed = np.ones((grid.node_count, 3), dtype=bool)
    for face in micro_hard_faces:
        axis, _ = face_axis_side(face)
        nodes = grid.nodes_on_face(face)
        mask = np.zeros(3, dtype=bool)
        mask[axis] = True
        allowed[nodes] &= mask
    return allowed


def _node_basis(allowed, mode):
    """Orthonormal basis (list of 9-vectors) of the admissible subspace."""
    cols = [j for j in range(3) if allowed[j]]
    vecs = []

    def unit(i, j):
        v = np.zeros(9)
        v[3 * i + j] = 1.0
        return v

    if mode == "none":
        for j in cols:
            for i in range(3):
                vecs.append(unit(i, j))
        return vecs
    if mode == "sl":
        for j in cols:
            for i in range(3):
                if i != j:
                    vecs.append(unit(i, j))
    elif mode == "sym_sl":
        for a in range(3):
            for b in range(a + 1, 3):
                if allowed[a] and allowed[b]:
                    vecs.append((unit(a, b) + unit(b, a)) / np.sqrt(2.0))
    else:
        raise ValueError(f"unknown constraint mode {mode!r}")
    diag = [j for j in cols]
    if len(diag) == 3:
        vecs.append((unit(0, 0) - unit(1, 1)) / np.sqrt(2.0))
        vecs.append((unit(0, 0) + unit(1, 1) - 2.0 * unit(2, 2)) / np.sqrt(6.0))
    elif len(diag) == 2:
        a, b = diag
        vecs.append((unit(a, a) - unit(b, b)) / np.sqrt(2.0))
    return vecs


@dataclass
class PBasis:
    """Per-node orthonormal bases of the admissible plastic subspace.

    B is (9N, M) with orthonormal columns grouped node by node; offsets has
    length N + 1 and offsets[j]:offsets[j+1] indexes node j's coordinates.
    """

    B: sp.csr_matrix
    offsets: np.ndarray
    mode: str

    def __post_init__(self):
        self._dims = np.diff(self.offsets)
        self._nodes = np.nonzero(self._dims > 0)[0]
        self._starts = self.offsets[self._nodes]

    @property
    def size(self):
        return int(self.offsets[-1])

    def dims(self):
        return self._dims

    def to_full(self, c):
        return np.asarray(self.B @ c)

    def to_reduced(self, p_flat):
        return np.asarray(self.B.T @ p_flat)

    def segment_starts(self):
        """Column starts of the nonempty per-node segments, plus their node ids."""
        return self._starts, self._nodes

    def node_norms(self, c):
        """Frobenius norm of each node's tensor from reduced coordinates.

        c may carry leading dimensions (a block of vectors, one per row); the
        node axis replaces its last axis.
        """
        starts, nodes = self.segment_starts()
        out = np.zeros(c.shape[:-1] + (len(self.offsets) - 1,))
        if len(starts):
            # reduce over the first axis of the transpose: for a vector this
            # is the plain indexing, which costs less per call than out[..., nodes]
            out.T[nodes] = np.sqrt(np.add.reduceat((c * c).T, starts))
        return out

    def scatter_per_node(self, per_node):
        """Repeat a per-node array onto the reduced coordinates."""
        return np.repeat(per_node, self._dims)


def build_p_basis(grid: Grid, micro_hard_faces, mode="sl") -> PBasis:
    """Assemble the sparse basis matrix for the given pointwise constraints.

    mode 'sl' keeps trace-free tensors (8 dofs at free nodes), 'sym_sl'
    symmetric trace-free (5 dofs), 'none' only the micro-hard mask (9 dofs).
    """
    allowed = allowed_columns(grid, micro_hard_faces)
    cases = {}
    for j in range(grid.node_count):
        cases.setdefault(tuple(allowed[j]), []).append(j)
    dims = np.zeros(grid.node_count, dtype=np.int64)
    basis_for = {}
    for key in cases:
        basis_for[key] = _node_basis(np.asarray(key), mode)
        for j in cases[key]:
            dims[j] = len(basis_for[key])
    offsets = np.concatenate([[0], np.cumsum(dims)])
    rows, cols, data = [], [], []
    for key, nodes in cases.items():
        vecs = basis_for[key]
        if not vecs:
            continue
        V = np.asarray(vecs)  # (m, 9)
        nz = np.nonzero(V)
        for j in nodes:
            rows.append(9 * j + nz[1])
            cols.append(offsets[j] + nz[0])
            data.append(V[nz])
    if rows:
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        data = np.concatenate(data)
    B = sp.coo_matrix((data, (rows, cols)), shape=(9 * grid.node_count, int(offsets[-1])))
    return PBasis(B.tocsr(), offsets, mode)


def dirichlet_mask(grid: Grid, boundary: BoundaryConfig) -> np.ndarray:
    """(3N,) bool, True where a displacement dof is prescribed."""
    mask = np.zeros((grid.node_count, 3), dtype=bool)
    for face in boundary.gamma_faces:
        mask[grid.nodes_on_face(face)] = True
    return mask.ravel()

