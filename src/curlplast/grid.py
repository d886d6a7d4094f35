"""Structured hexahedral grid with nodal trilinear elements.

Displacements and the plastic distortion are stored at nodes; all nine
tensor components share one scalar trilinear space, which is H1-conforming
and therefore conforming for the row-wise curl.

Every quadratic form (Blocks) is described once, as a list of Kronecker
terms: a scalar nodal pairing times a constant 9x9 (or 3x3) algebraic
kernel.  On the uniform grid each scalar pairing is in turn the Kronecker
product of three exact 1D tridiagonal factors (mass, stiffness,
derivative-mass), one per axis, so the forms equal the 2x2x2 Gauss-rule
assembly without storing its roundoff in analytically zero entries.  A term
list is applied to full nodal components one 1D factor at a time, or
assembled on demand into a sparse matrix between two nodal spaces, full
nodal components or the reduced coordinates below.  The Gauss-point
assembly is kept only as a test reference (tests/gauss_reference.py).

Pointwise constraints on the plastic field (trace-free, symmetric, rows
parallel to the outward normal on micro-hard faces) are realized through a
per-node orthonormal basis of the admissible subspace, shared by all nodes
of one type; the sparse matrix B stacking those bases converts between full
nodal tensors (9 dofs per node) and reduced coordinates, in which the
Frobenius norm of a nodal tensor is the plain Euclidean norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product

import numpy as np
import scipy.sparse as sp

from .tensors import PROJ_SYM, MaterialParams, elasticity_matrix

FACES = ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")


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


# Roundoff bound factor: an assembled entry, or a quadratic-form value, at or
# below ROUNDOFF times the sum of the magnitudes of its summands is
# indistinguishable from zero at double precision
ROUNDOFF = 64.0 * np.finfo(float).eps

_MASS = ("M", "M", "M")


def _pair_names(a, b):
    """1D factors, x first, of the scalar pairing int d_a phi_I d_b phi_J."""
    names = ["M"] * 3
    if a == b:
        names[a] = "K"
    else:
        names[a], names[b] = "G", "Gt"
    return tuple(names)


def _factors_1d(n, h):
    """Exact 1D factors of n linear cells of size h, n + 1 nodes, as dense arrays.

    M[i, j] = int phi_i phi_j, K[i, j] = int phi_i' phi_j', G[i, j] =
    int phi_i' phi_j and Gt = G'; the 2-point Gauss rule integrates all of
    them exactly.  Each is tridiagonal.
    """
    cells = np.full(n + 1, 2.0)  # cells touching each node
    cells[0] = cells[-1] = 1.0
    lower, upper = np.diag(np.ones(n), -1), np.diag(np.ones(n), 1)
    M = h / 6.0 * (lower + upper) + h / 3.0 * np.diag(cells)
    with np.errstate(over="ignore"):  # an h whose reciprocal overflows gives inf, which assemble rejects
        K = (np.diag(cells) - lower - upper) / h
    G = 0.5 * (lower - upper)
    G[0, 0], G[n, n] = -0.5, 0.5
    return {"M": M, "K": K, "G": G, "Gt": G.T}


def _kron_apply(fx, fy, fz, x):
    """kron(fz, kron(fy, fx)) @ x for x shaped (z, y, x, ...), trailing axes flattened."""
    nz, ny, nx = x.shape[:3]
    y = fx @ x.reshape(nz * ny, nx, -1)
    y = fy @ y.reshape(nz, ny, -1)
    y = fz @ y.reshape(nz, -1)
    return y.reshape(len(fz), len(fy), len(fx), -1)


def fd_inverse(grid: Grid, lo, hi, weight):
    """Exact inverse of weight * L + M on the nodes lo <= ijk < hi, for arrays (z, y, x, ...).

    L (K on one axis, M on the others, summed over axes) and the mass M are
    Kronecker sums there, which fast diagonalization (Lynch, Rice & Thomas,
    Numer. Math. 6, 1964) inverts through V' M V = I, V' K V = diag(lam) per axis.
    """
    V, lam = [], []
    for n, h, a, b in zip(grid.n, grid.h, lo, hi):
        f = _factors_1d(n, h)
        C = np.linalg.inv(np.linalg.cholesky(f["M"][a:b, a:b]))
        w, Q = np.linalg.eigh(C @ f["K"][a:b, a:b] @ C.T)
        V.append(C.T @ Q)
        lam.append(w)
    scale = 1.0 / (1.0 + weight * sum(np.ix_(*lam[::-1])))[..., None]
    return lambda x: _kron_apply(*V, scale * _kron_apply(*(v.T for v in V), x)).reshape(x.shape)


def transposed(terms):
    """Term list of the transposed form: each kernel transposed, G and Gt swapped."""
    return [(tuple({"G": "Gt", "Gt": "G"}.get(n, n) for n in names), kernel.T) for names, kernel in terms]


def _nodal_space(space, node_count):
    """(size, first coordinate of each node, node types, per-type bases).

    An int k is the identity on k components per node; a PBasis has one
    (m, 9) basis with orthonormal rows per node type.
    """
    if isinstance(space, PBasis):
        return space.size, space.offsets[:-1].astype(np.int32), space.node_type, space.type_bases
    first = space * np.arange(node_count, dtype=np.int32)
    return space * node_count, first, np.zeros(node_count, dtype=np.intp), [np.eye(space)]


class Blocks:
    """The quadratic forms of one grid and elastic moduli, as Kronecker term lists.

    Every form is described once, in terms[name]: a list of (names, kernel)
    terms, each the Kronecker product of a scalar nodal pairing with a
    constant algebraic kernel (9x9 on tensors, 3x3 on vectors, 3x9 for the
    coupling).  The scalar pairing is in turn a product of the exact 1D
    factors of _factors_1d, one named per axis, x first:

    - MMM is int phi_I phi_J;
    - _pair_names(a, a) is int d_a phi_I d_a phi_J: K on axis a, M on the others;
    - _pair_names(a, b), a != b, is int d_a phi_I d_b phi_J: G on axis a, Gt on
      axis b, M on the third;
    - G on axis b and M on the others is int d_b phi_I phi_J (K_up).

    apply() multiplies full nodal components by a term list without
    assembling it.  assemble() is the one assembler: it turns any term list
    into CSR between two nodal spaces, the identity or a PBasis's per-node
    bases, so callers get reduced operators without forming a full-space
    block.  Blocks keeps no assembled form.  Every form equals the 2x2x2
    Gauss-point assembly, and analytically zero entries are never stored.
    The defect form K_curl_cc composes the discrete row-wise curl with itself.
    """

    def __init__(self, grid: Grid, params):
        self.grid = grid
        # moduli that overflow give non-finite kernels, which assemble rejects
        with np.errstate(over="ignore", invalid="ignore"):
            chat = elasticity_matrix(params)
            K_uu = [(_pair_names(b, b2), _SEL[b].T @ chat @ _SEL[b2]) for b in range(3) for b2 in range(3)]
            K_up = [(tuple("G" if d == b else "M" for d in range(3)), -_SEL[b].T @ chat) for b in range(3)]
        self._1d = [_factors_1d(n, h) for n, h in zip(grid.n, grid.h)]
        self.terms = {
            "K_uu": K_uu,
            "K_up": K_up,
            "K_pp_el": [(_MASS, chat)],
            "K_sym": [(_MASS, PROJ_SYM)],
            "M_cons": [(_MASS, np.eye(9))],
            "K_curl_cc": [(_pair_names(a, a2), _CURL_K[a].T @ _CURL_K[a2]) for a in range(3) for a2 in range(3)],
        }

    def form(self, **weights):
        """Term list of sum over names of weight * terms[name]; zero weights drop out."""
        return [(names, w * kernel) for name, w in weights.items() if w for names, kernel in self.terms[name]]

    def apply(self, terms, x):
        """sum_t kron(pairing_t, kernel_t) @ x, x holding kernel.shape[1] components per node.

        Each pairing is applied as its three 1D factors, one per axis, and
        then the kernel; nothing is assembled.
        """
        k = terms[0][1].shape[1]
        x = np.reshape(x, self.grid.node_shape[::-1] + (k,))
        return sum(_kron_apply(*(f[name] for f, name in zip(self._1d, names)), x).reshape(-1, k) @ kernel.T
                   for names, kernel in terms).ravel()

    def assemble(self, terms, rows, cols=None):
        """CSR matrix of sum_t kron(pairing_t, kernel_t) between two nodal spaces.

        rows and cols are nodal spaces (see _nodal_space); the block of node
        pair (I, J) is sum_t pairing_t[I, J] V_I kernel_t V_J'.  For each of
        the 27 stencil offsets, the pairings of all node pairs are products
        of 1D-factor entries, and each (row type, column type) group of pairs
        is one dense product of those pairings with the kernels reduced once
        per type pair.  An entry within ROUNDOFF * sum_t |pairing_t| |V_I|
        |kernel_t| |V_J|' of zero is analytically zero and is not stored; a
        non-finite entry raises ValueError.
        cols=None assembles a symmetric form on rows: only node pairs with
        J >= I are computed, the lower half mirrors them and the diagonal
        blocks are symmetrized, so the result is exactly symmetric.
        Indices are int32.
        """
        grid = self.grid
        nx, ny, _ = grid.node_shape
        symmetric = cols is None
        n_rows, r_first, r_type, r_bases = _nodal_space(rows, grid.node_count)
        n_cols, c_first, c_type, c_bases = (n_rows, r_first, r_type, r_bases) if symmetric \
            else _nodal_space(cols, grid.node_count)
        kernels = np.array([kernel for _, kernel in terms], dtype=float)
        reduced = {}  # (row type, column type) -> reduced kernels and their magnitudes
        for tr, Vr in enumerate(r_bases):
            for tc, Vc in enumerate(c_bases):
                if len(Vr) and len(Vc):
                    # a non-finite or overflowing kernel gives non-finite entries, rejected below
                    with np.errstate(over="ignore", invalid="ignore"):
                        R = (Vr @ kernels @ Vc.T).reshape(len(terms), -1)
                        R_abs = (np.abs(Vr) @ np.abs(kernels) @ np.abs(Vc).T).reshape(len(terms), -1)
                    reduced[tr, tc] = R, R_abs, len(Vr), len(Vc)
        once, mirrored = [], []  # entries stored as computed; J > I entries of a symmetric form
        # an overflowing pairing or product gives non-finite entries, rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            for dz, dy, dx in product((-1, 0, 1), repeat=3):
                shift = dx + nx * (dy + ny * dz)
                if symmetric and shift < 0:
                    continue
                ix, iy, iz = (np.arange(max(0, -d), n + 1 - max(0, d)) for n, d in zip(grid.n, (dx, dy, dz)))
                node = (ix + nx * (iy[:, None] + ny * iz[:, None, None])).ravel()
                col = node + shift
                pairing = np.empty((node.size, len(terms)))
                for t, (names, _) in enumerate(terms):
                    fx, fy, fz = (np.diagonal(f[name], d) for f, name, d in zip(self._1d, names, (dx, dy, dz)))
                    pairing[:, t] = (fz[:, None, None] * fy[:, None] * fx).ravel()
                group = r_type[node] * len(c_bases) + c_type[col]
                for g in np.unique(group):
                    key = divmod(int(g), len(c_bases))
                    if key not in reduced:
                        continue
                    R, R_abs, mr, mc = reduced[key]
                    sel = group == g
                    S = pairing[sel]
                    vals = (S @ R).reshape(-1, mr, mc)
                    bound = ROUNDOFF * (np.abs(S) @ R_abs).reshape(-1, mr, mc)
                    # NaN would pass the roundoff test below, and an infinite bound would drop every entry
                    if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(bound))):
                        raise ValueError("an assembled form has a non-finite entry: the material or grid overflows")
                    if symmetric and shift == 0:
                        vals = 0.5 * (vals + vals.transpose(0, 2, 1))
                        bound = 0.5 * (bound + bound.transpose(0, 2, 1))
                    k, a, b = np.nonzero(np.abs(vals) > bound)
                    entry = (r_first[node[sel]][k] + a.astype(np.int32),
                             c_first[col[sel]][k] + b.astype(np.int32), vals[k, a, b])
                    (mirrored if symmetric and shift > 0 else once).append(entry)
        parts = once + mirrored + [(c, r, v) for r, c, v in mirrored]
        if not parts:
            return sp.csr_matrix((n_rows, n_cols))
        r, c, v = (np.concatenate(x) for x in zip(*parts))
        # the pieces are copied; release them before the CSR copy, which
        # sets the peak memory of the assembly
        del once, mirrored, parts
        return sp.csr_matrix((v, (r, c)), shape=(n_rows, n_cols))

    @cached_property
    def w_node(self):
        x, y, z = (f["M"].sum(axis=1) for f in self._1d)
        return np.kron(z, np.kron(y, x))

    @cached_property
    def m_lump(self):
        return np.repeat(self.w_node, 9)

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


def _segment_sums(columns):
    """columns[0] + (columns[1] + ... + columns[-1]) in the order np.add.reduceat
    adds a segment: numpy's pairwise sum of the rest chains up to 7 terms and
    adds 8, the most a node has after its first, as a balanced tree."""
    first, rest = columns[0], columns[1:]
    if len(rest) == 8:
        rest = [((rest[0] + rest[1]) + (rest[2] + rest[3])) + ((rest[4] + rest[5]) + (rest[6] + rest[7]))]
    return first + sum(rest[1:], rest[0]) if rest else first.copy()


@dataclass
class PBasis:
    """Per-node orthonormal bases of the admissible plastic subspace.

    Nodes that allow the same tensor columns share a node type:
    type_bases[t] is an (m_t, 9) array with orthonormal rows, and node j's
    coordinates are the components of its tensor along the rows of
    type_bases[node_type[j]].  offsets has length N + 1 and
    offsets[j]:offsets[j+1] indexes node j's coordinates; B is the (9N, M)
    matrix stacking the transposed bases node by node.
    """

    node_type: np.ndarray
    type_bases: list
    mode: str

    def __post_init__(self):
        self._dims = np.array([len(V) for V in self.type_bases])[self.node_type]
        self.offsets = np.concatenate([[0], np.cumsum(self._dims)])
        self._nodes = np.nonzero(self._dims > 0)[0]
        self._starts = self.offsets[self._nodes]
        self._uniform = bool(self._dims.min() > 0 and self._dims.min() == self._dims.max())
        rows, cols, data = [], [], []
        for t, V in enumerate(self.type_bases):
            nodes = np.nonzero(self.node_type == t)[0]
            r, k = np.nonzero(V)
            rows.append((9 * nodes[:, None] + k).ravel())
            cols.append((self.offsets[nodes][:, None] + r).ravel())
            data.append(np.tile(V[r, k], len(nodes)))
        shape = (9 * len(self.node_type), self.size)
        self.B = sp.csr_matrix((np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=shape)

    @property
    def size(self):
        return int(self.offsets[-1])

    def dims(self):
        return self._dims

    def to_full(self, c):
        return np.asarray(self.B @ c)

    def to_reduced(self, p_flat):
        return np.asarray(self.B.T @ p_flat)

    def node_sums(self, x):
        """Sum of each node's reduced coordinates.

        x may carry leading dimensions (a block of vectors, one per row, a
        strided view included); the node axis replaces its last axis.  The
        sums equal np.add.reduceat's bit for bit.
        """
        if self._uniform:  # the columns of each coordinate are views: no strided reduceat
            block = x.reshape(x.shape[:-1] + (len(self.node_type), -1))
            return _segment_sums([block[..., i] for i in range(block.shape[-1])])
        out = np.zeros(x.shape[:-1] + (len(self.offsets) - 1,))
        if len(self._starts):
            # reduce over the first axis of the transpose: for a vector this
            # is the plain indexing, which costs less per call than out[..., nodes]
            out.T[self._nodes] = np.add.reduceat(x.T, self._starts)
        return out

    def node_dots(self, a, b):
        """Inner product of each node's tensors from reduced coordinates, as node_sums."""
        return self.node_sums(a * b)

    def node_norms(self, c):
        """Frobenius norm of each node's tensor from reduced coordinates, as node_dots."""
        return np.sqrt(self.node_dots(c, c))

    def scatter_per_node(self, per_node):
        """Repeat a per-node array onto the reduced coordinates."""
        return np.repeat(per_node, self._dims)


def build_p_basis(grid: Grid, micro_hard_faces, mode="sl") -> PBasis:
    """Per-node bases of the admissible subspace under the pointwise constraints.

    mode 'sl' keeps trace-free tensors (8 dofs at free nodes), 'sym_sl'
    symmetric trace-free (5 dofs), 'none' only the micro-hard mask (9 dofs).
    """
    allowed = allowed_columns(grid, micro_hard_faces)
    types, node_type = np.unique(allowed, axis=0, return_inverse=True)
    bases = [np.reshape(_node_basis(key, mode), (-1, 9)) for key in types]
    return PBasis(node_type.ravel(), bases, mode)


def dirichlet_mask(grid: Grid, boundary: BoundaryConfig) -> np.ndarray:
    """(3N,) bool, True where a displacement dof is prescribed."""
    mask = np.zeros((grid.node_count, 3), dtype=bool)
    for face in boundary.gamma_faces:
        mask[grid.nodes_on_face(face)] = True
    return mask.ravel()

