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
assembled on demand into a sparse matrix between two nodal spaces: full
nodal components, those of a subset of the nodes, or the reduced
coordinates below.  The forms are translation-invariant, so the assembly
reduces the blocks of each class of nodes (one node type, and the same
types of neighbours) once, into a stencil template that every node of
the class writes.  The Gauss-point assembly, and the assembly through COO
triples, are kept only as test references (tests/gauss_reference.py).

Pointwise constraints on the plastic field (trace-free, symmetric, rows
parallel to the outward normal on micro-hard faces) are realized through a
per-node orthonormal basis of the admissible subspace, shared by all nodes
of one type; the sparse matrix B stacking those bases converts between full
nodal tensors (9 dofs per node) and reduced coordinates, in which the
Frobenius norm of a nodal tensor is the plain Euclidean norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import groupby, product
from operator import itemgetter

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

from .tensors import PROJ_SYM, MaterialParams, elasticity_matrix

FACES = ("xmin", "xmax", "ymin", "ymax", "zmin", "zmax")


def face_axis_side(face):
    if face not in FACES:
        raise ValueError(f"unknown face {face!r}, expected one of {FACES}")
    idx = FACES.index(face)
    return idx // 2, idx % 2


# Most bytes setup_bytes may estimate for a grid: seventeen times the whole
# setup peak of a 24^3 run (243 MB), whose estimate is 1.7 MB, and half the
# memory of a small host
SETUP_BYTES_MAX = 2 ** 32

# Floats per node of the nodal arrays: u, p and gamma of one state
NODAL_FLOATS = 3 + 9 + 1


def setup_bytes(n):
    """Bytes that the setup of a grid of n cells per axis allocates at least,
    before its operators: the dense 1D factors of _factors_1d, about eight
    arrays of (n + 1)^2 floats per axis, and NODAL_FLOATS per node.  Exact
    integers, so that no size overflows."""
    nodes = (n[0] + 1) * (n[1] + 1) * (n[2] + 1)
    return 8 * (8 * sum((v + 1) ** 2 for v in n) + NODAL_FLOATS * nodes)


@dataclass(frozen=True)
class Grid:
    """Axis-aligned box of n[d] identical cells of size h[d] per axis.

    A grid whose setup_bytes exceed SETUP_BYTES_MAX is refused with a
    ValueError, before anything of its size is allocated.
    """

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
        need = setup_bytes(self.n)
        if need > SETUP_BYTES_MAX:
            raise ValueError(f"a grid of {self.n[0]}x{self.n[1]}x{self.n[2]} cells needs at least "
                             f"{need / 2 ** 30:.3g} GiB to set up, more than SETUP_BYTES_MAX "
                             f"({SETUP_BYTES_MAX / 2 ** 30:g} GiB)")

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

# CSR entries that Blocks.assemble writes at once, as whole nodes' class
# templates: enough that numpy, not the interpreter, does the work, and few
# enough that the index temporaries of a chunk stay small beside the
# assembled matrix (at 10^3, 2^16 let a run operator peak at 1.98 times its
# arrays, 2^13 at 1.36 times)
ASSEMBLY_CHUNK = 2 ** 13


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
    them exactly.  Each is tridiagonal.  "|F|" names the entrywise magnitude
    of factor F, which magnitudes() term lists use.
    """
    cells = np.full(n + 1, 2.0)  # cells touching each node
    cells[0] = cells[-1] = 1.0
    lower, upper = np.diag(np.ones(n), -1), np.diag(np.ones(n), 1)
    M = h / 6.0 * (lower + upper) + h / 3.0 * np.diag(cells)
    with np.errstate(over="ignore"):  # an h whose reciprocal overflows gives inf, which assemble rejects
        K = (np.diag(cells) - lower - upper) / h
    G = 0.5 * (lower - upper)
    G[0, 0], G[n, n] = -0.5, 0.5
    factors = {"M": M, "K": K, "G": G, "Gt": G.T}
    return {**factors, **{f"|{name}|": np.abs(f) for name, f in factors.items()}}


def pencil_1d(n, h, a, b):
    """Eigenpairs of the 1D factors K v = lam M v of n cells of size h on the nodes a <= i < b, in closed form.

    Returns (V, lam), lam ascending, with V' M V = I and V' K V = diag(lam).
    Each end of the range is either a natural boundary node (node 0 or n),
    whose rows of K and M are half an interior row, or it lies next to a
    removed node.  The modes are those of the second difference: sampled
    cosines from a natural first node, sines from a removed node before it,
    with theta = k pi / N when both ends are alike and (k - 1/2) pi / N when
    they differ, N being m - 1 for m nodes with two natural ends, m + 1 with
    two removed neighbours and m otherwise, and
    lam = (6 / h^2) (1 - cos theta) / (2 + cos theta).  Each mode satisfies
    K v = kappa W v and M v = mu W v, W the identity with 1/2 on a natural
    end's row, which normalizes it.  Every angle involved is a whole
    multiple of pi / (4 N), so all values come from one table of 2 N + 1
    math.sin values: no LAPACK routine and no numpy sine is called, because
    the first np.sin of a process adds about 0.2 MB to its peak memory.
    Nothing is checked: an h whose 1 / h^2 overflows gives infinite
    eigenvalues, and the callers decide.
    """
    m = b - a
    natural_first, natural_last = a == 0, b == n + 1
    k = np.arange(m)
    # half of theta_k, in units of pi / (4 N)
    if natural_first == natural_last:
        N, half = (m - 1, 2 * k) if natural_first else (m + 1, 2 * k + 2)
    else:
        N, half = m, 2 * k + 1
    quarter = [math.sin(i * math.pi / (4 * N)) for i in range(2 * N + 1)]
    half_turn = quarter + quarter[-2:0:-1]  # sin(pi - x) = sin x
    sin = np.array(half_turn + [-v for v in half_turn])  # sin(x + pi) = -sin x
    # j theta_k, and a quarter turn more for a cosine: cos x = sin(x + pi / 2)
    j = np.arange(m)[:, None] if natural_first else np.arange(1, m + 1)[:, None]
    V = sin[(2 * half * j + (2 * N if natural_first else 0)) % (8 * N)]
    Wv2 = V * V  # W v^2 per node and mode
    if natural_first:
        Wv2[0] *= 0.5
    if natural_last:
        Wv2[-1] *= 0.5
    cos_theta = sin[(2 * half + 2 * N) % (8 * N)]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        V /= np.sqrt(h / 6.0 * (4.0 + 2.0 * cos_theta) * Wv2.sum(axis=0))
        lam = 12.0 * sin[half] ** 2 / (2.0 + cos_theta) / h / h
    return V, lam


def _box_pencils(grid: Grid, lo, hi):
    """pencil_1d of each axis, x first, on the nodes lo <= ijk < hi; alike axes share one."""
    ranges = list(zip(grid.n, grid.h, lo, hi))
    made = {r: pencil_1d(*r) for r in set(ranges)}
    return [made[r] for r in ranges]


def free_box(grid: Grid, faces):
    """(lo, hi): the nodes on none of the faces are those with lo <= ijk < hi."""
    lo, hi = [0, 0, 0], [n + 1 for n in grid.n]
    for face in faces:
        axis, side = face_axis_side(face)
        if side:
            hi[axis] = grid.n[axis]
        else:
            lo[axis] = 1
    return lo, hi


def kron_sum_inverse(pencils, spectrum):
    """Exact inverse of a Kronecker sum diagonalized by the pencils, on k components per node.

    pencils are the _box_pencils of a box of nodes, and spectrum, shaped
    (z, y, x, k), is the operator's value on each product mode and
    component: sum_a w_a lam_a for sum_a w_a L_a, L_a being K on axis a and
    M on the others, and 1 more with the mass M x M x M.  This is fast
    diagonalization (Lynch, Rice & Thomas, Numer. Math. 6, 1964) through
    V' M V = I, V' K V = diag(lam) per axis.  Returns apply(x, out=None), for
    x of the box's size in (z, y, x, k) order, which writes into out, or a
    new array shaped like x, and returns it.  The x factor acts on (x, k) at
    once as kron(V, I_k), one product instead of one per (z, y) row.  A mode
    whose value overflows inverts to 0.
    """
    nz, ny, nx, k = spectrum.shape
    (Vx, _), (Vy, _), (Vz, _) = pencils
    eye = np.eye(k)[None, :, None, :]
    # V' x is x kron(Vx, I) along x, then Vy' and Vz'; V y runs back the same way
    Vx_k, Vx_kT = ((v[:, None, :, None] * eye).reshape(nx * k, nx * k) for v in (Vx, Vx.T))
    VyT, VzT = np.ascontiguousarray(Vy.T), np.ascontiguousarray(Vz.T)
    with np.errstate(divide="ignore"):
        inverse = (1.0 / spectrum).reshape(nz, ny * nx * k)

    def apply(x, out=None):
        if out is None:
            out = np.empty(x.shape)
        with np.errstate(over="ignore", invalid="ignore"):
            y = x.reshape(nz * ny, nx * k) @ Vx_k
            y = VyT @ y.reshape(nz, ny, nx * k)
            y = VzT @ y.reshape(nz, ny * nx * k)
            y *= inverse
            y = Vy @ (Vz @ y).reshape(nz, ny, nx * k)
            np.matmul(y.reshape(nz * ny, nx * k), Vx_kT, out=out.reshape(nz * ny, nx * k))
        return out

    return apply


def fd_inverse(grid: Grid, lo, hi, weight):
    """Exact inverse of weight * L + M on the nodes lo <= ijk < hi, for arrays (z, y, x, 3).

    L (K on one axis, M on the others, summed over axes) and the mass M are
    Kronecker sums there, which kron_sum_inverse inverts on closed-form
    pencils.  Raises ValueError when a pencil is not finite, as for a cell
    size whose 1 / h^2 overflows.
    """
    pencils = _box_pencils(grid, lo, hi)
    if not all(np.isfinite(v).all() and np.isfinite(lam).all() for v, lam in pencils):
        raise ValueError("a fast-diagonalization pencil is not finite: the cell size is out of range")
    lam = [lam for _, lam in pencils]
    with np.errstate(over="ignore"):  # an overflowing weight * eigenvalue inverts to 0 on its mode
        spectrum = 1.0 + weight * sum(np.ix_(*lam[::-1]))
    return kron_sum_inverse(pencils, np.repeat(spectrum[..., None], 3, axis=-1))


def lame_inverse(blocks, faces):
    """The exact inverse of each displacement component's diagonal block of K_uu on the
    nodes on none of the Dirichlet faces, a preconditioner of the free block K_ff.

    Every Dirichlet face prescribes all three components of its nodes, so the
    free nodes form one box (free_box), and on it component i's diagonal
    block is the Kronecker sum sum_a w_ai L_a, L_a being K on axis a and M on
    the others, w_ai the i-th diagonal entry of K_uu's kernel on that pairing:
    mu L + (mu + lam) L_i for isotropic moduli.  The blocks coupling two
    components are left out.  Returns kron_sum_inverse's apply(r, out), r
    and out in K_ff's ordering, nodes in order and three components each.
    Nothing is checked: a cell size whose pencil overflows gives a
    preconditioner that zeroes those modes, and a solve with it fails.
    """
    grid = blocks.grid
    lo, hi = free_box(grid, faces)
    with np.errstate(over="ignore", invalid="ignore"):
        pencils = _box_pencils(grid, lo, hi)
        kernels = dict(blocks.terms["K_uu"])
        lam = np.ix_(*(lam for _, lam in pencils[::-1]))[::-1]
        spectrum = sum(lam[a][..., None] * kernels[_pair_names(a, a)].diagonal() for a in range(3))
    return kron_sum_inverse(pencils, spectrum)


def transposed(terms):
    """Term list of the transposed form: each kernel transposed, G and Gt swapped."""
    return [(tuple({"G": "Gt", "Gt": "G"}.get(n, n) for n in names), kernel.T) for names, kernel in terms]


def magnitudes(terms):
    """Term list of |1D factors| (x) |kernels| per term: for x >= 0 its product bounds
    |sum of the terms' summands| entry by entry, the scale of their roundoff."""
    return [(tuple(f"|{n}|" for n in names), np.abs(kernel)) for names, kernel in terms]


def _nodal_space(space, node_count):
    """(size, first coordinate of each node, node types, per-type bases).

    An int k is the identity on k components per node, and a pair (k, nodes)
    the identity on k components at the nodes where the bool array nodes is
    True and empty elsewhere: its coordinates are those nodes' components,
    in node order.  A PBasis has one (m, 9) basis with orthonormal rows per
    node type.  A node whose basis is empty has no coordinate.
    """
    if isinstance(space, PBasis):
        return space.size, space.offsets[:-1].astype(np.int32), space.node_type, space.type_bases
    k, nodes = space if isinstance(space, tuple) else (space, np.ones(node_count, dtype=bool))
    kept = np.cumsum(nodes, dtype=np.int32)  # nodes kept up to and including each
    return k * int(kept[-1]), k * (kept - nodes), (~nodes).astype(np.intp), [np.eye(k), np.empty((0, k))]


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
    assembling it, and apply_all() by several term lists in one pass that
    shares their 1D-factor products.  assemble() is the one assembler: it
    turns any term list into CSR between two nodal spaces, the identity on
    all nodes or on some of them, or a PBasis's per-node bases, so callers
    get free and reduced operators without forming a full-space block.  It
    reduces the blocks of each class of alike nodes once, as a stencil
    template, and writes every node's rows from its class's template.
    Blocks keeps no assembled form.  Every form equals the 2x2x2 Gauss-point
    assembly, and analytically zero entries are never stored.  The defect
    form K_curl_cc composes the discrete row-wise curl with itself.
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
        """sum_t kron(pairing_t, kernel_t) @ x, x holding kernel.shape[1] components per node."""
        return self.apply_all([terms], x)[0]

    def apply_all(self, forms, x):
        """[apply(terms, x) for terms in forms], each product that their terms share made once.

        Each pairing is applied as its three 1D factors, x first, and then
        the kernel; nothing is assembled.  The terms of all forms are walked
        in sorted order of their factor names, which groups them by x factor
        and then by (x, y) factors, so each distinct x, (x, y) and (x, y, z)
        product is made once.  The three products of the current term share
        one block that the call allocates: one allocation, instead of one per
        product, keeps repeated calls on large grids from faulting in fresh
        pages.  Each form adds its terms in the sorted order whatever the
        other forms are, so it gets the same bits alone as with others.
        Nothing is kept between calls.
        """
        k = forms[0][0][1].shape[1]
        nz, ny, nx = self.grid.node_shape[::-1]
        x = np.reshape(x, (nz * ny, nx, k))
        fx, fy, fz = self._1d
        leaves = {}  # factor names -> [(form, transposed kernel)]
        for i, terms in enumerate(forms):
            for names, kernel in terms:
                leaves.setdefault(tuple(names), []).append((i, np.ascontiguousarray(kernel.T)))
        # the x, (x, y) and (x, y, z) products of the current term, each
        # viewed in the shape its factor writes and the shape the next reads
        block = np.empty((3, x.size))
        tx, tx_y = block[0].reshape(nz * ny, nx, k), block[0].reshape(nz, ny, -1)
        txy, txy_z = block[1].reshape(nz, ny, -1), block[1].reshape(nz, -1)
        txyz, txyz_k = block[2].reshape(nz, -1), block[2].reshape(-1, k)
        out = [None] * len(forms)
        for ax, x_leaves in groupby(sorted(leaves), itemgetter(0)):
            np.matmul(fx[ax], x, out=tx)
            for ay, xy_leaves in groupby(x_leaves, itemgetter(1)):
                np.matmul(fy[ay], tx_y, out=txy)
                for names in xy_leaves:
                    np.matmul(fz[names[2]], txy_z, out=txyz)
                    for i, kernel_t in leaves[names]:
                        if out[i] is None:
                            out[i] = txyz_k @ kernel_t
                        else:
                            out[i] += txyz_k @ kernel_t
        return [y.ravel() for y in out]

    def assemble(self, terms, rows, cols=None):
        """CSR matrix of sum_t kron(pairing_t, kernel_t) between two nodal spaces.

        rows and cols are nodal spaces (see _nodal_space); the block of node
        pair (I, J) is sum_t pairing_t[I, J] V_I kernel_t V_J'.  The pairing
        of a pair is a product of three 1D-factor entries, one per axis, and
        on the uniform grid an entry depends only on the offset and on
        whether the node is at either end of its axis.  So the nodes with
        coordinates fall into classes: those of one row type whose 27
        neighbours, at the offsets of _stencil, have the same column types,
        a missing neighbour counting as a type of its own.  The nodes of a
        class have the same blocks, and each class's blocks are reduced
        once, from its first node: by one dense product per (row type,
        column type) of the pairings with the kernels reduced once per type
        pair, against every entry of a block, as on the COO route of
        tests/gauss_reference.py.  numpy's matrix product gives an entry the
        same bits whatever its number of rows, as long as it is at least
        two; a one-row product is a vector product, which rounds
        differently.  So every product has one spare row, and a pair alone
        in its type pair at its offset in the whole grid is reduced alone,
        as a vector product: each entry has the bits of one product per
        offset and type pair over all node pairs.  An entry within
        ROUNDOFF * sum_t |pairing_t| |V_I| |kernel_t| |V_J|' of zero is
        analytically zero and is not stored; a non-finite entry raises
        ValueError.  cols=None assembles a symmetric form on rows: a block
        at an offset with J < I is reduced as the (J, I) pair at the
        opposite offset and transposed, and the diagonal blocks are
        symmetrized, so the result is exactly symmetric.

        A class's kept entries, in the order (row, offset, column), are its
        template.  A row's offsets run in ascending order of their column
        node, so the template's rows are sorted, and a node's rows are
        contiguous, so the templates' row lengths give indptr and each node
        writes its class's template at the start of its first row, its
        columns shifted to its neighbours' first coordinates,
        ASSEMBLY_CHUNK entries at a time.  There is no conversion and no
        sort.  Indices are int32.
        """
        grid = self.grid
        symmetric = cols is None
        n_rows, r_first, r_type, r_bases = _nodal_space(rows, grid.node_count)
        n_cols, c_first, c_type, c_bases = (n_rows, r_first, r_type, r_bases) if symmetric \
            else _nodal_space(cols, grid.node_count)
        kernels = np.array([kernel for _, kernel in terms], dtype=float)
        offsets, shifts, ijk = self._stencil
        missing = len(c_bases)  # the column type of a missing neighbour
        r_dims = np.array([len(V) for V in r_bases])
        nodes = np.flatnonzero(r_dims[r_type])  # those with rows
        # each node's type and the column types of its neighbours, the 3x3x3
        # window around it taken in the order of the offsets
        padded = np.pad(c_type.astype(np.int8).reshape(grid.node_shape[::-1]), 1, constant_values=missing)
        signature = np.empty((nodes.size, 1 + len(offsets)), dtype=np.int8)
        signature[:, 0] = r_type[nodes]
        signature[:, 1:] = sliding_window_view(padded, (3, 3, 3)).reshape(-1, len(offsets))[nodes]
        _, first, node_class, size = np.unique(signature.view(np.dtype((np.void, signature.shape[1]))).ravel(),
                                               return_index=True, return_inverse=True, return_counts=True)
        signature = signature[first]
        # node pairs per offset and type pair over the grid
        pairs = np.zeros((len(offsets), len(r_bases), missing + 1), dtype=np.intp)
        np.add.at(pairs, (np.arange(len(offsets)), signature[:, :1], signature[:, 1:]), size[:, None])
        # the pair (I, J) reduced for each class and offset o, I the class's
        # first node, or for a symmetric form's J < I, the pair (J, I) at off
        cls, o = np.nonzero(signature[:, 1:] != missing)
        flip = symmetric & (shifts[o] < 0)
        I = nodes[first[cls]] + np.where(flip, shifts[o], 0)
        off = np.where(flip, len(offsets) - 1 - o, o)
        group = r_type[I] * missing + c_type[I + shifts[off]]
        # entry (i, i + d) of an axis's 1D factors, at the flat index i (n + 2) + d
        at = [ijk[I, axis] * (n + 2) + offsets[off, axis] for axis, n in enumerate(grid.n)]
        m = max(len(V) for V in r_bases + c_bases)  # the most coordinates of a node
        # each class's kept entries by (row, offset, column); the others are 0
        templates = np.zeros((len(signature), m, len(offsets), m))
        # an overflowing pairing or product, or a non-finite kernel, gives non-finite entries, rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            S = np.zeros((I.size + 1, len(terms)))  # the last row is the spare one
            for t, (names, _) in enumerate(terms):
                fx, fy, fz = (f[name].take(flat) for f, name, flat in zip(self._1d, names, at))
                np.multiply(fz * fy, fx, out=S[:-1, t])
            for g in np.unique(group):
                tr, tc = divmod(g, missing)
                Vr, Vc = r_bases[tr], c_bases[tc]
                R = (Vr @ kernels @ Vc.T).reshape(len(terms), -1)
                R_abs = (np.abs(Vr) @ np.abs(kernels) @ np.abs(Vc).T).reshape(len(terms), -1)
                if not R_abs.any():  # an empty basis, or kernels that reach no entry (NaN reaches)
                    continue
                p = np.flatnonzero(group == g)
                v, bound = ((A[np.append(p, -1)] @ B)[:-1] for A, B in ((S, R), (np.abs(S), R_abs)))
                for i in np.flatnonzero(pairs[off[p], tr, tc] == 1):
                    v[i], bound[i] = S[p[i]:p[i] + 1] @ R, np.abs(S[p[i]:p[i] + 1]) @ R_abs
                bound *= ROUNDOFF
                # NaN would pass the roundoff test below, and an infinite bound would drop every
                # entry; a non-finite pairing makes its values non-finite
                if not (np.all(np.isfinite(v)) and np.all(np.isfinite(bound))):
                    raise ValueError("an assembled form has a non-finite entry: the material or grid overflows")
                v, bound = v.reshape(-1, len(Vr), len(Vc)), bound.reshape(-1, len(Vr), len(Vc))
                if symmetric and tr == tc:  # and the J = I blocks
                    same = shifts[off[p]] == 0
                    v[same], bound[same] = (0.5 * (A[same] + A[same].transpose(0, 2, 1)) for A in (v, bound))
                v = np.where(np.abs(v) > bound, v, 0.0)
                for sel, A in ((~flip[p], v), (flip[p], v.transpose(0, 2, 1))):
                    templates[cls[p[sel]], :A.shape[1], o[p[sel]], :A.shape[2]] = A[sel]
        template_class, template_row, template_offset, template_col = np.nonzero(templates)
        template_value = templates[templates != 0]
        row_lengths = np.bincount(template_class * m + template_row, minlength=len(signature) * m)
        row_lengths = row_lengths.reshape(len(signature), m)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(row_lengths[node_class][np.arange(m) < r_dims[r_type[nodes], None]], out=indptr[1:])
        data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=np.int32)
        starts = indptr[r_first[nodes]]  # where each node's entries begin
        members = np.split(np.argsort(node_class, kind="stable"), np.cumsum(size)[:-1])
        sizes = row_lengths.sum(axis=1)  # of each class's template
        for members_k, end, entries in zip(members, np.cumsum(sizes), sizes):
            e = slice(end - entries, end)
            shift, col, value = shifts[template_offset[e]], template_col[e].astype(np.int32), template_value[e]
            step = max(1, ASSEMBLY_CHUNK // max(1, entries))
            for lo in range(0, members_k.size, step):
                J = members_k[lo:lo + step]
                place = starts[J][:, None] + np.arange(entries)
                data[place] = value
                indices[place] = c_first[nodes[J][:, None] + shift] + col
        return sp.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols))

    @cached_property
    def _stencil(self):
        """(offsets, shifts, ijk): the 27 offsets (dx, dy, dz) of a node's
        neighbours, in ascending order of J - I, so that offset 13 is J = I,
        dx fastest; the J - I of each; and every node's lattice coordinates,
        x fastest."""
        nx, ny, _ = self.grid.node_shape
        offsets = np.array(list(product((-1, 0, 1), repeat=3)))[:, ::-1]
        return offsets, offsets @ (1, nx, nx * ny), self.grid.node_ijk()

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
        # B straight into CSR: node j's nine rows hold its type's nonzeros in
        # column order, a contiguous run of entries from indptr[9 j]
        per_row = np.array([np.count_nonzero(V, axis=0) for V in self.type_bases]).reshape(-1, 9)
        indptr = np.zeros(9 * len(self.node_type) + 1, dtype=np.int64)
        np.cumsum(per_row[self.node_type], out=indptr[1:])
        data, indices = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=np.int32)
        for t, V in enumerate(self.type_bases):
            nodes = np.flatnonzero(self.node_type == t)
            k, r = np.nonzero(V.T)  # row k of the node, column r of its coordinates
            place = indptr[9 * nodes][:, None] + np.arange(k.size)
            data[place] = V[r, k]
            indices[place] = self.offsets[nodes][:, None] + r
        self.B = sp.csr_matrix((data, indices, indptr), shape=(9 * len(self.node_type), self.size))

    @property
    def size(self):
        return int(self.offsets[-1])

    def dims(self):
        return self._dims

    def to_full(self, c):
        return np.asarray(self.B @ c)

    @cached_property
    def BT(self):
        """B' as CSR, built on first use: a product with it costs half one with the CSC view B.T."""
        return self.B.T.tocsr()

    def to_reduced(self, p_flat):
        return np.asarray(self.BT @ p_flat)

    def node_sums(self, x):
        """Sum of each node's reduced coordinates of the vector x by np.add.reduceat, 0 at a node without any."""
        out = np.zeros(len(self.node_type))
        out[self._nodes] = np.add.reduceat(x, self._starts)
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
    # a node's code 4 a0 + 2 a1 + a2 of its allowed columns numbers the node
    # types in the lexicographic order of their allowed columns
    code = allowed_columns(grid, micro_hard_faces) @ np.array([4, 2, 1])
    present = np.bincount(code, minlength=8) > 0
    bases = [np.reshape(_node_basis(((c >> 2) & 1, (c >> 1) & 1, c & 1), mode), (-1, 9))
             for c in np.flatnonzero(present)]
    return PBasis((np.cumsum(present) - 1)[code], bases, mode)


def dirichlet_mask(grid: Grid, boundary: BoundaryConfig) -> np.ndarray:
    """(3N,) bool, True where a displacement dof is prescribed."""
    mask = np.zeros((grid.node_count, 3), dtype=bool)
    for face in boundary.gamma_faces:
        mask[grid.nodes_on_face(face)] = True
    return mask.ravel()

