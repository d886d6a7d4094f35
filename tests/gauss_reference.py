"""Gauss-point reference assembly, independent of the 1D-factor blocks.

The package assembles every quadratic form from exact 1D Kronecker factors
(curlplast.grid.Blocks), straight into the coordinates its caller uses.
This module rebuilds the same forms, and the pointwise fields the tests
probe, from sparse value and gradient operators at the 2x2x2 Gauss points
of every cell, and reduces them by sparse products with the basis matrix,
so the tests compare two independent assemblies.  It also assembles the
defect form a second way, through the skew-gradient (microforce) pairing

    <Curl X, Curl Y> = 2 sum_i <skew grad X_i, grad Y_i>,

which criterion 11 and the microforce identification run against the
package's curl-curl form.  coo_assemble is the package's assembler on the
COO route: it reduces every node pair, and joins the kept entries of each
stencil offset and type pair as (row, column, value) triples, which scipy
sorts into CSR.  Blocks.assemble reduces one node of each class of alike
nodes and writes the class's template at every node of it, and must equal
coo_assemble bit for bit.  Test support only: pytest does not collect it.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np
import scipy.sparse as sp

from curlplast.grid import _CURL_K, _SEL, ROUNDOFF, Grid, TensorField, VectorField, _nodal_space, build_blocks
from curlplast.models import ModelVariant, sigma_nodal
from curlplast.tensors import PROJ_SYM, MaterialParams, curl_from_gradient, dev, elasticity_matrix, sym, trace

_GP1 = 1.0 / np.sqrt(3.0)
_CORNERS = np.array([[bx, by, bz] for bz in (0, 1) for by in (0, 1) for bx in (0, 1)])
_CORNERS = _CORNERS[np.argsort(_CORNERS[:, 0] + 2 * _CORNERS[:, 1] + 4 * _CORNERS[:, 2])]
_SIGNS = 2 * _CORNERS - 1  # reference corners in {-1, 1}^3
_GAUSS = _GP1 * _SIGNS.astype(float)  # 2x2x2 points, same ordering as corners


def _shape_tables(h):
    """Values and physical gradients of the 8 trilinear shapes at the Gauss points."""
    vals = np.empty((8, 8))
    grads = np.empty((8, 8, 3))
    for g, xi in enumerate(_GAUSS):
        for a, s in enumerate(_SIGNS):
            f = 0.5 * (1.0 + xi * s)
            vals[g, a] = f.prod()
            for d in range(3):
                rest = np.prod([f[e] for e in range(3) if e != d])
                grads[g, a, d] = 0.5 * s[d] * rest * (2.0 / h[d])
    return vals, grads


def cell_nodes(grid: Grid):
    """(cell_count, 8) node indices, corner order bx + 2 by + 4 bz."""
    nxc, nyc, nzc = grid.n
    cz, cy, cx = np.meshgrid(range(nzc), range(nyc), range(nxc), indexing="ij")
    cx, cy, cz = cx.ravel(), cy.ravel(), cz.ravel()
    out = np.empty((grid.cell_count, 8), dtype=np.int64)
    for bz, by, bx in product((0, 1), (0, 1), (0, 1)):
        out[:, bx + 2 * by + 4 * bz] = grid.node_index(cx + bx, cy + by, cz + bz)
    return out


class FemOperators:
    """Sparse point-evaluation/gradient operators at the Gauss points.

    E0 maps nodal scalars to values at all cell_count * 8 Gauss points; D[k]
    maps to the k-th partial derivative.  w_gp are quadrature weights and
    w_node the lumped (row-sum) nodal weights.
    """

    def __init__(self, grid: Grid):
        self.grid = grid
        vals, grads = _shape_tables(grid.h)
        cells = cell_nodes(grid)
        ncell = grid.cell_count
        ngp = ncell * 8
        rows = np.repeat(np.arange(ngp), 8)
        cols = np.broadcast_to(cells[:, None, :], (ncell, 8, 8)).reshape(-1)

        def build(table):
            data = np.broadcast_to(table, (ncell, 8, 8)).reshape(-1)
            M = sp.coo_matrix((data, (rows, cols)), shape=(ngp, grid.node_count))
            return M.tocsr()

        self.E0 = build(vals)
        self.D = [build(grads[:, :, k]) for k in range(3)]
        self.w_gp = np.full(ngp, np.prod(grid.h) / 8.0)
        self.w_node = np.asarray(self.E0.T @ self.w_gp)
        # Gauss point coordinates (cell-major, corner ordering)
        base = grid.node_coords()[cells[:, 0]]
        local = (1.0 + _GAUSS) / 2.0 * np.asarray(grid.h)
        self.gp_coords = (base[:, None, :] + local[None, :, :]).reshape(ngp, 3)

    def values_at_gps(self, nodal):
        """Nodal (N, m) -> per-Gauss-point (G, m)."""
        return self.E0 @ nodal

    def gradients_at_gps(self, nodal):
        """Nodal (N, m) -> (G, m, 3) partial derivatives."""
        return np.stack([Dk @ nodal for Dk in self.D], axis=-1)


@lru_cache(maxsize=8)
def fem_operators(grid: Grid) -> FemOperators:
    return FemOperators(grid)


def discrete_curl(grid: Grid, P: TensorField):
    """Row-wise curl of the trilinear interpolant at every Gauss point.

    Returns (cell_count * 8, 3, 3); exact whenever each component of P is a
    polynomial of degree at most one per variable.
    """
    fem = fem_operators(grid)
    flat = P.values.reshape(grid.node_count, 9)
    G = fem.gradients_at_gps(flat).reshape(-1, 3, 3, 3)
    return curl_from_gradient(G)


def cauchy_stress(grid: Grid, params: MaterialParams, u: VectorField, p: TensorField):
    """Stress 2 mu sym(grad u - p) + lam tr(grad u - p) 1 at every Gauss point."""
    fem = fem_operators(grid)
    gu = fem.gradients_at_gps(u.values)  # (G, i, k) = d u_i / d x_k
    pv = fem.values_at_gps(p.values.reshape(-1, 9)).reshape(-1, 3, 3)
    e = gu - pv
    t = trace(e)[:, None, None]
    return 2.0 * params.mu * sym(e) + params.lam * t * np.eye(3)


def _gauss_pairings(grid):
    """M0 = E0' W E0, A[a][b] = D_a' W D_b and ME[b] = D_b' W E0 by sparse products."""
    fem = fem_operators(grid)
    W = sp.diags(fem.w_gp)
    E0, D = fem.E0, fem.D
    M0 = E0.T @ W @ E0
    A = [[D[a].T @ W @ D[b] for b in range(3)] for a in range(3)]
    ME = [D[b].T @ W @ E0 for b in range(3)]
    return fem, M0, A, ME


def gauss_point_blocks(grid, params):
    """Reference assembly of every Blocks member through the Gauss-point operators.

    Each scalar pairing is D_a' W D_b (or E0' W E0, D_b' W E0) composed by
    sparse products, with the quadrature weights W of the 2x2x2 rule.
    """
    fem, M0, A, ME = _gauss_pairings(grid)
    C = elasticity_matrix(params)
    return {
        "K_uu": sum(sp.kron(A[b][b2], _SEL[b].T @ C @ _SEL[b2]) for b in range(3) for b2 in range(3)),
        "K_up": -sum(sp.kron(ME[b], _SEL[b].T @ C) for b in range(3)),
        "K_pp_el": sp.kron(M0, C),
        "K_sym": sp.kron(M0, PROJ_SYM),
        "M_cons": sp.kron(M0, np.eye(9)),
        "K_curl_cc": sum(sp.kron(A[a][a2], _CURL_K[a].T @ _CURL_K[a2]) for a in range(3) for a2 in range(3)),
        "m_lump": np.repeat(fem.w_node, 9),
    }


def reduced_reference(grid, variant, basis, curl_form=None):
    """A_hat and S_up of DiscreteProblem, reduced from the Gauss-point blocks.

    B'(K_pp_el + mu Lc^2 K_curl_cc + mu k1 K_sym)B, symmetrized, and K_up B by
    sparse products with the basis matrix B; curl_form, when given, stands in
    for K_curl_cc.
    """
    ref = gauss_point_blocks(grid, variant.params)
    mu, Lc = variant.params.mu, variant.params.Lc
    curl = ref["K_curl_cc"] if curl_form is None else curl_form
    B = basis.B
    A_hat = (B.T @ (ref["K_pp_el"] + mu * Lc ** 2 * curl + mu * variant.k1_eff * ref["K_sym"]) @ B).tocsr()
    return 0.5 * (A_hat + A_hat.T), (ref["K_up"] @ B).tocsr()


@lru_cache(maxsize=8)
def skewgrad_curl_form(grid: Grid):
    """The defect form assembled through the skew-gradient pairing, (9N, 9N) CSR.

    sum_b A[b][b] (x) I9 - sum_{a,b} A[a][b] (x) (I3 (x) e_b e_a'): the
    Gauss-point discretization of 2 sum_i <skew grad X_i, grad Y_i>.
    """
    _, _, A, _ = _gauss_pairings(grid)
    I3 = np.eye(3)
    K = sum(sp.kron(A[b][b], np.eye(9)) for b in range(3)) - sum(
        sp.kron(A[a][b], np.kron(I3, np.outer(I3[b], I3[a]))) for a in range(3) for b in range(3)
    )
    return K.tocsr()


def tau_p_microforce(grid: Grid, variant: ModelVariant, u: VectorField, p: TensorField):
    """Deviatoric microstress via the microforce balance, (N, 3, 3).

    Built from the Cauchy stress deviator plus the weak divergence of the
    third-order microstress, assembled through the skew-gradient pairing;
    coincides with dev sym of the weak generalized stress.
    """
    blocks = build_blocks(grid, variant.params)
    mu = variant.params.mu
    sig = sigma_nodal(grid, variant.params, u, p)
    cc = (skewgrad_curl_form(grid) @ p.values.reshape(-1)) / blocks.m_lump
    div_m = -mu * variant.params.Lc ** 2 * cc.reshape(-1, 3, 3)
    return dev(sig) + dev(sym(div_m))


def coo_assemble(blocks, terms, rows, cols=None):
    """Blocks.assemble(terms, rows, cols) by the COO route, as a reference.

    For each of the 27 stencil offsets, the pairings of all node pairs are
    products of 1D-factor diagonals, and each (row type, column type) group
    of pairs is one dense product with the kernels reduced once per type
    pair, over the whole block.  The entries above the roundoff bound are
    joined as COO triples, a symmetric form's J > I ones twice, mirrored,
    and scipy's COO to CSR conversion sorts each row.
    """
    grid = blocks.grid
    nx, ny, _ = grid.node_shape
    symmetric = cols is None
    n_rows, r_first, r_type, r_bases = _nodal_space(rows, grid.node_count)
    n_cols, c_first, c_type, c_bases = (n_rows, r_first, r_type, r_bases) if symmetric \
        else _nodal_space(cols, grid.node_count)
    kernels = np.array([kernel for _, kernel in terms], dtype=float)
    reduced = {}
    for tr, Vr in enumerate(r_bases):
        for tc, Vc in enumerate(c_bases):
            if len(Vr) and len(Vc):
                R = (Vr @ kernels @ Vc.T).reshape(len(terms), -1)
                R_abs = (np.abs(Vr) @ np.abs(kernels) @ np.abs(Vc).T).reshape(len(terms), -1)
                reduced[tr, tc] = R, R_abs, len(Vr), len(Vc)
    once, mirrored = [], []
    for dz, dy, dx in product((-1, 0, 1), repeat=3):
        shift = dx + nx * (dy + ny * dz)
        if symmetric and shift < 0:
            continue
        ix, iy, iz = (np.arange(max(0, -d), n + 1 - max(0, d)) for n, d in zip(grid.n, (dx, dy, dz)))
        node = (ix + nx * (iy[:, None] + ny * iz[:, None, None])).ravel()
        col = node + shift
        pairing = np.empty((node.size, len(terms)))
        for t, (names, _) in enumerate(terms):
            fx, fy, fz = (np.diagonal(f[name], d) for f, name, d in zip(blocks._1d, names, (dx, dy, dz)))
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
    return sp.csr_matrix((v, (r, c)), shape=(n_rows, n_cols))
