import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from conftest import minor_faults, traced_peak
from gauss_reference import (
    coo_assemble,
    discrete_curl,
    fem_operators,
    gauss_point_blocks,
    reduced_reference,
    skewgrad_curl_form,
)

from curlplast import korn
from curlplast.grid import (
    FACES,
    SETUP_BYTES_MAX,
    BoundaryConfig,
    Grid,
    TensorField,
    _factors_1d,
    allowed_columns,
    build_blocks,
    build_p_basis,
    dirichlet_mask,
    lame_inverse,
    magnitudes,
    pencil_1d,
    setup_bytes,
    transposed,
)
from curlplast.korn import KornProblem
from curlplast.models import ModelVariant
from curlplast.solver import DiscreteProblem
from curlplast.tensors import MaterialParams, cross_matrix

PARAMS = MaterialParams(mu=80.0, lam=110.0, k1=0.5, k2=0.4, Lc=0.2, sigma_y=0.3)
KIN = ModelVariant("kin_spin", PARAMS)


def full_space(bl, name):
    """bl.terms[name] assembled on full nodal components: 3 per node for u, 9 for p."""
    return bl.assemble(bl.terms[name], *{"K_uu": (3,), "K_up": (3, 9)}.get(name, (9,)))


class TestGrid:
    def test_counts(self):
        g = Grid((2, 3, 4), (0.5, 1.0, 0.25))
        assert g.node_count == 3 * 4 * 5
        assert g.cell_count == 24
        assert g.volume == pytest.approx(2 * 0.5 * 3 * 1.0 * 4 * 0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid((0, 1, 1), (1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            Grid((1, 1, 1), (0.0, 1.0, 1.0))

    def test_setup_estimate(self):
        # eight (n + 1)^2 factors per axis and 13 floats per node, in bytes
        assert setup_bytes((2, 3, 4)) == 8 * (8 * (9 + 16 + 25) + 13 * 3 * 4 * 5)
        # far below the cap at 24^3, whose whole setup peaks at 306 MB
        assert setup_bytes((24, 24, 24)) < 2 * 10 ** 6 and 14 * 306 * 10 ** 6 < SETUP_BYTES_MAX
        # sizes a host could allocate are checked through the estimate only
        assert setup_bytes((20000, 1, 1)) > 25 * 10 ** 9
        # exact integers: no size overflows into a small estimate
        assert setup_bytes((10 ** 30, 1, 1)) > 10 ** 60

    @pytest.mark.parametrize("n", [(1000000, 1, 1), (2000, 2000, 2000), (20000, 1, 1), (1, 1, 10 ** 30)])
    def test_oversize_grid_is_refused(self, n):
        with pytest.raises(ValueError, match="SETUP_BYTES_MAX"):
            Grid(n, (1.0, 1.0, 1.0))

    def test_face_nodes(self):
        g = Grid.unit_cube(2)
        for face in FACES:
            assert len(g.nodes_on_face(face)) == 9

    def test_boundary_config(self):
        with pytest.raises(ValueError):
            BoundaryConfig(())
        bc = BoundaryConfig(("zmin",))
        assert bc.micro_hard_faces == ("zmin",)  # defaults to gamma
        bc2 = BoundaryConfig(("zmin",), ())
        assert bc2.micro_hard_faces == ()


class TestShapeGradients:
    def test_linear_reproduction(self):
        g = Grid.unit_cube(1)
        fem = fem_operators(g)
        coords = g.node_coords()
        grad = fem.gradients_at_gps(coords[:, [0]])
        assert np.allclose(grad[:, 0, :], [1, 0, 0], rtol=0, atol=1e-14)

    def test_constant_field(self):
        g = Grid.unit_cube(2)
        fem = fem_operators(g)
        grad = fem.gradients_at_gps(np.ones((g.node_count, 1)))
        assert np.max(np.abs(grad)) < 1e-13

    def test_quadratic_refinement(self):
        # interpolation error of the gradient of a quadratic shrinks with h
        errs = []
        for n in (2, 4):
            g = Grid.unit_cube(n)
            fem = fem_operators(g)
            coords = g.node_coords()
            v = (coords[:, 0] ** 2 + 0.5 * coords[:, 1] * coords[:, 2])[:, None]
            grad = fem.gradients_at_gps(v)[:, 0, :]
            x = fem.gp_coords
            exact = np.stack([2 * x[:, 0], 0.5 * x[:, 2], 0.5 * x[:, 1]], axis=1)
            errs.append(np.max(np.abs(grad - exact)))
        assert errs[1] < 0.7 * errs[0]

    def test_lumped_weights(self):
        g = Grid((2, 2, 2), (0.5, 0.5, 0.5))
        fem = fem_operators(g)
        assert fem.w_node.sum() == pytest.approx(g.volume, rel=1e-14)
        # corner node supports one cell, center node eight
        assert fem.w_node.min() == pytest.approx(g.volume / 64, rel=1e-12)
        assert fem.w_node.max() == pytest.approx(g.volume / 8, rel=1e-12)


class TestDiscreteCurl:
    def test_constant_field(self):
        g = Grid.unit_cube(3)
        P = TensorField(np.tile(np.arange(9.0).reshape(3, 3), (g.node_count, 1, 1)))
        assert np.max(np.abs(discrete_curl(g, P))) < 1e-13

    def test_interpolated_gradient_of_quadratic(self):
        g = Grid.unit_cube(3)
        x = g.node_coords()
        G = np.zeros((g.node_count, 3, 3))
        G[:, 0, 0] = 2 * x[:, 0]
        G[:, 0, 1] = x[:, 2]
        G[:, 0, 2] = x[:, 1]
        G[:, 1, 1] = -3 * x[:, 1]
        G[:, 2, 0] = x[:, 0]
        G[:, 2, 2] = 0 * x[:, 2] + 1.0
        # rows of grad v for v = (x^2 + yz, -1.5 y^2, 0.5 x^2... ) are linear
        assert np.max(np.abs(discrete_curl(g, TensorField(G)))) < 1e-12

    def test_cross_product_rows(self):
        g = Grid((3, 2, 2), (1 / 3, 0.5, 0.5), origin=(-0.2, 0.1, 0.0))
        A = np.random.default_rng(0).standard_normal((3, 3))
        vals = np.einsum("iab,nb->nia", cross_matrix(A), g.node_coords())
        c = discrete_curl(g, TensorField(vals))
        assert np.max(np.abs(c - 2 * A)) < 1e-12


class TestAssembly:
    @pytest.mark.parametrize("grid", [Grid((3, 4, 5), (0.3, 0.7, 0.11), origin=(0.5, -1.0, 2.0)),
                                      Grid((1, 1, 1), (1.0, 1.0, 1.0))])
    def test_blocks_match_gauss_point_reference(self, grid):
        bl = build_blocks(grid, PARAMS)
        for name, ref in gauss_point_blocks(grid, PARAMS).items():
            got = bl.m_lump if name == "m_lump" else full_space(bl, name)
            err = np.abs(got - ref).max()
            assert err <= 1e-14 * np.abs(ref).max(), name

    @pytest.mark.parametrize("grid", [Grid((3, 4, 5), (0.3, 0.7, 0.11), origin=(0.5, -1.0, 2.0)),
                                      Grid((1, 1, 1), (1.0, 1.0, 1.0))])
    def test_apply_matches_assemble(self, grid):
        # every term list, and the transposed coupling, applied without
        # assembly equals the product with its assembled full-space matrix
        bl = build_blocks(grid, PARAMS)
        rng = np.random.default_rng(4)
        cases = [(name, terms, full_space(bl, name)) for name, terms in bl.terms.items()]
        cases.append(("K_up'", transposed(bl.terms["K_up"]), bl.assemble(bl.terms["K_up"], 3, 9).T))
        for name, terms, K in cases:
            x = rng.standard_normal(K.shape[1])
            want = K @ x
            assert np.abs(bl.apply(terms, x) - want).max() <= 1e-14 * np.abs(want).max(), name

    def test_magnitudes_bound_each_form(self):
        # the magnitude term list of a form is |1D factors| (x) |kernels| per
        # term: it bounds the form entrywise, and applies like it assembles
        bl = build_blocks(Grid((3, 4, 5), (0.3, 0.7, 0.11)), PARAMS)
        x = np.random.default_rng(6).random(9 * bl.grid.node_count)
        for name in ("K_sym", "K_curl_cc", "M_cons", "K_pp_el"):
            bound = bl.assemble(magnitudes(bl.terms[name]), 9)
            assert (abs(full_space(bl, name)) - bound).max() <= 0.0, name
            want = bound @ x
            assert np.abs(bl.apply(magnitudes(bl.terms[name]), x) - want).max() <= 1e-14 * want.max(), name

    @pytest.mark.parametrize("grid, faces", [
        (Grid((3, 4, 5), (0.3, 0.7, 0.11)), ()),
        (Grid((3, 4, 5), (0.3, 0.7, 0.11)), ("zmin",)),
        (Grid((3, 4, 5), (0.3, 0.7, 0.11)), FACES),
        # pairs alone in their type pair at an offset: the one-row products
        (Grid((2, 2, 2), (1.0, 1.0, 1.0)), ("xmin", "ymin", "zmax")),
        # classes of many nodes, and every position along each axis
        (Grid((6, 5, 7), (0.3, 0.7, 0.11)), ("xmin", "ymax", "zmin")),
        (Grid((6, 5, 7), (0.3, 0.7, 0.11)), FACES),
    ])
    def test_assemble_equals_the_coo_reference_bit_for_bit(self, grid, faces):
        # symmetric and coupling forms on identity, masked and reduced
        # spaces, the latter in each basis mode: the CSR written from the
        # class templates has the COO route's arrays
        bl = build_blocks(grid, PARAMS)
        off_faces = np.ones(grid.node_count, dtype=bool)
        for face in faces:
            off_faces[grid.nodes_on_face(face)] = False
        masked = (3, off_faces)
        plastic = bl.form(K_pp_el=1.0, **KIN.form_weights)
        cases = [(bl.terms["K_uu"], 3, None), (bl.terms["K_uu"], masked, None), (bl.terms["K_up"], 3, 9),
                 (plastic, 9, None), (bl.terms["M_cons"], (9, off_faces), None)]
        for mode in ("sl", "sym_sl", "none"):
            basis = build_p_basis(grid, faces, mode)
            cases += [(bl.terms["K_up"], masked, basis), (plastic, basis, None),
                      (magnitudes(bl.terms["K_curl_cc"]), basis, None)]
        for i, (terms, rows, cols) in enumerate(cases):
            got, want = bl.assemble(terms, rows, cols), coo_assemble(bl, terms, rows, cols)
            assert got.shape == want.shape and got.has_canonical_format, i
            for name in ("indptr", "indices", "data"):
                a, b = getattr(got, name), getattr(want, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), (i, name)

    def test_assembly_peaks_within_a_small_multiple_of_its_result(self):
        # each run operator at 10^3 peaks, traced, at most 1.8 times the
        # arrays it returns (the COO route took 2.6-3.4 times, and a
        # two-pass writer of every node pair's blocks 1.96-2.16 times)
        grid = Grid.unit_cube(10)
        bc = BoundaryConfig(("zmin", "zmax"))
        bl = build_blocks(grid, PARAMS)
        basis = build_p_basis(grid, bc.micro_hard_faces, "sl")
        free = (3, ~dirichlet_mask(grid, bc)[::3])
        for name, args in (("A_hat", (bl.form(K_pp_el=1.0, **KIN.form_weights), basis)),
                           ("K_ff", (bl.terms["K_uu"], free)), ("S_f", (bl.terms["K_up"], free, basis))):
            bl.assemble(*args)  # the grid's stencil is built once, on first use
            made = []
            peak = traced_peak(lambda: made.append(bl.assemble(*args)))
            K = made[0]
            assert peak <= 1.8 * (K.data.nbytes + K.indices.nbytes + K.indptr.nbytes), name

    def test_assemble_converts_and_sorts_nothing(self, monkeypatch):
        import scipy.sparse._compressed as compressed
        import scipy.sparse._coo as coo

        def refuse(*args, **kwargs):
            raise AssertionError("the assembly converted or sorted a sparse matrix")

        grid = Grid((3, 4, 5), (0.3, 0.7, 0.11))
        bl = build_blocks(grid, PARAMS)
        basis = build_p_basis(grid, ("zmin",), "sl")
        monkeypatch.setattr(coo._coo_base, "tocsr", refuse)
        for method in ("sum_duplicates", "sort_indices"):
            monkeypatch.setattr(compressed._cs_matrix, method, refuse)
        for K in (bl.assemble(bl.terms["K_uu"], 3), bl.assemble(bl.terms["K_up"], 3, basis),
                  bl.assemble(bl.form(K_pp_el=1.0, K_sym=0.5), basis)):
            assert K.nnz > 0 and K.has_sorted_indices

    def test_run_operators_store_no_roundoff_fill(self):
        # analytically zero entries must not be stored as roundoff
        bc = BoundaryConfig(("zmin", "zmax"))
        grid = Grid.unit_cube(4)
        operators = {}
        for variant in (KIN, ModelVariant("kin_irrot", PARAMS)):
            prob = DiscreteProblem(grid, bc, variant)
            operators.update({f"{variant.tag} {name}": getattr(prob, name)
                              for name in ("A_hat", "K_ff", "S_f")})
        for name, K in operators.items():
            data = np.abs(K.data)
            assert np.all(data > 1e-14 * data.max()), name

    @pytest.mark.parametrize("mode, faces", [("sl", ("zmin", "zmax")), ("sym_sl", ()),
                                             ("sym_sl", ("xmin", "ymax")), ("none", ("xmin", "ymin", "zmax"))])
    def test_direct_reduction_matches_gauss_point_reduction(self, mode, faces):
        # the operators assembled straight into reduced coordinates equal the
        # Gauss-point blocks reduced by sparse products, B' K B, whose roundoff
        # at analytic zeros (below 1e-16 of the largest entry; the smallest
        # true entry is above 5e-5) is dropped before the nonzeros are counted
        grid = Grid((3, 4, 5), (0.3, 0.7, 0.11), origin=(0.5, -1.0, 2.0))

        def check(name, K, ref, symmetric=True):
            ref = ref.tocsr()
            ref.data[np.abs(ref.data) <= 1e-14 * np.abs(ref.data).max()] = 0.0
            ref.eliminate_zeros()
            assert K.nnz == ref.nnz, name
            assert np.abs(K - ref).max() <= 1e-14 * np.abs(ref).max(), name
            assert not symmetric or (K != K.T).nnz == 0, name

        if mode != "none":
            variant = ModelVariant("kin_spin" if mode == "sl" else "kin_irrot", PARAMS)
            prob = DiscreteProblem(grid, BoundaryConfig(("zmin",), faces), variant)
            assert prob.basis.mode == mode
            A_ref, S_ref = reduced_reference(grid, variant, prob.basis)
            check("A_hat", prob.A_hat, A_ref)
            check("S_f", prob.S_f, S_ref[prob.free], symmetric=False)
        # korn applies its forms without assembling them: their products
        # equal the reduced Gauss-point forms' and are symmetric to roundoff
        ref = gauss_point_blocks(grid, PARAMS)
        basis, KM, _ = korn._operators(KornProblem(grid, faces, 0.7))
        B = basis.B
        x, y = np.random.default_rng(5).standard_normal((2, basis.size))
        for name, Rx, Ry, R in zip(("Khat", "Mhat"), KM(x), KM(y),
                                   (B.T @ (ref["K_sym"] + 0.49 * ref["K_curl_cc"]) @ B, B.T @ ref["M_cons"] @ B)):
            want = R @ x
            assert np.abs(Rx - want).max() <= 1e-14 * np.abs(want).max(), name
            assert abs(x @ Ry - y @ Rx) <= 1e-14 * (np.abs(x) @ abs(R) @ np.abs(y)), name

    def test_exact_symmetry(self):
        bl = build_blocks(Grid.unit_cube(2), PARAMS)
        for name in ("K_uu", "K_pp_el", "K_curl_cc", "K_sym", "M_cons"):
            K = full_space(bl, name)
            assert (K != K.T).nnz == 0

    def test_translation_invariance(self):
        bl = build_blocks(Grid.unit_cube(1), PARAMS)
        U = np.tile([0.3, -1.0, 2.0], 8)
        K_uu = bl.assemble(bl.terms["K_uu"], 3)
        assert np.max(np.abs(K_uu @ U)) < 1e-12 * np.abs(K_uu).max()

    def test_curl_routes_agree(self):
        # the curl-curl form equals the Gauss-point skew-gradient pairing
        grid = Grid((3, 4, 5), (0.3, 0.7, 0.11), origin=(0.5, -1.0, 2.0))
        bl = build_blocks(grid, PARAMS)
        K_curl_cc = bl.assemble(bl.terms["K_curl_cc"], 9)
        diff = np.abs(K_curl_cc - skewgrad_curl_form(grid)).max()
        assert diff < 1e-12 * np.abs(K_curl_cc).max()

    def test_curl_block_on_constant_skew(self):
        bl = build_blocks(Grid.unit_cube(2), PARAMS)
        P = np.tile(cross_matrix([1.0, 2.0, 3.0]).reshape(-1), bl.grid.node_count)
        assert np.abs(bl.assemble(bl.terms["K_curl_cc"], 9) @ P).max() < 1e-13

    def test_conformity_assembled_vs_quadrature(self):
        g = Grid.unit_cube(2)
        bl = build_blocks(g, PARAMS)
        fem = fem_operators(g)
        rng = np.random.default_rng(1)
        P = rng.standard_normal(9 * g.node_count)
        q_mat = P @ (bl.assemble(bl.terms["M_cons"], 9) @ P) + P @ (bl.assemble(bl.terms["K_curl_cc"], 9) @ P)
        vals = fem.values_at_gps(P.reshape(-1, 9))
        curls = discrete_curl(g, TensorField(P.reshape(-1, 3, 3))).reshape(-1, 9)
        q_dir = float(fem.w_gp @ (vals ** 2).sum(1) + fem.w_gp @ (curls ** 2).sum(1))
        assert q_mat == pytest.approx(q_dir, rel=1e-12)

    def test_full_form_positive_definite(self):
        # full Dirichlet boundary, k1 > 0: the constrained form is coercive
        prob = DiscreteProblem(Grid.unit_cube(2), BoundaryConfig(FACES), KIN)
        A = sp.bmat([[prob.K_ff, prob.S_f], [prob.S_pf, prob.A_hat]], format="csr")
        rng = np.random.default_rng(2)
        for _ in range(20):
            z = rng.standard_normal(A.shape[0])
            assert z @ (A @ z) > 0.0

    def test_constraint_elimination_consistency(self):
        # reduced block equals unconstrained assembly then row/column elimination
        g = Grid.unit_cube(2)
        bc = BoundaryConfig(("xmin", "zmax"))
        bl = build_blocks(g, PARAMS)
        free = ~dirichlet_mask(g, bc)
        K_ff = DiscreteProblem(g, bc, KIN).K_ff
        direct = bl.assemble(bl.terms["K_uu"], 3).toarray()[np.ix_(free, free)]
        assert np.allclose(K_ff.toarray(), direct, rtol=0, atol=0)

    def test_lumped_mass_block(self):
        g = Grid.unit_cube(2)
        bc = BoundaryConfig(("zmin",), ())
        w = DiscreteProblem(g, bc, KIN).w_seg
        assert w.shape == (8 * g.node_count,)
        assert np.all(w > 0)


def kron_apply(fx, fy, fz, x):
    """kron(fz, kron(fy, fx)) @ x for x shaped (z, y, x, ...), trailing axes flattened."""
    nz, ny, nx = x.shape[:3]
    y = fx @ x.reshape(nz * ny, nx, -1)
    y = fy @ y.reshape(nz, ny, -1)
    y = fz @ y.reshape(nz, -1)
    return y.reshape(len(fz), len(fy), len(fx), -1)


def per_term_apply(bl, terms, x):
    """sum_t kron(pairing_t, kernel_t) @ x term by term: each pairing's three 1D
    factors and then its kernel, with no product shared between terms."""
    k = terms[0][1].shape[1]
    x = np.reshape(x, bl.grid.node_shape[::-1] + (k,))
    return sum(kron_apply(*(f[name] for f, name in zip(bl._1d, names)), x).reshape(-1, k) @ kernel.T
               for names, kernel in terms).ravel()


class TestApply:
    grid = Grid((3, 4, 5), (0.3, 0.2, 0.1))

    @staticmethod
    def term_lists(bl):
        """Every term list of bl, its magnitudes and the transposed coupling."""
        return {**bl.terms, **{f"|{name}|": magnitudes(terms) for name, terms in bl.terms.items()},
                "K_up'": transposed(bl.terms["K_up"])}

    def test_matches_the_per_term_reference(self):
        # sharing 1D-factor products between terms changes the order of the
        # sums only: every term list stays within 1e-15 of its largest entry
        bl = build_blocks(self.grid, PARAMS)
        rng = np.random.default_rng(7)
        for name, terms in self.term_lists(bl).items():
            x = rng.standard_normal(terms[0][1].shape[1] * self.grid.node_count)
            want = per_term_apply(bl, terms, x)
            assert np.abs(bl.apply(terms, x) - want).max() <= 1e-15 * np.abs(want).max(), name

    def test_forms_in_one_call_get_the_bits_of_separate_calls(self):
        # every form on u, and every form on p, the mass among them, in one
        # call; Korn's K comes after the curl-curl form, which has all of K's
        # terms but its first, and each form still adds its terms as it does alone
        bl = build_blocks(self.grid, PARAMS)
        lists = {**self.term_lists(bl), "K": bl.form(K_sym=1.0, K_curl_cc=0.49)}
        order = ["K_curl_cc", "K"] + [name for name in lists if name not in ("K_curl_cc", "K")]
        rng = np.random.default_rng(8)
        for k in (3, 9):
            names = [name for name in order if lists[name][0][1].shape[1] == k]
            x = rng.standard_normal(k * self.grid.node_count)
            for name, got in zip(names, bl.apply_all([lists[name] for name in names], x), strict=True):
                assert np.array_equal(got, bl.apply(lists[name], x)), name
        assert "M_cons" in names

    def test_warm_apply_faults_in_no_pages_and_holds_few_arrays(self):
        # the products of a call share one block: a repeated apply reuses the
        # heap instead of faulting in fresh pages, and holds at most six nodal
        # tensor arrays, its result included
        grid = Grid.unit_cube(10)
        bl = build_blocks(grid, MaterialParams(mu=1.0, lam=0.0))
        K = bl.form(K_sym=1.0, K_curl_cc=1.0)
        x = np.random.default_rng(9).standard_normal(9 * grid.node_count)
        calls = 50

        def repeated():
            for _ in range(calls):
                bl.apply(K, x)

        repeated()
        assert minor_faults(repeated) < calls
        assert traced_peak(lambda: bl.apply(K, x)) <= 6 * x.nbytes


class TestFastDiagonalization:
    @pytest.mark.parametrize("first, last", [(0, 0), (0, 1), (1, 0), (1, 1)],
                             ids=["natural-natural", "natural-removed", "removed-natural", "removed-removed"])
    def test_pencil_matches_the_generalized_eigen_solve(self, first, last):
        # each end of the node range is a natural boundary node, or the node
        # beyond it is removed: first and last count the removed end nodes
        for n in range(1, 9):
            for h in (1.0, 0.37, 2.5e-3, 7e4):
                a, b = first, n + 1 - last
                if b <= a:
                    continue
                f = _factors_1d(n, h)
                K, M = f["K"][a:b, a:b], f["M"][a:b, a:b]
                V, lam = pencil_1d(n, h, a, b)
                want = scipy.linalg.eigh(K, M, eigvals_only=True)
                assert np.abs(lam - want).max() <= 1e-13 * want.max()
                assert np.abs(V.T @ M @ V - np.eye(b - a)).max() <= 1e-13
                assert np.abs(V.T @ K @ V - np.diag(lam)).max() <= 1e-13 * lam.max()

    @pytest.mark.parametrize("faces", [(f,) for f in FACES] + [("xmin", "zmax")])
    def test_lame_inverse_inverts_each_diagonal_block_of_K_ff(self, faces):
        grid = Grid((5, 7, 9), (0.3, 0.2, 0.13))
        bl = build_blocks(grid, PARAMS)
        free = ~dirichlet_mask(grid, BoundaryConfig(faces))
        K_ff = bl.assemble(bl.terms["K_uu"], 3)[free][:, free].toarray()
        r = np.random.default_rng(0).standard_normal((K_ff.shape[0], 2))
        precond = lame_inverse(bl, faces)
        got = np.stack([precond(v, np.empty_like(v)) for v in r.T], axis=1)
        for i in range(3):
            want = np.linalg.inv(K_ff[i::3, i::3]) @ r[i::3]
            assert np.abs(got[i::3] - want).max() <= 1e-12 * np.abs(want).max()


def micro_hard_mask(grid, faces, P):
    """Round trip through the unconstrained-mode basis: zeroes the masked columns."""
    basis = build_p_basis(grid, faces, "none")
    return basis.to_full(basis.to_reduced(P.reshape(-1))).reshape(-1, 3, 3)


class TestMicroHardMask:
    def test_zeroes_tangential_columns(self):
        g = Grid.unit_cube(2)
        out = micro_hard_mask(g, ("zmax",), np.ones((g.node_count, 3, 3)))
        nodes = g.nodes_on_face("zmax")
        assert np.all(out[nodes][:, :, :2] == 0.0)
        assert np.all(out[nodes][:, :, 2] == 1.0)
        interior = np.setdiff1d(np.arange(g.node_count), nodes)
        assert np.all(out[interior] == 1.0)

    def test_idempotent(self):
        g = Grid.unit_cube(2)
        faces = ("xmin", "ymax")
        P = np.random.default_rng(3).standard_normal((g.node_count, 3, 3))
        once = micro_hard_mask(g, faces, P)
        twice = micro_hard_mask(g, faces, once)
        assert np.array_equal(once, twice)

    def test_allowed_columns_intersection(self):
        g = Grid.unit_cube(2)
        allowed = allowed_columns(g, ("xmin", "zmin"))
        face_only = g.node_index(0, 1, 1)  # on xmin only: rows parallel to e_x
        assert list(allowed[face_only]) == [True, False, False]
        assert not allowed[g.node_index(0, 1, 0)].any()  # on both faces
        assert allowed[g.node_index(1, 1, 1)].all()  # interior


class TestPBasis:
    def test_dimensions(self):
        g = Grid.unit_cube(2)
        assert set(build_p_basis(g, (), "sl").dims()) == {8}
        assert set(build_p_basis(g, (), "sym_sl").dims()) == {5}
        assert set(build_p_basis(g, (), "none").dims()) == {9}
        b = build_p_basis(g, ("zmin",), "sl")
        nodes = g.nodes_on_face("zmin")
        dims = b.dims()
        assert np.all(dims[nodes] == 2)
        b2 = build_p_basis(g, ("zmin",), "sym_sl")
        assert np.all(b2.dims()[nodes] == 0)  # symmetric + tangential pin -> zero

    def test_orthonormal_columns(self):
        g = Grid.unit_cube(2)
        for mode in ("sl", "sym_sl", "none"):
            b = build_p_basis(g, ("zmin", "xmax"), mode)
            Ident = sp.eye(b.size)
            assert np.abs(b.B.T @ b.B - Ident).max() < 1e-14

    def test_range_satisfies_constraints(self):
        g = Grid.unit_cube(2)
        rng = np.random.default_rng(4)
        b = build_p_basis(g, ("ymin",), "sl")
        P = b.to_full(rng.standard_normal(b.size)).reshape(-1, 3, 3)
        assert TensorField(P).max_trace_violation() < 1e-14
        bs = build_p_basis(g, ("ymin",), "sym_sl")
        Ps = bs.to_full(rng.standard_normal(bs.size)).reshape(-1, 3, 3)
        assert TensorField(Ps).max_trace_violation() < 1e-14
        assert TensorField(Ps).max_symmetry_violation() < 1e-14

    @pytest.mark.parametrize("mode", ["sl", "sym_sl", "none"])
    @pytest.mark.parametrize("faces", [(), ("zmin",), ("zmin", "xmax"), FACES], ids=["uniform", "zmin", "zmin_xmax", "all"])
    def test_node_sums_equal_reduceat_bit_for_bit(self, mode, faces):
        # one coordinate count at every node without micro-hard faces; mixed
        # counts with them, and nodes with none in sym_sl
        b = build_p_basis(Grid.unit_cube(3), faces, mode)
        dims = b.dims()
        assert (len(set(dims)) == 1) == (faces == ())
        nodes = np.nonzero(dims > 0)[0]
        rng = np.random.default_rng(6)
        D = rng.standard_normal(b.size + 7) * 10.0 ** rng.integers(-8, 9, b.size + 7)
        for x in (D[7:], D[7:] ** 2):  # a vector at an offset, squares
            want = np.zeros(len(dims))
            want[nodes] = np.add.reduceat(x, b.offsets[nodes])
            assert np.array_equal(b.node_sums(x), want)

    @pytest.mark.parametrize("mode", ["sl", "sym_sl", "none"])
    @pytest.mark.parametrize("faces", [(), ("xmin", "ymin", "zmin"), FACES], ids=["uniform", "corner", "all"])
    def test_component_order_runs_each_types_nodes_in_ascending_order(self, mode, faces):
        # node type by node type, then component by component, then node by
        # node; with xmin, ymin and zmin micro-hard, the nodes on two or three
        # of them have no coordinates
        b = build_p_basis(Grid.unit_cube(3), faces, mode)
        order = b.component_order
        assert np.array_equal(np.sort(order), np.arange(b.size))
        node_of = np.repeat(np.arange(len(b.node_type)), b.dims())
        component_of = np.arange(b.size) - b.offsets[node_of]
        start, listed = 0, []
        for t, V in enumerate(b.type_bases):
            nodes = np.flatnonzero(b.node_type == t)
            for k in range(len(V)):
                run = order[start:start + nodes.size]
                assert np.array_equal(node_of[run], nodes) and np.all(component_of[run] == k)
                start += nodes.size
            listed.append(nodes)
        assert start == b.size
        assert np.array_equal(b.component_nodes, np.concatenate(listed))
        x = np.random.default_rng(7).standard_normal((4, b.size))
        got = b.component_sums(x[:, order])
        want = np.array([b.node_sums(row)[b.component_nodes] for row in x])
        assert np.abs(got - want).max() <= 1e-14 * np.abs(x).max()
        assert np.all(got[:, b.dims()[b.component_nodes] == 0] == 0.0)

    def test_node_norms_match_frobenius(self):
        g = Grid.unit_cube(2)
        b = build_p_basis(g, ("zmin",), "sl")
        rng = np.random.default_rng(5)
        c = rng.standard_normal(b.size)
        P = b.to_full(c).reshape(-1, 3, 3)
        assert np.allclose(b.node_norms(c), np.linalg.norm(P, axis=(1, 2)), rtol=1e-13, atol=1e-15)
