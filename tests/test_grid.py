import numpy as np
import pytest
import scipy.sparse as sp

from gauss_reference import discrete_curl, fem_operators, gauss_point_blocks, reduced_reference, skewgrad_curl_form

from curlplast import korn
from curlplast.grid import (
    FACES,
    BoundaryConfig,
    Grid,
    TensorField,
    allowed_columns,
    build_blocks,
    build_p_basis,
    dirichlet_mask,
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

    def test_run_operators_store_no_roundoff_fill(self):
        # analytically zero entries must not be stored as roundoff
        bc = BoundaryConfig(("zmin", "zmax"))
        grid = Grid.unit_cube(4)
        operators = {}
        for variant in (KIN, ModelVariant("kin_irrot", PARAMS)):
            prob = DiscreteProblem(grid, bc, variant)
            operators.update({f"{variant.tag} {name}": getattr(prob, name)
                              for name in ("A_hat", "K_ff", "S_f")})
        _, operators["Khat"], operators["Mhat"] = korn._operators(KornProblem(grid, FACES))
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
        ref = gauss_point_blocks(grid, PARAMS)
        basis, Khat, Mhat = korn._operators(KornProblem(grid, faces, 0.7))
        B = basis.B
        check("Khat", Khat, B.T @ (ref["K_sym"] + 0.49 * ref["K_curl_cc"]) @ B)
        check("Mhat", Mhat, B.T @ ref["M_cons"] @ B)

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
        D = rng.standard_normal((5, b.size + 7)) * 10.0 ** rng.integers(-8, 9, (5, b.size + 7))
        for x in (D[0, 7:], D[:, 7:], D[:, 7:] ** 2):  # a vector, a strided block, squares
            want = np.zeros(x.shape[:-1] + (len(dims),))
            want.T[nodes] = np.add.reduceat(x.T, b.offsets[nodes])
            assert np.array_equal(b.node_sums(x), want)

    def test_node_norms_match_frobenius(self):
        g = Grid.unit_cube(2)
        b = build_p_basis(g, ("zmin",), "sl")
        rng = np.random.default_rng(5)
        c = rng.standard_normal(b.size)
        P = b.to_full(c).reshape(-1, 3, 3)
        assert np.allclose(b.node_norms(c), np.linalg.norm(P, axis=(1, 2)), rtol=1e-13, atol=1e-15)
