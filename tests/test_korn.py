import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from conftest import traced_peak

from curlplast import korn
from curlplast.grid import FACES, Grid, TensorField, build_blocks, build_p_basis, fd_inverse
from curlplast.korn import KornProblem, ZeroField, estimate_min_quotient, korn_quotient
from curlplast.solver import NoConvergence
from curlplast.tensors import MaterialParams, cross_matrix

SRC = Path(__file__).resolve().parents[1] / "src"


def constant_field(grid, M):
    return TensorField(np.tile(np.asarray(M, dtype=float), (grid.node_count, 1, 1)))


class TestKornQuotient:
    grid = Grid.unit_cube(3)

    def test_constant_skew_without_bc_is_exactly_zero(self):
        P = constant_field(self.grid, cross_matrix([0.4, -1.0, 2.0]))
        assert korn_quotient(KornProblem(self.grid), P) == 0.0

    def test_constant_symmetric_gives_one(self):
        S = np.array([[2.0, 1.0, 0.0], [1.0, -1.0, 0.5], [0.0, 0.5, 3.0]])
        q = korn_quotient(KornProblem(self.grid), constant_field(self.grid, S))
        assert q == pytest.approx(1.0, rel=1e-12)

    def test_random_field_bounded_below_by_min_eigenvalue(self):
        problem = KornProblem(self.grid, FACES)
        lam = estimate_min_quotient(problem, 1e-8)
        rng = np.random.default_rng(0)
        for _ in range(10):
            P = TensorField(rng.standard_normal((self.grid.node_count, 3, 3)))
            assert korn_quotient(problem, P) >= lam * (1 - 1e-8)

    def test_masked_to_zero_raises(self):
        g = Grid.unit_cube(1)  # every node sits on two or more faces
        P = constant_field(g, cross_matrix([1.0, 0.0, 0.0]))
        vals = P.values.copy()
        vals[:, :, :] = 0.0
        with pytest.raises(ZeroField):
            korn_quotient(KornProblem(g, FACES), TensorField(vals))

    def test_length_scale_weights_curl_term(self):
        # a field with curl content scores higher when the scale grows
        rng = np.random.default_rng(1)
        P = TensorField(rng.standard_normal((self.grid.node_count, 3, 3)))
        q1 = korn_quotient(KornProblem(self.grid, (), 1.0), P)
        q2 = korn_quotient(KornProblem(self.grid, (), 2.0), P)
        assert q2 > q1

    def test_invalid_length_scale(self):
        with pytest.raises(ValueError):
            KornProblem(self.grid, (), 0.0)

    @pytest.mark.parametrize("ls", [np.inf, np.nan, 1e200])
    def test_length_scale_must_be_finite_with_a_finite_square(self, ls):
        # 1e200 ** 2 overflows: a bare OverflowError before the check
        with pytest.raises(ValueError):
            KornProblem(self.grid, FACES, ls)


class TestMinQuotient:
    def test_no_bc_kernel_detected(self):
        assert estimate_min_quotient(KornProblem(Grid.unit_cube(3)), 1e-6) == 0.0

    @pytest.mark.parametrize("face", FACES)
    def test_any_single_face_removes_the_kernel(self, face):
        # a face keeps only the normal column at its nodes, and no nonzero
        # constant skew field has a single nonzero column
        assert estimate_min_quotient(KornProblem(Grid.unit_cube(2), (face,)), 1e-8) > 0.0

    def test_full_boundary_positive_and_stable(self):
        l3 = estimate_min_quotient(KornProblem(Grid.unit_cube(3), FACES), 1e-7)
        l4 = estimate_min_quotient(KornProblem(Grid.unit_cube(4), FACES), 1e-7)
        assert l3 > 0 and l4 > 0
        assert abs(l3 - l4) / l3 < 0.5

    def test_monotone_in_constrained_faces(self):
        g = Grid.unit_cube(3)
        lams = []
        for faces in ((), ("zmin",), ("zmin", "zmax"), ("zmin", "zmax", "xmin", "xmax"), FACES):
            lams.append(estimate_min_quotient(KornProblem(g, faces), 1e-7))
        assert all(b >= a * (1 - 1e-6) for a, b in zip(lams, lams[1:]))
        assert lams[0] == 0.0 and lams[-1] > 0.0

    def test_translation_invariance_of_origin(self):
        a = estimate_min_quotient(KornProblem(Grid((3, 3, 3), (0.25, 0.25, 0.25)), FACES), 1e-8)
        b = estimate_min_quotient(
            KornProblem(Grid((3, 3, 3), (0.25, 0.25, 0.25), origin=(5.0, -2.0, 11.0)), FACES), 1e-8)
        assert a == pytest.approx(b, rel=1e-8)

    def test_quotient_consistent_with_estimate(self):
        g = Grid.unit_cube(3)
        problem = KornProblem(g, FACES)
        lam = estimate_min_quotient(problem, 1e-9)
        # the minimizing field itself must realize the estimated quotient;
        # probe fields only from above (upper bound property)
        rng = np.random.default_rng(2)
        best = min(
            korn_quotient(problem, TensorField(rng.standard_normal((g.node_count, 3, 3))))
            for _ in range(50)
        )
        assert best >= lam * (1 - 1e-9)

    def test_invalid_tolerance(self):
        with pytest.raises(ValueError):
            estimate_min_quotient(KornProblem(Grid.unit_cube(2)), 0.0)

    def test_negative_max_iterations_is_refused(self):
        # refused like a bad tol, before LOBPCG, which would return no iterate
        with pytest.raises(ValueError, match="max_iterations"):
            estimate_min_quotient(KornProblem(Grid.unit_cube(2), FACES), max_iterations=-1)

    def test_shared_product_gives_the_mass_the_bits_of_its_own_apply(self):
        # K and the mass are applied in one pass that shares their factor
        # products; the mass gets exactly B' apply(M_cons) B c
        problem = KornProblem(Grid.unit_cube(10), FACES)
        basis, KM, _ = korn._operators(problem)
        blocks = build_blocks(problem.grid, MaterialParams(mu=1.0, lam=0.0))
        c = np.random.default_rng(3).standard_normal(basis.size)
        assert np.array_equal(KM(c)[1], basis.B.T @ blocks.apply(blocks.terms["M_cons"], basis.B @ c))

    def test_close_eigenvalues_match_dense_solve(self):
        # one cell with one constrained face: the two smallest eigenvalues
        # are 0.09431 and 0.09609, 2% apart
        g = Grid.unit_cube(1)
        blocks = build_blocks(g, MaterialParams(mu=1.0, lam=0.0))
        B = build_p_basis(g, ("zmin",), "none").B
        K_sym, K_curl_cc = (blocks.assemble(blocks.terms[name], 9) for name in ("K_sym", "K_curl_cc"))
        K = (B.T @ (K_sym + K_curl_cc) @ B).toarray()
        M = (B.T @ blocks.assemble(blocks.terms["M_cons"], 9) @ B).toarray()
        dense = scipy.linalg.eigh(K, M, eigvals_only=True)
        assert dense[1] < 1.02 * dense[0]
        lam = estimate_min_quotient(KornProblem(g, ("zmin",)), 1e-8)
        assert lam == pytest.approx(dense[0], rel=1e-8)

    def test_no_convergence_reports_the_residual(self):
        with pytest.raises(NoConvergence) as info:
            estimate_min_quotient(KornProblem(Grid.unit_cube(3), FACES), 1e-8, max_iterations=2)
        assert info.value.iterations == 2
        assert np.isfinite(info.value.residual) and info.value.residual > info.value.tol
        # the three iterations' residuals and the final one of the normalized iterate
        history = info.value.history
        assert len(history) == 4 and history[-1] == info.value.residual
        assert all(np.isfinite(r) and r > info.value.tol for r in history)


class TestFastDiagonalization:
    grid = Grid((3, 4, 5), (0.3, 0.7, 0.11))

    @staticmethod
    def reduced_forms(problem):
        """Reduced basis, per-component H1 seminorm L and mass M of a problem."""
        blocks = build_blocks(problem.grid, MaterialParams(mu=1.0, lam=0.0))
        basis = build_p_basis(problem.grid, problem.gamma_faces, "none")
        seminorm = [(names, np.eye(9)) for names in (("K", "M", "M"), ("M", "K", "M"), ("M", "M", "K"))]
        return basis, blocks.assemble(seminorm, basis), blocks.assemble(blocks.terms["M_cons"], basis)

    @pytest.mark.parametrize("faces", [("ymin",), ("zmin", "zmax"), FACES])
    @pytest.mark.parametrize("ls", [0.2, 1.0, 5.0])
    def test_inverts_the_kronecker_sum(self, faces, ls):
        problem = KornProblem(self.grid, faces, ls)
        basis, L, M = self.reduced_forms(problem)
        x = np.random.default_rng(4).standard_normal(basis.size)
        y = np.empty_like(x)
        for idx, inverse in korn._column_boxes(problem, basis):
            y[idx] = inverse(x[idx])
        assert np.linalg.norm((ls ** 2 * L + M) @ y - x) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("faces", [("ymin",), ("zmin", "zmax"), ("xmax", "ymin", "zmax"), FACES])
    def test_column_boxes_partition_the_reduced_coordinates(self, faces):
        problem = KornProblem(self.grid, faces)
        basis = build_p_basis(self.grid, faces, "none")
        idx = np.concatenate([i.ravel() for i, _ in korn._column_boxes(problem, basis)])
        assert np.array_equal(np.sort(idx), np.arange(basis.size))

    def test_empty_box_is_skipped(self):
        # on one cell across x, every node is on an x face, so only the x
        # column survives with all faces constrained; lambda_min is 2.9
        problem = KornProblem(Grid((1, 3, 3), (1.0, 1.0, 1.0)), FACES)
        blocks = build_blocks(problem.grid, MaterialParams(mu=1.0, lam=0.0))
        basis = build_p_basis(problem.grid, FACES, "none")
        assert len(list(korn._column_boxes(problem, basis))) == 1
        Khat, Mhat = (blocks.assemble(terms, basis).toarray()
                      for terms in (blocks.form(K_sym=1.0, K_curl_cc=1.0), blocks.terms["M_cons"]))
        dense = scipy.linalg.eigh(Khat, Mhat, eigvals_only=True)
        assert estimate_min_quotient(problem, 1e-9) == pytest.approx(dense[0], rel=1e-9)

    def test_out_of_range_cell_size_is_rejected(self):
        # the mass factor's inverse Cholesky factor overflows the stiffness pencil
        with pytest.raises(ValueError, match="pencil"):
            fd_inverse(Grid((2, 2, 2), (1e-201,) * 3), (0, 0, 0), (3, 3, 3), 1.0)

    def test_empty_space_raises_before_any_preconditioner(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("preconditioner built for an empty space")

        monkeypatch.setattr(korn, "_column_boxes", unreachable)
        with pytest.raises(ZeroField):
            estimate_min_quotient(KornProblem(Grid.unit_cube(1), FACES))

    def test_non_finite_preconditioned_residual_fails_fast(self, monkeypatch):
        boxes = korn._column_boxes

        def nan_boxes(problem, basis):
            for idx, _ in boxes(problem, basis):
                yield idx, lambda x: np.full_like(x, np.nan)

        monkeypatch.setattr(korn, "_column_boxes", nan_boxes)
        with pytest.raises(NoConvergence) as info:
            estimate_min_quotient(KornProblem(Grid.unit_cube(3), FACES))
        assert info.value.what == "LOBPCG" and info.value.iterations <= 1

    def test_ten_cubed_estimate_stays_below_one_assembled_form(self):
        # the forms are applied, not assembled: the estimate's traced peak is
        # below the bytes of the one reduced matrix Khat it used to assemble
        problem = KornProblem(Grid.unit_cube(10), FACES)
        blocks = build_blocks(problem.grid, MaterialParams(mu=1.0, lam=0.0))
        Khat = blocks.assemble(blocks.form(K_sym=1.0, K_curl_cc=1.0), build_p_basis(problem.grid, FACES, "none"))
        assembled = Khat.data.nbytes + Khat.indices.nbytes + Khat.indptr.nbytes
        del Khat
        assert traced_peak(lambda: estimate_min_quotient(problem, 1e-8)) < assembled

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_converges_within_two_hundred_iterations_on_ten_cubed(self, seed, monkeypatch):
        # the Jacobi-preconditioned run needed 370-660 iterations here; each
        # iteration preconditions one residual, and the counts and the
        # eigenvalue are those of the products before they shared any work
        lobpcg, calls = korn._min_eigenvector, []

        def counted(KM, precond, *args):
            def counting(r):
                calls.append(None)
                return precond(r)
            return lobpcg(KM, counting, *args)

        monkeypatch.setattr(korn, "_min_eigenvector", counted)
        lam = estimate_min_quotient(KornProblem(Grid.unit_cube(10), FACES), 1e-8, max_iterations=200, seed=seed)
        assert len(calls) == {0: 115, 1: 116, 2: 111}[seed]
        assert abs(lam - 0.8210948678385139) <= 1e-13


def test_package_import_leaves_sparse_linalg_unloaded():
    # neither scenario runs nor the Korn estimate need scipy.sparse.linalg or
    # scipy.linalg; loading either with the package, in a plastic step or in
    # the eigen-solve would raise their peak memory.  The plastic step also
    # makes no dense factorization: the first np.linalg eigh, cholesky or inv
    # of a process adds to its peak memory, so they raise until the step is done
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, numpy as np, curlplast\n"
        "from curlplast.grid import BoundaryConfig, Grid\n"
        "from curlplast.models import ModelVariant, SimState\n"
        "from curlplast.solver import DiscreteProblem, LoadStep, time_step\n"
        "from curlplast.tensors import MaterialParams\n"
        "dense = {name: getattr(np.linalg, name) for name in ('eigh', 'cholesky', 'inv')}\n"
        "def refused(*args, **kwargs):\n"
        "    raise AssertionError('a dense factorization on the solver path')\n"
        "for name in dense:\n"
        "    setattr(np.linalg, name, refused)\n"
        "var = ModelVariant('kin_spin', MaterialParams(mu=80.0, lam=110.0, k1=0.5, Lc=0.2, sigma_y=0.3))\n"
        "grid = Grid.unit_cube(2)\n"
        "D = np.zeros((3, 3)); D[0, 2] = 1.0\n"
        "prob = DiscreteProblem(grid, BoundaryConfig(('zmin', 'zmax')), var, D)\n"
        "state, rep = time_step(prob, SimState.zeros(grid), LoadStep(1.0, 0.02))\n"
        "assert rep.active_node_fraction > 0.0\n"
        "for name, f in dense.items():\n"
        "    setattr(np.linalg, name, f)\n"
        "from curlplast.grid import FACES\n"
        "from curlplast.korn import KornProblem, estimate_min_quotient\n"
        "assert estimate_min_quotient(KornProblem(Grid.unit_cube(2), FACES)) > 0.0\n"
        "sys.exit('scipy.sparse.linalg' in sys.modules or 'scipy.linalg' in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=120).returncode == 0
