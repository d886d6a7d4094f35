import json
import os
import re
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from curlplast import cli, korn, solver
from curlplast import grid as grid_module
from curlplast.cli import apply_sweep_value, main, run_scenario, sweep
from curlplast.grid import FACES, Grid, PBasis
from curlplast.korn import KornProblem, estimate_min_quotient
from curlplast.oracles import radial_return_0d
from curlplast.scenario import (
    ParseError,
    ValidationError,
    canonical_dict,
    canonical_text,
    parse_scenario,
)
from curlplast.models import VARIANT_TAGS, SimState, eshelby_stress, sigma_nodal
from curlplast.solver import (
    VI_PROBES_MAX,
    DiscreteProblem,
    extrapolate,
    probe_blocks,
    probe_seed,
    time_step,
)
from curlplast.tensors import MaterialParams, dev, sym
from conftest import CountingOperator
from vtk_reader import read_structured_points_arrays, read_structured_points_header

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def base_doc(**overrides):
    doc = {
        "version": 1,
        "variant": "kin_spin",
        "material": {"mu": 80.0, "lambda": 110.0, "k1": 0.5, "Lc": 0.2, "sigma_y": 0.3},
        "grid": {"cells": [2, 2, 2], "size": [1.0, 1.0, 1.0]},
        "boundary": {
            "gamma_faces": ["zmin", "zmax"],
            "dirichlet": {"matrix": [[0, 0, 1], [0, 0, 0], [0, 0, 0]]},
        },
        "load_program": [
            {"level": 1, "amplitude": 0.001},
            {"level": 2, "amplitude": 0.003},
            {"level": 3, "amplitude": 0.006},
        ],
    }
    doc.update(overrides)
    return doc


# one edit of base_doc() per input that must be rejected with exit code 2
INVALID_EDITS = {
    "Lc_nan": lambda d: d["material"].update(Lc=float("nan")),
    "sigma_y_infinite": lambda d: d["material"].update(sigma_y=float("inf")),
    "kappa_nan": lambda d: d["material"].update(kappa=float("nan")),
    "vtk_dir_number": lambda d: d.update(output={"vtk_dir": 5}),
    "csv_number": lambda d: d.update(output={"csv": 7}),
    "vtk_stride_text": lambda d: d.update(output={"vtk_stride": "every"}),
    "max_cg_overflow": lambda d: d.update(solver={"max_cg": 1e999}),
    "level_bool": lambda d: d["load_program"][0].update(level=True),
    "amplitude_text": lambda d: d["load_program"][0].update(amplitude="x"),
    "misspelt_solver": lambda d: d.update(solvr={"tol_cg": 1e-3}),
    "curl_assembly": lambda d: d.update(curl_assembly="skewgrad"),
    "lipschitz_safety": lambda d: d.update(solver={"lipschitz_safety": 1.1}),
    "vi_probes_negative": lambda d: d.update(solver={"vi_probes": -5}),
    "seed_negative": lambda d: d.update(solver={"seed": -1}),
    "vi_probes_fraction": lambda d: d.update(solver={"vi_probes": 2.7}),
    "max_cg_bool": lambda d: d.update(solver={"max_cg": True}),
    "seed_text": lambda d: d.update(solver={"seed": "7"}),
    "cells_fraction": lambda d: d["grid"].update(cells=[2.7, 2, 2]),
    "vtk_stride_fraction": lambda d: d.update(output={"vtk_stride": 1.9}),
    "vtk_stride_bool": lambda d: d.update(output={"vtk_stride": True}),
    "vi_probes_huge": lambda d: d.update(solver={"vi_probes": 1e300}),
    "dirichlet_list": lambda d: d["boundary"].update(dirichlet=[[0, 0, 1], [0, 0, 0], [0, 0, 0]]),
    "dirichlet_matrix_number": lambda d: d["boundary"]["dirichlet"].update(matrix=5),
    "micro_hard_faces_number": lambda d: d["boundary"].update(micro_hard_faces=3),
    "micro_hard_faces_text": lambda d: d["boundary"].update(micro_hard_faces="zmin"),
    "origin_digits": lambda d: d["grid"].update(origin="123"),
    "spacing_digits": lambda d: d.update(grid={"cells": [2, 2, 2], "spacing": "111"}),
    "size_digits": lambda d: d["grid"].update(size="111"),
    "body_force_digits": lambda d: d["load_program"][0].update(body_force="000"),
    "body_force_bool": lambda d: d["load_program"][0].update(body_force=[True, 0, 0]),
    "matrix_row_digits": lambda d: d["boundary"]["dirichlet"]["matrix"].__setitem__(0, "100"),
    "misspelt_micro_hard": lambda d: d["boundary"].update(micro_hard=[]),
    "misspelt_vtk_dir": lambda d: d.update(output={"vtk_dri": "fields"}),
    "misspelt_grid_origin": lambda d: d["grid"].update(orign=[0, 0, 0]),
    "misspelt_dirichlet_matrix": lambda d: d["boundary"]["dirichlet"].update(matirx=[]),
    "misspelt_load_amplitude": lambda d: d["load_program"][0].update(amplitud=0.5),
    "mu_digits": lambda d: d["material"].update(mu="80"),
    "k1_bool": lambda d: d["material"].update(k1=True),
    "version_bool": lambda d: d.update(version=True),
    "tol_cg_digits": lambda d: d.update(solver={"tol_cg": "1e-3"}),
    "tol_cg_infinite": lambda d: d.update(solver={"tol_cg": float("inf")}),
    "tol_fista_bool": lambda d: d.update(solver={"tol_fista": True}),
    "cells_huge": lambda d: d["grid"].update(cells=[10 ** 400, 2, 2]),
    "seed_huge": lambda d: d.update(solver={"seed": 2 ** 64}),
    # finite inputs whose operators or form weights overflow
    "mu_overflow": lambda d: d["material"].update(mu=1e308),
    "spacing_subnormal": lambda d: d.update(grid={"cells": [2, 2, 2], "spacing": [1e-320, 1, 1]}),
    "Lc_overflow": lambda d: d["material"].update(Lc=1e200),
    "k2_overflow": lambda d: (d.update(variant="iso_spin"), d["material"].update(k2=1e307)),
    # a csv path that names no file, or the VTK folder or one above it
    "csv_empty": lambda d: d.update(output={"csv": ""}),
    "csv_folder": lambda d: d.update(output={"csv": "sub/"}),
    "csv_dot": lambda d: d.update(output={"csv": "."}),
    "csv_parent": lambda d: d.update(output={"csv": "sub/.."}),
    "csv_is_vtk_dir": lambda d: d.update(output={"csv": "fields", "vtk_dir": "fields/"}),
    "csv_above_vtk_dir": lambda d: d.update(output={"csv": "out", "vtk_dir": "out/fields"}),
}


def elastic_doc():
    return base_doc(load_program=[{"level": 1, "amplitude": 1e-5}, {"level": 2, "amplitude": 2e-5}])


class TestParsing:
    def test_minimal_valid_document(self):
        s = parse_scenario(json.dumps(base_doc()))
        assert s.variant.tag == "kin_spin"
        assert s.grid.n == (2, 2, 2)
        assert s.boundary.micro_hard_faces == ("zmin", "zmax")  # defaults to gamma
        assert s.solver.tol_outer == 1e-10  # documented default

    def test_vi_probes_bound(self):
        s = parse_scenario(json.dumps(base_doc(solver={"vi_probes": VI_PROBES_MAX})))
        assert s.solver.vi_probes == VI_PROBES_MAX
        with pytest.raises(ValidationError, match="vi_probes must be at most"):
            parse_scenario(json.dumps(base_doc(solver={"vi_probes": VI_PROBES_MAX + 1})))

    def test_integral_float_is_an_integer_field(self):
        s = parse_scenario(json.dumps(base_doc(solver={"vi_probes": 1000.0, "max_cg": 50.0})))
        assert s.solver.vi_probes == 1000 and isinstance(s.solver.vi_probes, int)
        assert s.solver.max_cg == 50 and isinstance(s.solver.max_cg, int)

    def test_defaults_for_solver_and_output(self):
        s = parse_scenario(json.dumps(base_doc()))
        assert s.solver.tol_cg == 1e-10 and s.solver.tol_fista == 1e-9
        assert s.output.csv == "timeseries.csv" and s.output.vtk_dir is None

    def test_inadmissible_hardening_named(self):
        doc = base_doc()
        doc["material"]["k1"] = 0.0
        with pytest.raises(ValidationError, match="kin_spin requires k1 > 0"):
            parse_scenario(json.dumps(doc))

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_scenario("{not json")

    def test_levels_must_increase(self):
        doc = base_doc(load_program=[{"level": 2, "amplitude": 0.0}, {"level": 1, "amplitude": 0.0}])
        with pytest.raises(ValidationError, match="strictly increasing"):
            parse_scenario(json.dumps(doc))

    def test_unknown_face_rejected(self):
        doc = base_doc()
        doc["boundary"]["gamma_faces"] = ["top"]
        with pytest.raises(ValidationError, match="unknown face"):
            parse_scenario(json.dumps(doc))

    def test_unknown_material_field_rejected(self):
        doc = base_doc()
        doc["material"]["nu"] = 0.3
        with pytest.raises(ValidationError, match="unknown material fields"):
            parse_scenario(json.dumps(doc))

    def test_round_trip_canonical_form(self):
        s = parse_scenario(json.dumps(base_doc()))
        s2 = parse_scenario(canonical_text(s))
        assert canonical_dict(s) == canonical_dict(s2)
        assert s2.variant == s.variant and s2.grid == s.grid and s2.boundary == s.boundary
        assert s2.load_program == s.load_program and s2.solver == s.solver


class TestRunScenario:
    def test_csv_schema_and_monotone_dissipation(self, tmp_path):
        s = parse_scenario(json.dumps(base_doc()))
        res = run_scenario(s, str(tmp_path))
        csv = (tmp_path / "timeseries.csv").read_text().splitlines()
        assert csv[0] == ("step,level,elastic_energy,defect_energy,hardening_energy,"
                          "cumulative_dissipation,max_dev_eshelby,mean_gamma,"
                          "active_fraction,vi_residual")
        assert len(csv) == 1 + len(s.load_program)
        cum = [float(line.split(",")[5]) for line in csv[1:]]
        assert all(b >= a for a, b in zip(cum, cum[1:]))
        assert cum[-1] > 0.0  # the program reaches the plastic range

    def test_elastic_program_has_zero_gamma(self, tmp_path):
        s = parse_scenario(json.dumps(elastic_doc()))
        res = run_scenario(s, str(tmp_path))
        assert all(row.mean_gamma == 0.0 for row in res.rows)
        assert all(row.cumulative_dissipation == 0.0 for row in res.rows)

    def test_micromorphic_collapses_to_one_step(self, tmp_path):
        doc = base_doc(variant="micromorphic")
        doc["load_program"] = [{"level": i + 1, "amplitude": 0.001 * (i + 1)} for i in range(5)]
        s = parse_scenario(json.dumps(doc))
        res = run_scenario(s, str(tmp_path))
        assert len(res.rows) == 1
        assert res.rows[0].cumulative_dissipation == 0.0

    def test_vtk_snapshots_readable(self, tmp_path):
        doc = base_doc(output={"csv": "ts.csv", "vtk_dir": "fields", "vtk_stride": 2})
        s = parse_scenario(json.dumps(doc))
        run_scenario(s, str(tmp_path))
        files = sorted(os.listdir(tmp_path / "fields"))
        assert files == ["fields_0001.vtk", "fields_0003.vtk"]
        info = read_structured_points_header(tmp_path / "fields" / "fields_0001.vtk")
        assert info["dimensions"] == (3, 3, 3)
        assert info["point_data"] == s.grid.node_count
        assert info["arrays"]["displacement"] == 3
        assert info["arrays"]["plastic_distortion"] == 9
        assert info["arrays"]["gamma"] == 1
        assert info["arrays"]["dev_eshelby_norm"] == 1

    def test_vtk_arrays_parse_back_to_the_state_fields(self, tmp_path):
        doc = base_doc(output={"csv": "ts.csv", "vtk_dir": "fields", "vtk_stride": 1},
                       grid={"cells": [2, 2, 2], "size": [1.0, 1.0, 1.0], "origin": [0.1, -0.3, 1 / 3]})
        s = parse_scenario(json.dumps(doc))
        res = run_scenario(s, str(tmp_path), keep_states=True)
        assert len(res.states) == 3 and np.any(res.states[-1].p.values != 0.0)
        for k, state in enumerate(res.states):
            path = tmp_path / "fields" / f"fields_{k + 1:04d}.vtk"
            info = read_structured_points_header(path)
            sig_e = eshelby_stress(s.grid, s.variant, state.u, state.p)
            want = {"displacement": state.u.values,
                    "plastic_distortion": state.p.values.reshape(-1, 9),
                    "gamma": state.gamma.values[:, None],
                    "dev_eshelby_norm": np.linalg.norm(dev(sig_e), axis=(1, 2))[:, None],
                    "origin": np.array(s.grid.origin), "spacing": np.array(s.grid.h)}
            got = read_structured_points_arrays(path)
            got.update(origin=np.array(info["origin"]), spacing=np.array(info["spacing"]))
            assert sorted(got) == sorted(want)
            for name, values in want.items():
                assert got[name].shape == values.shape, name
                assert np.all(np.abs(got[name] - values) <= 5e-13 * np.abs(values)), name

    def test_runs_assemble_no_gauss_point_operators(self, tmp_path, monkeypatch):
        # korn applies its forms and assembles none; every variant's run
        # assembles straight into the spaces its operators act on: the
        # plastic forms into reduced coordinates, and the displacement form
        # on the free nodes only, as K_ff, so no full-space block is formed;
        # the energies and stress recoveries apply their term lists without
        # assembling them
        calls = []
        assemble = grid_module.Blocks.assemble

        def recording(blocks, terms, rows, cols=None):
            reduced = isinstance(rows, PBasis) or isinstance(cols, PBasis)
            free = isinstance(rows, tuple) and rows[0] == 3 and not rows[1].all()
            calls.append("reduced" if reduced else (terms is blocks.terms["K_uu"], "free" if free else rows, cols))
            return assemble(blocks, terms, rows, cols)

        monkeypatch.setattr(grid_module.Blocks, "assemble", recording)
        estimate_min_quotient(KornProblem(Grid.unit_cube(2), FACES))
        assert calls == []
        material = {"mu": 80.0, "lambda": 110.0, "k1": 0.5, "k2": 0.4, "Lc": 0.2, "sigma_y": 0.3}
        for tag in VARIANT_TAGS:
            calls.clear()
            run_scenario(parse_scenario(json.dumps(base_doc(variant=tag, material=material))), str(tmp_path / tag))
            assert sorted(calls, key=str) == [(True, "free", None), "reduced", "reduced"], tag

    @staticmethod
    def run_with_and_without_guesses(tmp_path, amplitudes):
        doc = base_doc(load_program=[{"level": k + 1, "amplitude": float(a)} for k, a in enumerate(amplitudes)],
                       solver={"tol_outer": 1e-13, "tol_cg": 1e-12, "tol_fista": 1e-12})
        s = parse_scenario(json.dumps(doc))
        res = run_scenario(s, str(tmp_path))
        problem = DiscreteProblem(s.grid, s.boundary, s.variant, s.dirichlet_array(), s.solver)
        state = SimState.zeros(s.grid)
        for load, report in zip(s.load_program, res.reports):
            state, plain = time_step(problem, state, load)
            for name in ("elastic", "defect", "hardening"):
                a, b = getattr(report.energy, name), getattr(plain.energy, name)
                assert abs(a - b) <= 1e-9 * plain.energy.magnitude(), name
            assert abs(report.dissipation_functional - plain.dissipation_functional) <= 1e-9 * plain.energy.magnitude()
        return [r.started_from_guess for r in res.reports]

    def test_monotone_ramp_starts_from_the_guess_from_step_three(self, tmp_path):
        # every step flows; the first has no guess and the second only a
        # linear one through the zero state
        started = self.run_with_and_without_guesses(tmp_path, 0.004 * np.arange(1, 7))
        assert not started[0]
        assert all(started[2:])

    def test_load_reversal_starts_from_the_guess(self, tmp_path):
        # the guess overshoots at the reversal (step 5); the run still
        # reaches the guess-free states
        a_y = 0.3 / (np.sqrt(2) * 80.0)
        started = self.run_with_and_without_guesses(tmp_path, a_y * np.array([1.5, 2.0, 2.5, 3.0, 2.0, 1.0]))
        assert started == [False] + [True] * 5

    def test_progress_line_reports_uphill_moves_and_guesses(self, tmp_path, capsys):
        doc = base_doc(load_program=[{"level": k, "amplitude": 0.004 * k} for k in range(1, 5)])
        s = parse_scenario(json.dumps(doc))
        res = run_scenario(s, str(tmp_path / "loud"), quiet=False)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(res.reports)
        for line, report in zip(lines, res.reports):
            fields = line.split()
            assert fields[fields.index("objective_increase") + 1] == f"{report.objective_increase:.3e}"
            assert fields[fields.index("started_from_guess") + 1] == str(report.started_from_guess)
        assert {r.started_from_guess for r in res.reports} == {False, True}
        # the progress line is stdout only: the CSV is the same without it
        run_scenario(s, str(tmp_path / "quiet"))
        assert capsys.readouterr().out == ""
        loud, quiet = ((tmp_path / d / "timeseries.csv").read_bytes() for d in ("loud", "quiet"))
        assert loud == quiet

    def test_bitwise_determinism(self, tmp_path):
        # 25 probes fit in one block; 130 span three
        for probes in (25, 130):
            doc = base_doc()
            doc["solver"] = {"vi_probes": probes}
            s = parse_scenario(json.dumps(doc))
            run_scenario(s, str(tmp_path / f"a{probes}"))
            run_scenario(s, str(tmp_path / f"b{probes}"))
            a = (tmp_path / f"a{probes}" / "timeseries.csv").read_bytes()
            b = (tmp_path / f"b{probes}" / "timeseries.csv").read_bytes()
            assert a == b

    def test_certified_cycle_with_vtk_is_byte_identical(self, tmp_path):
        # the 2^3 homogeneous load-reverse cycle with 1000 probes and a VTK
        # file every step: two runs write the same bytes to every file
        a_y = 0.3 / (np.sqrt(2) * 80.0)
        doc = base_doc(
            variant="iso_irrot",
            material={"mu": 80.0, "lambda": 110.0, "k2": 0.4, "Lc": 0.0, "sigma_y": 0.3},
            boundary={"gamma_faces": list(FACES), "micro_hard_faces": [],
                      "dirichlet": {"matrix": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]}},
            load_program=[{"level": 1, "amplitude": 3.0 * a_y}, {"level": 2, "amplitude": -1.5 * a_y}],
            solver={"tol_outer": 1e-13, "tol_cg": 1e-12, "tol_fista": 1e-12, "vi_probes": 1000, "seed": 0},
            output={"csv": "timeseries.csv", "vtk_dir": "fields", "vtk_stride": 1},
        )
        s = parse_scenario(json.dumps(doc))
        for run in ("a", "b"):
            res = run_scenario(s, str(tmp_path / run))
        assert all(r.vi_residual >= -1e-8 for r in res.reports)
        files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.*"))
        assert [str(f) for f in files] == ["fields/fields_0001.vtk", "fields/fields_0002.vtk", "timeseries.csv"]
        for f in files:
            assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()

    def test_shear_cycle_shows_bauschinger_signature(self, tmp_path):
        # homogeneous configuration compared against the pointwise update
        mu, sy = 80.0, 0.3
        a_y = sy / (np.sqrt(2) * mu)
        up = np.linspace(0, 3 * a_y, 13)[1:]
        cycle = np.concatenate([up, up[-2::-1], -up[1:]])
        doc = base_doc(
            material={"mu": mu, "lambda": 110.0, "k1": 0.5, "Lc": 0.0, "sigma_y": sy},
            boundary={
                "gamma_faces": ["xmin", "xmax", "ymin", "ymax", "zmin", "zmax"],
                "micro_hard_faces": [],
                "dirichlet": {"matrix": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]},
            },
            load_program=[{"level": i + 1, "amplitude": float(a)} for i, a in enumerate(cycle)],
            solver={"tol_outer": 1e-13, "tol_cg": 1e-12, "tol_fista": 1e-12},
        )
        s = parse_scenario(json.dumps(doc))
        res = run_scenario(s, str(tmp_path))
        # onsets read from the emitted time series: the plastic-arc-length
        # column grows exactly when flow occurs
        rows = res.rows
        g = np.array([row.mean_gamma for row in rows])
        s12 = np.array(res.driven_stress_max)
        fwd = next(s12[i] for i in range(1, len(up)) if g[i] > g[i - 1] + 1e-14)
        rev = next(s12[i] for i in range(len(up), len(cycle)) if g[i] > g[i - 1] + 1e-14)
        assert rev < fwd  # reverse yielding starts below the forward onset
        # and the whole path reproduces the pointwise update
        params = MaterialParams(mu=mu, lam=110.0, k1=0.5, sigma_y=sy)
        D = np.zeros((3, 3))
        D[0, 1] = 1.0
        oracle = radial_return_0d(params, [a * sym(D) for a in cycle], "kin")
        want_gamma = np.array([r[2] for r in oracle])
        assert np.allclose(g, want_gamma, rtol=1e-7, atol=1e-12)

    def test_size_effect_hardening_slope_grows_with_length_scale(self, tmp_path):
        # micro-hard walls: the apparent hardening slope is nondecreasing in
        # the energetic length scale (regression baseline from a verified run)
        a_y = 0.3 / (np.sqrt(2) * 80.0)
        doc = base_doc(
            grid={"cells": [4, 4, 4], "size": [1.0, 1.0, 1.0]},
            boundary={
                # drive the 12-shear so the slope column tracks the loaded component
                "gamma_faces": ["ymin", "ymax"],
                "dirichlet": {"matrix": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]},
            },
            load_program=[{"level": i + 1, "amplitude": float(a)}
                          for i, a in enumerate(np.linspace(0, 6 * a_y, 9)[1:])],
        )
        s = parse_scenario(json.dumps(doc))
        results = sweep(s, "Lc", [0.1, 0.2, 0.4], str(tmp_path))
        assert all(r["status"] == "ok" for r in results)
        slopes = [r["hardening_slope"] for r in results]
        assert all(np.isfinite(slopes))
        assert slopes[0] <= slopes[1] <= slopes[2]

    def test_hardening_slope_follows_the_driven_component(self, tmp_path):
        # base_doc shears x-z, where sigma_12 is roundoff: the sweep's slope
        # is the finite difference of max |sigma_13| over the last two
        # plastically active steps
        a_y = 0.3 / (np.sqrt(2) * 80.0)
        doc = base_doc(load_program=[{"level": i + 1, "amplitude": float(a)}
                                     for i, a in enumerate(np.linspace(0, 6 * a_y, 7)[1:])])
        s = parse_scenario(json.dumps(doc))
        (result,) = sweep(s, "Lc", [0.2], str(tmp_path / "sweep"))
        res = run_scenario(s, str(tmp_path / "run"), keep_states=True)
        s13 = [float(np.max(np.abs(sigma_nodal(s.grid, s.variant.params, st.u, st.p)[:, 0, 2]))) for st in res.states]
        assert res.driven_stress_max == s13
        i, j = [k for k, row in enumerate(res.rows) if row.active_fraction > 0.0][-2:]
        want = (s13[j] - s13[i]) / (res.rows[j].level - res.rows[i].level)
        assert want > 1e-3
        assert result["hardening_slope"] == pytest.approx(want, rel=1e-12)


def program_doc(steps, probes, **overrides):
    """base_doc with a monotone program of `steps` steps and `probes` VI probes."""
    return base_doc(load_program=[{"level": k, "amplitude": 0.002 * k} for k in range(1, steps + 1)],
                    solver={"vi_probes": probes}, **overrides)


def byte_probes(seed, probes, width):
    """The probes of the generator seeded by seed: rows of int8 drawn from its
    bytes, each padded to whole 64-bit outputs, and cut to width.  It draws
    with Generator.bytes, so it also pins that probe_blocks' draws of 64-bit
    outputs are the same stream."""
    pad = -(-width // 8) * 8
    drawn = np.frombuffer(np.random.default_rng(seed).bytes(probes * pad), np.int8)
    return drawn.reshape(probes, pad)[:, :width]


class TestCertificatePool:
    """A run certifies each step on the calling thread, which draws and scores the step's own probes."""

    @pytest.mark.parametrize("variant, probes", [("kin_spin", 25), ("kin_spin", 130), ("micromorphic", 130)])
    def test_each_step_draws_its_own_probes(self, tmp_path, monkeypatch, variant, probes):
        doc = base_doc(variant=variant, solver={"vi_probes": probes, "seed": 5})
        s = parse_scenario(json.dumps(doc))
        levels = [load.level for load in s.load_program]
        blocks_of, score = solver.probe_blocks, DiscreteProblem.vi_residual
        draws, step_of, calls, threads = [], {}, [], []

        def recording_blocks(problem, rng, n):
            # made in step order, drawn on the thread that scores them
            drawn = []
            draws.append(drawn)

            def record():
                for block in blocks_of(problem, rng, n):
                    drawn.append((threading.current_thread(), np.hstack(block)))
                    yield block

            blocks = record()
            step_of[blocks] = len(draws) - 1
            return blocks

        def checked_score(prob, r_hat, r_u, dc, gamma_prev, blocks):
            got = score(prob, r_hat, r_u, dc, gamma_prev, blocks)
            k = step_of[blocks]
            own = probe_blocks(prob, np.random.default_rng(probe_seed(5, levels[k])), probes)
            calls.append((k, got, score(prob, r_hat, r_u, dc, gamma_prev, own),
                          prob.K_ff.shape[0] + prob.basis.size))
            return got

        def step(*args):
            threads.append(threading.active_count())
            return time_step(*args)

        monkeypatch.setattr(solver, "probe_blocks", recording_blocks)
        monkeypatch.setattr(DiscreteProblem, "vi_residual", checked_score)
        monkeypatch.setattr(cli, "time_step", step)
        before = threading.active_count()
        res = run_scenario(s, str(tmp_path))
        if variant == "micromorphic":
            # the program collapses to its final level, whose step has no
            # inequality to certify: no draw, a 0.0 column
            assert len(res.reports) == 1 and threads == [before]
            assert calls == [] and draws == [] and res.reports[0].vi_residual is None
            last = (tmp_path / "timeseries.csv").read_text().splitlines()[-1]
            assert float(last.split(",")[-1]) == 0.0
            return
        assert len(calls) == len(draws) == len(levels) == len(res.reports)
        assert [k for k, *_ in calls] == list(range(len(levels)))
        assert [got for _, got, _, _ in calls] == [want for _, _, want, _ in calls]
        assert [r.vi_residual for r in res.reports] == [got for _, got, _, _ in calls]
        assert threads == [before] * len(levels)
        # the draws themselves, each made on the calling thread
        width = calls[0][3]
        for drawn, level in zip(draws, levels):
            assert {thread for thread, _ in drawn} == {threading.current_thread()}
            blocks = np.vstack([block for _, block in drawn])
            assert np.array_equal(blocks, byte_probes(probe_seed(5, level), probes, width))

    @pytest.mark.parametrize("variant, probes", [("kin_spin", 5000), ("kin_spin", 0), ("micromorphic", 0)],
                             ids=["certified", "uncertified", "micromorphic"])
    def test_csv_matches_inline_scoring_under_fast_switching(self, tmp_path, monkeypatch, variant, probes):
        # a thread switch every microsecond changes no byte of a run's files:
        # they are those of a run whose steps are library calls
        doc = program_doc(6, probes, variant=variant, output={"csv": "timeseries.csv", "vtk_dir": "fields"})
        s = parse_scenario(json.dumps(doc))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run_scenario(s, str(tmp_path / "run"))
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(cli, "time_step", lambda problem, state, load, guess: time_step(
            problem, state, load, guess))
        run_scenario(s, str(tmp_path / "inline"))
        files = sorted(p.relative_to(tmp_path / "inline") for p in (tmp_path / "inline").rglob("*.*"))
        assert len(files) == 1 + (1 if variant == "micromorphic" else 6)
        for f in files:
            assert (tmp_path / "run" / f).read_bytes() == (tmp_path / "inline" / f).read_bytes()

    def test_a_certified_run_starts_no_thread(self, tmp_path, monkeypatch):
        # each certificate is scored on the calling thread, inside its step
        seen, scored = [], []
        score = DiscreteProblem.vi_residual

        def step(*args):
            seen.append(threading.active_count())
            try:
                return time_step(*args)
            finally:
                seen.append(threading.active_count())

        def recording_score(*args):
            scored.append((threading.current_thread(), threading.active_count()))
            return score(*args)

        monkeypatch.setattr(cli, "time_step", step)
        monkeypatch.setattr(DiscreteProblem, "vi_residual", recording_score)
        before = threading.active_count()
        res = run_scenario(parse_scenario(json.dumps(program_doc(6, 130))), str(tmp_path))
        assert len(res.reports) == 6 and all(isinstance(r.vi_residual, float) for r in res.reports)
        assert seen == [before] * 12
        assert scored == [(threading.current_thread(), before)] * 6
        assert threading.active_count() == before

    def test_no_probes_start_no_certificate_thread(self, tmp_path, monkeypatch):
        # such a run scores no certificate and makes every product on the
        # calling thread: no thread besides the caller's runs at any step
        seen, scored = [], []

        def step(*args):
            seen.append(threading.active_count())
            try:
                return time_step(*args)
            finally:
                seen.append(threading.active_count())

        monkeypatch.setattr(cli, "time_step", step)
        monkeypatch.setattr(DiscreteProblem, "vi_residual", lambda *args: scored.append(args))
        before = threading.active_count()
        res = run_scenario(parse_scenario(json.dumps(base_doc())), str(tmp_path))
        assert scored == [] and [r.vi_residual for r in res.reports] == [None] * 3
        assert seen == [before] * 6 and threading.active_count() == before

    def test_non_convergence_mid_run_writes_the_steps_before(self, tmp_path, capsys):
        # step 3 fails after the certified steps 1 and 2 are written
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_doc(solver={"vi_probes": 1000, "max_fista": 3})))
        assert main(["--quiet", "--out", str(tmp_path), "run", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith("error: step 3: ")
        assert (tmp_path / "timeseries.csv").read_text().count("\n") == 1 + 2

    def test_draw_error_fails_the_step_after_earlier_rows_are_written(self, tmp_path, monkeypatch):
        # step 2's draw raises: step 1's row is written, and the error is the run's
        blocks_of, made = solver.probe_blocks, []

        def blocks(problem, rng, probes):
            made.append(rng)
            if len(made) == 2:
                raise RuntimeError("draw failed")
            return blocks_of(problem, rng, probes)

        monkeypatch.setattr(solver, "probe_blocks", blocks)
        with pytest.raises(RuntimeError, match="draw failed"):
            run_scenario(parse_scenario(json.dumps(base_doc(solver={"vi_probes": 130}))), str(tmp_path))
        assert len(made) == 2
        lines = (tmp_path / "timeseries.csv").read_text().splitlines()
        assert len(lines) == 1 + 1 and lines[1].startswith("1,")


class TestProductWorker:
    """A run makes every A_hat product of its steps on the calling thread,
    with certificates or without."""

    @staticmethod
    def watch_products(monkeypatch, action):
        """Call action with the thread of each A_hat product of the solves of
        the problems set up from now on; their power iteration runs first."""
        init = DiscreteProblem.__init__

        class Watched(CountingOperator):
            def __matmul__(self, v):
                action(threading.current_thread())
                return self.matrix @ v

        def watched(problem, *args):
            init(problem, *args)
            problem.lipschitz()
            problem.A_hat = Watched(problem.A_hat)

        monkeypatch.setattr(DiscreteProblem, "__init__", watched)

    def record_products(self, monkeypatch):
        made = []
        self.watch_products(monkeypatch, made.append)
        return made

    @pytest.mark.parametrize("variant", ["kin_spin", "micromorphic"])
    def test_rows_match_inline_library_steps(self, tmp_path, monkeypatch, variant):
        s = parse_scenario(json.dumps(base_doc(variant=variant, output={"csv": "timeseries.csv", "vtk_dir": "vtk"})))
        made = self.record_products(monkeypatch)
        res = run_scenario(s, str(tmp_path / "run"), keep_states=True)
        # one product per FISTA gradient and one per pass; the joint CG makes
        # one more than its iterations, and its step one for the report
        if variant == "micromorphic":
            assert len(made) == res.reports[0].cg_iterations + 1 + 1
        else:
            assert len(made) == sum(r.fista_iterations + r.outer_iterations for r in res.reports)
        assert set(made) == {threading.current_thread()}
        # the same steps as library calls
        problem = DiscreteProblem(s.grid, s.boundary, s.variant, s.dirichlet_array(), s.solver)
        state = SimState.zeros(s.grid)
        recent = [state]
        program = s.load_program if s.variant.has_dissipation else s.load_program[-1:]
        assert len(res.reports) == len(program)
        for load, got_state, got in zip(program, res.states, res.reports):
            state, want = time_step(problem, state, load, extrapolate(recent, load.level))
            recent = recent[-2:] + [state]
            assert got == want
            for a, b in zip((got_state.u, got_state.p, got_state.gamma), (state.u, state.p, state.gamma)):
                assert np.array_equal(a.values, b.values)
        # and the rows and VTK files of a run whose steps are library calls
        monkeypatch.setattr(cli, "time_step", lambda problem, state, load, guess: time_step(
            problem, state, load, guess))
        run_scenario(s, str(tmp_path / "inline"))
        files = sorted(p.relative_to(tmp_path / "inline") for p in (tmp_path / "inline").rglob("*.*"))
        assert len(files) == 1 + len(program)
        for f in files:
            assert (tmp_path / "run" / f).read_bytes() == (tmp_path / "inline" / f).read_bytes()

    def test_a_run_with_probes_starts_no_product_thread(self, tmp_path, monkeypatch):
        # its certificates are scored on the calling thread and make no A_hat product
        made = self.record_products(monkeypatch)
        res = run_scenario(parse_scenario(json.dumps(base_doc(solver={"vi_probes": 130}))), str(tmp_path))
        assert all(isinstance(r.vi_residual, float) for r in res.reports) and len(res.reports) == 3
        assert made and set(made) == {threading.current_thread()}

    def test_memory_error_in_a_product_exits_2(self, tmp_path, capsys, monkeypatch):
        # raised on the calling thread by step 1's first A_hat product
        def out_of_memory(thread):
            raise MemoryError("Unable to allocate 3.20 GiB for an array")

        self.watch_products(monkeypatch, out_of_memory)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_doc()))
        before = threading.active_count()
        assert main(["--quiet", "--out", str(tmp_path), "run", str(cfg)]) == 2
        assert capsys.readouterr().err == "error: out of memory: Unable to allocate 3.20 GiB for an array\n"
        assert threading.active_count() == before

    def test_joined_after_a_run_and_a_sweep(self, tmp_path, monkeypatch):
        # nothing runs beside a step, and nothing is left running after either
        seen = []

        def step(*args):
            seen.append(threading.active_count())
            return time_step(*args)

        monkeypatch.setattr(cli, "time_step", step)
        s = parse_scenario(json.dumps(base_doc()))
        before = threading.active_count()
        run_scenario(s, str(tmp_path / "run"))
        assert threading.active_count() == before
        results = sweep(s, "Lc", [0.1, 0.2], str(tmp_path / "sweep"))
        assert [r["status"] for r in results] == ["ok", "ok"]
        assert seen == [before] * 9 and threading.active_count() == before

    def test_non_convergence_mid_gradient_leaves_no_thread(self, tmp_path, capsys):
        # the inner CG of step 1's first gradient fails
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(base_doc(solver={"tol_cg": 1e-16, "max_cg": 2})))
        before = threading.active_count()
        assert main(["--quiet", "--out", str(tmp_path), "run", str(cfg)]) == 3
        assert capsys.readouterr().err.startswith("error: step 1: conjugate gradients did not converge in 2 ")
        assert threading.active_count() == before
        assert (tmp_path / "timeseries.csv").read_text().count("\n") == 1


class TestSweep:
    def test_single_value_matches_run(self, tmp_path):
        s = parse_scenario(json.dumps(base_doc()))
        res = run_scenario(s, str(tmp_path / "direct"))
        results = sweep(s, "Lc", [0.2], str(tmp_path / "swept"))
        assert results[0]["status"] == "ok"
        assert results[0]["elastic_energy"] == res.rows[-1].elastic_energy
        assert (tmp_path / "swept" / "summary.csv").exists()

    def test_local_limit_matches_pointwise_oracle(self, tmp_path):
        doc = base_doc(
            boundary={
                "gamma_faces": ["xmin", "xmax", "ymin", "ymax", "zmin", "zmax"],
                "micro_hard_faces": [],
                "dirichlet": {"matrix": [[0, 1, 0], [0, 0, 0], [0, 0, 0]]},
            },
            solver={"tol_outer": 1e-13, "tol_cg": 1e-12, "tol_fista": 1e-12},
        )
        s = parse_scenario(json.dumps(doc))
        results = sweep(s, "Lc", [0.0], str(tmp_path))
        assert results[0]["status"] == "ok"
        params = MaterialParams(mu=80.0, lam=110.0, k1=0.5, sigma_y=0.3)
        D = np.zeros((3, 3))
        D[0, 1] = 1.0
        amps = [st.amplitude for st in s.load_program]
        oracle = radial_return_0d(params, [a * sym(D) for a in amps], "kin")
        sig_o = oracle[-1][0]
        # apparent plateau stress of the swept run equals the oracle's
        import csv as csvmod

        with open(tmp_path / "Lc_0.0" / "timeseries.csv") as f:
            rows = list(csvmod.DictReader(f))
        got = float(rows[-1]["max_dev_eshelby"])
        want = np.linalg.norm(sig_o - np.trace(sig_o) / 3 * np.eye(3) - params.mu * params.k1 * oracle[-1][1])
        assert got == pytest.approx(want, rel=1e-8)

    def test_inapplicable_parameter_rejected(self):
        s = parse_scenario(json.dumps(base_doc()))
        with pytest.raises(ValidationError, match="k2 does not apply"):
            apply_sweep_value(s, "k2", 0.5)

    def test_failures_recorded_not_fatal(self, tmp_path):
        s = parse_scenario(json.dumps(base_doc()))
        results = sweep(s, "grid", [2, -1], str(tmp_path))
        assert results[0]["status"] == "ok"
        assert results[1]["status"].startswith("failed")

    def test_inadmissible_material_values_recorded_not_fatal(self, tmp_path):
        # negative, zero (kin_spin needs k1 > 0) and non-finite k1
        s = parse_scenario(json.dumps(base_doc()))
        results = sweep(s, "k1", [0.5, 0.0, -1.0, float("nan")], str(tmp_path))
        assert [r["status"] == "ok" for r in results] == [True, False, False, False]
        assert all(r["status"].startswith("failed") for r in results[1:])
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(lines) == 1 + 4

    def test_overflowing_form_weight_recorded_not_fatal(self, tmp_path):
        s = parse_scenario(json.dumps(base_doc()))
        results = sweep(s, "Lc", [1e200], str(tmp_path))
        assert results[0]["status"].startswith("failed: Lc=1e+200")

    def test_summary_header_and_failed_row_text(self, tmp_path):
        s = parse_scenario(json.dumps(base_doc()))
        sweep(s, "k2", [0.5], str(tmp_path))
        assert (tmp_path / "summary.csv").read_text() == (
            "parameter,value,status,elastic_energy,defect_energy,hardening_energy,"
            "cumulative_dissipation,hardening_slope,outer_iterations,cg_iterations,"
            "fista_iterations\n"
            "k2,0.5,failed: k2 does not apply to variant kin_spin,,,,,,,,\n")

    def test_out_of_memory_value_recorded_not_fatal(self, tmp_path, monkeypatch):
        run = cli.run_scenario

        def run_or_fail(scenario, *args, **kwargs):
            if scenario.variant.params.Lc == 0.2:
                raise MemoryError("Unable to allocate 74.5 GiB for an array")
            return run(scenario, *args, **kwargs)

        monkeypatch.setattr(cli, "run_scenario", run_or_fail)
        results = sweep(parse_scenario(json.dumps(base_doc())), "Lc", [0.1, 0.2, 0.4], str(tmp_path))
        assert [r["status"] for r in results] == [
            "ok", "failed: out of memory: Unable to allocate 74.5 GiB for an array", "ok"]
        assert (tmp_path / "summary.csv").read_text().count("\n") == 1 + 3

    def test_non_integral_grid_values_recorded_not_fatal(self, tmp_path):
        s = parse_scenario(json.dumps(base_doc()))
        results = sweep(s, "grid", [2.7, float("nan"), float("inf")], str(tmp_path))
        assert all(r["status"].startswith("failed") for r in results)
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(lines) == 1 + 3


class TestCliEntry:
    def write(self, tmp_path, doc, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_run_success(self, tmp_path, capsys):
        cfg = self.write(tmp_path, elastic_doc())
        assert main(["--quiet", "--out", str(tmp_path), "run", cfg]) == 0
        assert (tmp_path / "timeseries.csv").exists()

    def test_readme_scenario_runs(self, tmp_path, capsys):
        with open(README) as f:
            text = re.search(r"```json\n(.*?)```", f.read(), re.S).group(1)
        s = parse_scenario(text)
        assert s.grid.n == (6, 6, 6) and len(s.load_program) == 2
        cfg = tmp_path / "readme.json"
        cfg.write_text(text)
        assert main(["--quiet", "--out", str(tmp_path), "run", str(cfg)]) == 0
        assert capsys.readouterr().err == ""
        assert len((tmp_path / "timeseries.csv").read_text().splitlines()) == 1 + 2
        assert sorted(os.listdir(tmp_path / "fields")) == ["fields_0001.vtk", "fields_0002.vtk"]

    def test_far_apart_levels_exit_zero(self, tmp_path, capsys):
        # the Lagrange weights of the third step's guess overflow, so it
        # has no guess, where a NaN one would fail its recovery with exit 3
        doc = base_doc(load_program=[{"level": 1, "amplitude": 0.002}, {"level": 2, "amplitude": 0.004},
                                     {"level": 1e200, "amplitude": 0.006}])
        cfg = self.write(tmp_path, doc)
        assert main(["--quiet", "--out", str(tmp_path), "run", cfg]) == 0
        assert capsys.readouterr().err == ""

    def test_validation_error_exit_code(self, tmp_path, capsys):
        doc = base_doc()
        doc["material"]["k1"] = 0.0
        cfg = self.write(tmp_path, doc)
        assert main(["--quiet", "run", cfg]) == 2
        assert "k1" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(INVALID_EDITS))
    def test_invalid_input_exit_code(self, tmp_path, capsys, case):
        doc = base_doc()
        INVALID_EDITS[case](doc)
        cfg = self.write(tmp_path, doc)
        assert main(["--quiet", "--out", str(tmp_path), "run", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("edit, code", [
        (INVALID_EDITS["mu_overflow"], 2),
        (INVALID_EDITS["spacing_subnormal"], 2),
        (lambda d: d.update(load_program=[{"level": 1, "body_force": [1e308, 0, 0]}]), 3),
        (lambda d: d.update(load_program=[{"level": 1, "amplitude": 1e300}]), 3),
        (lambda d: d["material"].update({"lambda": 1e308}), 2),
        (lambda d: d["grid"].update(size=[1e308, 1, 1]), 2),
        (lambda d: d.update(grid={"cells": [2, 2, 2], "spacing": [3.4e-195, 0.5, 0.5]}), 3),
        (lambda d: d["material"].update(mu=7.4e-149), 3),
        (lambda d: d.update(solver={"tol_cg": 1e-320}), 3),
        (lambda d: d["material"].update(sigma_y=1e-320), 0),
    ], ids=["mu_overflow", "spacing_subnormal", "load_norm_overflow", "amplitude_overflow", "lambda_overflow",
            "size_overflow", "spacing_tiny", "mu_tiny", "tol_cg_subnormal", "sigma_y_subnormal"])
    def test_overflow_prints_the_error_line_alone(self, tmp_path, capsys, edit, code):
        # finite input whose forms, norms or iterates overflow or underflow:
        # numpy's RuntimeWarnings would print on stderr ahead of the message,
        # and a CG step with no curvature left would divide by zero
        doc = base_doc()
        edit(doc)
        cfg = self.write(tmp_path, doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--quiet", "--out", str(tmp_path), "run", cfg]) == code
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert (err.startswith("error: ") and err.count("\n") == 1) if code else err == ""

    @pytest.mark.parametrize("where", ["__init__", "vi_residual"], ids=["setup", "certificate"])
    def test_memory_error_exit_code(self, tmp_path, capsys, monkeypatch, where):
        # a failed allocation in the operator setup, or in a certificate
        def out_of_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 3.20 GiB for an array")

        monkeypatch.setattr(DiscreteProblem, where, out_of_memory)
        cfg = self.write(tmp_path, base_doc(solver={"vi_probes": 130}))
        assert main(["--quiet", "--out", str(tmp_path), "run", cfg]) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 3.20 GiB for an array\n"

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["--quiet", "run", str(path)]) == 2

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["--quiet", "run", str(tmp_path / "nope.json")]) == 4

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        cfg = self.write(tmp_path, elastic_doc())
        blocker = tmp_path / "blocked"
        blocker.write_text("")  # a file where the output directory should go
        assert main(["--quiet", "--out", str(blocker / "sub"), "run", cfg]) == 4

    def test_unwritable_csv_fails_before_the_first_step(self, tmp_path, capsys):
        doc = base_doc(output={"csv": "blocker/ts.csv", "vtk_dir": "fields"})
        cfg = self.write(tmp_path, doc)
        out = tmp_path / "out"
        out.mkdir()
        (out / "blocker").write_text("")  # a file where the CSV's folder should go
        assert main(["--quiet", "--out", str(out), "run", cfg]) == 4
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(out.rglob("*.vtk"))  # the first step writes one

    def test_non_convergence_exit_code(self, tmp_path, capsys):
        doc = base_doc()
        doc["solver"] = {"max_outer": 1, "max_fista": 2, "tol_fista": 1e-16}
        cfg = self.write(tmp_path, doc)
        assert main(["--quiet", "--out", str(tmp_path), "run", cfg]) == 3
        # step 1 fails, so the CSV, created before it, holds the header alone
        assert (tmp_path / "timeseries.csv").read_text().count("\n") == 1

    def test_fista_limit_prints_its_last_residuals(self, tmp_path, capsys):
        # one line names the step and the phase and ends with the residuals
        # of the last iterations, the reported one last
        cfg = self.write(tmp_path, base_doc(solver={"max_fista": 3}))
        assert main(["--quiet", "--out", str(tmp_path), "run", cfg]) == 3
        err = capsys.readouterr().err
        m = re.fullmatch(r"error: step \d+: proximal gradient did not converge in 3 iterations "
                         r"\(residual (\S+), tol \S+\); last residuals (\S+), (\S+), (\S+)\n", err)
        assert m and m.group(1) == m.group(4)

    def test_overflowing_load_norm_exit_code(self, tmp_path, capsys):
        # every entry of the load vector is finite, but its norm overflows
        doc = base_doc(load_program=[{"level": 1, "body_force": [1e308, 0, 0]}])
        cfg = self.write(tmp_path, doc)
        assert main(["--quiet", "--out", str(tmp_path), "run", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: step 1: conjugate gradients did not converge") and "Traceback" not in err

    def test_outer_pass_limit_exit_code(self, tmp_path, capsys):
        # a dissipative step needs a solve pass and a confirming pass
        doc = base_doc()
        doc["solver"] = {"max_outer": 1}
        cfg = self.write(tmp_path, doc)
        assert main(["--quiet", "--out", str(tmp_path), "run", cfg]) == 3
        err = capsys.readouterr().err
        assert "step 1: outer passes did not converge" in err and "residual inf" in err

    def test_huge_level_with_probes_exits_zero(self, tmp_path, capsys):
        # level * 1e6 overflows to infinity; the probe seed must not raise
        doc = base_doc(load_program=[{"level": 1e303, "amplitude": 0.001}], solver={"vi_probes": 1})
        cfg = self.write(tmp_path, doc)
        assert main(["--quiet", "--out", str(tmp_path), "run", cfg]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_korn_subcommand(self, tmp_path, capsys):
        cfg = self.write(tmp_path, elastic_doc())
        assert main(["korn", cfg, "--tol", "1e-6"]) == 0
        out = capsys.readouterr().out
        assert "lambda_min" in out and "korn_constant" in out
        assert main(["korn", cfg, "--no-bc"]) == 0
        assert "no constant exists" in capsys.readouterr().out

    def test_korn_empty_constrained_space_exit_code(self, tmp_path, capsys):
        # on one cell every node sits on faces of all three axes, so all
        # six micro-hard faces leave no admissible column anywhere
        doc = elastic_doc()
        doc["grid"]["cells"] = [1, 1, 1]
        doc["boundary"].update(gamma_faces=list(FACES), micro_hard_faces=list(FACES))
        cfg = self.write(tmp_path, doc)
        assert main(["korn", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("size", [1e300, 1e-310, 1e-200, 1e-110])
    def test_korn_out_of_range_grid_exit_code(self, tmp_path, capsys, size):
        # the forms overflow, the stiffness factors overflow, or the mass
        # underflows: each is rejected before the eigen-solve
        doc = elastic_doc()
        doc["grid"]["size"] = [size] * 3
        cfg = self.write(tmp_path, doc)
        for no_bc in ([], ["--no-bc"]):  # without faces the kernel is known, but the grid is still checked
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(["korn", cfg, *no_bc]) == 2
            assert [str(w.message) for w in caught] == []
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("tol", ["0", "nan", "-1", "inf"])
    def test_korn_invalid_tol_exit_code(self, tmp_path, capsys, tol):
        cfg = self.write(tmp_path, elastic_doc())
        assert main(["korn", cfg, "--tol", tol]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_oracle_check_subcommand(self, capsys):
        assert main(["--quiet", "oracle-check"]) == 0

    def test_sweep_subcommand(self, tmp_path):
        cfg = self.write(tmp_path, elastic_doc())
        assert main(["--quiet", "--out", str(tmp_path), "sweep", cfg,
                     "--param", "Lc", "--values", "0.0,0.1"]) == 0
        assert (tmp_path / "summary.csv").exists()

    def test_sweep_inadmissible_value_exit_code(self, tmp_path):
        cfg = self.write(tmp_path, elastic_doc())
        assert main(["--quiet", "--out", str(tmp_path), "sweep", cfg,
                     "--param", "Lc", "--values", "0.1,-1"]) == 3
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(lines) == 1 + 2

    def test_sweep_records_an_oversize_grid_and_goes_on(self, tmp_path, capsys):
        # 100000^3 cells are refused at once by their setup estimate
        cfg = self.write(tmp_path, elastic_doc())
        assert main(["--quiet", "--out", str(tmp_path), "sweep", cfg, "--param", "grid", "--values", "2,100000,3"]) == 3
        rows = [line.split(",")[:3] for line in (tmp_path / "summary.csv").read_text().splitlines()[1:]]
        assert [r[:2] for r in rows] == [["grid", "2"], ["grid", "100000"], ["grid", "3"]]
        assert rows[0][2] == rows[2][2] == "ok"
        assert rows[1][2].startswith("failed: a grid of 100000x100000x100000 cells needs at least ")
        assert capsys.readouterr().err == ""

    def test_sweep_records_a_non_finite_form_and_goes_on(self, tmp_path):
        doc = elastic_doc()
        doc["grid"]["size"] = [1e-310] * 3
        cfg = self.write(tmp_path, doc)
        assert main(["--quiet", "--out", str(tmp_path), "sweep", cfg, "--param", "Lc", "--values", "0.1,0.2"]) == 3
        lines = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(lines) == 1 + 2
        assert all(line.split(",")[2].startswith("failed: an assembled form has a non-finite entry")
                   for line in lines[1:])

    @pytest.mark.parametrize("cells", [[1000000, 1, 1], [2000, 2000, 2000]])
    def test_oversize_grid_is_refused_before_setup(self, tmp_path, capsys, monkeypatch, cells):
        built = []
        for module in (solver, korn):
            monkeypatch.setattr(module, "build_blocks", lambda *args: built.append(args))
        doc = base_doc()
        doc["grid"]["cells"] = cells
        cfg = self.write(tmp_path, doc)
        for command in (["run", cfg], ["korn", cfg], ["sweep", cfg, "--param", "Lc", "--values", "0.1,0.2"]):
            t0 = time.perf_counter()
            assert main(["--quiet", "--out", str(tmp_path / "out"), *command]) == 2
            assert time.perf_counter() - t0 < 1.0
            err = capsys.readouterr().err
            assert err.startswith(f"error: a grid of {'x'.join(map(str, cells))} cells needs at least ")
            assert err.count("\n") == 1 and "SETUP_BYTES_MAX" in err
        assert built == []

    def test_sweep_into_a_new_folder_records_the_refused_value(self, tmp_path):
        cfg = self.write(tmp_path, base_doc())
        out = tmp_path / "new"
        assert main(["--quiet", "--out", str(out), "sweep", cfg, "--param", "k2", "--values", "0.5"]) == 3
        lines = (out / "summary.csv").read_text().splitlines()
        assert len(lines) == 1 + 1 and lines[1].startswith("k2,0.5,failed: ")
