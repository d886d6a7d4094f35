"""Smoke tests of the benchmark: every workload shrunk to a 2^3 grid and two
steps, plus negative controls showing that each correctness gate can fail."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from curlplast.cli import run_scenario  # noqa: E402
from curlplast.models import SimState  # noqa: E402
from curlplast.scenario import parse_scenario  # noqa: E402


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric_with_its_unit(trace):
    proc = _bench("--workload", "all", "--smoke", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (2 + 2 + 1) * (1 + trace)
    printed = {tuple(line.split()[:2]): line.split()[3] for line in lines[:-1]}
    for name in run.WORKLOADS:
        assert printed[(name, "failed_frac")] == "ratio"
        for metric, unit in (run.PER_LAYER if trace else run.END_TO_END):
            m = result["metrics"][f"{name}.{metric}"]
            assert m["unit"] == unit and isinstance(m["value"], (int, float))
            assert printed[(name, metric)] == unit
    if trace:
        for name in run.WORKLOADS:
            assert result["metrics"][f"{name}.trace.coverage"]["value"] >= 0.9


def test_benchmark_json_lists_the_metrics_the_command_prints():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["command"] == ["python3", "bench/run.py"] and doc["paths"] == ["bench"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _bench("--workload", "korn10", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def _smoke_run(name, tmp_path):
    return run_scenario(parse_scenario(workloads.scenario_text(name, 0, smoke=True)),
                        str(tmp_path), keep_states=True)


def test_gradient_gate_rejects_wrong_final_energy(tmp_path):
    result = _smoke_run("gradient_shear6", tmp_path)
    assert all(workloads.gate_gradient(result, smoke=True)[0])
    last = result.rows[-1]
    result.rows[-1] = dataclasses.replace(last, defect_energy=last.defect_energy * (1 + 1e-5))
    assert not all(workloads.gate_gradient(result, smoke=True)[0])


def test_certified_gate_rejects_a_state_off_the_radial_return(tmp_path):
    result = _smoke_run("certified_cycle6", tmp_path)
    assert all(workloads.gate_certified(result, smoke=True)[0])
    s = result.states[0]
    p = s.p.values.copy()
    p[0, 0, 1] = p[0, 1, 0] = p[0, 0, 1] * (1 + 1e-6)
    result.states[0] = SimState(s.u, dataclasses.replace(s.p, values=p), s.gamma, s.t)
    assert not all(workloads.gate_certified(result, smoke=True)[0])


def test_korn_gate_rejects_a_wrong_eigenvalue():
    ref = workloads.REFERENCE["korn10"][1]
    assert all(workloads.gate_korn(ref, smoke=True)[0])
    assert not all(workloads.gate_korn(ref * (1 + 1e-5), smoke=True)[0])


def test_a_run_that_does_not_converge_counts_its_failed_steps(tmp_path, monkeypatch):
    make_doc = workloads.scenario_doc

    def capped(name, seed, smoke=False):
        doc = make_doc(name, seed, smoke)
        doc["solver"]["max_outer"] = 1
        return doc

    monkeypatch.setattr(workloads, "scenario_doc", capped)
    record = worker.run_instance("gradient_shear6", 0, False, True, tmp_path)
    assert record["error"].startswith("NoConvergence: step 1:")
    assert record["failed"] == record["attempted"] == 2
