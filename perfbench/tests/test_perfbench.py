"""Tests of the benchmark itself: inputs, checks, tracing and the runner.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests

The smoke tests run each workload once through the runner, the run
workloads at a tiny resolution.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, config_text  # noqa: E402

from mdflow.cli import main as mdflow_main  # noqa: E402
from mdflow.config import parse_config  # noqa: E402
from mdflow.semilocal import check_wellposed, scale_to_mixed_dim  # noqa: E402

RUN_WORKLOADS = [w for w in WORKLOADS.values() if w.kind == "run"]
SMOKE = [
    ("network2d-256", ["--size", "32"]),
    ("cube3d-24", ["--size", "8"]),
    ("compare-case1", []),
]


@pytest.mark.parametrize("workload", RUN_WORKLOADS, ids=lambda w: w.name)
def test_same_seed_gives_identical_config(workload):
    first = config_text(workload, 7).encode()
    assert first == config_text(workload, 7).encode()
    assert first != config_text(workload, 8).encode()


@pytest.mark.parametrize("workload", RUN_WORKLOADS, ids=lambda w: w.name)
def test_generated_configs_pass_the_wellposedness_screen(workload):
    geometry = None
    for seed in range(20):
        cfg = parse_config(config_text(workload, seed))
        assert cfg.resolution == (workload.size,) * len(cfg.resolution)
        shape = [(f.p0, f.p1, f.aperture) for f in cfg.faults]
        assert geometry in (None, shape)
        geometry = shape
        for f in cfg.faults:
            ok, margin = check_wellposed(scale_to_mixed_dim(f.equi_perm(), f.aperture, 1))
            assert ok and margin > 0


@pytest.fixture(scope="module")
def run_outputs(tmp_path_factory):
    """A tiny network2d run and its tables, read back as the reference."""
    out = tmp_path_factory.mktemp("out")
    cfg = out / "network2d.cfg"
    cfg.write_text(config_text(WORKLOADS["network2d-256"], 3, size=16))
    assert mdflow_main(["run", str(cfg), "--output", str(out)]) == 0
    return out, checks.read_run_outputs(str(out), "network2d")


def test_checker_passes_matching_outputs(run_outputs):
    out, ref = run_outputs
    failures, status = checks.check_run(str(out), "network2d", 0, "residual 1e-15", ref)
    assert failures == [] and status == "passed"
    failures, status = checks.check_run(str(out), "network2d", 0, "residual 1e-15", None)
    assert failures == [] and status == "skipped"


def test_checker_counts_a_perturbed_fault_pressure(run_outputs):
    out, ref = run_outputs
    perturbed = dict(ref, fault=ref["fault"].copy())
    perturbed["fault"][len(perturbed["fault"]) // 2] *= 1 + 1e-6
    failures, status = checks.check_run(str(out), "network2d", 0, "residual 1e-15", perturbed)
    assert status == "failed"
    assert any("fault values differ" in f for f in failures)


def test_checker_counts_a_nonzero_exit_and_a_large_residual(run_outputs):
    out, ref = run_outputs
    failures, _ = checks.check_run(str(out), "network2d", 1, "residual 1e-15", ref)
    assert failures == ["exit status 1"]
    failures, _ = checks.check_run(str(out), "network2d", 0, "residual 1e-6", ref)
    assert any("solve residual" in f for f in failures)
    ref_csv = os.path.join(checks.REFS_DIR, "compare-case1.csv")
    failures, _ = checks.check_compare(str(out), "case1", 2, ref_csv)
    assert failures == ["exit status 2"]


def test_checker_counts_a_changed_error_table(tmp_path):
    ref_csv = os.path.join(checks.REFS_DIR, "compare-case1.csv")
    with open(ref_csv) as fh:
        lines = fh.read().splitlines()
    shutil.copyfile(ref_csv, tmp_path / "case1_compare.csv")
    assert checks.check_compare(str(tmp_path), "case1", 0, ref_csv) == ([], "passed")
    row = lines[-1].split(",")
    row[6] = repr(float(row[6]) * (1 + 1e-6))  # error_semilocal at the finest level
    lines[-1] = ",".join(row)
    (tmp_path / "case1_compare.csv").write_text("\n".join(lines) + "\n")
    failures, status = checks.check_compare(str(tmp_path), "case1", 0, ref_csv)
    assert status == "failed" and len(failures) == 1


def test_self_time_subtracts_direct_children():
    spans = [
        {"name": "cli", "id": 0, "parent": -1, "duration": 10.0, "counts": {}},
        {"name": "solve", "id": 1, "parent": 0, "duration": 6.0,
         "counts": {"residual": 1e-14}},
        {"name": "solve.factor", "id": 2, "parent": 1, "duration": 5.0,
         "counts": {"lu_fill": 300, "nnz": 100}},
        {"name": "vtkio", "id": 3, "parent": 0, "duration": 1.5, "counts": {"bytes": 7}},
    ]
    m = run.layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(2.5)
    assert m["solve.post_s"] == pytest.approx(1.0)
    assert (m["solve.lu_fill"], m["solve.fill_ratio"]) == (300, 3.0)
    assert (m["vtkio.files"], m["vtkio.bytes"], m["equidim.calls"]) == (1, 7, 0)
    assert set(m) | {"proc.cpu_s", "trace.overhead_s"} == set(run.PER_LAYER)


def test_op_environment_has_no_solver_override(monkeypatch):
    monkeypatch.setenv("MDFLOW_SOLVER", "iterative")
    env = run.op_env(ROOT)
    assert "MDFLOW_SOLVER" not in env
    assert env["PYTHONPATH"] == os.path.join(ROOT, "src")


def _runner(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name,extra", SMOKE, ids=[s[0] for s in SMOKE])
def test_smoke_run_through_the_runner(name, extra):
    trace = "0" if name == "compare-case1" else "1"
    proc = _runner(["--workload", name, "--seed", "0", "--seconds", "0",
                    "--trace", trace, *extra])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == (1 if trace == "0" else 2)
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if name == "network2d-256":
        assert (m["mdmesh.subdomains"], m["mdmesh.interfaces"]) == (10, 23)
        assert m["discretize.mpfa_calls"] >= 1 and m["vtkio.files"] == 10
    elif name == "cube3d-24":
        assert (m["mdmesh.subdomains"], m["solve.calls"]) == (8, 1)
        assert m["solve.lu_fill"] > m["mdassembly.nnz"] > 0
    else:
        assert m["time_to_solution_s"] > 0 and m["setup_s"] > 0


def test_runner_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copyfile(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = _runner(["--workload", "cube3d-24", "--seed", "0", "--seconds", "1",
                    "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
