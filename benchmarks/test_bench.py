"""Tests of the benchmark itself, at the tiny size.

Run from the root of a checkout: python3 -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import spans  # noqa: E402
import workloads  # noqa: E402
from rrsplit import coupling, fem, sparse  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "benchmarks/bench.py", "--size", "tiny",
                           "--seconds", "0.01", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def spec_units(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_matches_the_benchmark():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert spec_units("per_layer") == {k: u for k, (u, _) in spans.LAYER_METRICS.items()}
    import bench

    assert spec_units("end_to_end") == bench.END_TO_END


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_all_workloads_print_every_metric_with_its_unit(trace, kind):
    proc = bench("--workload", "all", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = spec_units(kind)
    for w in workloads.WORKLOADS:
        for name, unit in units.items():
            assert result["metrics"][f"{w}.{name}"]["unit"] == unit
            assert any(line.startswith(f"{w} {name} ") and line.endswith(f" {unit}")
                       for line in lines), (w, name)
        assert f"{w} failed_fraction 0 " in proc.stdout


def test_single_workload_prints_exactly_the_contract_keys():
    proc = bench("--workload", "energy_audit", "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(spec_units("end_to_end"))
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_solver_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("--workload", "energy_audit", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("workload", ["slanted_sweep", "oracle_gap"])
def test_wrong_reference_fails_the_gate(workload):
    good = workloads.REFERENCE["tiny"][workload]
    if workload == "oracle_gap":
        bad = (good[0] * (1 + 1e-8),) + good[1:]
    else:
        err, rate = good["L2_final_U"]
        bad = dict(good, L2_final_U=(err, rate * (1 + 1e-8)))
    p = workloads.run_pass(workload, "tiny", 0, reference={workload: bad})
    assert p.failed == 1
    assert workloads.run_pass(workload, "tiny", 0).failed == 0


def test_traced_pass_restores_the_solver_and_accounts_for_its_wall():
    originals = (coupling.run, coupling.CoupledOperators.__init__, fem.assemble_load,
                 sparse.Factorization.solve, sparse.from_triplets, fem.from_triplets)
    rec = spans.Recorder()
    p = workloads.run_pass("oracle_gap", "tiny", 0, recorder=rec)
    assert p.failed == 0
    assert (coupling.run, coupling.CoupledOperators.__init__, fem.assemble_load,
            sparse.Factorization.solve, sparse.from_triplets, fem.from_triplets) == originals
    metrics = spans.layer_metrics(rec.spans)
    assert set(metrics) | {"harness.rows", "harness.rows_failed", "trace.wall_s",
                           "trace.overhead_s"} == set(spans.LAYER_METRICS)
    assert abs(spans.self_time_total(metrics) - p.wall_s) <= 0.05 * p.wall_s
    assert metrics["sparse.factorize_calls"] == 9   # 2 subdomain LUs + 1 saddle LU per dt
    assert metrics["fem.load_points"] > 0 and metrics["fem.norm_calls"] == 0
