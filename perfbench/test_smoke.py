"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run  # first: puts the checkout's src/ on sys.path

import cscskit  # noqa: E402
import workloads  # noqa: E402
from inputs import PAPER_CELLS, WORKLOADS, SolveCell  # noqa: E402

DECLARED = run.declared_metrics()


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_declared_metric_is_reported(workload, trace):
    result, record = run.run(workload, seed=3, seconds=0, trace=trace, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    assert set(metrics) == set(DECLARED[trace])
    if trace:
        assert record["absent"] == []
        assert metrics["trig_transforms.dct_per_sweep"] == 6
        assert metrics["trig_transforms.dst_per_sweep"] == 6
        assert metrics["_dft.calls_per_sweep.dct_dst"] == 20
        assert metrics["_dft.calls_per_sweep.fft"] == 10
    else:
        assert all(value > 0 for value in metrics.values())


def test_corrupted_solution_is_counted(monkeypatch):
    solve = cscskit.cscs_solve

    def corrupted(T, b, cfg):
        report = solve(T, b, cfg)
        report.solution = report.solution * (1.0 + 1e-3)
        return report

    monkeypatch.setattr(cscskit, "cscs_solve", corrupted)
    result, _ = run.run("paper_cells", seed=3, seconds=0, trace=0, tiny=True)
    solves = 2 * len(PAPER_CELLS)
    assert result["failed"] == solves and not result["correct"]


def test_corrupted_product_is_counted(monkeypatch):
    matvec = cscskit.toeplitz_matvec
    monkeypatch.setattr(cscskit, "toeplitz_matvec",
                        lambda op, x: matvec(op, x) * (1.0 + 1e-6))
    result, _ = run.run("operator_stream", seed=3, seconds=0, trace=0, tiny=True)
    assert result["failed"] == 4 and not result["correct"]


def test_solve_checks_reject_target_miss_and_transform_budget():
    b = np.ones(64)
    cell = SolveCell("ex1 n=64", ("ex1", 64, 0.9), 1.985, b, target=5)
    T = workloads.problem(cell.source)
    report = cscskit.cscs_solve(T, b, cscskit.SolverConfig(theta=cell.theta))
    problems = workloads.check_solve(cell, T, "dct_dst", report)
    assert len(problems) == 1 and "target 5" in problems[0]
    report.transform_counts = report.transform_counts[:-1] + [(7, 6)]
    cell.target = None
    problems = workloads.check_solve(cell, T, "dct_dst", report)
    assert len(problems) == 1 and "transform counts" in problems[0]


def test_command_prints_the_result_line_last():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large_pow2", "--seed", "4",
         "--seconds", "0", "--trace", "0", "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and set(result["metrics"]) == set(DECLARED[0])
    assert all(set(m) == {"value", "unit"} for m in result["metrics"].values())


def test_fails_without_the_library():
    # a directory holding only BENCHMARK.json and the benchmark's files
    bare = run.HERE / "runs" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for source in run.HERE.glob("*.py"):
        shutil.copy(source, bare / "perfbench")
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "paper_cells", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
