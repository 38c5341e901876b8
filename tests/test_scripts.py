import json
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args, timeout=600):
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_run_benchmark_quick(tmp_path):
    result = run_script(
        "run_benchmark.py",
        "--system", "duffing", "--quick", "--seeds", "1", "2",
        "--n-hidden", "16", "--n-train", "3", "--out", tmp_path,
    )
    assert result.returncode == 0, result.stderr
    table = (tmp_path / "comparison.csv").read_text().splitlines()
    assert table[0] == "method,q,p"
    assert len(table) == 4
    summary = json.loads((tmp_path / "per_seed_rmse.json").read_text())
    assert summary["seeds"] == [1, 2]
    assert set(summary["per_seed_rmse"]) == {"oe-hnn", "hnn", "mlp"}
    assert all(len(rows) == 2 for rows in summary["per_seed_rmse"].values())
    # the table and the printed rows are each estimator's own per-state medians
    medians = summary["median_rmse"]
    rows = {cells[0]: [float(v) for v in cells[1:]] for cells in
            (line.split(",") for line in table[1:])}
    assert rows == medians
    printed = result.stdout.splitlines()
    for kind, values in medians.items():
        assert kind + "," + ",".join(f"{v:.4f}" for v in values) in printed
    # the budget the run used: every usable core of the affinity mask
    budget, cores = summary["process_budget"], summary["usable_cores"]
    assert budget == cores >= 1
    assert f"process_budget {budget}, usable_cores {cores}" in result.stdout


@pytest.mark.parametrize("n_train", ["0", "-1"])
def test_run_benchmark_refuses_n_train_below_one(tmp_path, n_train):
    out = tmp_path / "out"
    result = run_script("run_benchmark.py", "--quick", "--n-train", n_train, "--out", out)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.splitlines()[-1] == (
        f"run_benchmark.py: error: argument --n-train: must be at least 1, got {n_train}"
    )
    assert not out.exists()


def test_run_benchmark_refuses_workers(tmp_path):
    # the affinity mask sets the process budget; there is no flag for it
    out = tmp_path / "out"
    result = run_script("run_benchmark.py", "--quick", "--workers", "2", "--out", out)
    assert result.returncode == 2
    assert "unrecognized arguments: --workers 2" in result.stderr
    assert not out.exists()


def test_self_consistency_quick():
    result = run_script(
        "self_consistency.py",
        "--epochs", "60", "--n-samples", "60", "--n-hidden", "6", "--n-train", "2",
    )
    assert result.returncode == 0, result.stderr
    assert "final train loss" in result.stdout
