import json
import subprocess
import sys
from pathlib import Path

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


def test_self_consistency_quick():
    result = run_script(
        "self_consistency.py",
        "--epochs", "60", "--n-samples", "60", "--n-hidden", "6", "--n-train", "2",
    )
    assert result.returncode == 0, result.stderr
    assert "final train loss" in result.stdout
