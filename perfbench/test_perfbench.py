"""Tests of the benchmark itself: a tiny-size smoke run of every workload,
traced and untraced, the metric-name rules, and the refusal to run without
the program's source."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(cwd: Path, out_dir: Path, workload: str, trace: int, seed: int = 3):
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny",
            "--out-dir", str(out_dir),
        ],
        capture_output=True, text=True, timeout=300, cwd=cwd,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_traced_and_untraced(tmp_path, workload):
    results, records = {}, {}
    for trace in (0, 1):
        proc = run_bench(ROOT, tmp_path, workload, trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        results[trace] = json.loads(proc.stdout.splitlines()[-1])
        records[trace] = json.loads(
            (tmp_path / f"{workload}-tiny-seed3-trace{trace}.json").read_text()
        )
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        result = results[trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], records[trace]["checks"]
        assert result["failed"] == 0 and result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCH[group]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    # tracing must not change results
    assert records[0]["digest"] == records[1]["digest"]
    assert records[1]["checks"]["trace_digest_matches_untraced"]
    assert records[1]["checks"]["digest_matches_earlier_runs"]


def test_metric_and_workload_names():
    names = [w["name"] for w in BENCH["workloads"]]
    names += [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in BENCH["end_to_end"] + BENCH["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, tmp_path / "runs", BENCH["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
