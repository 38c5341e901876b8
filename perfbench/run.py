"""Run one benchmark workload of oehnn and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ./src. With
--trace 0 the job runs untraced, repeatedly for S seconds, and the
end-to-end metrics are reported. With --trace 1 the job runs once untraced
and once traced, then the per-layer probe runs traced, and the per-layer
metrics and the tracing overhead are reported. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics. The
run record (environment, checks, digests, projection and, when traced, the
spans) is written to .perfbench_runs/. See perfbench/README.md.
"""

import os
import sys

# One BLAS thread was both steadier and no slower on two cores; it must be
# set before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_REPEATS = 2  # so that the repeat-determinism check always has two digests

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "epochs_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("standard", "tiny"), default="standard",
                        help="problem size; tiny is for the benchmark's own tests")
    parser.add_argument("--out-dir", default=str(ROOT / ".perfbench_runs"),
                        help="where run records, traces and working files go")
    return parser.parse_args(argv)


def import_program():
    """Import oehnn from ./src of this checkout, and nothing else."""
    package = SRC / "oehnn"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {package}")
    sys.path.insert(0, str(SRC))
    import oehnn

    if Path(oehnn.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported oehnn from {oehnn.__file__}, not {package}")


def import_seconds() -> float:
    """Time a fresh interpreter takes to import numpy and oehnn, as this one did."""
    code = ("import time; start = time.perf_counter(); import numpy, oehnn.cli; "
            "print(time.perf_counter() - start)")
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "oehnn").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(np, args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def check_digest_store(path: Path, key: str, digest: str) -> bool:
    """True unless an earlier run of the same workload, seed, size and source
    recorded a different digest."""
    store = json.loads(path.read_text()) if path.exists() else {}
    earlier = store.setdefault(key, digest)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(store, indent=1, sort_keys=True))
    tmp.replace(path)
    return earlier == digest


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import numpy as np

    import layers
    import workloads
    from spans import Recorder, self_times

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.size]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    work = out_dir / f"work-{os.getpid()}"
    env = environment(np, args)
    print("environment " + json.dumps(env))

    rec = Recorder(tracing=bool(args.trace))
    checks: dict[str, bool] = {}
    metrics: dict[str, tuple[float, str]] = {}
    record: dict = {"environment": env}
    try:
        # set-up, several times: the imports in a fresh interpreter, then the
        # workload inputs; the first set-up's inputs are used
        setup_times, inputs_digests, inputs = [], [], None
        for _ in range(size.setup_repeats):
            imports = import_seconds()
            start = time.perf_counter()
            with rec.span("setup"):
                prepared = workload.setup(rec, size, args.seed)
            setup_times.append(imports + time.perf_counter() - start)
            inputs_digests.append(workload.inputs_digest(prepared))
            inputs = prepared if inputs is None else inputs
        checks["setup_repeatable"] = len(set(inputs_digests)) == 1

        def run_job():
            start = time.perf_counter()
            with rec.span("job"):
                result = workload.job(rec, inputs, size, args.seed, work / "job")
            return result, time.perf_counter() - start

        if args.trace:
            rec.tracing = False
            untraced, untraced_wall = run_job()
            rec.tracing = True
            traced, traced_wall = run_job()
            results = [untraced, traced]
            checks["trace_digest_matches_untraced"] = untraced.digest == traced.digest
            with rec.span("probe"):
                dataset, csv = layers.probe(rec, workload, inputs, size, args.seed, work)
            checks["csv_round_trip"] = csv["round_trip"]
            metrics = layers.per_layer_metrics(rec.spans, dataset, size, csv)
            metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
            metrics["trace.spans"] = (float(len(rec.spans)), "count")
            record["projection"] = layers.projection(metrics)
            record["self_s"] = self_times(rec.spans)
        else:
            walls, results = [], []
            deadline = time.perf_counter() + args.seconds
            while True:
                result, wall = run_job()
                walls.append(wall)
                results.append(result)
                if len(results) >= MIN_REPEATS and time.perf_counter() + wall > deadline:
                    break
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": statistics.median(walls),
                "epochs_per_s": statistics.median(r.epochs / r.fit_s for r in results),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in metrics.items()}
            record["walls"] = walls
        checks["job_repeatable"] = len({r.digest for r in results}) == 1
        digest = results[0].digest
        record.update(digest=digest, test_rmse=results[0].test_rmse)
        checks["test_rmse_finite"] = math.isfinite(results[0].test_rmse)
        checks["digest_matches_earlier_runs"] = check_digest_store(
            out_dir / "digests.json",
            f"{args.workload}|{args.size}|seed={args.seed}|src={env['source_sha256'][:16]}",
            digest,
        )
        workloads.run_cli(rec, ["gradcheck"])  # raises unless it exits 0
        checks["gradcheck"] = True
    except Exception:  # a failing call ends the run, which is then reported as not correct
        traceback.print_exc()
        checks["completed"] = False
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks["metrics_finite"] = bool(metrics) and all(math.isfinite(v) for v, _ in metrics.values())
    checks["no_failed_operations"] = rec.failed == 0
    correct = all(checks.values())
    record.update(checks=checks, attempted=rec.attempted, failed=rec.failed,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    if args.trace:
        record["spans"] = rec.spans
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1))

    for key, (value, unit) in sorted(metrics.items()):
        print(f"  {key:<44} {value:>16.6g} {unit}")
    # reported every run but not bounded metrics: see README.md
    print(f"  {'test_rmse':<44} {record.get('test_rmse', math.nan):>16.6g} state_units (unbounded)")
    print(f"  {'failed_frac':<44} {rec.failed / max(rec.attempted, 1):>16.6g} ratio (unbounded)")
    if args.trace:
        layer_self = {}
        for name, seconds in record.get("self_s", {}).items():
            layer = name.split(".")[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + seconds
        print("self time by layer (s): " + ", ".join(
            f"{layer} {seconds:.3f}" for layer, seconds in sorted(layer_self.items())))
        p = record.get("projection")
        if p:
            print(f"projection (not an end-to-end metric): one table reproduction for "
                  f"{workload.system} = {p['table_s'] / 60:.1f} min over {p['seeds']} seeds")
    print(f"digest {record.get('digest')}")
    print("checks " + json.dumps(checks))
    print(json.dumps({
        "correct": correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
