#!/usr/bin/env python3
"""Multi-seed estimator comparison on one of the oscillator benchmarks.

Generates the standard dataset, trains the simulation-error model plus both
derivative-matching baselines for each training seed, and writes a
comparison table of per-state test RMSE (median seed) together with the
per-seed breakdown.

Example:
    python scripts/run_benchmark.py --system duffing --out results/duffing
    python scripts/run_benchmark.py --system coupled --seeds 1 2 3 --quick
"""

import argparse
import dataclasses
import json
import os
import time
from pathlib import Path

import numpy as np

from oehnn.cli import ExperimentConfig
from oehnn.data import generate
from oehnn.evaluate import (
    DEFAULT_OE_STAGES,
    TrainStage,
    compare_estimators,
    write_comparison_csv,
)
from oehnn.train import _process_budget


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--system", choices=("duffing", "coupled"), default="duffing")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--n-hidden", type=int, default=200)
    parser.add_argument("--n-train", type=int, default=15,
                        help="training trajectories (15 = full recording protocol)")
    parser.add_argument("--master-seed", type=int, default=0)
    parser.add_argument("--derivative-source", choices=("true", "fd"), default="true",
                        help="baseline targets: stored truth or noisy finite differences")
    parser.add_argument("--quick", action="store_true", help="short schedule for smoke runs")
    parser.add_argument("--out", default=None, help="output directory (default: results/<system>)")
    args = parser.parse_args()
    if args.n_train < 1:
        parser.error(f"argument --n-train: must be at least 1, got {args.n_train}")

    out = Path(args.out or f"results/{args.system}")
    out.mkdir(parents=True, exist_ok=True)

    cfg = ExperimentConfig(system=args.system, master_seed=args.master_seed).resolved()
    dataset = generate(cfg.system_spec(), cfg.protocol(), cfg.noise(), cfg.master_seed)
    if args.n_train < len(dataset.train):
        dataset = dataclasses.replace(dataset, train=dataset.train[: args.n_train])
    print(
        f"{args.system}: {len(dataset.train)} train / {len(dataset.validation)} val / "
        f"{len(dataset.test)} test trajectories, noise variance {cfg.noise_variance}"
    )
    # the affinity mask sets the budget (limit it with taskset); results never depend on it
    usable_cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    process_budget = _process_budget()
    print(f"process_budget {process_budget}, usable_cores {usable_cores}")

    if args.quick:
        stages = (TrainStage(5e-3, 25, 200), TrainStage(1e-3, None, 100))
        baseline_epochs = 200
    else:
        stages = DEFAULT_OE_STAGES
        baseline_epochs = 1500

    t0 = time.perf_counter()
    result = compare_estimators(
        dataset,
        seeds=tuple(args.seeds),
        n_hidden=args.n_hidden,
        oe_stages=stages,
        baseline_epochs=baseline_epochs,
        derivative_source=args.derivative_source,
        verbose=True,
    )
    elapsed = time.perf_counter() - t0

    write_comparison_csv(result.median_seed_metrics(), out / "comparison.csv", result.labels)
    per_seed = {
        kind: [[float(v) for v in m.per_state_rmse] for m in result.per_seed[kind]]
        for kind in result.kinds
    }
    (out / "per_seed_rmse.json").write_text(
        json.dumps(
            {
                "system": args.system,
                "seeds": list(result.seeds),
                "median_seed": result.seeds[result.median_seed_index],
                "labels": result.labels,
                "per_seed_rmse": per_seed,
                "median_rmse": {
                    kind: [float(v) for v in result.median_rmse(kind)] for kind in result.kinds
                },
                "elapsed_seconds": elapsed,
                "process_budget": process_budget,
                "usable_cores": usable_cores,
            },
            indent=2,
        )
    )

    print(f"\nelapsed: {elapsed:.0f}s; median seed {result.seeds[result.median_seed_index]}")
    print("method," + ",".join(result.labels))
    for metrics in result.median_seed_metrics():
        print(metrics.kind + "," + ",".join(f"{v:.4f}" for v in metrics.per_state_rmse))
    print(f"\nwrote {out / 'comparison.csv'} and {out / 'per_seed_rmse.json'}")


if __name__ == "__main__":
    main()
