"""The benchmark's workloads: what each sets up, the fixed job it times, and
the digest that pins the job's results.

Each workload drives oehnn only through its public entry points. The seed
sets both the dataset `master_seed` and the training seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oehnn import cli, data, train
from oehnn.dynamics import structure_matrices
from oehnn.evaluate import evaluate as evaluate_model, model_field
from oehnn.netmodel import flatten_params


class JobFailed(RuntimeError):
    """A public call reported a failure the job cannot continue past."""


@dataclass(frozen=True)
class Size:
    n_realizations: int
    n_samples: int
    t_start: float
    split: tuple[int, int, int]
    n_hidden: int
    oe_epochs: int
    baseline_epochs: int
    probe_epochs: int
    setup_repeats: int


SIZES = {
    # the standard 15/5/5 recording protocol at the paper's width
    "standard": Size(
        n_realizations=25, n_samples=500, t_start=5.0, split=(15, 5, 5), n_hidden=200,
        oe_epochs=10, baseline_epochs=30, probe_epochs=3, setup_repeats=3,
    ),
    # a seconds-long size for the benchmark's own smoke tests
    "tiny": Size(
        n_realizations=6, n_samples=40, t_start=0.5, split=(3, 2, 1), n_hidden=8,
        oe_epochs=2, baseline_epochs=2, probe_epochs=2, setup_repeats=2,
    ),
}


@dataclass(frozen=True)
class Leg:
    """One simulation-error training leg. Fixed here, not read from
    DEFAULT_OE_STAGES, so that a schedule change does not change the benchmark."""

    name: str
    learning_rate: float
    chunk_length: int | None


OE_CHUNK = Leg("oe_chunk", 5e-3, 50)
OE_FULL = Leg("oe_full", 1e-3, None)


@dataclass
class JobResult:
    digest: str
    test_rmse: float
    epochs: int
    fit_s: float


def experiment(system: str, size: Size, seed: int) -> cli.ExperimentConfig:
    n_train, n_val, n_test = size.split
    return cli.ExperimentConfig(
        system=system,
        n_realizations=size.n_realizations,
        n_samples=size.n_samples,
        t_start=size.t_start,
        n_train=n_train,
        n_val=n_val,
        n_test=n_test,
        n_hidden=size.n_hidden,
        master_seed=seed,
        train_seed=seed,
    ).resolved()


_CLI_KEYS = (
    "system", "n_realizations", "n_samples", "t_start", "n_train", "n_val", "n_test",
    "n_hidden", "master_seed", "train_seed",
)


def cli_flags(cfg: cli.ExperimentConfig) -> list[str]:
    """The command-line flags that reproduce `cfg` in every subcommand."""
    flags = []
    for key in _CLI_KEYS:
        flags += [f"--{key.replace('_', '-')}", str(getattr(cfg, key))]
    return flags


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes() if isinstance(part, np.ndarray) else part)
    return h.hexdigest()


def dataset_digest(dataset: data.Dataset) -> str:
    parts = []
    for tr in dataset.all_trajectories():
        parts += [tr.t, tr.u, tr.y, tr.x_true, tr.dx_true, np.array([tr.realization, tr.attempt])]
    return digest(*parts)


def generate(rec, cfg: cli.ExperimentConfig) -> data.Dataset:
    return rec.call(
        "data.generate", data.generate,
        cfg.system_spec(), cfg.protocol(), cfg.noise(), cfg.master_seed,
    )


def fit(rec, kind: str, dataset, config: train.TrainConfig, leg: str):
    result = rec.call("train.fit", train.fit, kind, dataset, config)
    rec.annotate(leg=leg, epochs=len(result.history))
    return result


def evaluate(rec, model, dataset) -> np.ndarray:
    """Per-state test RMSE against the noiseless truth, anchored at the true state."""
    S = structure_matrices(dataset.system)
    metrics = rec.call(
        "evaluate.evaluate", evaluate_model,
        model_field(model, S), dataset.test, reference="true", anchor="true",
    )
    rec.annotate(rollouts=len(metrics.per_trajectory), diverged=metrics.n_diverged)
    rec.rollouts(len(metrics.per_trajectory), metrics.n_diverged)
    return metrics.per_state_rmse


def run_cli(rec, argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = rec.call("cli." + argv[0], cli.main, argv)
    if code != 0:
        rec.failed += 1
        raise JobFailed(f"oehnn {argv[0]} exited with code {code}")


@dataclass(frozen=True)
class OEWorkload:
    """Set-up generates the dataset; the job is one simulation-error leg plus
    `evaluate` on the test split."""

    name: str
    system: str
    leg: Leg

    def setup(self, rec, size: Size, seed: int):
        return generate(rec, experiment(self.system, size, seed))

    def inputs_digest(self, dataset) -> str:
        return dataset_digest(dataset)

    def job(self, rec, dataset, size: Size, seed: int, work: Path) -> JobResult:
        epochs = size.oe_epochs
        config = train.TrainConfig(
            learning_rate=self.leg.learning_rate,
            chunk_length=self.leg.chunk_length,
            max_epochs=epochs,
            patience=epochs,
            n_hidden=size.n_hidden,
            seed=seed,
            anchor="true",
        )
        start = time.perf_counter()
        result = fit(rec, "oe-hnn", dataset, config, self.leg.name)
        fit_s = time.perf_counter() - start
        rmse = evaluate(rec, result.model, dataset)
        return JobResult(
            digest=digest(flatten_params(result.model), result.history, rmse),
            test_rmse=float(np.mean(rmse)),
            epochs=len(result.history),
            fit_s=fit_s,
        )


def _read_report(path: Path) -> dict[str, str]:
    fields = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, value = line.partition(" = ")
        fields[key] = value
    return fields


def baselines_pipeline(
    rec, system: str, size: Size, seed: int, work: Path, epochs: int
) -> JobResult:
    """The README pipeline through `cli.main`: generate-data, train hnn and mlp
    on the stored truth, evaluate both."""
    shutil.rmtree(work, ignore_errors=True)
    flags = cli_flags(experiment(system, size, seed))
    data_dir = work / "data"
    run_cli(rec, ["generate-data", "--out", str(data_dir), *flags])
    parts, n_epochs, fit_s = [], 0, 0.0
    for kind in ("hnn", "mlp"):
        out = work / kind
        start = time.perf_counter()
        run_cli(rec, [
            "train", "--data", str(data_dir), "--out", str(out), "--model", kind,
            "--derivative-source", "true", "--max-epochs", str(epochs), "--patience", str(epochs),
            *flags,
        ])
        fit_s += time.perf_counter() - start
        history = (out / "history.csv").read_bytes()
        n_epochs += history.count(b"\n") - 1  # one header line, one line per epoch
        parts += [(out / "model.txt").read_bytes(), history]
    eval_dir = work / "eval"
    run_cli(rec, [
        "evaluate", "--data", str(data_dir), "--out", str(eval_dir),
        "--models", str(work / "hnn" / "model.txt"), str(work / "mlp" / "model.txt"), *flags,
    ])
    for report in sorted(eval_dir.glob("report_*.txt")):
        fields = _read_report(report)
        rec.rollouts(int(fields["n_trajectories"]), int(fields["n_diverged"]))
    comparison = (eval_dir / "comparison.csv").read_bytes()
    rows = comparison.decode().splitlines()[1:]
    rmse = np.array([[float(v) for v in row.split(",")[1:]] for row in rows])
    parts.append(comparison)
    return JobResult(
        digest=digest(*parts),
        test_rmse=float(rmse.mean()),
        epochs=n_epochs,
        fit_s=fit_s,
    )


@dataclass(frozen=True)
class BaselinesWorkload:
    """Set-up is only the imports; the job is the CLI pipeline."""

    name: str
    system: str

    def setup(self, rec, size: Size, seed: int):
        return None

    def inputs_digest(self, _inputs) -> str:
        return ""

    def job(self, rec, _inputs, size: Size, seed: int, work: Path) -> JobResult:
        return baselines_pipeline(rec, self.system, size, seed, work, size.baseline_epochs)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        OEWorkload("oe-chunked-duffing", "duffing", OE_CHUNK),
        BaselinesWorkload("baselines-coupled", "coupled"),
    )
}
