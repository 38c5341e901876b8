"""Test-set simulation, per-state RMSE, and comparison tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from oehnn import textio
from oehnn.data import Dataset, Trajectory
from oehnn.dynamics import StructureMatrices, structure_matrices
from oehnn.integrate import rk4_lanes
from oehnn.netmodel import MODEL_KINDS, BlackBoxNet, HamiltonianNet, blackbox_field, oe_hnn_field
from oehnn.train import ANCHORS, TrainConfig, _lanes, _process_budget, fit

__all__ = [
    "Metrics",
    "TrajectoryResult",
    "TrainStage",
    "BenchmarkResult",
    "rmse",
    "evaluate",
    "model_field",
    "compare_estimators",
    "write_metrics_report",
    "write_comparison_csv",
    "state_labels",
]

REFERENCES = ("true", "measured")


@dataclass
class TrajectoryResult:
    index: int
    rmse: np.ndarray  # (2n,), NaN when diverged
    diverged: bool = False
    diverged_step: int | None = None


@dataclass
class Metrics:
    kind: str
    per_state_rmse: np.ndarray  # pooled over all non-diverged test trajectories
    per_trajectory: list[TrajectoryResult] = field(default_factory=list)
    reference: str = "true"

    @property
    def n_diverged(self) -> int:
        return sum(r.diverged for r in self.per_trajectory)


def rmse(simulated: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Per-coordinate root mean square error over rows."""
    simulated = np.asarray(simulated, dtype=float)
    reference = np.asarray(reference, dtype=float)
    if simulated.shape != reference.shape:
        raise ValueError(f"shape mismatch: {simulated.shape} vs {reference.shape}")
    return np.sqrt(np.mean((simulated - reference) ** 2, axis=0))


def model_field(model, S: StructureMatrices):
    """Wrap a learned model as a state-derivative callable f(x, u)."""
    if isinstance(model, HamiltonianNet):
        return lambda x, u: oe_hnn_field(model, S, x, u)
    if isinstance(model, BlackBoxNet):
        return lambda x, u: blackbox_field(model, x, u)
    raise TypeError(f"unsupported model type {type(model).__name__}")


@np.errstate(over="ignore", invalid="ignore")
def evaluate(
    field_f,
    test: list[Trajectory],
    reference: str = "true",
    anchor: str = "measured",
    kind: str = "model",
) -> Metrics:
    """Simulate each test trajectory and report per-state RMSE.

    Rollouts start from the anchor sample of each trajectory under its
    recorded inputs, as the lanes of `train._lanes`: one batch, each lane
    padded to the longest trajectory and scored over its own samples alone,
    so a lane that dies only in its padding is not flagged. The aggregate
    RMSE pools the squared errors of all non-diverged trajectories; diverged
    ones are flagged per trajectory instead of contaminating the pool. A
    finite rollout whose RMSE overflows raises `ValueError`, not numpy's
    warning. Trajectories whose sampling steps differ by more than
    `train._lanes` allows raise `ValueError`.
    """
    if not test:
        raise ValueError("test split is empty")
    if reference not in REFERENCES:
        raise ValueError(f"reference must be one of {REFERENCES}")
    if anchor not in ANCHORS:
        raise ValueError(f"anchor must be one of {ANCHORS}")
    if "true" in (reference, anchor) and any(traj.x_true is None for traj in test):
        raise ValueError("reference or anchor 'true' requires stored noiseless states")
    refs = [traj.x_true if reference == "true" else traj.y for traj in test]
    d = test[0].y.shape[1]
    per_traj: list[TrajectoryResult | None] = [None] * len(test)
    simulated: dict[int, np.ndarray] = {}  # the non-diverged rollouts
    lanes = _lanes(test, anchor)  # lane i is trajectory i
    states, diverged, _ = rk4_lanes(field_f, lanes.x0, lanes.u, lanes.h)
    for i, steps in enumerate(lanes.steps.tolist()):
        if 0 <= diverged[i] <= steps:
            # the input row whose update diverged, as `rollout` reports it
            step = max(int(diverged[i]) - 1, 0)
            per_traj[i] = TrajectoryResult(
                index=i, rmse=np.full(d, np.nan), diverged=True, diverged_step=step
            )
        else:
            simulated[i] = states[: steps + 1, i]
            error = rmse(simulated[i], refs[i])
            if not np.isfinite(error).all():
                raise ValueError(f"test trajectory {i}: its RMSE against {reference} overflows")
            per_traj[i] = TrajectoryResult(index=i, rmse=error)
    if simulated:
        kept = sorted(simulated)
        pooled = rmse(
            np.concatenate([simulated[i] for i in kept]), np.concatenate([refs[i] for i in kept])
        )
    else:
        pooled = np.full(d, np.nan)
    return Metrics(kind=kind, per_state_rmse=pooled, per_trajectory=per_traj, reference=reference)


def state_labels(n_masses: int) -> list[str]:
    if n_masses == 1:
        return ["q", "p"]
    return [f"q{i + 1}" for i in range(n_masses)] + [f"p{i + 1}" for i in range(n_masses)]


def write_metrics_report(metrics: Metrics, path, labels: list[str] | None = None) -> None:
    """Key-value report: aggregate RMSE, per-trajectory breakdown, divergences."""
    labels = labels or [f"x{i}" for i in range(len(metrics.per_state_rmse))]
    fields = {
        "kind": metrics.kind,
        "reference": metrics.reference,
        "n_trajectories": len(metrics.per_trajectory),
        "n_diverged": metrics.n_diverged,
    }
    fields.update((f"rmse_{label}", value) for label, value in zip(labels, metrics.per_state_rmse))
    for res in metrics.per_trajectory:
        fields[f"trajectory_{res.index}_rmse"] = tuple(res.rmse)
        if res.diverged:
            fields[f"trajectory_{res.index}_diverged_at"] = res.diverged_step
    Path(path).write_text(textio.sections_text({"": fields}), encoding="utf-8")


def write_comparison_csv(metrics_list: list[Metrics], path, labels: list[str]) -> None:
    """One row per method, one RMSE column per state coordinate."""
    rows = [("method", *labels)] + [(m.kind, *m.per_state_rmse) for m in metrics_list]
    Path(path).write_text("".join(textio.encode(row) + "\n" for row in rows), encoding="utf-8")


# ---------------------------------------------------------------------------
# Multi-seed estimator comparison (Table-style benchmark runs).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrainStage:
    """One leg of a staged simulation-error fit."""

    learning_rate: float
    chunk_length: int | None
    epochs: int


# Staged schedule for the simulation-error model: re-anchored mid-length
# segments give well-conditioned gradients from a cold start, the
# full-horizon legs with decaying learning rate polish long-range
# consistency. Segments much shorter than ~50 samples starve the loss of
# dynamical information and fit worse.
DEFAULT_OE_STAGES = (
    TrainStage(5e-3, 50, 1600),
    TrainStage(1e-3, None, 700),
    TrainStage(2e-4, None, 300),
)


@dataclass
class BenchmarkResult:
    kinds: tuple[str, ...]
    seeds: tuple[int, ...]
    per_seed: dict  # kind -> list[Metrics], one per seed
    median_seed_index: int
    labels: list[str]

    def rmse_array(self, kind: str) -> np.ndarray:
        return np.stack([m.per_state_rmse for m in self.per_seed[kind]])

    def median_rmse(self, kind: str) -> np.ndarray:
        """Per-coordinate median across seeds."""
        return np.median(self.rmse_array(kind), axis=0)

    def median_seed_metrics(self) -> list[Metrics]:
        return [self.per_seed[kind][self.median_seed_index] for kind in self.kinds]


def _benchmark_one_seed(schedule, *, dataset, anchor, reference, verbose) -> list:
    """Fit and evaluate every estimator of one training seed (process-pool
    friendly). `schedule` pairs each kind with its configs, one fit each,
    every fit after the first warm-started from the one before."""
    S = structure_matrices(dataset.system)
    out = []
    for kind, configs in schedule:
        model = None
        for cfg in configs:
            model = fit(kind, dataset, cfg, initial_model=model).model
        metrics = evaluate(
            model_field(model, S), dataset.test, reference=reference, anchor=anchor, kind=kind
        )
        out.append(metrics)
        if verbose:
            print(f"seed {cfg.seed} {kind}: rmse {metrics.per_state_rmse}", flush=True)
    return out


def compare_estimators(
    dataset: Dataset,
    seeds: tuple[int, ...] = (1, 2, 3),
    n_hidden: int = 200,
    oe_stages: tuple[TrainStage, ...] = DEFAULT_OE_STAGES,
    baseline_epochs: int = 1500,
    baseline_patience: int = 300,
    derivative_source: str = "true",
    anchor: str = "true",
    reference: str = "true",
    kinds: tuple[str, ...] = ("oe-hnn", "hnn", "mlp"),
    verbose: bool = False,
) -> BenchmarkResult:
    """Fit every estimator once per seed and evaluate on the test split.

    The simulation-error model trains on the noisy measurements through the
    staged schedule; the derivative-matching baselines default to the stored
    noiseless states and derivatives (the classical setting those methods
    assume). The median seed is the one whose model of the first kind in
    `kinds` attains the median mean RMSE. No seeds, no kinds, a repeated or
    unknown kind, 'oe-hnn' with no `oe_stages`, or any setting a
    `TrainConfig` of the run refuses raise `ValueError` before any fit.
    The process budget is that of `fit`: the usable cores of the affinity
    mask. When it covers two seeds or more, a fork pool of min(budget,
    len(seeds)) processes fits the seeds, and each fit in it, a pool
    worker, validates inline; otherwise each fit here spends the budget.
    Results are identical for any process budget (fixed gather order).
    """
    if not seeds:
        raise ValueError("compare_estimators needs at least one seed")
    if not kinds or len(set(kinds)) != len(kinds):
        raise ValueError(f"compare_estimators needs one or more distinct kinds, got {kinds!r}")
    unknown = [kind for kind in kinds if kind not in MODEL_KINDS]
    if unknown:
        raise ValueError(f"unknown model kind {unknown[0]!r}, expected one of {MODEL_KINDS}")
    if "oe-hnn" in kinds and not oe_stages:
        raise ValueError("oe-hnn needs at least one training stage in oe_stages")

    def configs(kind, seed):
        if kind == "oe-hnn":
            return tuple(
                TrainConfig(
                    learning_rate=stage.learning_rate, chunk_length=stage.chunk_length,
                    max_epochs=stage.epochs, patience=stage.epochs, n_hidden=n_hidden,
                    seed=seed, anchor=anchor,
                )
                for stage in oe_stages
            )
        return (TrainConfig(
            max_epochs=baseline_epochs, patience=baseline_patience, n_hidden=n_hidden,
            seed=seed, anchor=anchor, derivative_source=derivative_source,
        ),)

    # every config of the run, so that a bad setting raises before any fit
    schedules = [tuple((kind, configs(kind, seed)) for kind in kinds) for seed in seeds]
    job = partial(
        _benchmark_one_seed, dataset=dataset, anchor=anchor, reference=reference, verbose=verbose
    )
    n_pool = min(_process_budget(), len(seeds))
    if n_pool >= 2:
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(n_pool) as pool:
            results = pool.map(job, schedules)
    else:
        results = [job(schedule) for schedule in schedules]
    per_seed: dict = {kind: [] for kind in kinds}
    for seed_result in results:
        for kind, metrics in zip(kinds, seed_result):
            per_seed[kind].append(metrics)
    oe_means = [m.per_state_rmse.mean() for m in per_seed[kinds[0]]]
    median_seed_index = int(np.argsort(oe_means)[len(oe_means) // 2])
    return BenchmarkResult(
        kinds=kinds,
        seeds=tuple(seeds),
        per_seed=per_seed,
        median_seed_index=median_seed_index,
        labels=state_labels(dataset.system.n_masses),
    )
