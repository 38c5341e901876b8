"""Benchmark dataset generation, derivative-target estimation, CSV persistence.

Each generation attempt owns an RNG stream derived from (master_seed,
realization, attempt), so generation is reproducible, realizations simulate
in lockstep as lanes of one batch, and escape retries never perturb other
realizations.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from oehnn import textio
from oehnn.dynamics import SystemSpec, field_fn, system_defaults
from oehnn.integrate import rk4_lanes
from oehnn.signals import NoiseSpec, add_noise, multisine_inputs

__all__ = [
    "Trajectory",
    "Dataset",
    "GenerationProtocol",
    "DataGenerationError",
    "DatasetFormatError",
    "generate",
    "fd_derivatives",
    "write_csv",
    "read_csv",
]

SPLITS = ("train", "validation", "test")
# attempts per realization in the first lockstep round of generation; each
# later round doubles it. A round's cost is mostly per-step call overhead,
# so a second attempt per lane is nearly free and often saves a round.
_FIRST_BLOCK = 2


class DataGenerationError(RuntimeError):
    pass


class DatasetFormatError(ValueError):
    pass


@dataclass
class Trajectory:
    """One recorded input/output window, optionally with its noiseless truth."""

    t: np.ndarray  # (N,)
    u: np.ndarray  # (N, m)
    y: np.ndarray  # (N, n_y)
    x_true: np.ndarray | None = None  # (N, 2n)
    dx_true: np.ndarray | None = None  # (N, 2n)
    realization: int = 0
    attempt: int = 0

    def __post_init__(self):
        n = len(self.t)
        for name in ("u", "y", "x_true", "dx_true"):
            arr = getattr(self, name)
            if arr is not None and arr.shape[0] != n:
                raise ValueError(f"{name} has {arr.shape[0]} rows, expected {n}")

    @property
    def n_samples(self) -> int:
        return len(self.t)

    @property
    def ts(self) -> float:
        return float(self.t[1] - self.t[0])


@dataclass(frozen=True)
class GenerationProtocol:
    """Dataset recording protocol. Defaults reproduce the benchmark recipe:

    25 input realizations, 500 samples recorded on t in [5, 10) at Ts = 0.01,
    split 15/5/5, 20-harmonic multisine with base frequency 0.1 Hz, initial
    states uniform in [-0.5, 0.5] per coordinate. An unset amplitude is the
    system's default (`dynamics.SYSTEM_DEFAULTS`), which `generate` fills in.
    Those per-component amplitudes are well below 1: the softening spring's
    potential well is only 0.25 deep, and stronger forcing ejects the mass
    on essentially every realization, which no retry cap can absorb.
    """

    n_realizations: int = 25
    n_samples: int = 500
    ts: float = 0.01
    t_start: float = 5.0
    split: tuple[int, int, int] = (15, 5, 5)
    harmonics: int = 20
    f0: float = 0.1
    amplitude: float | None = None
    init_range: float = 0.5
    q_max: float = 5.0
    max_retries: int = 50

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ValueError("need at least one realization")
        if self.n_samples < 2:
            raise ValueError("need at least two samples per realization (one step)")
        if not 0 < self.ts < np.inf:
            raise ValueError("sampling period must be positive and finite")
        if not 0 <= self.t_start < np.inf:
            raise ValueError("recording start must be non-negative and finite")
        # the simulated grid, t_start / ts samples before the recorded window
        _check_time_grid(self.n_samples, self.ts, self.t_start / self.ts)
        if min(self.split) < 0 or sum(self.split) != self.n_realizations:
            raise ValueError(
                f"split {self.split} is not a split of n_realizations={self.n_realizations}"
            )
        if self.harmonics < 1:
            raise ValueError("need at least one harmonic")
        if not 0 < self.f0 < np.inf:
            raise ValueError("base frequency must be positive and finite")
        if self.amplitude is not None and not np.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        if not 0 <= self.init_range < np.inf:
            raise ValueError("init_range must be non-negative and finite")
        if not self.q_max > 0:
            raise ValueError("q_max must be positive")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")


@dataclass
class Dataset:
    train: list[Trajectory]
    validation: list[Trajectory]
    test: list[Trajectory]
    system: SystemSpec
    protocol: GenerationProtocol
    noise: NoiseSpec
    master_seed: int = 0

    @property
    def ts(self) -> float:
        return self.protocol.ts

    def split(self, name: str) -> list[Trajectory]:
        if name not in SPLITS:
            raise ValueError(f"unknown split {name!r}")
        return getattr(self, name)

    def all_trajectories(self) -> list[Trajectory]:
        return [*self.train, *self.validation, *self.test]


def _check_time_grid(n_samples: int, ts: float, n_before: float = 0.0) -> None:
    """Refuse a time grid k * ts, k < n_before + n_samples, that numpy cannot
    hold: more samples than an array can index, or a last time that overflows."""
    limit = np.iinfo(np.intp).max
    # n_samples alone first: an int too large for a float cannot be added to one
    if not (n_samples <= limit and n_before + n_samples <= limit):
        raise ValueError("the time grid has more samples than an array can hold")
    if not (n_before + n_samples - 1) * ts < np.inf:
        last = n_before + n_samples - 1
        raise ValueError(f"the time grid's last time, {last:.6g} * {ts:g}, overflows")


def _realization_rng(master_seed: int, realization: int, attempt: int) -> np.random.Generator:
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(realization, attempt))
    return np.random.default_rng(seq)


def _attempt_inputs(system, protocol, master_seed, realization, attempt, t_grid):
    """One attempt's RNG stream (after its draws), initial state and input grid."""
    rng = _realization_rng(master_seed, realization, attempt)
    u_grid = multisine_inputs(
        t_grid, system.n_inputs, protocol.harmonics, protocol.f0, protocol.amplitude, rng
    )
    x0 = rng.uniform(-protocol.init_range, protocol.init_range, size=system.n_states)
    return rng, x0, u_grid


def _simulate_realizations(system, protocol, master_seed, realizations):
    """Simulate the accepted attempt of each listed realization, in lockstep.

    Attempt a of realization r draws from its own stream (master_seed, r, a).
    It is rejected if its state turns non-finite or |q| exceeds q_max
    anywhere on the grid. Each round runs the next block of attempts of every
    still-pending realization as lanes of one batch, with blocks of 2, 4, 8,
    ... attempts (`_FIRST_BLOCK`, then doubling) up to max_retries in all,
    and accepts the lowest-index passing attempt, so the accepted attempts
    are exactly those of trying one attempt at a time, whatever the blocks.
    Only the recorded window of each lane is kept.
    Returns (t, u, x_true, dx_true, rng, attempt) per realization, in order.
    """
    truth = field_fn(system)
    n_pre = int(round(protocol.t_start / protocol.ts))
    n_total = n_pre + protocol.n_samples
    t_grid = np.arange(n_total) * protocol.ts
    window = slice(n_pre, n_total)
    accepted = {}
    pending = list(realizations)
    first, block = 0, _FIRST_BLOCK
    while pending:
        if first >= protocol.max_retries:
            raise DataGenerationError(
                f"realization {pending[0]}: no bounded trajectory within "
                f"{protocol.max_retries} attempts (|q| <= {protocol.q_max}); "
                "reduce the input amplitude or raise q_max"
            )
        attempts = range(first, min(first + block, protocol.max_retries))
        lanes = [
            (r, a, *_attempt_inputs(system, protocol, master_seed, r, a, t_grid))
            for r in pending
            for a in attempts
        ]
        x0 = np.stack([lane[3] for lane in lanes])
        u = np.stack([lane[4] for lane in lanes], axis=1)  # (n_total, B, m)
        x_win, diverged, peak = rk4_lanes(
            truth, x0, u[:-1], protocol.ts, keep_from=n_pre, peak=True
        )
        passed = (diverged < 0) & (peak[:, : system.n_masses].max(axis=1) <= protocol.q_max)
        for i, (r, a, rng, _, u_grid) in enumerate(lanes):
            if passed[i] and r not in accepted:
                x_true = x_win[:, i].copy()
                u_win = u_grid[window].copy()
                accepted[r] = (t_grid[window].copy(), u_win, x_true, truth(x_true, u_win), rng, a)
        pending = [r for r in pending if r not in accepted]
        first += block
        block *= 2
    return [accepted[r] for r in realizations]


def generate(
    system: SystemSpec,
    protocol: GenerationProtocol | None = None,
    noise: NoiseSpec | None = None,
    master_seed: int = 0,
) -> Dataset:
    """Simulate the full recording protocol and assemble the split dataset.

    Per realization: fresh phases and initial state, truth simulated from
    t = 0, the window [t_start, t_start + N*Ts) recorded with stored noiseless
    states and derivatives, then measurement noise added to form y. An
    unset noise is the system's default variance (`dynamics.SYSTEM_DEFAULTS`)
    seeded with the master seed, as the CLI resolves it.
    """
    protocol = protocol or GenerationProtocol()
    if protocol.amplitude is None:
        protocol = dataclasses.replace(protocol, amplitude=system_defaults(system)["amplitude"])
    noise = noise or NoiseSpec(system_defaults(system)["noise_variance"], seed=master_seed)
    realizations = range(protocol.n_realizations)
    simulated = _simulate_realizations(system, protocol, master_seed, realizations)
    trajectories = []
    for realization, (t, u, x_true, dx_true, rng, attempt) in zip(realizations, simulated):
        trajectories.append(
            Trajectory(
                t=t,
                u=u,
                y=add_noise(x_true, noise, rng),
                x_true=x_true,
                dx_true=dx_true,
                realization=realization,
                attempt=attempt,
            )
        )
    n_train, n_val, _ = protocol.split
    return Dataset(
        train=trajectories[:n_train],
        validation=trajectories[n_train : n_train + n_val],
        test=trajectories[n_train + n_val :],
        system=system,
        protocol=protocol,
        noise=noise,
        master_seed=master_seed,
    )


def fd_derivatives(y: np.ndarray, ts: float) -> np.ndarray:
    """Second-order finite-difference derivative estimates along axis 0.

    Central differences at interior samples, one-sided three-point stencils
    at both ends. Exact for quadratics in the interior.
    """
    y = np.asarray(y, dtype=float)
    if y.shape[0] < 3:
        raise ValueError("need at least 3 samples for second-order differences")
    dy = np.empty_like(y)
    dy[1:-1] = (y[2:] - y[:-2]) / (2.0 * ts)
    dy[0] = (-3.0 * y[0] + 4.0 * y[1] - y[2]) / (2.0 * ts)
    dy[-1] = (3.0 * y[-1] - 4.0 * y[-2] + y[-3]) / (2.0 * ts)
    return dy


# ---------------------------------------------------------------------------
# CSV persistence: one CRLF-terminated table per trajectory plus a sectioned
# manifest, both in `textio`'s formats.
# ---------------------------------------------------------------------------

MANIFEST_NAME = "manifest.txt"
# the manifest's dataclass sections, each a field of that class per key
_MANIFEST_CLASSES = {"system": SystemSpec, "protocol": GenerationProtocol, "noise": NoiseSpec}
_ENTRY = "tuple[str, str, int, int]"  # a [trajectories] entry: file,split,realization,attempt


def _traj_header(m: int, d: int, with_truth: bool) -> list[str]:
    cols = ["t"]
    cols += [f"u_{j}" for j in range(m)]
    cols += [f"y_{j}" for j in range(d)]
    if with_truth:
        cols += [f"x_{j}" for j in range(d)]
        cols += [f"dx_{j}" for j in range(d)]
    return cols


def write_csv(dataset: Dataset, directory) -> None:
    """Write one CSV per trajectory plus the manifest into `directory`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    m = dataset.system.n_inputs
    d = dataset.system.n_states
    entries = {}
    index = 0
    for split_name in SPLITS:
        for traj in dataset.split(split_name):
            fname = f"traj_{index:03d}.csv"
            columns = [traj.t, traj.u, traj.y]
            if traj.x_true is not None:
                columns += [traj.x_true, traj.dx_true]
            textio.write_table(
                directory / fname,
                ",".join(_traj_header(m, d, traj.x_true is not None)),
                np.column_stack(columns),
                newline="\r\n",
            )
            entries[str(index)] = (fname, split_name, traj.realization, traj.attempt)
            index += 1
    manifest = {name: dataclasses.asdict(getattr(dataset, name)) for name in _MANIFEST_CLASSES}
    manifest["seeds"] = {"master_seed": dataset.master_seed}
    manifest["trajectories"] = entries
    # a blank line closes every section, the last one too
    text = textio.sections_text(manifest) + "\n"
    (directory / MANIFEST_NAME).write_text(text, encoding="utf-8")


def _read_trajectory(path: Path, m: int, d: int, n_samples: int, realization: int, attempt: int):
    header, data = textio.read_table(path, DatasetFormatError)
    with_truth = header == _traj_header(m, d, True)
    if not with_truth and header != _traj_header(m, d, False):
        raise DatasetFormatError(f"{path}: unexpected column header {header}")
    if len(data) != n_samples:
        raise DatasetFormatError(
            f"{path}: contains {len(data)} samples, manifest expects {n_samples}"
        )
    t = data[:, 0]
    if not np.all(t[1:] > t[:-1]):
        raise DatasetFormatError(f"{path}: the time column is not strictly increasing")
    u = data[:, 1 : 1 + m]
    y = data[:, 1 + m : 1 + m + d]
    x_true = dx_true = None
    if with_truth:
        x_true = data[:, 1 + m + d : 1 + m + 2 * d]
        dx_true = data[:, 1 + m + 2 * d :]
    return Trajectory(
        t=t, u=u, y=y, x_true=x_true, dx_true=dx_true, realization=realization, attempt=attempt
    )


def read_csv(directory) -> Dataset:
    """Rebuild a dataset from the files produced by write_csv, bit-exactly.

    A trajectory cell that is NaN or infinite raises `DatasetFormatError`
    naming its line, since no model can be fitted to or judged on it.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise DatasetFormatError(f"missing manifest {manifest_path}")
    keys = {name: textio.field_types(cls) for name, cls in _MANIFEST_CLASSES.items()}
    keys["seeds"] = {"master_seed": "int"}
    schema = {name: types.get for name, types in keys.items()}
    schema["trajectories"] = lambda key: _ENTRY if key.isascii() and key.isdigit() else None
    sections = textio.read_sections(manifest_path, schema, DatasetFormatError)
    for name in schema:
        if name not in sections:
            raise DatasetFormatError(f"{manifest_path}: missing section [{name}]")
        missing = [key for key in keys.get(name, ()) if key not in sections[name]]
        if missing:
            raise DatasetFormatError(f"{manifest_path}: [{name}] has no {missing[0]!r}")
    try:
        specs = {name: cls(**sections[name]) for name, cls in _MANIFEST_CLASSES.items()}
    except (TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{manifest_path}: bad manifest entry: {exc}") from exc
    master_seed = sections["seeds"]["master_seed"]
    if master_seed < 0:
        raise DatasetFormatError(f"{manifest_path}: master_seed must be at least 0")

    system, n_samples = specs["system"], specs["protocol"].n_samples
    splits: dict[str, list[Trajectory]] = {name: [] for name in SPLITS}
    entries = sorted(sections["trajectories"].items(), key=lambda kv: int(kv[0]))
    for _, (fname, split_name, realization, attempt) in entries:
        if split_name not in SPLITS:
            raise DatasetFormatError(f"{manifest_path}: unknown split {split_name!r}")
        path = directory / fname
        if not path.exists():
            raise DatasetFormatError(f"missing trajectory file {path}")
        trajectory = _read_trajectory(
            path, system.n_inputs, system.n_states, n_samples, realization, attempt
        )
        splits[split_name].append(trajectory)
    return Dataset(**splits, **specs, master_seed=master_seed)
