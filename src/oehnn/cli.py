"""Experiment driver: dataset generation, training, evaluation, simulation.

Subcommands: generate-data, train, evaluate, simulate, gradcheck. Every option
lives in a key-value config file and can be overridden by a flag of the same
name; unknown config keys are rejected. Exit codes: 0 success, 1 runtime
failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oehnn
from oehnn import textio
from oehnn.data import (
    DataGenerationError,
    DatasetFormatError,
    GenerationProtocol,
    Trajectory,
    _check_time_grid,
    _simulate_realizations,
    generate,
    read_csv,
    write_csv,
)
from oehnn.dynamics import (
    SYSTEM_DEFAULTS,
    SystemSpec,
    coupled_system,
    duffing_system,
    field_fn,
    structure_matrices,
)
from oehnn.integrate import IntegrationError, rollout
from oehnn.netmodel import (
    MODEL_KINDS,
    ModelFormatError,
    flatten_params,
    h_grad_x,
    h_value,
    init_blackbox_net,
    init_hamiltonian_net,
    load_model,
    save_model,
    with_params,
)
from oehnn.signals import NoiseSpec, _check_multisine, multisine_inputs
from oehnn.evaluate import (
    REFERENCES,
    evaluate,
    model_field,
    state_labels,
    write_comparison_csv,
    write_metrics_report,
)
from oehnn.train import (
    ANCHORS,
    DERIVATIVE_SOURCES,
    TrainConfig,
    TrainingError,
    _block_rows,
    derivative_loss_grad,
    fit,
    simulation_loss,
    simulation_loss_grad,
    write_history_csv,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

class ConfigError(ValueError):
    pass


@contextmanager
def _config_errors(context: str = ""):
    """Re-raise a ValueError (or TypeError) from building or parsing a value as ConfigError."""
    try:
        yield
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{context}{exc}") from exc


_NUMBER_RE = r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"


class _Parser(argparse.ArgumentParser):
    """argparse with one-line usage errors (ConfigError) that takes a negative
    number such as -1e-3, or a list such as -0.3,0, as an option's value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(rf"^-{_NUMBER_RE}(,-?{_NUMBER_RE})*$")

    def error(self, message):
        raise ConfigError(message)


@dataclass
class ExperimentConfig:
    """Full experiment definition; None fields resolve to per-system defaults.

    `protocol()` and `train_config()` build `GenerationProtocol` and
    `TrainConfig` by name: each field comes from the key of the same name,
    except two renames, split = (n_train, n_val, n_test) and
    seed = train_seed. `noise()` and `system_spec()` map their keys
    explicitly, since none of their fields shares a key's name.
    """

    system: str = "duffing"
    masses: tuple[float, ...] | None = None
    stiffnesses: tuple[float, ...] | None = None
    cubic: bool = True
    n_realizations: int = 25
    n_samples: int = 500
    ts: float = 0.01
    t_start: float = 5.0
    n_train: int = 15
    n_val: int = 5
    n_test: int = 5
    harmonics: int = 20
    f0: float = 0.1
    amplitude: float | None = None
    noise_variance: float | None = None
    init_range: float = 0.5
    q_max: float = 5.0
    max_retries: int = 50
    master_seed: int = 0
    model: str = "oe-hnn"
    n_hidden: int = 200
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    max_epochs: int = 5000
    patience: int = 500
    chunk_length: int | None = None
    train_seed: int = 0
    derivative_source: str = "fd"
    anchor: str = "true"
    reference: str = "true"

    def resolved(self) -> "ExperimentConfig":
        if self.system not in SYSTEM_DEFAULTS:
            raise ConfigError(f"unknown system {self.system!r}, expected duffing or coupled")
        defaults = SYSTEM_DEFAULTS[self.system]
        out = dataclasses.replace(self)
        if out.masses is None:
            out.masses = defaults["masses"]
        if out.stiffnesses is None:
            out.stiffnesses = defaults["stiffnesses"]
        if out.noise_variance is None:
            out.noise_variance = defaults["noise_variance"]
        if out.amplitude is None:
            out.amplitude = defaults["amplitude"]
        for key in ("master_seed", "train_seed"):
            if getattr(out, key) < 0:
                raise ConfigError(f"{key} must be at least 0, got {getattr(out, key)}")
        for key in ("masses", "stiffnesses"):
            if len(getattr(out, key)) != len(defaults[key]):
                raise ConfigError(f"{key}: {out.system} takes {len(defaults[key])} value(s)")
        for key, allowed in (
            ("model", MODEL_KINDS),
            ("derivative_source", DERIVATIVE_SOURCES),
            ("anchor", ANCHORS),
            ("reference", REFERENCES),
        ):
            if getattr(out, key) not in allowed:
                raise ConfigError(f"{key} must be one of {allowed}, got {getattr(out, key)!r}")
        return out

    def system_spec(self) -> SystemSpec:
        cfg = self.resolved()
        with _config_errors():
            if cfg.system == "duffing":
                return duffing_system(cfg.masses[0], cfg.stiffnesses[0], cfg.cubic)
            return coupled_system(tuple(cfg.masses), tuple(cfg.stiffnesses), cfg.cubic)

    def protocol(self) -> GenerationProtocol:
        cfg = self.resolved()
        return cfg._by_name(GenerationProtocol, split=(cfg.n_train, cfg.n_val, cfg.n_test))

    def noise(self) -> NoiseSpec:
        cfg = self.resolved()
        with _config_errors():
            return NoiseSpec(variance=cfg.noise_variance, seed=cfg.master_seed)

    def train_config(self) -> TrainConfig:
        cfg = self.resolved()
        return cfg._by_name(TrainConfig, seed=cfg.train_seed)

    def _by_name(self, cls, **renamed):
        """`cls` with each field from the key of the same name, except `renamed`."""
        names = [f.name for f in dataclasses.fields(cls) if f.name not in renamed]
        with _config_errors():
            return cls(**{name: getattr(self, name) for name in names}, **renamed)


_FIELD_TYPES = textio.field_types(ExperimentConfig)


def load_config_file(path) -> dict:
    """Parse `key = value` lines; '#' starts a comment. Unknown keys are errors."""
    return textio.read_sections(path, {"": _FIELD_TYPES.get}, ConfigError)[""]


def build_config(args) -> ExperimentConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config))
    for key in _FIELD_TYPES:
        flag_value = getattr(args, f"cfg_{key}", None)
        if flag_value is not None:
            with _config_errors(f"--{key.replace('_', '-')}: bad value {flag_value!r}: "):
                values[key] = textio.decode(_FIELD_TYPES[key], flag_value)
    with _config_errors():
        return ExperimentConfig(**values).resolved()


def write_config_echo(cfg: ExperimentConfig, directory, command: str) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    comment = f"# effective config echoed by 'oehnn {command}' (tool version {oehnn.__version__})"
    text = textio.sections_text({"": dataclasses.asdict(cfg)})
    (directory / "config.txt").write_text(f"{comment}\n{text}", encoding="utf-8")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key-value config file")
    group = parser.add_argument_group("config overrides (same keys as the config file)")
    for key in _FIELD_TYPES:
        group.add_argument(
            f"--{key.replace('_', '-')}", dest=f"cfg_{key}", metavar="V", default=None
        )


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    cfg = build_config(args)
    out = Path(args.out)
    dataset = generate(cfg.system_spec(), cfg.protocol(), cfg.noise(), cfg.master_seed)
    write_csv(dataset, out)
    write_config_echo(cfg, out, "generate-data")
    print(
        f"wrote {cfg.n_realizations} trajectories ({cfg.n_train} train / "
        f"{cfg.n_val} validation / {cfg.n_test} test) to {out}"
    )
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = build_config(args)
    train_cfg = cfg.train_config()
    dataset = read_csv(args.data)
    if not dataset.train or not dataset.validation:
        raise ConfigError(f"{args.data}: dataset needs non-empty train and validation splits")
    if cfg.model in ("hnn", "mlp"):
        if cfg.derivative_source == "fd" and any(tr.n_samples < 3 for tr in dataset.train):
            raise ConfigError(
                "--derivative-source fd needs training trajectories of at least 3 samples; "
                "use --derivative-source true"
            )
        source = (
            "finite differences of the measured outputs"
            if cfg.derivative_source == "fd"
            else "stored noiseless derivatives"
        )
        print(f"derivative targets for {cfg.model}: {source}")
    result = fit(cfg.model, dataset, train_cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_model(
        result.model,
        out / "model.txt",
        kind=cfg.model,
        n_inputs=dataset.system.n_inputs,
        seed=cfg.train_seed,
    )
    write_history_csv(result.history, out / "history.csv")
    write_config_echo(cfg, out, "train")
    final = result.history[-1]
    print(
        f"trained {cfg.model} for {int(final[0])} epochs; "
        f"best validation loss {result.best_val_loss:.6g} at epoch {result.best_epoch}"
    )
    print(f"model file: {out / 'model.txt'}")
    return EXIT_OK


def _check_model_system(saved, path, system: SystemSpec, which: str) -> None:
    """Refuse a model file whose state or input count differs from the system's."""
    if (saved.n_states, saved.n_inputs) != (system.n_states, system.n_inputs):
        raise ConfigError(
            f"{path}: model has {saved.n_states} states and {saved.n_inputs} inputs "
            f"but the {which} system has {system.n_states} and {system.n_inputs}"
        )


def cmd_evaluate(args) -> int:
    cfg = build_config(args)
    dataset = read_csv(args.data)
    labels = state_labels(dataset.system.n_masses)
    S = structure_matrices(dataset.system)
    metrics_list = []
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    system = dataset.system
    for i, model_path in enumerate(args.models):
        saved = load_model(model_path)
        _check_model_system(saved, model_path, system, "dataset")
        with _config_errors(f"{args.data}: "):  # an empty test split, or no stored truth
            metrics = evaluate(
                model_field(saved.model, S),
                dataset.test,
                reference=cfg.reference,
                anchor=cfg.anchor,
                kind=saved.kind,
            )
        metrics_list.append(metrics)
        write_metrics_report(metrics, out / f"report_{i}_{saved.kind}.txt", labels)
    write_comparison_csv(metrics_list, out / "comparison.csv", labels)
    write_config_echo(cfg, out, "evaluate")
    print("method," + ",".join(labels))
    for metrics in metrics_list:
        print(metrics.kind + "," + ",".join(f"{v:.4f}" for v in metrics.per_state_rmse))
    if any(m.n_diverged for m in metrics_list):
        print("warning: some rollouts diverged; see the per-model reports")
    return EXIT_OK


def _parse_x0(text: str | None, d: int) -> np.ndarray:
    if text is None:
        return np.zeros(d)
    with _config_errors("--x0: "):
        values = np.array(textio.decode("tuple[float, ...]", text))
    if values.size != d:
        raise ConfigError(f"--x0 must have {d} comma-separated values, got {values.size}")
    return values


def cmd_simulate(args) -> int:
    cfg = build_config(args)
    if args.like_dataset is not None:
        return _simulate_like_dataset(args, cfg)
    if (args.model_file is None) == (not args.true_system):
        raise ConfigError("choose exactly one of --model-file or --true-system")
    if args.true_system:
        spec = cfg.system_spec()
        field = field_fn(spec)
        d = spec.n_states
        m = spec.n_inputs
        kind = "true-system"
    else:
        saved = load_model(args.model_file)
        d = saved.n_states
        m = saved.n_inputs
        system = cfg.system_spec()
        _check_model_system(saved, args.model_file, system, "configured")
        field = model_field(saved.model, structure_matrices(system))
        kind = saved.kind
    x0 = _parse_x0(args.x0, d)
    n_steps = args.steps
    if n_steps < 1:
        raise ConfigError(f"--steps must be at least 1, got {n_steps}")
    cfg.protocol()  # checks the step and the multisine's settings
    with _config_errors("--steps: "):
        _check_time_grid(n_steps, cfg.ts)
    t = np.arange(n_steps) * cfg.ts
    if args.input == "zero":
        u = np.zeros((n_steps, m))
    else:
        with _config_errors("--steps: "):
            _check_multisine(cfg.harmonics, cfg.f0, cfg.amplitude, (n_steps - 1) * cfg.ts)
        with _config_errors("--phase-seed: "):
            rng = np.random.default_rng(args.phase_seed)
        u = multisine_inputs(t, m, cfg.harmonics, cfg.f0, cfg.amplitude, rng)
    diverged_at = None
    try:
        states = rollout(field, x0, u, cfg.ts)
    except IntegrationError as exc:
        diverged_at = exc.step_index
        states = None
    _write_sim_csv(args.out, t, u, states, d, diverged_at)
    if diverged_at is not None:
        print(f"simulation diverged at step {diverged_at} (flagged in {args.out})")
    else:
        print(f"simulated {n_steps} samples of {kind} -> {args.out}")
    return EXIT_OK


def _simulate_like_dataset(args, cfg: ExperimentConfig) -> int:
    """Regenerate the noiseless truth of one dataset realization bit-exactly."""
    dataset_dir = Path(args.like_dataset)
    stored = read_csv(dataset_dir)
    if not 0 <= args.realization < stored.protocol.n_realizations:
        raise ConfigError(
            f"--realization must be in [0, {stored.protocol.n_realizations})"
        )
    # the generator's own lockstep recipe and seeds; a true-field lane does
    # not depend on the other lanes of its batch
    [(t, u, x_true, _, _, attempt)] = _simulate_realizations(
        stored.system, stored.protocol, stored.master_seed, [args.realization]
    )
    _write_sim_csv(args.out, t, u, x_true, stored.system.n_states, None)
    print(
        f"regenerated realization {args.realization} (attempt {attempt}) "
        f"of {dataset_dir} -> {args.out}"
    )
    return EXIT_OK


def _write_sim_csv(path, t, u, states, d, diverged_at) -> None:
    m = u.shape[1]
    header = ",".join(["t", *(f"u_{j}" for j in range(m)), *(f"x_{j}" for j in range(d))])
    if diverged_at is not None:
        header = f"# diverged_at_step = {diverged_at}\n{header}"
    rows = np.empty((0, 1 + m + d)) if states is None else np.column_stack([t, u, states])
    textio.write_table(path, header, rows)


def _fd_gradient(loss_fn, theta: np.ndarray, step: float) -> np.ndarray:
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up = theta.copy()
        up[i] += step
        down = theta.copy()
        down[i] -= step
        grad[i] = (loss_fn(up) - loss_fn(down)) / (2.0 * step)
    return grad


def _directional_error(loss_fn, grad: np.ndarray, theta: np.ndarray, rng) -> float:
    """Relative error of `grad` along a random unit direction against the
    central difference (step 1e-6) of `loss_fn` at `theta`."""
    direction = rng.normal(size=theta.size)
    direction /= np.linalg.norm(direction)
    analytic = float(grad @ direction)
    eps = 1e-6
    fd = (loss_fn(theta + eps * direction) - loss_fn(theta - eps * direction)) / (2.0 * eps)
    return abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-12)


def _random_trajectory(n_steps: int, rng: np.random.Generator) -> Trajectory:
    """n_steps + 1 samples at step 0.01 of random one-input, two-state data."""
    n = n_steps + 1
    return Trajectory(
        t=np.arange(n) * 0.01, u=rng.normal(0.0, 1.0, (n, 1)), y=rng.normal(0.0, 0.5, (n, 2))
    )


def cmd_gradcheck(args) -> int:
    """User-runnable diagnostic: analytic gradients against finite differences."""
    for flag, least in (("--cases", args.cases), ("--steps", min(args.steps)),
                        ("--long-steps", args.long_steps), ("--n-hidden", args.n_hidden)):
        if least < 1:
            raise ConfigError(f"{flag} must be at least 1, got {least}")
    with _config_errors("--seed: "):
        rng = np.random.default_rng(args.seed)
    spec = duffing_system()
    S = structure_matrices(spec)
    failures = 0

    # energy-gradient check on random nets
    worst = 0.0
    for _ in range(args.cases):
        net = init_hamiltonian_net(2, 8, rng)
        net = with_params(net, rng.uniform(-1.0, 1.0, flatten_params(net).size))
        x = rng.uniform(-1.0, 1.0, 2)
        analytic = h_grad_x(net, x)
        fd = np.zeros(2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1e-6
            fd[i] = (h_value(net, x + e) - h_value(net, x - e)) / 2e-6
        denom = np.maximum(np.abs(fd), 1e-8)
        worst = max(worst, float(np.max(np.abs(analytic - fd) / denom)))
    ok = worst < 1e-6
    failures += not ok
    print(f"energy gradient vs finite differences: max rel err {worst:.3e} "
          f"[{'PASS' if ok else 'FAIL'}]")

    # simulation-loss gradient, short rollouts, small net
    for n_steps in args.steps:
        net = init_hamiltonian_net(2, 4, rng)
        traj = _random_trajectory(n_steps, rng)
        _, grad = simulation_loss_grad(net, S, traj)
        theta = flatten_params(net)
        fd = _fd_gradient(lambda th: simulation_loss(with_params(net, th), S, traj), theta, 1e-5)
        mask = np.maximum(np.abs(grad), np.abs(fd)) > 1e-8
        rel = np.abs(grad - fd)[mask] / np.maximum(np.abs(grad), np.abs(fd))[mask]
        worst = float(rel.max()) if mask.any() else 0.0
        ok = worst < 1e-5
        failures += not ok
        print(f"simulation-loss gradient, {n_steps:4d} steps: max rel err {worst:.3e} "
              f"[{'PASS' if ok else 'FAIL'}]")

    # directional derivative through a long rollout at full width
    net = init_hamiltonian_net(2, args.n_hidden, rng)
    n_steps = args.long_steps
    traj = _random_trajectory(n_steps, rng)
    rel = _directional_error(
        lambda th: simulation_loss(with_params(net, th), S, traj),
        simulation_loss_grad(net, S, traj)[1], flatten_params(net), rng,
    )
    ok = rel < 1e-4
    failures += not ok
    print(f"directional derivative, {n_steps} steps, width {args.n_hidden}: "
          f"rel err {rel:.3e} [{'PASS' if ok else 'FAIL'}]")

    # derivative-matching gradients at full width, on rows for several blocks
    n_rows = 3 * _block_rows(args.n_hidden) + 5
    x, dx = rng.uniform(-1.0, 1.0, (2, n_rows, 2))
    u = rng.normal(0.0, 1.0, (n_rows, 1))
    for kind, net in (("hnn", init_hamiltonian_net(2, args.n_hidden, rng)),
                      ("mlp", init_blackbox_net(2, 1, args.n_hidden, rng))):
        rel = _directional_error(
            lambda th, net=net: derivative_loss_grad(with_params(net, th), S, x, dx, u)[0],
            derivative_loss_grad(net, S, x, dx, u)[1], flatten_params(net), rng,
        )
        ok = rel < 1e-4
        failures += not ok
        print(f"derivative-matching gradient, {kind}, {n_rows} rows, width {args.n_hidden}: "
              f"rel err {rel:.3e} [{'PASS' if ok else 'FAIL'}]")

    print("gradcheck:", "PASS" if failures == 0 else f"FAIL ({failures} checks)")
    return EXIT_OK if failures == 0 else EXIT_RUNTIME


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="oehnn",
        description="Identify input-driven Hamiltonian systems from noisy measurements.",
    )
    parser.add_argument("--version", action="version", version=f"oehnn {oehnn.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate-data", help="simulate and write a benchmark dataset")
    p_gen.add_argument("--out", required=True, help="output dataset directory")
    _add_config_flags(p_gen)
    p_gen.set_defaults(func=cmd_generate)

    p_train = sub.add_parser("train", help="fit a model on a generated dataset")
    p_train.add_argument("--data", required=True, help="dataset directory")
    p_train.add_argument("--out", required=True, help="output directory for model and history")
    _add_config_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("evaluate", help="simulate models on the test split and report RMSE")
    p_eval.add_argument("--data", required=True, help="dataset directory")
    p_eval.add_argument("--models", required=True, nargs="+", help="model files to compare")
    p_eval.add_argument("--out", required=True, help="output directory for reports")
    _add_config_flags(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_sim = sub.add_parser("simulate", help="roll a model or the true system forward")
    p_sim.add_argument("--model-file", help="trained model file")
    p_sim.add_argument("--true-system", action="store_true", help="use the configured true system")
    p_sim.add_argument("--like-dataset", help="dataset directory to reproduce a realization from")
    p_sim.add_argument("--realization", type=int, default=0,
                       help="realization index for --like-dataset")
    p_sim.add_argument("--x0", help="comma-separated initial state (default zeros)")
    p_sim.add_argument("--steps", type=int, default=500, help="number of samples to simulate")
    p_sim.add_argument("--input", choices=("multisine", "zero"), default="multisine")
    p_sim.add_argument("--phase-seed", type=int, default=0, help="seed for multisine phases")
    p_sim.add_argument("--out", required=True, help="output trajectory CSV")
    _add_config_flags(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_grad = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.add_argument("--cases", type=int, default=100, help="random energy-gradient cases")
    p_grad.add_argument("--steps", type=int, nargs="+", default=[2, 10, 50],
                        help="rollout lengths for the full-gradient check")
    p_grad.add_argument("--long-steps", type=int, default=500,
                        help="rollout length for the directional check")
    p_grad.add_argument("--n-hidden", type=int, default=200,
                        help="hidden width for the directional check")
    p_grad.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, DatasetFormatError, ModelFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataGenerationError, TrainingError, IntegrationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:
        # numpy refuses an allocation larger than the machine at once
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
