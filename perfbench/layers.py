"""The traced run's per-layer probe, the per-layer metrics read from its
spans, computed kernel counts, and the projected table-reproduction time.

The probe calls each module's public functions on the workload's own data,
a fixed number of times, each batch inside one span. Per-layer metrics are
read back from the spans by name, so the job's own calls (fits, evaluations,
CLI subcommands, set-up generation) count alongside the probe's.
"""

from __future__ import annotations

import inspect
import statistics
from pathlib import Path

import numpy as np

from oehnn import data, signals, train
from oehnn.dynamics import field_fn, structure_matrices
from oehnn.evaluate import DEFAULT_OE_STAGES, compare_estimators, model_field
from oehnn.integrate import rollout
from oehnn.netmodel import (
    flatten_params,
    h_grad_x,
    h_hess_vec,
    init_blackbox_net,
    init_hamiltonian_net,
)

import workloads
from spans import duration

REPEATS = 5  # spans per cheap measurement; the median is reported
SLOW_REPEATS = 3  # spans per measurement that takes a tenth of a second or more
FIELD_CALLS = 1000
NET_CALLS = 200
ADAM_CALLS = 200

FIT_LEGS = ("oe_chunk", "oe_full", "hnn", "mlp")


def chunk_lanes(n_samples: int, chunk: int | None) -> list[int]:
    """Segment lengths (steps) one trajectory is cut into by a training leg."""
    steps = n_samples - 1
    if chunk is None:
        return [steps]
    return [min(chunk, steps - k0) for k0 in range(0, steps, chunk)]


def probe(rec, workload, dataset, size, seed: int, work: Path):
    """Call every layer's public functions; returns the dataset probed and
    the CSV round trip's size and check."""
    cfg = workloads.experiment(workload.system, size, seed)
    if dataset is None:
        dataset = workloads.generate(rec, cfg)
    system = dataset.system
    S = structure_matrices(system)
    d, m, H = system.n_states, system.n_inputs, size.n_hidden
    rng = np.random.default_rng(seed)
    first = dataset.train[0]

    # data: CSV round trip of the whole dataset
    csv_dir = work / "probe-csv"
    for _ in range(SLOW_REPEATS):
        rec.call("data.write_csv", data.write_csv, dataset, csv_dir)
    for _ in range(SLOW_REPEATS):
        back = rec.call("data.read_csv", data.read_csv, csv_dir)
    csv = {
        "bytes": sum(p.stat().st_size for p in csv_dir.iterdir()),
        "round_trip": workloads.dataset_digest(back) == workloads.dataset_digest(dataset),
    }

    # signals: the multisine input grids of every realization, as generation builds them
    protocol = cfg.protocol()
    n_grid = int(round(protocol.t_start / protocol.ts)) + protocol.n_samples
    t_grid = np.arange(n_grid) * protocol.ts
    specs = [
        signals.MultisineSpec(
            protocol.harmonics, protocol.f0,
            signals.sample_phases(protocol.harmonics, rng), protocol.amplitude,
        )
        for _ in range(protocol.n_realizations * m)
    ]
    for _ in range(REPEATS):
        rec.batch(
            "signals.multisine_value", len(specs),
            lambda: [signals.multisine_value(t_grid, spec) for spec in specs],
        )

    # dynamics: the true field on one state row
    truth = field_fn(system)
    x_row, u_row = first.x_true[0], first.u[0]
    for _ in range(REPEATS):
        rec.repeat("dynamics.field", FIELD_CALLS, truth, x_row, u_row)

    # integrate: the single-lane stepper over one training trajectory
    net = init_hamiltonian_net(d, H, rng)
    learned = model_field(net, S)
    for tag, field in (("true", truth), ("learned", learned)):
        for _ in range(SLOW_REPEATS):
            rec.repeat("integrate.rollout", 1, rollout, field, first.x_true[0], first.u, first.ts,
                       tag=tag)

    # netmodel: energy gradient and Hessian-vector product on a chunk-50 lane batch
    chunk = workloads.OE_CHUNK.chunk_length
    lanes = len(dataset.train) * len(chunk_lanes(first.n_samples, chunk))
    states = np.concatenate([tr.x_true for tr in dataset.train])
    x = states[np.arange(lanes) % len(states)]
    v = rng.normal(size=x.shape)
    for _ in range(REPEATS):
        rec.repeat("netmodel.h_grad_x", NET_CALLS, h_grad_x, net, x)
        rec.repeat("netmodel.h_hess_vec", NET_CALLS, h_hess_vec, net, x, v)

    # train: forward and adjoint on one training trajectory, a validation pass,
    # the derivative-matching batch, Adam
    for _ in range(REPEATS):
        for fn in (train.simulation_loss, train.simulation_loss_grad):
            rec.repeat(f"train.{fn.__name__}", 1, fn, net, S, first, "true")
    for _ in range(SLOW_REPEATS):
        rec.batch(
            "train.simulation_loss", len(dataset.validation),
            lambda: [train.simulation_loss(net, S, tr, anchor="true") for tr in dataset.validation],
            tag="validation",
        )
    xs = np.concatenate([tr.x_true for tr in dataset.train])
    dxs = np.concatenate([tr.dx_true for tr in dataset.train])
    us = np.concatenate([tr.u for tr in dataset.train])
    mlp = init_blackbox_net(d, m, H, rng)
    for _ in range(REPEATS):
        for tag, model in (("hnn", net), ("mlp", mlp)):
            rec.repeat("train.derivative_loss_grad", 1, train.derivative_loss_grad,
                       model, S, xs, dxs, us, tag=tag)
    theta = flatten_params(net)
    grad = rng.normal(size=theta.size)
    state = train.init_adam(theta.size)
    adam_config = train.TrainConfig()
    for _ in range(REPEATS):
        rec.repeat("train.adam_step", ADAM_CALLS, train.adam_step, theta, grad, state, adam_config)

    # train and evaluate: a short fit of every leg, then evaluate its model
    epochs = size.probe_epochs
    common = dict(max_epochs=epochs, patience=epochs, n_hidden=H, seed=seed, anchor="true")
    for leg in (workloads.OE_CHUNK, workloads.OE_FULL):
        config = train.TrainConfig(
            learning_rate=leg.learning_rate, chunk_length=leg.chunk_length, **common
        )
        model = workloads.fit(rec, "oe-hnn", dataset, config, leg.name).model
        workloads.evaluate(rec, model, dataset)
    for kind in ("hnn", "mlp"):
        config = train.TrainConfig(derivative_source="true", **common)
        workloads.evaluate(rec, workloads.fit(rec, kind, dataset, config, kind).model, dataset)

    # cli: the pipeline with short fits, unless the job already ran it
    if not any(span["name"].startswith("cli.") for span in rec.spans):
        workloads.baselines_pipeline(rec, workload.system, size, seed, work / "probe-cli", epochs)
    return dataset, csv


def _spans(spans, name, tag=None):
    return [s for s in spans if s["name"] == name and (tag is None or s["attrs"].get("tag") == tag)]


def _per_call(spans, name, tag=None) -> float:
    return statistics.median(duration(s) / s["attrs"]["calls"] for s in _spans(spans, name, tag))


def kernel_counts(dataset, n_hidden: int) -> dict[str, tuple[float, str]]:
    """Computed work of one simulation-error epoch, from shapes alone.

    Both legs cover every training step once, so the flop counts are the
    same for the chunk-50 and the full-horizon leg; the stage record is
    given for the chunk-50 leg (the full-horizon one lacks only the extra
    anchor rows, under 0.1% of it). Counts a multiply or an add as one flop
    and tanh as one flop. Forward, per lane and step: four field
    evaluations of 4dH + 4H + d (z = W1 x + b1, tanh, sech^2, the weighted
    product, W1^T back, J and Gu), 14d for the RK4 combination and 3d for
    the residual norm; validation adds a forward pass over its lanes.
    Adjoint, per lane and step: four stage VJPs of 8dH + 14H, plus 23d for
    the stage points and cotangent combinations. The stage record holds the
    states, the first three RK4 slopes and the four stages' tanh
    activations, in float64.
    """
    d = dataset.system.n_states
    H = n_hidden
    n = dataset.train[0].n_samples
    segments = chunk_lanes(n, workloads.OE_CHUNK.chunk_length) * len(dataset.train)
    train_lane_steps = sum(segments)
    val_lane_steps = (n - 1) * len(dataset.validation)
    fwd = 4 * (4 * d * H + 4 * H + d) + 14 * d + 3 * d
    adj = 4 * (8 * d * H + 14 * H) + 23 * d
    record = 8 * sum((T + 1) * d + 3 * T * d + 4 * T * H for T in segments)
    return {
        "train.fwd_flops_per_epoch": (float(fwd * (train_lane_steps + val_lane_steps)), "flop"),
        "train.adjoint_flops_per_epoch": (float(adj * train_lane_steps), "flop"),
        "train.stage_record_bytes": (float(record), "bytes"),
    }


def per_layer_metrics(spans, dataset, size, csv: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    steps = dataset.train[0].n_samples - 1
    attempts = sum(tr.attempt + 1 for tr in dataset.all_trajectories())
    fwd = _per_call(spans, "train.simulation_loss", tag="")
    grad = _per_call(spans, "train.simulation_loss_grad")
    evals = _spans(spans, "evaluate.evaluate")
    out = {
        "data.generate_s": (_per_call(spans, "data.generate"), "s"),
        "data.generate_attempts": (float(attempts), "count"),
        "data.accept_ratio": (dataset.protocol.n_realizations / attempts, "ratio"),
        "data.write_csv_s": (_per_call(spans, "data.write_csv"), "s"),
        "data.read_csv_s": (_per_call(spans, "data.read_csv"), "s"),
        "data.csv_bytes": (float(csv["bytes"]), "bytes"),
        "signals.multisine_s": (
            _per_call(spans, "signals.multisine_value") * dataset.protocol.n_realizations
            * dataset.system.n_inputs, "s",
        ),
        "dynamics.field_us": (_per_call(spans, "dynamics.field") * 1e6, "us"),
        "integrate.rollout_us_per_step.true": (
            _per_call(spans, "integrate.rollout", "true") / steps * 1e6, "us",
        ),
        "integrate.rollout_us_per_step.learned": (
            _per_call(spans, "integrate.rollout", "learned") / steps * 1e6, "us",
        ),
        "netmodel.h_grad_x_us": (_per_call(spans, "netmodel.h_grad_x") * 1e6, "us"),
        "netmodel.h_hess_vec_us": (_per_call(spans, "netmodel.h_hess_vec") * 1e6, "us"),
        "train.fwd_ms_per_step": (fwd / steps * 1e3, "ms"),
        "train.adjoint_ms_per_step": ((grad - fwd) / steps * 1e3, "ms"),
        "train.val_s_per_epoch": (
            _per_call(spans, "train.simulation_loss", "validation") * len(dataset.validation), "s",
        ),
        "train.deriv_hnn_ms": (_per_call(spans, "train.derivative_loss_grad", "hnn") * 1e3, "ms"),
        "train.deriv_mlp_ms": (_per_call(spans, "train.derivative_loss_grad", "mlp") * 1e3, "ms"),
        "train.adam_us": (_per_call(spans, "train.adam_step") * 1e6, "us"),
        "evaluate.evaluate_s": (statistics.median(duration(s) for s in evals), "s"),
        "evaluate.rollouts": (float(sum(s["attrs"]["rollouts"] for s in evals)), "count"),
        "evaluate.diverged": (float(sum(s["attrs"]["diverged"] for s in evals)), "count"),
        "cli.generate_s": (_per_call(spans, "cli.generate-data"), "s"),
        "cli.train_s": (_per_call(spans, "cli.train"), "s"),
        "cli.evaluate_s": (_per_call(spans, "cli.evaluate"), "s"),
    }
    fits = _spans(spans, "train.fit")
    for leg in FIT_LEGS:
        legs = [s for s in fits if s["attrs"]["leg"] == leg]
        per_epoch = sum(duration(s) for s in legs) / sum(s["attrs"]["epochs"] for s in legs)
        out[f"train.fit_s_per_epoch.{leg}"] = (per_epoch, "s")
    out.update(kernel_counts(dataset, size.n_hidden))
    return out


def projection(layer: dict[str, tuple[float, str]]) -> dict[str, float]:
    """Projected time of one table reproduction for the workload's system.

    Measured per-epoch rates times the DEFAULT_OE_STAGES epochs and the
    baseline epoch cap of compare_estimators, over its seeds, plus one
    generation and one evaluation per seed and estimator. A projection from
    per-layer rates, not a measured end-to-end time; baselines that stop
    early on patience make it an upper bound.
    """
    defaults = inspect.signature(compare_estimators).parameters
    seeds = len(defaults["seeds"].default)
    baseline_epochs = defaults["baseline_epochs"].default
    chunk = sum(s.epochs for s in DEFAULT_OE_STAGES if s.chunk_length is not None)
    full = sum(s.epochs for s in DEFAULT_OE_STAGES if s.chunk_length is None)
    rate = {leg: layer[f"train.fit_s_per_epoch.{leg}"][0] for leg in FIT_LEGS}
    per_seed = {
        "oe-hnn": chunk * rate["oe_chunk"] + full * rate["oe_full"],
        "hnn": baseline_epochs * rate["hnn"],
        "mlp": baseline_epochs * rate["mlp"],
    }
    evaluate_s = layer["evaluate.evaluate_s"][0]
    per_seed_s = sum(per_seed.values()) + len(per_seed) * evaluate_s
    total = layer["data.generate_s"][0] + seeds * per_seed_s
    return {
        "table_s": total,
        "seeds": seeds,
        "oe_hnn_s_per_seed": per_seed["oe-hnn"],
        "hnn_s_per_seed": per_seed["hnn"],
        "mlp_s_per_seed": per_seed["mlp"],
        "epochs": {"oe_chunk": chunk, "oe_full": full, "baseline": baseline_epochs},
    }
