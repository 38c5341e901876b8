"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` for readable output.
Criterion 7 trains a network twice and is the only `slow` test here; skip it
with `pytest -m "not slow"`. Criteria 8 and 9, the two table reproductions
(three seeds per estimator per system), are still to come.
"""

import dataclasses
import filecmp

import numpy as np
import pytest

from oehnn.cli import main as cli_main
from oehnn.data import Dataset, GenerationProtocol, Trajectory, generate
from oehnn.dynamics import duffing_system, coupled_system, field_fn, structure_matrices
from oehnn.evaluate import (
    TrainStage,
    compare_estimators,
    evaluate,
    model_field,
)
from oehnn.integrate import rollout
from oehnn.netmodel import (
    flatten_params,
    h_grad_x,
    h_value,
    init_hamiltonian_net,
    oe_hnn_field,
    with_params,
)
from oehnn.signals import MultisineSpec, NoiseSpec, multisine_value, sample_phases
from oehnn.train import TrainConfig, fit, simulation_loss, simulation_loss_grad

SPEC = duffing_system()
S = structure_matrices(SPEC)


def report(number, name, ok, detail):
    print(f"\ncriterion {number} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {number} ({name}): {detail}"


def random_hnet(rng, n_hidden, scale):
    net = init_hamiltonian_net(2, n_hidden, rng)
    return with_params(net, rng.uniform(-scale, scale, flatten_params(net).size))


def random_traj(rng, n_samples, ts=0.01):
    return Trajectory(
        t=np.arange(n_samples) * ts,
        u=rng.normal(0.0, 1.0, (n_samples, 1)),
        y=rng.normal(0.0, 0.5, (n_samples, 2)),
    )


def fd_gradient(loss_fn, theta, step):
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += step
        down[i] -= step
        grad[i] = (loss_fn(up) - loss_fn(down)) / (2.0 * step)
    return grad


def test_criterion_1_analytic_gradient_exactness():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        net = random_hnet(rng, n_hidden=8, scale=1.0)
        x = rng.uniform(-1.0, 1.0, 2)
        grad = h_grad_x(net, x)
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1e-6
            fd = (h_value(net, x + e) - h_value(net, x - e)) / 2e-6
            if max(abs(fd), abs(grad[i])) > 1e-8:
                worst = max(worst, abs(grad[i] - fd) / max(abs(fd), abs(grad[i])))
    report(1, "analytic gradient exactness", worst < 1e-6, f"max rel err {worst:.3e}")


def test_criterion_2_gradient_through_solver():
    rng = np.random.default_rng(102)
    worst_full = 0.0
    for n_steps in (2, 10, 50):
        net = random_hnet(rng, n_hidden=4, scale=0.5)
        traj = random_traj(rng, n_steps + 1)
        _, grad = simulation_loss_grad(net, S, traj)
        theta = flatten_params(net)
        fd = fd_gradient(
            lambda th: simulation_loss(with_params(net, th), S, traj), theta, 1e-5
        )
        mask = np.maximum(np.abs(grad), np.abs(fd)) > 1e-8
        rel = np.abs(grad - fd)[mask] / np.maximum(np.abs(grad), np.abs(fd))[mask]
        worst_full = max(worst_full, float(rel.max()))

    net = init_hamiltonian_net(2, 200, rng)
    traj = random_traj(rng, 501)
    _, grad = simulation_loss_grad(net, S, traj)
    theta = flatten_params(net)
    direction = rng.normal(size=theta.size)
    direction /= np.linalg.norm(direction)
    eps = 1e-6
    fd_dir = (
        simulation_loss(with_params(net, theta + eps * direction), S, traj)
        - simulation_loss(with_params(net, theta - eps * direction), S, traj)
    ) / (2 * eps)
    analytic = float(grad @ direction)
    rel_dir = abs(analytic - fd_dir) / max(abs(analytic), abs(fd_dir))
    ok = worst_full < 1e-5 and rel_dir < 1e-4
    report(
        2,
        "gradient through the solver",
        ok,
        f"per-coordinate max rel err {worst_full:.3e} (2/10/50 steps), "
        f"directional rel err {rel_dir:.3e} (500 steps, width 200)",
    )


def test_criterion_3_integrator_order():
    truth = field_fn(SPEC)
    x0 = [0.9, 0.0]
    t_end = 5.0
    h_ref = 0.000625
    reference = rollout(truth, x0, np.zeros((int(t_end / h_ref) + 1, 1)), h_ref)[-1]
    errors = []
    for h in (0.02, 0.01, 0.005, 0.0025):
        states = rollout(truth, x0, np.zeros((int(t_end / h) + 1, 1)), h)
        errors.append(np.linalg.norm(states[-1] - reference))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    ok = bool(np.all((orders >= 3.8) & (orders <= 4.2)))
    report(3, "integrator order", ok, "observed orders " + ", ".join(f"{o:.3f}" for o in orders))


def test_criterion_4_conservation():
    rng = np.random.default_rng(104)
    J = S.J
    worst_quad = 0.0
    for _ in range(1000):
        g = rng.normal(size=2)
        worst_quad = max(worst_quad, abs(g @ (J @ g)))
    worst_drift = 0.0
    for _ in range(5):
        net = random_hnet(rng, n_hidden=16, scale=0.5)
        x0 = rng.uniform(-0.4, 0.4, 2)
        states = rollout(
            lambda x, u: oe_hnn_field(net, S, x, u), x0, np.zeros((501, 1)), 0.01
        )
        energies = h_value(net, states)
        worst_drift = max(worst_drift, float(np.max(np.abs(energies - energies[0]))))
    ok = worst_quad <= 1e-12 and worst_drift < 1e-6
    report(
        4,
        "conservation",
        ok,
        f"max |g.Jg| {worst_quad:.2e} (1000 draws), max 500-step drift {worst_drift:.2e}",
    )


def test_criterion_5_multisine_spectrum():
    rng = np.random.default_rng(105)
    ts, f0, harmonics = 0.01, 0.1, 20
    spec = MultisineSpec(harmonics, f0, sample_phases(harmonics, rng))
    n = round(1.0 / (f0 * ts))  # one exact period
    u = multisine_value(np.arange(n) * ts, spec)
    spectrum = np.abs(np.fft.rfft(u)) ** 2
    inside = spectrum[1 : harmonics + 1].sum()
    outside = spectrum.sum() - inside
    ratio = outside / (inside + outside)
    report(5, "multisine spectrum", ratio < 1e-10, f"outside-bin energy ratio {ratio:.2e}")


def test_criterion_6_dataset_protocol(standard_duffing_dataset):
    ds = standard_duffing_dataset
    sizes = [len(ds.train), len(ds.validation), len(ds.test)]
    all_trajs = ds.all_trajectories()
    shapes_ok = all(tr.n_samples == 500 for tr in all_trajs)
    ts_ok = all(abs(tr.ts - 0.01) < 1e-12 for tr in all_trajs)
    window_ok = all(
        abs(tr.t[0] - 5.0) < 1e-9 and abs(tr.t[-1] - 9.99) < 1e-9 for tr in all_trajs
    )
    noise = np.concatenate([tr.y - tr.x_true for tr in all_trajs]).ravel()
    var = float(np.var(noise))
    ok = (
        sizes == [15, 5, 5]
        and len(all_trajs) == 25
        and shapes_ok
        and ts_ok
        and window_ok
        and 0.09 <= var <= 0.11
    )
    report(
        6,
        "dataset protocol",
        ok,
        f"split {sizes}, 25x500 samples on [5, 10), pooled noise variance {var:.4f}",
    )


@pytest.mark.slow
def test_criterion_7_self_consistency_identification():
    rng = np.random.default_rng(107)
    teacher = random_hnet(rng, n_hidden=16, scale=0.5)
    field = lambda x, u: oe_hnn_field(teacher, S, x, u)
    trajs = []
    for _ in range(5):
        spec = MultisineSpec(20, 0.1, sample_phases(20, rng), amplitude=0.5)
        t = np.arange(200) * 0.01
        u = multisine_value(t, spec)[:, None]
        states = rollout(field, rng.uniform(-0.3, 0.3, 2), u, 0.01)
        trajs.append(Trajectory(t=t, u=u, y=states, x_true=states))
    dataset = Dataset(
        train=trajs[:4],
        validation=trajs[4:],
        test=[],
        system=SPEC,
        protocol=GenerationProtocol(
            n_realizations=5, n_samples=200, ts=0.01, t_start=0.0, split=(4, 1, 0)
        ),
        noise=NoiseSpec(variance=0.0),
        master_seed=107,
    )
    untrained = init_hamiltonian_net(2, 16, np.random.default_rng(1))  # fit's seed-1 start
    warm = fit(
        "oe-hnn",
        dataset,
        TrainConfig(
            n_hidden=16, seed=1, learning_rate=5e-3, chunk_length=20,
            max_epochs=2000, patience=2000,
        ),
    )
    final = fit(
        "oe-hnn",
        dataset,
        TrainConfig(n_hidden=16, seed=1, learning_rate=1e-3, max_epochs=2000, patience=500),
        initial_model=warm.model,
    )

    def loss(model, trajs):
        return sum(simulation_loss(model, S, tr) for tr in trajs)

    train_0, train_warm, train_end = (
        loss(m, dataset.train) for m in (untrained, warm.model, final.model)
    )
    val_0, val_end = (loss(m, dataset.validation) for m in (untrained, final.model))
    # The teacher scores exactly 0, yet no absolute loss level is asserted:
    # none is documented, and the level reached depends on the optimiser, not
    # on the identification. Adam, which `fit` runs, plateaus between 4.7e-4
    # and 1.9e-3 on this problem (student seeds 1-3; cosine, exponential and
    # plateau learning-rate decay), while L-BFGS on the same exact gradient
    # from the warm model passes below 1e-4 only after ~1800 iterations. What
    # the method promises is a collapse of the loss by orders of magnitude, so
    # both losses of the model `fit` returns must fall at least a hundredfold
    # from the untrained student's.
    ok = train_0 >= 100.0 * train_end and val_0 >= 100.0 * val_end
    report(
        7,
        "self-consistency identification",
        ok,
        f"full-horizon training loss {train_0:.2e} untrained, {train_warm:.2e} warm, "
        f"{train_end:.2e} returned ({train_0 / train_end:.0f}x); validation loss "
        f"{val_0:.2e} -> {val_end:.2e} ({val_0 / val_end:.0f}x); best epoch "
        f"{warm.best_epoch} chunked, {final.best_epoch} full",
    )


def _metrics_text(path):
    return (path / "comparison.csv").read_text() + (path / "report_0_oe-hnn.txt").read_text()


def test_criterion_10_end_to_end_determinism(tmp_path, process_budget):
    outputs = []
    for tag, budget in (("a", 1), ("b", 2)):
        base = tmp_path / tag
        process_budget(budget)
        args_gen = [
            "generate-data", "--out", str(base / "data"), "--master-seed", "11",
            "--n-realizations", "8", "--n-train", "4", "--n-val", "2", "--n-test", "2",
            "--n-samples", "80", "--t-start", "1.0",
        ]
        assert cli_main(args_gen) == 0
        assert cli_main([
            "train", "--data", str(base / "data"), "--out", str(base / "model"),
            "--model", "oe-hnn", "--n-hidden", "16", "--max-epochs", "10",
            "--patience", "10", "--chunk-length", "20",  # 79 steps: a padded tail of 19
        ]) == 0
        assert cli_main([
            "evaluate", "--data", str(base / "data"), "--out", str(base / "eval"),
            "--models", str(base / "model" / "model.txt"),
        ]) == 0
        outputs.append(base)
    a, b = outputs
    # every artifact, the dataset's config echo too, must be bit-identical
    same_data = not filecmp.dircmp(a / "data", b / "data").diff_files
    same_model = (a / "model/model.txt").read_text() == (b / "model/model.txt").read_text()
    same_history = (a / "model/history.csv").read_text() == (b / "model/history.csv").read_text()
    same_metrics = _metrics_text(a / "eval") == _metrics_text(b / "eval")
    ok = same_data and same_model and same_history and same_metrics
    report(
        10,
        "end-to-end determinism",
        ok,
        f"dataset={same_data}, model={same_model}, history={same_history}, "
        f"metrics={same_metrics} across process budgets 1 vs 2",
    )
