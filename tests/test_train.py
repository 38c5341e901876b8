import dataclasses
import multiprocessing
import os

import numpy as np
import pytest

import oehnn.train
from oehnn.data import Trajectory
from oehnn.dynamics import duffing_system, structure_matrices
from oehnn.integrate import rollout
from oehnn.netmodel import (
    flatten_params,
    init_blackbox_net,
    init_hamiltonian_net,
    blackbox_field,
    oe_hnn_field,
    with_params,
)
from oehnn.train import (
    AdamState,
    TrainConfig,
    TrainingError,
    adam_step,
    derivative_loss,
    derivative_loss_grad,
    fit,
    init_adam,
    simulation_loss,
    simulation_loss_grad,
    write_history_csv,
)

SPEC = duffing_system()
S = structure_matrices(SPEC)


def random_hnet(rng, n_hidden=4, scale=0.5):
    net = init_hamiltonian_net(2, n_hidden, rng)
    return with_params(net, rng.uniform(-scale, scale, flatten_params(net).size))


def make_traj(y, u=None, ts=0.01):
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    u = np.zeros((n, 1)) if u is None else np.asarray(u, dtype=float)
    return Trajectory(t=np.arange(n) * ts, u=u, y=y)


def self_generated_traj(net, x0, n, ts=0.01, u=None, rng=None):
    """Noiseless data produced by the model's own field."""
    if u is None:
        u = rng.normal(0.0, 1.0, (n, 1)) if rng is not None else np.zeros((n, 1))
    states = rollout(lambda x, uu: oe_hnn_field(net, S, x, uu), x0, u, ts)
    return make_traj(states, u, ts)


class TestAdam:
    config = TrainConfig(learning_rate=0.01)

    def test_zero_gradient_keeps_parameters(self):
        theta = np.array([1.0, -2.0, 3.0])
        new, state = adam_step(theta, np.zeros(3), init_adam(3), self.config)
        assert np.array_equal(new, theta)
        assert state.step == 1

    def test_first_step_is_signed_learning_rate(self):
        theta = np.zeros(4)
        grad = np.array([5.0, -3.0, 0.25, -1e3])
        new, _ = adam_step(theta, grad, init_adam(4), self.config)
        # bias-corrected first step: -lr * g / (|g| + eps) ~ -lr * sign(g)
        assert np.allclose(new, -0.01 * np.sign(grad), atol=1e-6)

    def test_two_steps_match_hand_unrolled_formula(self):
        # independent transcription of the published update equations
        lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8
        cfg = TrainConfig(learning_rate=lr, beta1=b1, beta2=b2, epsilon=eps)
        g = np.array([0.3, -0.7])
        theta = np.array([0.1, 0.2])
        new, state = adam_step(theta, g, init_adam(2), cfg)
        new, state = adam_step(new, g, state, cfg)
        assert state.step == 2

        m = v = np.zeros(2)
        th = np.array([0.1, 0.2])
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            m_hat = m / (1 - b1**t)
            v_hat = v / (1 - b2**t)
            th = th - lr * m_hat / (np.sqrt(v_hat) + eps)
        assert np.allclose(new, th, atol=1e-15)
        assert np.allclose(state.m, m, atol=1e-15)
        assert np.allclose(state.v, v, atol=1e-15)

    def test_rejects_non_finite_gradient(self):
        with pytest.raises(TrainingError):
            adam_step(np.zeros(2), np.array([np.nan, 0.0]), init_adam(2), self.config)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            adam_step(np.zeros(2), np.zeros(3), init_adam(2), self.config)


class TestSimulationLoss:
    def test_self_generated_data_gives_zero_loss(self):
        rng = np.random.default_rng(0)
        net = random_hnet(rng)
        traj = self_generated_traj(net, np.array([0.2, -0.1]), 60, rng=rng)
        assert simulation_loss(net, S, traj) < 1e-10

    def test_constant_measurements_zero_net(self):
        net = with_params(init_hamiltonian_net(2, 4, np.random.default_rng(0)), np.zeros(17))
        y = np.tile([0.3, -0.4], (20, 1))
        assert simulation_loss(net, S, make_traj(y)) == 0.0

    def test_constant_offset_residual(self):
        # all residuals equal c from sample 1 on: loss = |c| * (N-1)/N
        net = with_params(init_hamiltonian_net(2, 4, np.random.default_rng(0)), np.zeros(17))
        n, c = 25, np.array([0.3, 0.4])
        y = np.tile([0.1, 0.2], (n, 1))
        y[1:] += c
        expected = np.linalg.norm(c) * (n - 1) / n
        assert simulation_loss(net, S, make_traj(y)) == pytest.approx(expected, rel=1e-12)

    def test_matches_external_rollout_composition(self):
        rng = np.random.default_rng(1)
        net = random_hnet(rng, n_hidden=8)
        u = rng.normal(0, 1, (40, 1))
        y = rng.normal(0, 0.5, (40, 2))
        traj = make_traj(y, u)
        states = rollout(lambda x, uu: oe_hnn_field(net, S, x, uu), y[0], u, 0.01)
        external = np.linalg.norm(states[1:] - y[1:], axis=1).sum() / 40
        assert simulation_loss(net, S, traj) == pytest.approx(external, abs=1e-12)

    def test_anchor_true_uses_stored_truth(self):
        rng = np.random.default_rng(2)
        net = random_hnet(rng)
        x0 = np.array([0.1, 0.3])
        traj = self_generated_traj(net, x0, 30, rng=rng)
        noisy_first = traj.y.copy()
        noisy_first[0] += 1.0
        shifted = Trajectory(t=traj.t, u=traj.u, y=noisy_first, x_true=traj.y.copy())
        assert simulation_loss(net, S, shifted, anchor="true") < 1e-10
        assert simulation_loss(net, S, shifted, anchor="measured") > 0.1

    def test_too_short(self):
        net = random_hnet(np.random.default_rng(3))
        with pytest.raises(ValueError):
            simulation_loss(net, S, make_traj(np.zeros((1, 2))))


class TestSimulationLossGrad:
    @pytest.mark.parametrize("n_steps", [2, 10, 50])
    def test_matches_finite_differences(self, n_steps):
        rng = np.random.default_rng(10 + n_steps)
        net = random_hnet(rng, n_hidden=4)
        traj = make_traj(
            rng.normal(0, 0.5, (n_steps + 1, 2)), rng.normal(0, 1, (n_steps + 1, 1))
        )
        loss, grad = simulation_loss_grad(net, S, traj)
        assert loss > 0
        theta = flatten_params(net)
        eps = 1e-5
        fd = np.zeros_like(theta)
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += eps
            down[i] -= eps
            fd[i] = (
                simulation_loss(with_params(net, up), S, traj)
                - simulation_loss(with_params(net, down), S, traj)
            ) / (2 * eps)
        mask = np.maximum(np.abs(grad), np.abs(fd)) > 1e-8
        rel = np.abs(grad - fd)[mask] / np.maximum(np.abs(grad), np.abs(fd))[mask]
        assert rel.max() < 1e-5

    def test_zero_residual_gives_zero_gradient(self):
        rng = np.random.default_rng(20)
        net = random_hnet(rng)
        traj = self_generated_traj(net, np.array([0.15, -0.2]), 40, rng=rng)
        _, grad = simulation_loss_grad(net, S, traj)
        assert np.linalg.norm(grad) < 1e-8

    def test_offset_bias_gradient_is_zero(self):
        # the energy offset never influences the flow
        rng = np.random.default_rng(21)
        net = random_hnet(rng)
        traj = make_traj(rng.normal(0, 0.5, (15, 2)), rng.normal(0, 1, (15, 1)))
        _, grad = simulation_loss_grad(net, S, traj)
        assert grad[-1] == 0.0


class TestDerivativeLoss:
    def test_self_targets_zero_loss_hnn(self):
        rng = np.random.default_rng(30)
        net = random_hnet(rng)
        x = rng.uniform(-0.5, 0.5, (12, 2))
        u = rng.normal(size=(12, 1))
        targets = oe_hnn_field(net, S, x, u)
        assert derivative_loss(net, S, x, targets, u) < 1e-14

    def test_self_targets_zero_loss_mlp(self):
        rng = np.random.default_rng(31)
        net = init_blackbox_net(2, 1, 6, rng)
        x = rng.uniform(-0.5, 0.5, (12, 2))
        u = rng.normal(size=(12, 1))
        targets = blackbox_field(net, x, u)
        assert derivative_loss(net, S, x, targets, u) < 1e-14

    def test_zero_net_with_pure_input_targets(self):
        # targets dx = G u vanish in both structured residual terms
        net = with_params(init_hamiltonian_net(2, 4, np.random.default_rng(0)), np.zeros(17))
        u = np.array([[1.0], [2.0], [-0.5]])
        x = np.zeros((3, 2))
        targets = u @ S.G.T
        assert derivative_loss(net, S, x, targets, u) == 0.0

    def test_single_sample_hand_value(self):
        net = with_params(init_hamiltonian_net(2, 4, np.random.default_rng(0)), np.zeros(17))
        # q_dot target 1, p_dot target 0, no input -> loss 1
        assert derivative_loss(net, S, [[0.0, 0.0]], [[1.0, 0.0]], [[0.0]]) == 1.0

    @pytest.mark.parametrize("kind", ["hnn", "mlp"])
    def test_gradient_matches_finite_differences(self, kind):
        rng = np.random.default_rng(32)
        if kind == "hnn":
            model = random_hnet(rng, n_hidden=5)
        else:
            net = init_blackbox_net(2, 1, 5, rng)
            model = with_params(net, rng.uniform(-0.5, 0.5, flatten_params(net).size))
        x = rng.uniform(-0.5, 0.5, (9, 2))
        u = rng.normal(size=(9, 1))
        targets = rng.normal(size=(9, 2))
        _, grad = derivative_loss_grad(model, S, x, targets, u)
        theta = flatten_params(model)
        eps = 1e-6
        fd = np.zeros_like(theta)
        for i in range(theta.size):
            up, down = theta.copy(), theta.copy()
            up[i] += eps
            down[i] -= eps
            fd[i] = (
                derivative_loss(with_params(model, up), S, x, targets, u)
                - derivative_loss(with_params(model, down), S, x, targets, u)
            ) / (2 * eps)
        mask = np.maximum(np.abs(grad), np.abs(fd)) > 1e-8
        rel = np.abs(grad - fd)[mask] / np.maximum(np.abs(grad), np.abs(fd))[mask]
        assert rel.max() < 1e-5


class TestChunking:
    def test_chunked_loss_still_zero_on_self_data(self, tiny_duffing_dataset):
        # re-anchored segments of self-generated data stay residual-free
        rng = np.random.default_rng(40)
        net = random_hnet(rng)
        traj = self_generated_traj(net, np.array([0.1, 0.1]), 50, rng=rng)
        ds = dataclasses.replace(
            tiny_duffing_dataset, train=[traj], validation=[traj], test=[]
        )
        cfg = TrainConfig(n_hidden=4, max_epochs=1, patience=1, chunk_length=8)
        result = fit("oe-hnn", ds, cfg, initial_model=net)
        assert result.history[0, 1] < 1e-10

    def test_chunk_covers_every_residual_exactly_once(self):
        from oehnn.train import _chunk_arrays

        rng = np.random.default_rng(41)
        traj = make_traj(rng.normal(size=(23, 2)), rng.normal(size=(23, 1)))
        groups = _chunk_arrays([traj], S, "measured", 5)
        total = sum(gu.shape[0] * gu.shape[1] for _, gu, _, _, _ in groups)
        assert total == 22  # N-1 transitions


class TestFit:
    def make_dataset(self, tiny, rng, n_train=3, n_val=2, n=40):
        net = random_hnet(rng, n_hidden=6)
        trajs = [
            self_generated_traj(net, rng.uniform(-0.3, 0.3, 2), n, rng=rng)
            for _ in range(n_train + n_val)
        ]
        ds = dataclasses.replace(
            tiny, train=trajs[:n_train], validation=trajs[n_train:], test=[]
        )
        return ds, net

    def test_history_contract(self, tiny_duffing_dataset):
        cfg = TrainConfig(n_hidden=4, max_epochs=8, patience=8)
        result = fit("oe-hnn", tiny_duffing_dataset, cfg)
        assert result.history.shape[1] == 3
        assert len(result.history) <= cfg.max_epochs
        assert result.best_epoch <= result.history[-1, 0]
        assert result.best_val_loss == result.history[:, 2].min()

    def test_deterministic(self, tiny_duffing_dataset):
        cfg = TrainConfig(n_hidden=4, max_epochs=6, patience=6, seed=3)
        a = fit("oe-hnn", tiny_duffing_dataset, cfg)
        b = fit("oe-hnn", tiny_duffing_dataset, cfg)
        assert np.array_equal(a.history, b.history)
        assert np.array_equal(flatten_params(a.model), flatten_params(b.model))

    def test_best_so_far_train_loss_non_increasing(self, tiny_duffing_dataset):
        cfg = TrainConfig(n_hidden=8, max_epochs=40, patience=40, seed=1)
        result = fit("oe-hnn", tiny_duffing_dataset, cfg)
        train = result.history[:, 1]
        running_best = np.minimum.accumulate(train)
        assert np.all(np.diff(running_best) <= 0)
        assert train.min() < train[0]

    @pytest.mark.parametrize("kind", ["hnn", "mlp"])
    def test_baseline_kinds_train(self, tiny_duffing_dataset, kind):
        cfg = TrainConfig(n_hidden=4, max_epochs=5, patience=5)
        result = fit(kind, tiny_duffing_dataset, cfg)
        assert result.kind == kind
        assert len(result.history) == 5

    def test_oracle_derivative_source(self, tiny_duffing_dataset):
        cfg = TrainConfig(n_hidden=4, max_epochs=5, patience=5, derivative_source="true")
        result = fit("hnn", tiny_duffing_dataset, cfg)
        assert len(result.history) == 5

    def test_divergent_trajectory_penalized_not_poisoning(self, tiny_duffing_dataset):
        # a corrupt anchor turns one lane non-finite at the first step: it
        # must contribute the fixed penalty and no gradient
        rng = np.random.default_rng(50)
        net = random_hnet(rng)
        good = self_generated_traj(net, np.array([0.1, 0.0]), 30, rng=rng)
        bad_y = good.y.copy()
        bad_y[0] = np.nan
        bad = Trajectory(t=good.t, u=good.u, y=bad_y)
        ds = dataclasses.replace(
            tiny_duffing_dataset, train=[good, bad], validation=[good], test=[]
        )
        cfg = TrainConfig(n_hidden=4, max_epochs=1, patience=1)
        result = fit("oe-hnn", ds, cfg, initial_model=net)
        # good lane contributes ~0, bad lane the 1e6 penalty
        assert result.history[0, 1] == pytest.approx(1e6, rel=1e-9)

    def test_all_divergent_is_hard_error(self, tiny_duffing_dataset):
        rng = np.random.default_rng(51)
        net = random_hnet(rng)
        traj = self_generated_traj(net, np.array([0.1, 0.0]), 20, rng=rng)
        bad_y = traj.y.copy()
        bad_y[0] = np.inf
        bad = Trajectory(t=traj.t, u=traj.u, y=bad_y)
        ds = dataclasses.replace(tiny_duffing_dataset, train=[bad], validation=[traj], test=[])
        with pytest.raises(TrainingError, match="diverged"):
            fit("oe-hnn", ds, TrainConfig(n_hidden=4, max_epochs=3, patience=3))

    def test_empty_split_rejected(self, tiny_duffing_dataset):
        ds = dataclasses.replace(tiny_duffing_dataset, validation=[])
        with pytest.raises(TrainingError):
            fit("oe-hnn", ds, TrainConfig(n_hidden=4, max_epochs=1))

    def test_warm_start_type_checked(self, tiny_duffing_dataset):
        rng = np.random.default_rng(52)
        with pytest.raises(TrainingError):
            fit(
                "oe-hnn",
                tiny_duffing_dataset,
                TrainConfig(n_hidden=4, max_epochs=1),
                initial_model=init_blackbox_net(2, 1, 4, rng),
            )


class TestWorkers:
    """The validation helper process changes where a number is computed, not
    the number."""

    @pytest.mark.parametrize(
        "kind, chunk", [("oe-hnn", 10), ("oe-hnn", None), ("hnn", None), ("mlp", None)]
    )
    def test_helper_is_bit_identical_to_inline(self, tiny_duffing_dataset, kind, chunk):
        cfg = TrainConfig(n_hidden=8, max_epochs=5, patience=5, chunk_length=chunk, seed=2)
        inline = fit(kind, tiny_duffing_dataset, cfg, workers=1)
        helper = fit(kind, tiny_duffing_dataset, cfg, workers=2)
        assert np.array_equal(inline.history, helper.history)
        assert np.array_equal(flatten_params(inline.model), flatten_params(helper.model))
        assert multiprocessing.active_children() == []

    def test_helper_stopped_after_first_epoch_error(self, tiny_duffing_dataset):
        rng = np.random.default_rng(51)
        net = random_hnet(rng)
        traj = self_generated_traj(net, np.array([0.1, 0.0]), 20, rng=rng)
        bad_y = traj.y.copy()
        bad_y[0] = np.inf
        bad = Trajectory(t=traj.t, u=traj.u, y=bad_y)
        ds = dataclasses.replace(tiny_duffing_dataset, train=[bad], validation=[traj], test=[])
        with pytest.raises(TrainingError, match="every training rollout diverged"):
            fit("oe-hnn", ds, TrainConfig(n_hidden=4, max_epochs=3, patience=3), workers=2)
        assert multiprocessing.active_children() == []

    def test_helper_death_is_training_error(self, tiny_duffing_dataset, monkeypatch):
        # only validation reaches _lane_loss in an hnn fit, so only the forked
        # helper (which inherits the patch) exits
        monkeypatch.setattr(oehnn.train, "_lane_loss", lambda *args: os._exit(3))
        cfg = TrainConfig(n_hidden=4, max_epochs=3, patience=3)
        with pytest.raises(TrainingError, match=r"validation helper .*\(exit code 3\)"):
            fit("hnn", tiny_duffing_dataset, cfg, workers=2)
        assert multiprocessing.active_children() == []

    def test_negative_workers_rejected(self, tiny_duffing_dataset):
        with pytest.raises(ValueError, match="workers"):
            fit("hnn", tiny_duffing_dataset, TrainConfig(n_hidden=4, max_epochs=1), workers=-1)


class TestLossDecomposition:
    def test_total_equals_sum_of_per_trajectory_losses(self, tiny_duffing_dataset):
        rng = np.random.default_rng(60)
        net = random_hnet(rng, n_hidden=6)
        ds = tiny_duffing_dataset
        cfg = TrainConfig(n_hidden=6, max_epochs=1, patience=1)
        result = fit("oe-hnn", ds, cfg, initial_model=net)
        total = result.history[0, 1]
        parts = sum(simulation_loss(net, S, tr) for tr in ds.train)
        assert total == pytest.approx(parts, rel=1e-12)

    def test_gradients_add_over_trajectories(self, tiny_duffing_dataset):
        rng = np.random.default_rng(61)
        net = random_hnet(rng, n_hidden=6)
        trajs = tiny_duffing_dataset.train
        grads = [simulation_loss_grad(net, S, tr)[1] for tr in trajs]
        from oehnn.train import _sim_batch, _traj_arrays

        x0, gu, y, h, w = _traj_arrays(trajs, S, "measured")
        _, batched, _ = _sim_batch(net, S, x0, gu, y, h, w, 1e6, True)
        assert np.allclose(batched, np.sum(grads, axis=0), atol=1e-12)


def test_history_csv(tmp_path):
    history = np.array([[1, 0.5, 0.6], [2, 0.4, 0.55]])
    path = tmp_path / "history.csv"
    write_history_csv(history, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epoch,train_loss,val_loss"
    assert lines[1].startswith("1,0.5")


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(chunk_length=1)
    with pytest.raises(ValueError):
        TrainConfig(anchor="oracle")
