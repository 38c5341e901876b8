import dataclasses
import inspect
import multiprocessing
import os
from functools import partial

import numpy as np
import pytest

import oehnn.train
from oehnn.data import Trajectory, generate
from oehnn.dynamics import coupled_system, duffing_system, structure_matrices
from oehnn.integrate import rk4_lanes, rollout
from oehnn.netmodel import (
    _blackbox_rows,
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
    derivative_loss_grad,
    fit,
    init_adam,
    simulation_loss,
    simulation_loss_grad,
    write_history_csv,
)
from oehnn.signals import NoiseSpec
from tests.conftest import TINY_PROTOCOL

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
        assert derivative_loss_grad(net, S, x, targets, u)[0] < 1e-14

    def test_self_targets_zero_loss_mlp(self):
        rng = np.random.default_rng(31)
        net = init_blackbox_net(2, 1, 6, rng)
        x = rng.uniform(-0.5, 0.5, (12, 2))
        u = rng.normal(size=(12, 1))
        targets = blackbox_field(net, x, u)
        assert derivative_loss_grad(net, S, x, targets, u)[0] < 1e-14

    def test_zero_net_with_pure_input_targets(self):
        # targets dx = G u vanish in both structured residual terms
        net = with_params(init_hamiltonian_net(2, 4, np.random.default_rng(0)), np.zeros(17))
        u = np.array([[1.0], [2.0], [-0.5]])
        x = np.zeros((3, 2))
        targets = u @ S.G.T
        assert derivative_loss_grad(net, S, x, targets, u)[0] == 0.0

    def test_single_sample_hand_value(self):
        net = with_params(init_hamiltonian_net(2, 4, np.random.default_rng(0)), np.zeros(17))
        # q_dot target 1, p_dot target 0, no input -> loss 1
        assert derivative_loss_grad(net, S, [[0.0, 0.0]], [[1.0, 0.0]], [[0.0]])[0] == 1.0

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
                derivative_loss_grad(with_params(model, up), S, x, targets, u)[0]
                - derivative_loss_grad(with_params(model, down), S, x, targets, u)[0]
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

    @pytest.mark.parametrize(
        "kind, chunk", [("oe-hnn", 10), ("oe-hnn", None), ("hnn", None), ("mlp", None)]
    )
    def test_run_ahead_settles_in_epoch_order(self, tiny_duffing_dataset, kind, chunk):
        # stops inside a validation window and on the edge of both the inline
        # window and the helper's run-ahead limit, and a run whose epoch count
        # is not a multiple of the window; each must be the prefix of the
        # unstopped run and identical for every `workers`
        cfg = TrainConfig(
            n_hidden=8, max_epochs=40, patience=40, chunk_length=chunk, seed=2,
            learning_rate=0.05,
        )
        full = fit(kind, tiny_duffing_dataset, cfg, workers=1).history
        stops = {}
        for patience in range(1, 40):
            best, best_epoch = np.inf, 0
            for epoch, v_loss in enumerate(full[:, 2], start=1):
                if v_loss < best:
                    best, best_epoch = v_loss, epoch
                elif epoch - best_epoch >= patience:
                    stops.setdefault(epoch, patience)
                    break
        edge = oehnn.train._RUN_AHEAD
        assert edge % oehnn.train._INLINE_WINDOW == 0
        inside = next(e for e in sorted(stops) if e % oehnn.train._INLINE_WINDOW)
        assert edge in stops, "the fixture no longer stops on the window edge"
        runs = [
            (dataclasses.replace(cfg, patience=stops[inside]), inside),
            (dataclasses.replace(cfg, patience=stops[edge]), edge),
            (dataclasses.replace(cfg, max_epochs=13), 13),
        ]
        for run, n in runs:
            results = [fit(kind, tiny_duffing_dataset, run, workers=w) for w in (0, 1, 2)]
            assert len(results[0].history) == n
            assert np.array_equal(results[0].history, full[:n])
            for other in results[1:]:
                assert np.array_equal(other.history, results[0].history)
                assert np.array_equal(
                    flatten_params(other.model), flatten_params(results[0].model)
                )
                assert other.best_epoch == results[0].best_epoch
            assert results[0].best_epoch == 1 + int(np.argmin(full[:n, 2]))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_finite_gradient_raises_only_when_no_earlier_stop(
        self, tiny_duffing_dataset, monkeypatch, workers
    ):
        cfg = TrainConfig(n_hidden=8, max_epochs=40, patience=3, seed=2, learning_rate=0.05)
        reference = fit("hnn", tiny_duffing_dataset, cfg, workers=1)
        stop = len(reference.history)
        assert stop < cfg.max_epochs
        derivative_batch = oehnn.train._derivative_batch_hnn
        for bad_epoch, stopped in ((stop - 1, False), (stop, True), (stop + 1, True)):
            calls = []

            def poisoned(*args, bad_epoch=bad_epoch, calls=calls):
                loss, grad = derivative_batch(*args)
                calls.append(None)
                return loss, grad * np.nan if len(calls) == bad_epoch else grad

            monkeypatch.setattr(oehnn.train, "_derivative_batch_hnn", poisoned)
            if stopped:
                result = fit("hnn", tiny_duffing_dataset, cfg, workers=workers)
                assert np.array_equal(result.history, reference.history)
                assert np.array_equal(
                    flatten_params(result.model), flatten_params(reference.model)
                )
            else:
                with pytest.raises(TrainingError, match="non-finite gradient"):
                    fit("hnn", tiny_duffing_dataset, cfg, workers=workers)
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

    @pytest.mark.parametrize("kind, chunk", [("oe-hnn", 10), ("hnn", None)])
    def test_fit_in_a_pool_worker_validates_inline(self, tiny_duffing_dataset, kind, chunk):
        # a daemonic pool worker may not fork the helper, whatever `workers` asks
        cfg = TrainConfig(n_hidden=8, max_epochs=5, patience=5, chunk_length=chunk, seed=2)
        inline = fit(kind, tiny_duffing_dataset, cfg, workers=1)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            pooled = pool.apply(fit, (kind, tiny_duffing_dataset, cfg), {"workers": 2})
        assert np.array_equal(inline.history, pooled.history)
        assert np.array_equal(flatten_params(inline.model), flatten_params(pooled.model))
        assert multiprocessing.active_children() == []

    def test_workers_default_is_zero_everywhere(self):
        from oehnn.cli import ExperimentConfig
        from oehnn.evaluate import compare_estimators

        for f in (fit, compare_estimators):
            assert inspect.signature(f).parameters["workers"].default == 0
        assert ExperimentConfig().workers == 0


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


# ---------------------------------------------------------------------------
# The energy-net kernel: in-place dH/dx forward and the shared parameter VJP.
# ---------------------------------------------------------------------------


def reference_h_grad_x(net, x):
    """The closed form written out: (w2 * (1 - tanh(w1 x + b1)^2)) @ w1."""
    return (net.w2 * (1.0 - np.tanh(x @ net.w1.T + net.b1) ** 2)) @ net.w1


def reference_grad_vjp(net, x, th, w, acc, scratch=None):
    """The parameter VJP as first written: a = w @ w1.T, s = sech^2, s' =
    -2 tanh sech^2; returns (w2 * s') * a, whose product with w1 is the state
    pullback. It allocates its own arrays and ignores `scratch`."""
    s = 1.0 - th**2
    sp = -2.0 * th * s
    a = w @ net.w1.T
    acc.w2 += np.einsum("bh,bh->h", a, s)
    acc.b1 += net.w2 * np.einsum("bh,bh->h", a, sp)
    acc.w1 += (s * net.w2).T @ w + (a * sp * net.w2).T @ x
    return (net.w2 * sp) * a


def rel_err(new, ref):
    return np.max(np.abs(new - ref)) / np.max(np.abs(ref))


def assert_blocks_match(grad, ref, n_hidden, tol):
    """The w1, b1 and w2 gradient blocks of a 2-state net each agree to `tol`
    relative to their own largest entry (b2 has no gradient)."""
    ends = np.cumsum([2 * n_hidden, n_hidden, n_hidden])
    for block, ref_block in zip(np.split(grad, ends)[:3], np.split(ref, ends)[:3]):
        assert np.max(np.abs(ref_block)) > 0.0
        assert rel_err(block, ref_block) <= tol


def frozen(*arrays):
    """Read-only copies: an in-place write into any of them raises."""
    out = []
    for a in arrays:
        a = np.array(a, dtype=float)
        a.flags.writeable = False
        out.append(a)
    return out


def saturated_hnet(rng, n_hidden):
    # |w1 x + b1| is about 20 for states of order one, so tanh is +-1 or
    # within a few ulps of it, and sech^2 is 0 or a few ulps
    net = random_hnet(rng, n_hidden=n_hidden)
    b1 = rng.choice([-1.0, 1.0], n_hidden) * rng.uniform(17.0, 21.0, n_hidden)
    return dataclasses.replace(net, b1=b1)


class NumpyWithEmpty:
    """numpy, but with `empty` replaced, to stand in for it in one module."""

    def __init__(self, empty):
        self.empty = empty

    def __getattr__(self, name):
        return getattr(np, name)


class TestEnergyKernel:
    def test_forward_writes_tanh_into_the_given_slot_only(self):
        rng = np.random.default_rng(70)
        net = random_hnet(rng, n_hidden=7)
        (x,) = frozen(rng.normal(size=(5, 2)))
        th = np.full((5, 7), np.nan)
        g = oehnn.train.h_grad_x(net, x, th)
        assert np.array_equal(th, np.tanh(x @ net.w1.T + net.b1))
        assert np.array_equal(g, oehnn.train.h_grad_x(net, x))
        assert np.array_equal(g, reference_h_grad_x(net, x))

    def test_vjp_writes_neither_states_record_nor_cotangent(self):
        rng = np.random.default_rng(71)
        net = random_hnet(rng, n_hidden=7)
        x, v = frozen(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)))
        (th,) = frozen(np.tanh(x @ net.w1.T + net.b1))
        accs = [oehnn.train._ThetaGrad(net) for _ in range(2)]
        pulls = [oehnn.train._stage_vjp(net, x, th, v, 1, acc) for acc in accs]
        assert np.array_equal(pulls[0], pulls[1])
        assert np.array_equal(accs[0].flat(), accs[1].flat())

    def test_simulation_gradient_leaves_inputs_and_repeats(self, tiny_duffing_dataset):
        net = random_hnet(np.random.default_rng(72), n_hidden=6)
        groups = oehnn.train._chunk_arrays(tiny_duffing_dataset.train, S, "measured", 10)
        x0, gu, y, h, w = groups[0]
        x0, gu, y, w = frozen(x0, gu, y, w)
        runs = [oehnn.train._sim_batch(net, S, x0, gu, y, h, w, 1e6, True) for _ in range(2)]
        for a, b in zip(*runs):
            assert np.array_equal(a, b)
        traj = tiny_duffing_dataset.train[0]
        first, second = simulation_loss_grad(net, S, traj), simulation_loss_grad(net, S, traj)
        assert first[0] == second[0] and np.array_equal(first[1], second[1])

    def test_simulation_gradient_ignores_stale_buffers(self, tiny_duffing_dataset, monkeypatch):
        # `_sim_batch` takes its stage record and RK4-stage scratch arrays
        # from np.empty; hand it the arrays another model's call has filled
        args = oehnn.train._chunk_arrays(tiny_duffing_dataset.train, S, "measured", 10)[0]
        rng = np.random.default_rng(76)
        nets = [random_hnet(rng, n_hidden=6) for _ in range(2)]
        for want_grad in (True, False):
            fresh = oehnn.train._sim_batch(nets[0], S, *args, 1e6, want_grad)
            handed = []
            monkeypatch.setattr(oehnn.train, "np", NumpyWithEmpty(
                lambda shape: handed.append(np.empty(shape)) or handed[-1]
            ))
            oehnn.train._sim_batch(nets[1], S, *args, 1e6, want_grad)
            assert len(handed) == (4 if want_grad else 1)
            monkeypatch.setattr(oehnn.train, "np", NumpyWithEmpty(lambda shape: handed.pop(0)))
            stale = oehnn.train._sim_batch(nets[0], S, *args, 1e6, want_grad)
            monkeypatch.undo()
            assert not handed
            for a, b in zip(stale, fresh):
                assert np.array_equal(a, b)

    def test_hnn_batch_leaves_inputs_and_repeats(self, tiny_duffing_dataset):
        net = random_hnet(np.random.default_rng(73), n_hidden=6)
        x, dx, u = frozen(*oehnn.train._derivative_training_set(
            tiny_duffing_dataset.train, "fd", tiny_duffing_dataset.ts
        )[:3])
        (w,) = frozen(np.full(len(x), 1.0 / len(x)))
        runs = [oehnn.train._derivative_batch_hnn(net, S, x, dx, u, w) for _ in range(2)]
        assert runs[0][0] == runs[1][0] and np.array_equal(runs[0][1], runs[1][1])

    def test_mlp_batch_leaves_inputs_and_repeats(self, tiny_duffing_dataset):
        net = init_blackbox_net(2, 1, 6, np.random.default_rng(73))
        x, dx, u = frozen(*oehnn.train._derivative_training_set(
            tiny_duffing_dataset.train, "fd", tiny_duffing_dataset.ts
        )[:3])
        (w,) = frozen(np.full(len(x), 1.0 / len(x)))
        runs = [oehnn.train._derivative_batch_mlp(net, x, dx, u, w) for _ in range(2)]
        assert runs[0][0] == runs[1][0] and np.array_equal(runs[0][1], runs[1][1])

    @pytest.mark.parametrize("kind", ["hnn", "mlp"])
    def test_derivative_batch_ignores_stale_buffers(self, tiny_duffing_dataset, kind):
        # buffers that another model's batch has just filled give the bits
        # of fresh ones, as when `fit` reuses them from one epoch to the next
        rng = np.random.default_rng(75)
        x, dx, u, w = oehnn.train._derivative_training_set(
            tiny_duffing_dataset.train, "fd", tiny_duffing_dataset.ts
        )
        if kind == "hnn":
            batch = partial(oehnn.train._derivative_batch_hnn, S=S)
            nets = [random_hnet(rng, n_hidden=6) for _ in range(2)]
            buffers = oehnn.train._derivative_buffers(nets[0], x, u @ S.G.T)
        else:
            batch = oehnn.train._derivative_batch_mlp
            nets = [init_blackbox_net(2, 1, 6, rng) for _ in range(2)]
            buffers = oehnn.train._derivative_buffers(nets[0], x, u)
        for arr in buffers[1:]:
            arr.fill(np.nan)
        # the first net runs on NaN, the second on the first net's values
        for net in nets:
            loss, grad = batch(net, x=x, dx_target=dx, u=u, sample_weight=w, out=buffers)
            fresh_loss, fresh_grad = batch(net, x=x, dx_target=dx, u=u, sample_weight=w)
            assert loss == fresh_loss and np.array_equal(grad, fresh_grad)

    @pytest.mark.parametrize("saturated", [False, True], ids=["moderate", "saturated"])
    def test_matches_the_closed_form(self, tiny_duffing_dataset, monkeypatch, saturated):
        rng = np.random.default_rng(74)
        net = saturated_hnet(rng, 9) if saturated else random_hnet(rng, n_hidden=9)
        x = rng.normal(size=(40, 2))
        assert rel_err(oehnn.train.h_grad_x(net, x), reference_h_grad_x(net, x)) <= 1e-12
        args = oehnn.train._traj_arrays(tiny_duffing_dataset.train, S, "measured")
        xf, dxf, uf, wf = oehnn.train._derivative_training_set(
            tiny_duffing_dataset.train, "fd", tiny_duffing_dataset.ts
        )
        new = [
            oehnn.train._sim_batch(net, S, *args, 1e6, True)[:2],
            oehnn.train._derivative_batch_hnn(net, S, xf, dxf, uf, wf),
        ]
        monkeypatch.setattr(oehnn.train, "_grad_vjp", reference_grad_vjp)
        ref = [
            oehnn.train._sim_batch(net, S, *args, 1e6, True)[:2],
            oehnn.train._derivative_batch_hnn(net, S, xf, dxf, uf, wf),
        ]
        for (loss, grad), (ref_loss, ref_grad) in zip(new, ref):
            assert np.array_equal(loss, ref_loss)  # the forward is the same arithmetic
            assert_blocks_match(grad, ref_grad, 9, 1e-12)

    def test_matches_the_closed_form_at_benchmark_shape(self, standard_duffing_dataset,
                                                        monkeypatch):
        # 15 trajectories of 500 samples cut at 50: 135 lanes of 50 steps, width 200
        ds = standard_duffing_dataset
        args = max(oehnn.train._chunk_arrays(ds.train, S, "measured", 50),
                   key=lambda group: len(group[0]))
        assert args[1].shape[:2] == (50, 135)
        net = init_hamiltonian_net(2, 200, np.random.default_rng(41))
        loss, grad, _ = oehnn.train._sim_batch(net, S, *args, 1e6, True)
        monkeypatch.setattr(oehnn.train, "_grad_vjp", reference_grad_vjp)
        ref_loss, ref_grad, _ = oehnn.train._sim_batch(net, S, *args, 1e6, True)
        assert np.array_equal(loss, ref_loss)
        assert_blocks_match(grad, ref_grad, 200, 1e-13)


def one_model_val_loss(net, kind, S, groups, penalty):
    """Validation loss of one model, as `fit` computed it before validation
    was stacked: one rollout per group, lane losses summed per group."""
    total = 0.0
    for x0, gu, y, h, weight in groups:
        if kind == "mlp":
            xs, diverged, _ = rk4_lanes(partial(_blackbox_rows, net), x0, gu @ S.G, h)
            lane_loss = oehnn.train._lane_loss(xs, y, diverged, weight, penalty)[0]
        else:
            lane_loss = oehnn.train._sim_batch(net, S, x0, gu, y, h, weight, penalty, False)[0]
        total += float(lane_loss.sum())
    return total


@pytest.fixture(scope="module")
def tiny_coupled_dataset():
    protocol = dataclasses.replace(TINY_PROTOCOL, amplitude=None)
    return generate(coupled_system(), protocol, NoiseSpec(variance=0.05), master_seed=42)


class TestStackedValidation:
    """K parameter vectors validated in one stacked rollout: each member's
    loss has the bits of validating that model alone."""

    @pytest.mark.parametrize("K", [1, 3, 8])
    @pytest.mark.parametrize("system", ["duffing", "coupled"])
    @pytest.mark.parametrize("kind", ["hnn", "mlp"])
    def test_each_member_matches_its_one_model_loss(
        self, tiny_duffing_dataset, tiny_coupled_dataset, kind, system, K
    ):
        ds = tiny_duffing_dataset if system == "duffing" else tiny_coupled_dataset
        S_sys = structure_matrices(ds.system)
        d, m, nh = ds.system.n_states, ds.system.n_inputs, 16
        rng = np.random.default_rng(80 + K)
        if kind == "hnn":
            template = init_hamiltonian_net(d, nh, rng)
            # w1 = 0.5, b1 = 0, w2 = 1e308: dH/dx sums to more than the
            # largest double
            blowup = [(slice(0, nh * d), 0.5), (slice(nh * d, nh * d + nh), 0.0),
                      (slice(nh * d + nh, nh * d + 2 * nh), 1e308)]
        else:
            template = init_blackbox_net(d, m, nh, rng)
            blowup = [(slice(-d, None), 1e308)]  # b2: the RK4 stage sum overflows
        thetas = rng.uniform(-0.5, 0.5, (K, flatten_params(template).size))
        diverging = K // 2 if K > 1 else None
        if diverging is not None:
            # every lane of this member turns non-finite in its first step
            for block, value in blowup:
                thetas[diverging, block] = value
        penalty = 1e6
        for trajs in (ds.validation[:1], ds.validation):
            groups = [oehnn.train._traj_arrays(trajs, S_sys, "measured")]
            losses = oehnn.train._val_losses(template, thetas, kind, S_sys, groups, penalty)
            assert len(losses) == K
            for k, loss in enumerate(losses):
                net = with_params(template, thetas[k])
                assert loss == one_model_val_loss(net, kind, S_sys, groups, penalty)
            if diverging is not None:
                assert losses[diverging] == penalty * len(trajs)
