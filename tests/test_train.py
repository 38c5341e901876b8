import dataclasses
import inspect
import multiprocessing
import os
from functools import partial
from itertools import repeat

import numpy as np
import pytest

import oehnn.train
from oehnn.data import DatasetFormatError, Trajectory, _step_rounding
from oehnn.dynamics import (
    _j_apply,
    coupled_system,
    duffing_system,
    field_fn,
    structure_matrices,
)
from oehnn.evaluate import evaluate
from oehnn.integrate import IntegrationError, rk4_lanes, rollout
from oehnn.netmodel import (
    _blackbox_rows,
    _with_ones,
    flatten_params,
    h_grad_x,
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
from tests.conftest import TINY_PROTOCOL, config_dataset

SPEC = duffing_system()
S = structure_matrices(SPEC)


@pytest.fixture
def fit_at(process_budget):
    """`fit_at(budget, *args, **kwargs)` is `fit` at a pinned process budget."""

    def run(budget, *args, **kwargs):
        process_budget(budget)
        return fit(*args, **kwargs)

    return run


def random_hnet(rng, n_hidden=4, scale=0.5, n_states=2):
    net = init_hamiltonian_net(n_states, n_hidden, rng)
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

    @pytest.mark.parametrize("loss", [simulation_loss, simulation_loss_grad])
    def test_one_sample_trajectory_refused(self, loss):
        net = random_hnet(np.random.default_rng(0))
        named = r"trajectory 0 \(realization 0\) must contain at least 2 samples"
        with pytest.raises(ValueError, match=named):
            loss(net, S, make_traj([[0.1, 0.2]]))

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

    def test_divergence_is_named_as_rollout_and_evaluate_name_it(self):
        # 30 samples with an input of 1e308 at row 10: `rollout` names input
        # row 10 and `evaluate` gives diverged_step 10, and so do both losses;
        # a NaN anchor is "initial state is not finite" and diverged_step 0
        net = random_hnet(np.random.default_rng(4))
        field = partial(oe_hnn_field, net, S)
        u = np.zeros((30, 1))
        u[10] = 1e308
        y = np.full((30, 2), 0.1)
        nan_anchor = y.copy()
        nan_anchor[0] = np.nan
        for y_k, step, message in ((y, 10, "non-finite state while applying input row 10"),
                                   (nan_anchor, 0, "initial state is not finite")):
            traj = Trajectory(t=np.arange(30) * 0.01, u=u, y=y_k, x_true=y)
            with pytest.raises(IntegrationError, match=f"^{message}$") as raised:
                rollout(field, y_k[0], u, 0.01)
            assert raised.value.step_index == step
            result = evaluate(field, [traj]).per_trajectory[0]
            assert result.diverged and result.diverged_step == step
            for loss in (simulation_loss, simulation_loss_grad):
                with pytest.raises(TrainingError, match=f"^model rollout diverged: {message}$"):
                    loss(net, S, traj)


def assert_matches_central_differences(spec, n_steps, rng):
    """simulation_loss_grad of a random width-4 net on random measurements
    and inputs agrees with central differences of simulation_loss."""
    S_sys = structure_matrices(spec)
    net = random_hnet(rng, n_hidden=4, n_states=spec.n_states)
    traj = make_traj(
        rng.normal(0, 0.5, (n_steps + 1, spec.n_states)),
        rng.normal(0, 1, (n_steps + 1, spec.n_inputs)),
    )
    loss, grad = simulation_loss_grad(net, S_sys, traj)
    assert loss > 0
    theta = flatten_params(net)
    eps = 1e-5
    fd = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += eps
        down[i] -= eps
        fd[i] = (
            simulation_loss(with_params(net, up), S_sys, traj)
            - simulation_loss(with_params(net, down), S_sys, traj)
        ) / (2 * eps)
    mask = np.maximum(np.abs(grad), np.abs(fd)) > 1e-8
    rel = np.abs(grad - fd)[mask] / np.maximum(np.abs(grad), np.abs(fd))[mask]
    assert rel.max() < 1e-5


class TestSimulationLossGrad:
    @pytest.mark.parametrize("n_steps", [2, 10, 50])
    def test_matches_finite_differences(self, n_steps):
        assert_matches_central_differences(SPEC, n_steps, np.random.default_rng(10 + n_steps))

    @pytest.mark.parametrize("n_steps", [2, 10, 50])
    def test_matches_finite_differences_coupled(self, n_steps):
        # two masses with an input: a J^T block order that is wrong for
        # n = 2 shows here and nowhere in the one-mass check above
        assert_matches_central_differences(
            coupled_system(), n_steps, np.random.default_rng(110 + n_steps)
        )

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

    @pytest.mark.parametrize(
        "shapes, name",
        [
            (((0, 2), (0, 2), (0, 1)), "x"),  # an empty batch
            (((2, 3), (2, 3), (2, 1)), "x"),  # a state width other than the model's
            (((2, 2), (3, 2), (2, 1)), "dx_target"),
            (((2, 2), (2, 3), (2, 1)), "dx_target"),
            (((2, 2), (2, 2), (3, 1)), "u"),
            (((2, 2), (2, 2), (2, 2)), "u"),
        ],
    )
    @pytest.mark.parametrize("kind", ["hnn", "mlp"])
    def test_refuses_bad_shapes(self, kind, shapes, name):
        rng = np.random.default_rng(33)
        model = random_hnet(rng) if kind == "hnn" else init_blackbox_net(2, 1, 6, rng)
        x, dx, u = (np.zeros(shape) for shape in shapes)
        with pytest.raises(ValueError, match=rf"^{name} has shape"):
            derivative_loss_grad(model, S, x, dx, u)

    @pytest.mark.parametrize("kind", ["hnn", "mlp"])
    def test_gradient_matches_finite_differences(self, kind, monkeypatch):
        set_block_rows(monkeypatch, 5, 2)  # 9 rows: 4 blocks and 1 row
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


def zero_residual_rows(kind, net, x, dx, u, rows):
    """Give `rows` a residual of exactly 0 on any block cut, so each block
    meets the kernels' zero-norm branch: hnn rows whose tanh saturates
    (sech^2 and dH/dx are 0) with no input or target; mlp rows of x = u = 0
    under b1 = 0, whose field is b2."""
    if kind == "hnn":
        x[rows] = [1e3, -1e3]
        assert np.all(np.abs(np.tanh(x[rows] @ net.w1.T + net.b1)) == 1.0)
        u[rows], dx[rows] = 0.0, 0.0
        return net
    net = dataclasses.replace(net, b1=np.zeros_like(net.b1))
    x[rows], u[rows], dx[rows] = 0.0, 0.0, net.b2
    return net


class TestDerivativeBlocks:
    """The derivative batch cut into row blocks is the one-block batch up to
    the order of its sums, reads only one block's work arrays, and leaves
    fits deterministic."""

    ROWS = 4

    @pytest.mark.parametrize("n", [1, ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 5])
    @pytest.mark.parametrize("kind", ["hnn", "mlp"])
    def test_matches_one_block(self, monkeypatch, kind, n):
        rng = np.random.default_rng(300 + n)
        if kind == "hnn":
            net = random_hnet(rng, n_hidden=6)
        else:
            net = init_blackbox_net(2, 1, 6, rng)
            net = with_params(net, rng.uniform(-0.5, 0.5, flatten_params(net).size))
        x = rng.uniform(-1.0, 1.0, (n, 2))
        dx = rng.normal(size=(n, 2))
        u = rng.normal(size=(n, 1))
        w = rng.uniform(0.5, 1.5, n) / n
        net = zero_residual_rows(kind, net, x, dx, u, slice(1, None, 3))
        one_loss, one_grad = derivative_batch(net, x, dx, u, w)
        set_block_rows(monkeypatch, 6, self.ROWS)
        assert len(oehnn.train._derivative_buffers(net, S, x, u)[1]) == min(n, self.ROWS)
        loss, grad = derivative_batch(net, x, dx, u, w)
        assert abs(loss - one_loss) <= 1e-13 * one_loss
        assert rel_err(grad, one_grad) <= 1e-13
        if n <= self.ROWS:
            assert loss == one_loss and np.array_equal(grad, one_grad)

    @pytest.mark.parametrize("kind", ["hnn", "mlp"])
    def test_fits_are_bit_identical_for_every_workers(self, tiny_duffing_dataset, monkeypatch,
                                                      fit_at, kind):
        set_block_rows(monkeypatch, 8, 7)  # 120 rows: 17 blocks and 1 row
        cfg = TrainConfig(n_hidden=8, max_epochs=12, patience=12, seed=2)
        inline = fit_at(1, kind, tiny_duffing_dataset, cfg)
        helper = fit_at(2, kind, tiny_duffing_dataset, cfg)
        assert_same_bits(inline.history, helper.history)
        assert_same_bits(flatten_params(inline.model), flatten_params(helper.model))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("kind", ["hnn", "mlp"])
    def test_peak_memory_stays_below_one_full_width_array(self, kind):
        # 7500 coupled rows at width 200, as in a table run: one (7500, 200)
        # float64 array is 12 MB, and an unblocked batch holds two or three
        import tracemalloc

        rng = np.random.default_rng(320)
        S_coupled = structure_matrices(coupled_system())
        if kind == "hnn":
            net = init_hamiltonian_net(4, 200, rng)
        else:
            net = init_blackbox_net(4, 1, 200, rng)
        x, dx = rng.normal(size=(2, 7500, 4))
        u = rng.normal(size=(7500, 1))
        tracemalloc.start()
        try:
            derivative_loss_grad(net, S_coupled, x, dx, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7500 * 200 * 8


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
        rng = np.random.default_rng(41)
        traj = make_traj(rng.normal(size=(23, 2)), rng.normal(size=(23, 1)))
        lanes = oehnn.train._lanes([traj], "measured", 5)
        assert int(lanes.steps.sum()) == 22  # N-1 transitions

    @pytest.mark.parametrize("chunk, lanes_per_traj", [(50, 10), (25, 20)])
    def test_standard_split_is_one_group(self, standard_duffing_dataset,
                                         standard_coupled_dataset, chunk, lanes_per_traj):
        # 499 transitions: 9 or 19 whole segments and a tail one step short;
        # the full-horizon training and validation splits are 15 and 5 lanes
        # of all 499 steps, unpadded
        for ds in (standard_duffing_dataset, standard_coupled_dataset):
            d, m = ds.system.n_states, ds.system.n_inputs
            lanes = oehnn.train._lanes(ds.train, "measured", chunk)
            assert lanes.u.shape == (chunk, 15 * lanes_per_traj, m)
            assert lanes.y.shape == (chunk + 1, 15 * lanes_per_traj, d)
            tail = [chunk] * (lanes_per_traj - 1) + [chunk - 1]
            assert lanes.steps.tolist() == tail * 15
            for split, n_lanes in ((ds.train, 15), (ds.validation, 5)):
                lanes = oehnn.train._lanes(split, "measured")
                assert lanes.u.shape == (499, n_lanes, m)
                assert lanes.y.shape == (500, n_lanes, d)
                assert lanes.steps.tolist() == [499] * n_lanes

    def padded_tails(self, ds):
        """The tail lanes of the tiny training split cut at 10 (9 steps each,
        padded to 10), and the same segments as whole 10-sample
        trajectories, weighted as in the chunked fit."""
        lanes = oehnn.train._lanes(ds.train, "true", 10)
        assert lanes.u.shape[:2] == (10, 12)
        assert lanes.steps.tolist() == [10, 10, 10, 9] * 3
        padded = lanes_at(lanes, [3, 7, 11])
        segments = [Trajectory(t=tr.t[30:], u=tr.u[30:], y=tr.y[30:], x_true=tr.x_true[30:])
                    for tr in ds.train]
        alone = oehnn.train._lanes(segments, "true")
        assert alone.u.shape[:2] == (9, 3)
        return padded, alone._replace(weight=padded.weight)

    def test_padded_tail_scores_as_its_segment_alone(self, tiny_duffing_dataset):
        net = random_hnet(np.random.default_rng(42), n_hidden=6)
        padded, alone = self.padded_tails(tiny_duffing_dataset)
        loss, grad, diverged = oehnn.train._sim_batch(net, S, padded)
        ref_loss, ref_grad, _ = oehnn.train._sim_batch(net, S, alone)
        assert (diverged < 0).all()
        assert rel_err(loss, ref_loss) <= 1e-13
        assert rel_err(grad, ref_grad) <= 1e-13
        # a whole 25-sample trajectory padded to a 40-sample one's 39 steps
        # scores as it does alone
        train = tiny_duffing_dataset.train
        short = cut(train[1], 25)
        lanes = oehnn.train._lanes([train[0], short], "true")
        assert lanes.u.shape[:2] == (39, 2) and lanes.steps.tolist() == [39, 24]
        loss, grad, diverged = oehnn.train._sim_batch(net, S, lanes_at(lanes, [1]))
        ref_loss, ref_grad, _ = oehnn.train._sim_batch(
            net, S, oehnn.train._lanes([short], "true")
        )
        assert (diverged < 0).all()
        assert rel_err(loss, ref_loss) <= 1e-13
        assert rel_err(grad, ref_grad) <= 1e-13

    def test_death_in_the_padding_pays_no_penalty(self, tiny_duffing_dataset):
        # an input of 1e308 on the padded step kills the first tail lane
        # after its own 9 steps: it stays live and scores as its segment does
        net = random_hnet(np.random.default_rng(43), n_hidden=6)
        padded, alone = self.padded_tails(tiny_duffing_dataset)
        u = padded.u.copy()
        u[9, 0] = 1e308
        dying = padded._replace(u=u)
        xs, diverged = oehnn.train._energy_rollout(net, dying.x0, dying.u @ S.G.T, dying.h)
        assert diverged.tolist() == [10, -1, -1]
        assert (oehnn.train._lane_loss(xs, dying, diverged)[3] < 0).all()
        loss, grad, diverged = oehnn.train._sim_batch(net, S, dying)
        ref_loss, ref_grad, _ = oehnn.train._sim_batch(net, S, alone)
        assert (diverged < 0).all() and loss.max() < 1.0
        assert rel_err(loss, ref_loss) <= 1e-13
        assert rel_err(grad, ref_grad) <= 1e-13


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

    def test_chunked_fit_allocates_its_stage_record_once(self, tiny_duffing_dataset,
                                                          monkeypatch, fit_at):
        # every epoch's gradient shares one record in the shapes of the
        # training lanes: 12 lanes of 10 steps, width 6
        ds = tiny_duffing_dataset
        made, handed = [], []
        stage_record, sim_batch = oehnn.train._stage_record, oehnn.train._sim_batch

        def spy(*args, **kwargs):
            handed.append(inspect.signature(sim_batch).bind(*args, **kwargs).arguments["record"])
            return sim_batch(*args, **kwargs)

        monkeypatch.setattr(oehnn.train, "_stage_record",
                            lambda *args: made.append(stage_record(*args)) or made[-1])
        monkeypatch.setattr(oehnn.train, "_sim_batch", spy)
        cfg = TrainConfig(n_hidden=6, max_epochs=4, patience=4, chunk_length=10)
        result = fit_at(1, "oe-hnn", ds, cfg)
        assert len(result.history) == 4
        assert len(made) == 1
        assert [a.shape for a in made[0]] == [(10, 4, 12, 3), (3, 12, 6)]
        assert len(handed) == 4 and all(record is made[0] for record in handed)

    def test_stage_record_keeps_no_tanh(self):
        # the standard chunk-50 lanes: 150 lanes of 50 steps, 2 states, width
        # 200; the reverse sweep recomputes each stage's tanh, so no array
        # has both a steps axis and an n_hidden axis
        T, B, d, H = 50, 150, 2, 200
        record = oehnn.train._stage_record(T, B, d, H)
        assert not any(a.shape[0] == T and H in a.shape[1:] for a in record)
        assert sum(a.nbytes for a in record) == 8 * (4 * T * B * (d + 1) + 3 * B * H)

    @pytest.mark.parametrize("budget", [1, 2])
    @pytest.mark.parametrize("kind, chunk", [("oe-hnn", 10), ("hnn", None), ("mlp", None)])
    def test_last_epoch_gradient_is_not_checked(self, tiny_duffing_dataset, monkeypatch,
                                                fit_at, kind, chunk, budget):
        # no step follows the last epoch, so a gradient that is non-finite
        # from the last epoch on loses nothing
        cfg = TrainConfig(n_hidden=8, max_epochs=10, patience=10, chunk_length=chunk, seed=2,
                          learning_rate=0.05)
        reference = fit_at(budget, kind, tiny_duffing_dataset, cfg)
        longer = fit_at(budget, kind, tiny_duffing_dataset,
                        dataclasses.replace(cfg, max_epochs=11, patience=11))
        assert_same_bits(longer.history[:10], reference.history)
        name = "_sim_batch" if kind == "oe-hnn" else "_derivative_blocks"
        batch, calls = getattr(oehnn.train, name), []

        def poisoned(*args):
            out = list(batch(*args))
            calls.append(None)
            if len(calls) >= cfg.max_epochs:
                out[1] = out[1] * np.nan
            return tuple(out)

        monkeypatch.setattr(oehnn.train, name, poisoned)
        result = fit_at(budget, kind, tiny_duffing_dataset, cfg)
        assert len(result.history) == cfg.max_epochs
        assert_same_bits(result.history, reference.history)
        assert_same_bits(flatten_params(result.model), flatten_params(reference.model))
        assert result.best_epoch == reference.best_epoch
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("kind, split", [("oe-hnn", "train"), ("hnn", "validation")])
    def test_mixed_steps_are_named(self, tiny_duffing_dataset, kind, split):
        trajs = getattr(tiny_duffing_dataset, split)
        tr = trajs[1]
        slow = Trajectory(t=2 * tr.t, u=tr.u, y=tr.y, x_true=tr.x_true, dx_true=tr.dx_true)
        mixed = dataclasses.replace(tiny_duffing_dataset, **{split: [trajs[0], slow, *trajs[2:]]})
        with pytest.raises(ValueError, match=r"trajectory 1 \(realization 0\) has step"):
            fit(kind, mixed, TrainConfig(n_hidden=4, max_epochs=1))

    @pytest.mark.parametrize("kind, split", [("oe-hnn", "train"), ("hnn", "validation")])
    def test_later_start_shares_the_step(self, tiny_duffing_dataset, kind, split):
        # the same grid started 5 s later has a step t[1] - t[0] some ulps
        # off the first trajectory's; it is accepted and run at that step
        trajs = getattr(tiny_duffing_dataset, split)
        later = dataclasses.replace(trajs[1], t=trajs[1].t + 5.0)
        assert later.ts != trajs[0].ts
        shifted = dataclasses.replace(tiny_duffing_dataset,
                                      **{split: [trajs[0], later, *trajs[2:]]})
        cfg = TrainConfig(n_hidden=4, max_epochs=3, patience=3)
        reference = fit(kind, tiny_duffing_dataset, cfg)
        result = fit(kind, shifted, cfg)
        np.testing.assert_allclose(result.history, reference.history, rtol=1e-12)

    @pytest.mark.parametrize("kind, split", [("oe-hnn", "train"), ("hnn", "validation")])
    def test_steps_within_their_rounding_are_accepted(self, tiny_duffing_dataset, kind, split):
        # grids from t = 0: a second time raised by 1e-16 keeps its step
        # within the two trajectories' roundings, as `read_csv` accepts it
        # for one manifest, though far beyond the ulps of t[1]
        trajs = [dataclasses.replace(tr, t=np.arange(tr.n_samples) * 0.01)
                 for tr in getattr(tiny_duffing_dataset, split)]
        nudged = dataclasses.replace(trajs[1], t=trajs[1].t.copy())
        nudged.t[1] = 0.0100000000000001
        off = abs(nudged.ts - trajs[0].ts)
        assert 8 * np.spacing(0.01) < off < _step_rounding(trajs[0].t) + _step_rounding(nudged.t)
        cfg = TrainConfig(n_hidden=4, max_epochs=3, patience=3)
        reference = fit(kind, dataclasses.replace(tiny_duffing_dataset, **{split: trajs}), cfg)
        result = fit(kind, dataclasses.replace(
            tiny_duffing_dataset, **{split: [trajs[0], nudged, *trajs[2:]]}), cfg)
        # every lane steps at trajectory 0's step
        assert_same_bits(result.history, reference.history)
        slow = dataclasses.replace(trajs[1], t=2 * trajs[1].t)  # 0.02 against 0.01
        named = (rf"trajectory 1 \(realization {slow.realization}\) has step 0.02, "
                 "trajectory 0 has 0.01")
        with pytest.raises(ValueError, match=named):
            fit(kind, dataclasses.replace(
                tiny_duffing_dataset, **{split: [trajs[0], slow, *trajs[2:]]}), cfg)

    def test_empty_split_rejected(self, tiny_duffing_dataset):
        ds = dataclasses.replace(tiny_duffing_dataset, validation=[])
        with pytest.raises(DatasetFormatError, match="non-empty train and validation splits"):
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


def cut(tr, n):
    """The first n samples of a trajectory."""
    return Trajectory(t=tr.t[:n], u=tr.u[:n], y=tr.y[:n], x_true=tr.x_true[:n],
                      dx_true=tr.dx_true[:n])


def lanes_at(lanes, index):
    """The lanes `index` of a lane group, in their padded shapes."""
    return lanes._replace(
        x0=lanes.x0[index], u=lanes.u[:, index], y=lanes.y[:, index],
        weight=lanes.weight[index], steps=lanes.steps[index],
    )


def patience_stops(history):
    """(epoch, patience) of each epoch at which a smaller patience would have
    stopped the fit of this history, earliest epoch first."""
    stops = {}
    for patience in range(1, len(history)):
        best, best_epoch = np.inf, 0
        for epoch, v_loss in enumerate(history[:, 2], start=1):
            if v_loss < best:
                best, best_epoch = v_loss, epoch
            elif epoch - best_epoch >= patience:
                stops.setdefault(epoch, patience)
                break
    return sorted(stops.items())


class GradientPoison:
    """Makes a fit's training gradient non-finite in the epoch given to
    `arm`, which each fit must call first."""

    def __init__(self, monkeypatch):
        sim_batch = oehnn.train._sim_batch

        def poisoned(*args):
            lane_loss, grad, diverged = sim_batch(*args)
            self.calls += 1
            if self.calls == self.bad_epoch:
                grad = grad * np.nan
            return lane_loss, grad, diverged

        monkeypatch.setattr(oehnn.train, "_sim_batch", poisoned)

    def arm(self, bad_epoch):
        self.calls, self.bad_epoch = 0, bad_epoch


class TestWorkers:
    """The validation helper process changes where a number is computed, not
    the number. The chunk of 10 cuts the 40-sample trajectories into three
    segments of 10 steps and a padded tail of 9."""

    @pytest.mark.parametrize(
        "kind, chunk", [("oe-hnn", 10), ("oe-hnn", None), ("hnn", None), ("mlp", None)]
    )
    def test_helper_is_bit_identical_to_inline(self, tiny_duffing_dataset, fit_at, kind, chunk):
        cfg = TrainConfig(n_hidden=8, max_epochs=5, patience=5, chunk_length=chunk, seed=2)
        inline = fit_at(1, kind, tiny_duffing_dataset, cfg)
        helper = fit_at(2, kind, tiny_duffing_dataset, cfg)
        assert np.array_equal(inline.history, helper.history)
        assert np.array_equal(flatten_params(inline.model), flatten_params(helper.model))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize(
        "kind, chunk", [("oe-hnn", 10), ("oe-hnn", None), ("hnn", None), ("mlp", None)]
    )
    def test_run_ahead_settles_in_epoch_order(self, tiny_duffing_dataset, fit_at, kind, chunk):
        # stops inside a validation window and on the edges of the first and
        # the second window, when the helper holds at most one window, and a
        # run whose epoch count is not a multiple of the window; each must be
        # the prefix of the unstopped run and identical at every budget
        cfg = TrainConfig(
            n_hidden=8, max_epochs=40, patience=40, chunk_length=chunk, seed=2,
            learning_rate=0.05,
        )
        full = fit_at(1, kind, tiny_duffing_dataset, cfg).history
        stops = {}
        for patience in range(1, 40):
            best, best_epoch = np.inf, 0
            for epoch, v_loss in enumerate(full[:, 2], start=1):
                if v_loss < best:
                    best, best_epoch = v_loss, epoch
                elif epoch - best_epoch >= patience:
                    stops.setdefault(epoch, patience)
                    break
        window = oehnn.train._WINDOW
        edges = (window, 2 * window)
        inside = next(e for e in sorted(stops) if e % window)
        for edge in edges:
            assert edge in stops, "the fixture no longer stops on a window edge"
        runs = [
            (dataclasses.replace(cfg, patience=stops[inside]), inside),
            *((dataclasses.replace(cfg, patience=stops[edge]), edge) for edge in edges),
            (dataclasses.replace(cfg, max_epochs=13), 13),
        ]
        for run, n in runs:
            results = [fit_at(budget, kind, tiny_duffing_dataset, run) for budget in (1, 2)]
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

    @pytest.mark.parametrize("budget", [1, 2])
    def test_non_finite_gradient_raises_only_when_no_earlier_stop(
        self, tiny_duffing_dataset, monkeypatch, fit_at, budget
    ):
        cfg = TrainConfig(n_hidden=8, max_epochs=40, patience=3, seed=2, learning_rate=0.05)
        reference = fit_at(1, "hnn", tiny_duffing_dataset, cfg)
        stop = len(reference.history)
        assert stop < cfg.max_epochs
        derivative_blocks = oehnn.train._derivative_blocks
        for bad_epoch, stopped in ((stop - 1, False), (stop, True), (stop + 1, True)):
            calls = []

            def poisoned(*args, bad_epoch=bad_epoch, calls=calls):
                loss, grad = derivative_blocks(*args)
                calls.append(None)
                return loss, grad * np.nan if len(calls) == bad_epoch else grad

            monkeypatch.setattr(oehnn.train, "_derivative_blocks", poisoned)
            if stopped:
                result = fit_at(budget, "hnn", tiny_duffing_dataset, cfg)
                assert np.array_equal(result.history, reference.history)
                assert np.array_equal(
                    flatten_params(result.model), flatten_params(reference.model)
                )
            else:
                with pytest.raises(TrainingError, match="non-finite gradient"):
                    fit_at(budget, "hnn", tiny_duffing_dataset, cfg)
            assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("stop", ["max_epochs", "patience", "non-finite gradient"])
    def test_both_budgets_validate_the_same_windows(self, tiny_duffing_dataset, monkeypatch,
                                                    fit_at, stop):
        # the stacks the inline path validates and the helper is sent have the
        # same sizes: full windows, then the partial window of the last epoch
        # or of a non-finite gradient, and none past a patience stop
        window = oehnn.train._WINDOW
        cfg = TrainConfig(n_hidden=8, max_epochs=40, patience=8, seed=2, learning_rate=0.05)
        reference = fit_at(1, "hnn", tiny_duffing_dataset, cfg)
        n_stop, n_params = len(reference.history), flatten_params(reference.model).size
        assert window < n_stop < cfg.max_epochs and n_stop % window, \
            "the fixture no longer stops inside a window after the first"
        calls = []
        if stop == "max_epochs":
            cfg = dataclasses.replace(cfg, max_epochs=13, patience=13)
            expected = [window, 13 - window]
        elif stop == "patience":
            expected = [window] * (n_stop // window + 1)
        else:
            bad_epoch = next(e for e in range(n_stop - 1, 0, -1) if e % window)
            assert bad_epoch > window
            expected = [window] * (bad_epoch // window) + [bad_epoch % window]
            derivative_blocks = oehnn.train._derivative_blocks

            def poisoned(*args):
                loss, grad = derivative_blocks(*args)
                calls.append(None)
                return loss, grad * np.nan if len(calls) == bad_epoch else grad

            monkeypatch.setattr(oehnn.train, "_derivative_blocks", poisoned)
        val_losses, submit = oehnn.train._val_losses, oehnn.train._ValidationHelper.submit
        inline, sent = [], []

        def validated(template, thetas, *args, **kwargs):
            inline.append(len(thetas))
            return val_losses(template, thetas, *args, **kwargs)

        def submitted(helper, thetas):
            sent.append(thetas.shape)
            return submit(helper, thetas)

        monkeypatch.setattr(oehnn.train, "_val_losses", validated)
        monkeypatch.setattr(oehnn.train._ValidationHelper, "submit", submitted)
        for budget in (1, 2):
            calls.clear()
            if stop == "non-finite gradient":
                with pytest.raises(TrainingError, match="non-finite gradient"):
                    fit_at(budget, "hnn", tiny_duffing_dataset, cfg)
            else:
                fit_at(budget, "hnn", tiny_duffing_dataset, cfg)
            assert multiprocessing.active_children() == []
        assert inline == expected
        assert sent == [(k, n_params) for k in expected]

    @pytest.mark.parametrize(
        "case",
        ["9 epochs", "17 epochs", "patience stop", "non-finite gradient", "two lengths",
         "four lengths"],
    )
    def test_helper_groups_keep_the_bits(self, tiny_duffing_dataset, monkeypatch, fit_at,
                                         case):
        # every budget gives the same history, parameters and best epoch on
        # a padded chunk: a full window and then the last epoch (the
        # first-in-first-out edge), two windows and the last epoch, a patience
        # stop inside a window, a non-finite gradient inside a window; and on
        # full-horizon trajectories of two lengths and of four, padded to the
        # longest
        ds = tiny_duffing_dataset
        cfg = TrainConfig(n_hidden=8, max_epochs=17, patience=17, chunk_length=10, seed=2,
                          learning_rate=0.05)
        window = oehnn.train._WINDOW
        poison = None
        if case == "9 epochs":
            cfg = dataclasses.replace(cfg, max_epochs=9, patience=9)
        elif case == "two lengths":
            ds = dataclasses.replace(ds, train=[ds.train[0], cut(ds.train[1], 25), ds.train[2]])
            cfg = dataclasses.replace(cfg, chunk_length=None)
        elif case == "four lengths":
            train = [cut(ds.train[0], 6), cut(ds.train[1], 15), cut(ds.train[2], 25),
                     cut(ds.validation[0], 25), ds.validation[1]]
            ds = dataclasses.replace(ds, train=train)
            cfg = dataclasses.replace(cfg, chunk_length=None)
        elif case != "17 epochs":
            long = dataclasses.replace(cfg, max_epochs=40, patience=40)
            stop, patience = next(
                (e, p) for e, p in patience_stops(fit_at(1, "oe-hnn", ds, long).history)
                if e > window and e % window
            )
            cfg = dataclasses.replace(long, patience=patience)
            if case == "non-finite gradient":
                poison = GradientPoison(monkeypatch)
        results = []
        for budget in (1, 2):
            if poison is not None:
                poison.arm(stop)  # the patience stop at this epoch wins
            results.append(fit_at(budget, "oe-hnn", ds, cfg))
            assert multiprocessing.active_children() == []
        for other in results[1:]:
            assert_same_bits(other.history, results[0].history)
            assert_same_bits(flatten_params(other.model), flatten_params(results[0].model))
            assert other.best_epoch == results[0].best_epoch
        if case in ("patience stop", "non-finite gradient"):
            assert len(results[0].history) == stop
        if poison is not None:
            # at an earlier epoch inside a window, every budget refuses it
            for budget in (1, 2):
                poison.arm(next(e for e in range(stop - 1, 0, -1) if e % window))
                with pytest.raises(TrainingError, match="non-finite gradient"):
                    fit_at(budget, "oe-hnn", ds, cfg)
                assert multiprocessing.active_children() == []

    def test_helper_stopped_after_first_epoch_error(self, tiny_duffing_dataset, fit_at):
        rng = np.random.default_rng(51)
        net = random_hnet(rng)
        traj = self_generated_traj(net, np.array([0.1, 0.0]), 20, rng=rng)
        bad_y = traj.y.copy()
        bad_y[0] = np.inf
        bad = Trajectory(t=traj.t, u=traj.u, y=bad_y)
        ds = dataclasses.replace(tiny_duffing_dataset, train=[bad], validation=[traj], test=[])
        with pytest.raises(TrainingError, match="every training rollout diverged"):
            fit_at(2, "oe-hnn", ds, TrainConfig(n_hidden=4, max_epochs=3, patience=3))
        assert multiprocessing.active_children() == []

    def test_helper_death_is_training_error(self, tiny_duffing_dataset, monkeypatch, fit_at):
        # only validation reaches _lane_loss in an hnn fit, so only the forked
        # helper (which inherits the patch) exits
        monkeypatch.setattr(oehnn.train, "_lane_loss", lambda *args: os._exit(3))
        cfg = TrainConfig(n_hidden=4, max_epochs=3, patience=3)
        with pytest.raises(TrainingError, match=r"validation helper .*\(exit code 3\)"):
            fit_at(2, "hnn", tiny_duffing_dataset, cfg)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("kind, chunk", [("oe-hnn", 10), ("hnn", None)])
    def test_fit_in_a_pool_worker_validates_inline(self, tiny_duffing_dataset, process_budget,
                                                   fit_at, kind, chunk):
        # a daemonic pool worker may not fork the helper, whatever the budget
        cfg = TrainConfig(n_hidden=8, max_epochs=5, patience=5, chunk_length=chunk, seed=2)
        inline = fit_at(1, kind, tiny_duffing_dataset, cfg)
        process_budget(2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            pooled = pool.apply(fit, (kind, tiny_duffing_dataset, cfg))
        assert np.array_equal(inline.history, pooled.history)
        assert np.array_equal(flatten_params(inline.model), flatten_params(pooled.model))
        assert multiprocessing.active_children() == []


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
        lanes = oehnn.train._lanes(trajs, "measured")
        _, batched, _ = oehnn.train._sim_batch(net, S, lanes)
        assert np.allclose(batched, np.sum(grads, axis=0), atol=1e-12)

    def test_full_horizon_takes_trajectories_of_two_lengths(self, tiny_duffing_dataset):
        # lanes padded to the longest trajectory: the fit's loss is still the
        # sum of the per-trajectory losses, and `evaluate` still scores each
        # trajectory as a rollout of its own
        from oehnn.evaluate import evaluate, model_field

        ds = tiny_duffing_dataset
        train = [ds.train[0], cut(ds.train[1], 25), ds.train[2]]
        validation = [cut(ds.validation[0], 31), ds.validation[1]]
        mixed = dataclasses.replace(ds, train=train, validation=validation)
        net = random_hnet(np.random.default_rng(62), n_hidden=6)
        cfg = TrainConfig(n_hidden=6, max_epochs=1, patience=1)
        epoch = fit("oe-hnn", mixed, cfg, initial_model=net).history[0]
        assert epoch[1] == pytest.approx(sum(simulation_loss(net, S, tr) for tr in train),
                                         rel=1e-12)
        assert epoch[2] == pytest.approx(sum(simulation_loss(net, S, tr) for tr in validation),
                                         rel=1e-12)
        for field, exact in ((field_fn(SPEC), True), (model_field(net, S), False)):
            metrics = evaluate(field, train, anchor="true")
            for tr, res in zip(train, metrics.per_trajectory):
                alone = evaluate(field, [tr], anchor="true").per_trajectory[0].rmse
                if exact:  # a lane of the true field has the bits of its rollout alone
                    assert np.array_equal(res.rmse, alone)
                else:
                    assert np.allclose(res.rmse, alone, rtol=1e-12, atol=0.0)
                    assert rel_err(res.rmse, alone) <= 1e-13


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


def reference_grad_vjp(net, xa, th, w, acc, scratch):
    """The parameter VJP as first written: a = w @ w1.T, s = sech^2, s' =
    -2 tanh sech^2; returns (w2 * s') * a, whose product with w1 is the state
    pullback. It takes the rows [x, 1] as `_grad_vjp` does and reads x off
    them; it allocates its own arrays and ignores `scratch`."""
    x = xa[:, :-1]
    s = 1.0 - th**2
    sp = -2.0 * th * s
    a = w @ net.w1.T
    acc.w2[...] += np.einsum("bh,bh->h", a, s)
    acc.b1[...] += net.w2 * np.einsum("bh,bh->h", a, sp)
    acc.w1[...] += (s * net.w2).T @ w + (a * sp * net.w2).T @ x
    return (net.w2 * sp) * a


def reference_buffered_grad_vjp(net, x, th, w, acc, scratch):
    """The parameter VJP before its net factors were cached: the same
    arithmetic as `_grad_vjp`, with (w1 * -2 w2[:, None]).T and w2[:, None]
    formed at every call and the b1 gradient summed on its own."""
    s, p = scratch
    s = np.multiply(th, th, out=s)
    np.subtract(1.0, s, out=s)
    sw = s.T @ w
    s *= th
    p = np.matmul(w, (net.w1 * (-2.0 * net.w2)[:, None]).T, out=p)
    p *= s
    acc.w2[...] += (sw * net.w1).sum(axis=1)
    acc.b1[...] += p.sum(axis=0)
    acc.w1[...] += sw * net.w2[:, None] + p.T @ x
    return p


def reference_rk4_stages(field, x0, u, h, stages):
    """`rk4_lanes` with a stage record, as the integrator once kept it: k1..k3
    of every step go to stages[0], (T, 3, B, d), `field` fills the rest, and
    at the step a lane dies its rows in every record array are zeroed. It
    steps every lane to the end, dead ones from zero."""
    x = np.asarray(x0, dtype=float)
    diverged = np.where(np.isfinite(x).all(axis=1), -1, 0)
    x = np.where(diverged[:, None] < 0, x, 0.0)
    states = [x]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(len(u)):
            k1 = field(x, u[k])
            k2 = field(x + (h / 2.0) * k1, u[k])
            k3 = field(x + (h / 2.0) * k2, u[k])
            k4 = field(x + h * k3, u[k])
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            stages[0][k] = k1, k2, k3
            bad = ~np.isfinite(x).all(axis=1)
            diverged[bad & (diverged < 0)] = k + 1
            x = np.where(bad[:, None], 0.0, x)
            for record in stages:
                record[k][:, bad] = 0.0
            states.append(x)
    return np.array(states), diverged


def reference_sim_batch(net, S, lanes, want_grad):
    """`_sim_batch` before its stage record could be handed in: it allocates
    the record every call, its own RK4 loop records k1..k3 and the field
    writes w1 @ x + b1 into the record slot and takes its tanh there, the
    rows of a lane zeroed at the step it dies, and the reverse sweep forms
    every step's residual scale, stage states and VJP factors inside its
    loop. `_sim_batch` must give the same bits."""
    x0, h, weight = lanes.x0, lanes.h, lanes.weight
    gu = lanes.u @ S.G.T
    n_steps, B, d = gu.shape
    n = d // 2
    scratch = (np.empty((B, net.n_hidden)), np.empty((B, net.n_hidden)) if want_grad else None)
    if want_grad:
        ks = np.empty((n_steps, 3, B, d))
        ths = np.empty((n_steps, 4, B, net.n_hidden))
        slots = iter(ths.reshape(4 * n_steps, B, net.n_hidden))
        stages = (ks, ths)
    else:
        slots, stages = repeat(None), None

    def field(x, g_in):
        th = np.matmul(x, net.w1.mT, out=next(slots))
        th += net.b1
        np.tanh(th, out=th)
        s = np.multiply(th, th, out=scratch[0])
        np.subtract(1.0, s, out=s)
        s *= net.w2
        return _j_apply(s @ net.w1, n) + g_in

    def stage_vjp(x, th, v):
        return reference_buffered_grad_vjp(net, x, th, _j_apply(-v, n), acc, scratch) @ net.w1

    if want_grad:
        xs, diverged = reference_rk4_stages(field, x0, gu, h, stages)
    else:
        xs, diverged = rk4_lanes(field, x0, gu, h)
    lane_loss, resid, norms, diverged = oehnn.train._lane_loss(xs, lanes, diverged)
    if not want_grad:
        return lane_loss, None, diverged
    acc = zero_grad(net)
    lam = np.zeros((B, d))
    live_w = np.where(diverged < 0, weight, 0.0)
    for k in range(n_steps, 0, -1):
        nk = norms[k - 1]
        scale = np.where(nk > 0.0, live_w / np.maximum(nk, 1e-300), 0.0)
        lam = lam + scale[:, None] * resid[k - 1]
        x = xs[k - 1]
        k1, k2, k3 = ks[k - 1]
        th1, th2, th3, th4 = ths[k - 1]
        x2 = x + (h / 2.0) * k1
        x3 = x + (h / 2.0) * k2
        x4 = x + h * k3
        x4_bar = stage_vjp(x4, th4, (h / 6.0) * lam)
        x3_bar = stage_vjp(x3, th3, (h / 3.0) * lam + h * x4_bar)
        x2_bar = stage_vjp(x2, th2, (h / 3.0) * lam + (h / 2.0) * x3_bar)
        x1_bar = stage_vjp(x, th1, (h / 6.0) * lam + (h / 2.0) * x2_bar)
        lam = lam + x4_bar + x3_bar + x2_bar + x1_bar
    return lane_loss, flatten_params(acc), diverged


def zero_grad(net):
    """A gradient accumulator as the package builds one: a net of zeros."""
    return with_params(net, np.zeros_like(flatten_params(net)))


def assert_same_bits(new, ref):
    """Equal arrays of equal dtype and shape, byte for byte: signed zeros
    and NaN payloads included."""
    new, ref = np.asarray(new), np.asarray(ref)
    assert new.dtype == ref.dtype and new.shape == ref.shape
    assert new.tobytes() == ref.tobytes()


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


def saturated_hnet(rng, n_hidden, n_states=2):
    # |w1 x + b1| is about 20 for states of order one, so tanh is +-1 or
    # within a few ulps of it, and sech^2 is 0 or a few ulps
    net = random_hnet(rng, n_hidden=n_hidden, n_states=n_states)
    b1 = rng.choice([-1.0, 1.0], n_hidden) * rng.uniform(17.0, 21.0, n_hidden)
    return dataclasses.replace(net, b1=b1)


def set_block_rows(monkeypatch, n_hidden, rows):
    """Make a derivative block of a width-`n_hidden` net hold `rows` rows."""
    monkeypatch.setattr(oehnn.train, "_BLOCK_ELEMENTS", rows * n_hidden)


def derivative_batch(net, x, dx, u, w, buffers=None):
    """The derivative batch as `fit` runs it, on fresh buffers when none are handed."""
    buffers = buffers or oehnn.train._derivative_buffers(net, S, x, u)
    return oehnn.train._derivative_blocks(net, dx, w, buffers)


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
        (xa,) = frozen(_with_ones(x))
        th, th_both, s = np.full((3, 5, 7), np.nan)
        g = oehnn.train._energy_kernel(net, xa, net.w1, th)
        assert np.array_equal(th, np.tanh(x @ net.w1.T + net.b1))
        assert np.array_equal(g, h_grad_x(net, x))
        assert np.array_equal(g, reference_h_grad_x(net, x))
        # with a scratch array for the pre-activation, the slot still gets
        # exactly tanh and the gradient keeps its bits
        assert_same_bits(oehnn.train._energy_kernel(net, xa, net.w1, th_both, s), g)
        assert_same_bits(th_both, th)

    def test_vjp_writes_neither_states_record_nor_cotangent(self):
        rng = np.random.default_rng(71)
        net = random_hnet(rng, n_hidden=7)
        x, v = frozen(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)))
        (xa,) = frozen(_with_ones(x))
        accs = [zero_grad(net) for _ in range(2)]
        pulls = [oehnn.train._stage_vjp(net, xa, v, 1, acc, np.empty((3, 5, 7)))
                 for acc in accs]
        assert np.array_equal(pulls[0], pulls[1])
        assert np.array_equal(flatten_params(accs[0]), flatten_params(accs[1]))

    def test_simulation_gradient_leaves_inputs_and_repeats(self, tiny_duffing_dataset):
        net = random_hnet(np.random.default_rng(72), n_hidden=6)
        lanes = oehnn.train._lanes(tiny_duffing_dataset.train, "measured", 10)
        x0, u, y, w = frozen(lanes.x0, lanes.u, lanes.y, lanes.weight)
        lanes = lanes._replace(x0=x0, u=u, y=y, weight=w)
        runs = [oehnn.train._sim_batch(net, S, lanes) for _ in range(2)]
        for a, b in zip(*runs):
            assert np.array_equal(a, b)
        traj = tiny_duffing_dataset.train[0]
        first, second = simulation_loss_grad(net, S, traj), simulation_loss_grad(net, S, traj)
        assert first[0] == second[0] and np.array_equal(first[1], second[1])

    def test_simulation_gradient_ignores_stale_buffers(self, tiny_duffing_dataset, monkeypatch):
        # a gradient reads the stage record it is handed, as `fit` shares one
        # across its epochs: a record filled with NaN, then one that another
        # net's call has just filled, give the bits of a record the call
        # allocates itself
        lanes = oehnn.train._lanes(tiny_duffing_dataset.train, "measured", 10)
        rng = np.random.default_rng(76)
        nets = [random_hnet(rng, n_hidden=6) for _ in range(2)]
        record = oehnn.train._stage_record(*lanes.u.shape[:2], 2, 6)
        for arr in record:
            arr.fill(np.nan)
        for net in nets:
            fresh = oehnn.train._sim_batch(net, S, lanes)
            stale = oehnn.train._sim_batch(net, S, lanes, record)
            for a, b in zip(stale, fresh):
                assert_same_bits(a, b)
        # the forward alone keeps no record, and its two scratch arrays come
        # from one np.empty: hand it the values another net's call left
        args = (lanes.x0, lanes.u @ S.G.T, lanes.h)
        fresh = oehnn.train._energy_rollout(nets[0], *args)
        handed = []
        monkeypatch.setattr(oehnn.train, "np", NumpyWithEmpty(
            lambda shape: handed.append(np.empty(shape)) or handed[-1]
        ))
        oehnn.train._energy_rollout(nets[1], *args)
        assert len(handed) == 1
        monkeypatch.setattr(oehnn.train, "np", NumpyWithEmpty(lambda shape: handed.pop(0)))
        stale = oehnn.train._energy_rollout(nets[0], *args)
        monkeypatch.undo()
        assert not handed
        assert_same_bits(stale[0], fresh[0])
        assert_same_bits(stale[1], fresh[1])

    def test_hnn_batch_leaves_inputs_and_repeats(self, tiny_duffing_dataset, monkeypatch):
        net = random_hnet(np.random.default_rng(73), n_hidden=6)
        x, dx, u = frozen(*oehnn.train._derivative_training_set(
            tiny_duffing_dataset.train, "fd", tiny_duffing_dataset.ts
        )[:3])
        (w,) = frozen(np.full(len(x), 1.0 / len(x)))
        set_block_rows(monkeypatch, 6, 7)  # 120 rows: 17 blocks and 1 row
        runs = [derivative_batch(net, x, dx, u, w) for _ in range(2)]
        assert runs[0][0] == runs[1][0] and np.array_equal(runs[0][1], runs[1][1])

    def test_mlp_batch_leaves_inputs_and_repeats(self, tiny_duffing_dataset, monkeypatch):
        net = init_blackbox_net(2, 1, 6, np.random.default_rng(73))
        x, dx, u = frozen(*oehnn.train._derivative_training_set(
            tiny_duffing_dataset.train, "fd", tiny_duffing_dataset.ts
        )[:3])
        (w,) = frozen(np.full(len(x), 1.0 / len(x)))
        set_block_rows(monkeypatch, 6, 7)
        runs = [derivative_batch(net, x, dx, u, w) for _ in range(2)]
        assert runs[0][0] == runs[1][0] and np.array_equal(runs[0][1], runs[1][1])

    @pytest.mark.parametrize("kind", ["hnn", "mlp"])
    def test_derivative_batch_ignores_stale_buffers(self, tiny_duffing_dataset, monkeypatch,
                                                    kind):
        # buffers that another model's batch, or an earlier block, has just
        # filled give the bits of fresh ones, as when `fit` reuses them from
        # one block and epoch to the next
        rng = np.random.default_rng(75)
        x, dx, u, w = oehnn.train._derivative_training_set(
            tiny_duffing_dataset.train, "fd", tiny_duffing_dataset.ts
        )
        if kind == "hnn":
            nets = [random_hnet(rng, n_hidden=6) for _ in range(2)]
        else:
            nets = [init_blackbox_net(2, 1, 6, rng) for _ in range(2)]
        for block_rows in (len(x), 7):  # one block, then 17 blocks and 1 row
            set_block_rows(monkeypatch, 6, block_rows)
            stale = oehnn.train._derivative_buffers(nets[0], S, x, u)
            assert len(stale[1]) == block_rows
            for arr in stale[1:]:
                arr.fill(np.nan)
            # the first net runs on NaN, the second on the first net's values
            for net in nets:
                loss, grad = derivative_batch(net, x, dx, u, w, stale)
                fresh_loss, fresh_grad = derivative_batch(net, x, dx, u, w)
                assert loss == fresh_loss and np.array_equal(grad, fresh_grad)

    @pytest.mark.parametrize("saturated", [False, True], ids=["moderate", "saturated"])
    def test_matches_the_closed_form(self, tiny_duffing_dataset, monkeypatch, saturated):
        rng = np.random.default_rng(74)
        net = saturated_hnet(rng, 9) if saturated else random_hnet(rng, n_hidden=9)
        x = rng.normal(size=(40, 2))
        assert rel_err(h_grad_x(net, x), reference_h_grad_x(net, x)) <= 1e-12
        lanes = oehnn.train._lanes(tiny_duffing_dataset.train, "measured")
        xf, dxf, uf, wf = oehnn.train._derivative_training_set(
            tiny_duffing_dataset.train, "fd", tiny_duffing_dataset.ts
        )
        new = [
            oehnn.train._sim_batch(net, S, lanes)[:2],
            derivative_batch(net, xf, dxf, uf, wf),
        ]
        monkeypatch.setattr(oehnn.train, "_grad_vjp", reference_grad_vjp)
        ref = [
            oehnn.train._sim_batch(net, S, lanes)[:2],
            derivative_batch(net, xf, dxf, uf, wf),
        ]
        for (loss, grad), (ref_loss, ref_grad) in zip(new, ref):
            assert np.array_equal(loss, ref_loss)  # the forward is the same arithmetic
            assert_blocks_match(grad, ref_grad, 9, 1e-12)

    def test_matches_the_closed_form_at_benchmark_shape(self, standard_duffing_dataset,
                                                        monkeypatch):
        # 15 trajectories of 500 samples cut at 50: 150 lanes of 50 steps, the
        # last of each trajectory a padded tail of 49, width 200
        ds = standard_duffing_dataset
        lanes = oehnn.train._lanes(ds.train, "measured", 50)
        assert lanes.u.shape[:2] == (50, 150)
        net = init_hamiltonian_net(2, 200, np.random.default_rng(41))
        loss, grad, _ = oehnn.train._sim_batch(net, S, lanes)
        monkeypatch.setattr(oehnn.train, "_grad_vjp", reference_grad_vjp)
        ref_loss, ref_grad, _ = oehnn.train._sim_batch(net, S, lanes)
        assert np.array_equal(loss, ref_loss)
        assert_blocks_match(grad, ref_grad, 200, 1e-13)


class TestFoldedKernel:
    """The kernel's folded GEMMs, rows [x, 1] against [w1.T; b1] and w1 with
    J folded in, give the bits of the closed form followed by J at the shapes
    the package runs: 2 and 4 states at 1, 5, 15, 135, 150 and 7500 rows,
    plain and stacked, and at the derivative batch's 306 and 327 rows, plain.
    The VJP's GEMM p.T @ [x, 1] gives the bits of p.T @ x and of p's column
    sums at 1, 5, 15, 135, 150, 306 and 327 rows."""

    @pytest.mark.parametrize("B", [1, 5, 15, 135, 150, 306, 327, 7500])
    @pytest.mark.parametrize("system", ["duffing", "coupled"])
    def test_plain(self, system, B):
        spec = SPEC if system == "duffing" else coupled_system()
        S_sys, d = structure_matrices(spec), spec.n_states
        rng = np.random.default_rng(100 + B + d)
        net = random_hnet(rng, n_hidden=200, n_states=d)
        x, u = rng.normal(size=(B, d)), rng.normal(size=(B, spec.n_inputs))
        ref = reference_h_grad_x(net, x)
        j_ref = _j_apply(ref, d // 2)
        assert_same_bits(oehnn.train._energy_kernel(net, _with_ones(x), net.w1_j), j_ref)
        assert_same_bits(h_grad_x(net, x), ref)
        # the learned field of `evaluate` and `simulate`
        assert_same_bits(oe_hnn_field(net, S_sys, x, u), j_ref + u @ S_sys.G.T)

    @pytest.mark.parametrize("B", [1, 5, 15, 135, 150, 7500])
    @pytest.mark.parametrize("d", [2, 4])
    def test_stacked(self, d, B):
        K = 8
        width = 200 if B < 7500 else 40  # keeps each (K, B, width) array near 20 MB
        rng = np.random.default_rng(200 + B + d)
        template = init_hamiltonian_net(d, width, rng)
        thetas = rng.uniform(-0.5, 0.5, (K, flatten_params(template).size))
        stacked = with_params(template, thetas)
        x = rng.normal(size=(K, B, d))
        out = oehnn.train._energy_kernel(stacked, _with_ones(x), stacked.w1_j)
        for k in range(K):
            member = with_params(template, thetas[k])
            assert_same_bits(out[k], _j_apply(reference_h_grad_x(member, x[k]), d // 2))

    @pytest.mark.parametrize("B", [1, 5, 15, 135, 150, 306, 327])
    @pytest.mark.parametrize("d", [2, 4])
    def test_vjp(self, d, B):
        rng = np.random.default_rng(300 + B + d)
        net = random_hnet(rng, n_hidden=200, n_states=d)
        x, w = rng.normal(size=(B, d)), rng.normal(size=(B, d))
        th = np.tanh(x @ net.w1.T + net.b1)
        accs = [zero_grad(net) for _ in range(2)]
        for _ in range(2):  # the second call adds onto the first's gradients
            p = oehnn.train._grad_vjp(net, _with_ones(x), th, w, accs[0], np.empty((2, B, 200)))
            ref = reference_buffered_grad_vjp(net, x, th, w, accs[1], np.empty((2, B, 200)))
            assert_same_bits(p, ref)
            assert_same_bits(flatten_params(accs[0]), flatten_params(accs[1]))


def with_dead_lanes(lanes):
    """A copy in which lane 0 is dead at step 0 (a NaN anchor) and lane 1
    dies mid-rollout (an input of 1e308 at its middle step)."""
    x0, u = lanes.x0.copy(), lanes.u.copy()
    x0[0, 0] = np.nan
    u[len(u) // 2, 1] = 1e308
    return lanes._replace(x0=x0, u=u)


class TestReverseSweepBits:
    """`_sim_batch` gives the bits of `reference_sim_batch`, with a record it
    allocates and with one, filled with NaN, that it is handed."""

    def check(self, net, S_sys, lanes):
        ref = reference_sim_batch(net, S_sys, lanes, True)
        record = oehnn.train._stage_record(*lanes.u.shape[:2], len(lanes.x0[0]), net.n_hidden)
        for arr in record:
            arr.fill(np.nan)
        for handed in (None, record):
            new = oehnn.train._sim_batch(net, S_sys, lanes, handed)
            for a, b in zip(new, ref):
                assert_same_bits(a, b)
        # the forward alone, as `simulation_loss` runs it
        xs, diverged = oehnn.train._energy_rollout(net, lanes.x0, lanes.u @ S_sys.G.T, lanes.h)
        lane_loss, _, _, diverged = oehnn.train._lane_loss(xs, lanes, diverged)
        assert_same_bits(lane_loss, ref[0])
        assert_same_bits(diverged, ref[2])
        return ref

    @pytest.mark.parametrize("saturated", [False, True], ids=["moderate", "saturated"])
    @pytest.mark.parametrize("system", ["duffing", "coupled"])
    def test_matches_the_reference(
        self, tiny_duffing_dataset, tiny_coupled_dataset, system, saturated
    ):
        ds = tiny_duffing_dataset if system == "duffing" else tiny_coupled_dataset
        S_sys = structure_matrices(ds.system)
        d = ds.system.n_states
        rng = np.random.default_rng(90)
        net = saturated_hnet(rng, 9, d) if saturated else random_hnet(rng, 9, n_states=d)
        for lanes in (oehnn.train._lanes(ds.train, "measured", 10),
                      oehnn.train._lanes(ds.train, "measured")):
            _, grad, diverged = self.check(net, S_sys, lanes)
            assert (diverged < 0).all() and np.abs(grad).max() > 0.0
            _, _, diverged = self.check(net, S_sys, with_dead_lanes(lanes))
            assert diverged[0] == 0 and diverged[1] == len(lanes.u) // 2 + 1
            assert (diverged[2:] < 0).all()

    def test_matches_the_reference_at_benchmark_shape(self, standard_duffing_dataset):
        lanes = oehnn.train._lanes(standard_duffing_dataset.train, "measured", 50)
        assert lanes.u.shape[:2] == (50, 150)
        net = init_hamiltonian_net(2, 200, np.random.default_rng(42))
        self.check(net, S, lanes)


def one_model_val_loss(net, kind, S, lanes):
    """Validation loss of one model, as `fit` computed it before validation
    was stacked: one rollout, on the reference forward for the energy net,
    lane losses summed."""
    if kind == "mlp":
        def field(x, u):
            return _blackbox_rows(net, np.concatenate([x, u], axis=-1))

        xs, diverged = rk4_lanes(field, lanes.x0, lanes.u, lanes.h)
        lane_loss = oehnn.train._lane_loss(xs, lanes, diverged)[0]
    else:
        lane_loss = reference_sim_batch(net, S, lanes, False)[0]
    return float(lane_loss.sum())


@pytest.fixture(scope="module")
def tiny_coupled_dataset():
    n_train, n_val, n_test = TINY_PROTOCOL.split
    return config_dataset(
        system="coupled", n_realizations=TINY_PROTOCOL.n_realizations,
        n_samples=TINY_PROTOCOL.n_samples, t_start=TINY_PROTOCOL.t_start,
        n_train=n_train, n_val=n_val, n_test=n_test, master_seed=42,
    )


class TestStackedValidation:
    """K parameter vectors validated in one stacked rollout, K = 1 included:
    each member's loss has the bits of validating that model alone."""

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
        for trajs in (ds.validation[:1], ds.validation):
            lanes = oehnn.train._lanes(trajs, "measured")
            losses = oehnn.train._val_losses(template, thetas, S_sys, lanes)
            assert len(losses) == K
            for k, loss in enumerate(losses):
                net = with_params(template, thetas[k])
                assert loss == one_model_val_loss(net, kind, S_sys, lanes)
            if diverging is not None:
                assert losses[diverging] == oehnn.train.DIVERGENCE_PENALTY * len(trajs)
