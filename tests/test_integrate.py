import numpy as np
import pytest

from oehnn.dynamics import (
    coupled_system,
    duffing_system,
    field_fn,
    hamiltonian_fn,
    structure_matrices,
)
from oehnn.integrate import IntegrationError, rk4_lanes, rollout
from oehnn.netmodel import (
    HamiltonianNet,
    flatten_params,
    h_value,
    init_hamiltonian_net,
    oe_hnn_field,
    with_params,
)


class TestStep:
    """Single RK4 steps, as two-sample rollouts."""

    def test_zero_field(self):
        out = rollout(lambda x, u: np.zeros_like(x), [1.0, 2.0], np.zeros((2, 1)), 0.1)[1]
        assert np.array_equal(out, [1.0, 2.0])

    def test_exponential_decay_matches_taylor(self):
        # RK4 on xdot = -x reproduces the degree-4 Taylor polynomial of exp(-h)
        h = 0.1
        out = rollout(lambda x, u: -x, [1.0], np.zeros((2, 1)), h)[1]
        expected = 1.0 - h + h**2 / 2 - h**3 / 6 + h**4 / 24
        assert out[0] == pytest.approx(expected, abs=1e-15)
        assert out[0] == pytest.approx(0.9048375, abs=1e-9)

    def test_harmonic_rotation(self):
        h = 0.01
        field = lambda x, u: np.stack([x[:, 1], -x[:, 0]], axis=1)  # noqa: E731
        out = rollout(field, [1.0, 0.0], np.zeros((2, 1)), h)[1]
        assert np.max(np.abs(out - [np.cos(h), -np.sin(h)])) < 1e-10

    def test_non_finite_detected(self):
        with pytest.raises(IntegrationError) as excinfo:
            rollout(lambda x, u: x * np.inf, [1.0], np.zeros((2, 1)), 0.1)
        assert excinfo.value.step_index == 0

    def test_bad_step_size(self):
        with pytest.raises(ValueError):
            rollout(lambda x, u: -x, [1.0], np.zeros((2, 1)), -0.1)


class TestRollout:
    def test_zero_field_constant(self):
        states = rollout(lambda x, u: np.zeros_like(x), [1.0, -2.0], np.zeros((9, 1)), 0.05)
        assert states.shape == (9, 2)
        assert np.array_equal(states, np.tile([1.0, -2.0], (9, 1)))

    def test_first_row_is_x0(self):
        states = rollout(lambda x, u: -x, [3.0], np.zeros((5, 1)), 0.1)
        assert states[0, 0] == 3.0

    def test_exponential_decay_endpoint(self):
        states = rollout(lambda x, u: -x, [1.0], np.zeros((101, 1)), 0.01)
        assert abs(states[-1, 0] - np.exp(-1.0)) < 1e-8

    def test_duffing_energy_drift(self):
        spec = duffing_system()
        states = rollout(field_fn(spec), [0.1, 0.0], np.zeros((501, 1)), 0.01)
        energies = hamiltonian_fn(spec)(states)
        assert np.max(np.abs(energies - energies[0])) < 1e-9

    def test_determinism(self):
        spec = duffing_system()
        rng = np.random.default_rng(0)
        u = rng.normal(0, 0.2, (200, 1))
        a = rollout(field_fn(spec), [0.2, -0.1], u, 0.01)
        b = rollout(field_fn(spec), [0.2, -0.1], u, 0.01)
        assert np.array_equal(a, b)

    def test_divergence_carries_step_index(self):
        # softening spring blows up in finite time from far outside the well
        spec = duffing_system()
        with pytest.raises(IntegrationError) as excinfo:
            rollout(field_fn(spec), [30.0, 0.0], np.zeros((2000, 1)), 0.01)
        assert excinfo.value.step_index is not None
        assert 0 < excinfo.value.step_index < 2000

    def test_non_finite_initial_state(self):
        with pytest.raises(IntegrationError) as excinfo:
            rollout(lambda x, u: -x, [np.nan], np.zeros((4, 1)), 0.01)
        assert excinfo.value.step_index == 0

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            rollout(lambda x, u: -x, [1.0], np.zeros((0, 1)), 0.01)


def test_observed_convergence_order():
    # halving the step on the unforced oscillator divides the endpoint error
    # by about 2**4
    spec = duffing_system()
    truth = field_fn(spec)
    x0 = [0.9, 0.0]
    t_end = 5.0
    reference = rollout(truth, x0, np.zeros((int(t_end / 0.000625) + 1, 1)), 0.000625)[-1]
    errors = []
    for h in (0.02, 0.01, 0.005, 0.0025):
        states = rollout(truth, x0, np.zeros((int(t_end / h) + 1, 1)), h)
        errors.append(np.linalg.norm(states[-1] - reference))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 3.8) and np.all(orders < 4.2)


def lane_batch(spec, n_lanes, n_steps, seed):
    rng = np.random.default_rng(seed)
    x0 = rng.uniform(-0.2, 0.2, (n_lanes, spec.n_states))
    u = rng.normal(0.0, 0.1, (n_steps, n_lanes, spec.n_inputs))
    return x0, u


class TestLanes:
    @pytest.mark.parametrize("spec", [duffing_system(), coupled_system()], ids=["duffing", "coupled"])
    def test_true_field_lane_independent_of_batch(self, spec):
        x0, u = lane_batch(spec, 6, 300, seed=3)
        field = field_fn(spec)
        full = rk4_lanes(field, x0, u, 0.01)[0]
        subset = [4, 1, 3]
        part = rk4_lanes(field, x0[subset], u[:, subset], 0.01)[0]
        assert np.array_equal(part, full[:, subset])
        for lane in range(6):
            alone = rollout(field, x0[lane], np.concatenate([u[:, lane], u[-1:, lane]]), 0.01)
            assert np.array_equal(alone, full[:, lane])

    def test_dead_lane_zeroed_and_reported(self):
        spec = duffing_system()
        x0, u = lane_batch(spec, 3, 400, seed=4)
        x0[1] = [30.0, 0.0]  # escapes the softening well and blows up
        states, diverged = rk4_lanes(field_fn(spec), x0, u, 0.01)
        assert diverged[0] == diverged[2] == -1
        assert 0 < diverged[1] < 400
        assert np.all(np.isfinite(states[: diverged[1], 1]))
        assert np.array_equal(states[diverged[1], 1], [0.0, 0.0])
        live = rk4_lanes(field_fn(spec), x0[[0, 2]], u[:, [0, 2]], 0.01)[0]
        assert np.array_equal(live, states[:, [0, 2]])

    def test_all_dead_stops_with_zero_states(self):
        calls = []

        def field(x, u):
            calls.append(1)
            return x * np.inf

        states, diverged = rk4_lanes(field, np.array([[1.0], [np.nan]]), np.zeros((50, 2, 1)), 0.1)
        assert list(diverged) == [1, 0]
        assert len(calls) == 4
        assert np.array_equal(states[0], [[1.0], [0.0]])
        assert np.array_equal(states[1:], np.zeros((50, 2, 1)))

    def test_whole_array_test_finds_every_dead_lane(self):
        # lanes die at step 0, two at step 3 and one at step 6; against a
        # stepper that tests every lane at every step, the states and the
        # diverged steps keep their bits, dead states zeroed
        x0 = np.array([[1.0, -2.0], [np.nan, 3.0], [0.5, 0.5], [2.0, 1.0], [-1.0, 0.0]])
        u = np.ones((8, 5, 1))
        u[2, [2, 3]] = np.inf
        u[5, 4] = 1e308

        def field(x, uk):
            return -x + uk

        dead = ~np.isfinite(x0).all(axis=1)
        x, ref_diverged = np.where(dead[:, None], 0.0, x0), np.where(dead, 0, -1)
        ref_states = [x]
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(len(u)):
                k1 = field(x, u[k])
                k2 = field(x + (0.1 / 2.0) * k1, u[k])
                k3 = field(x + (0.1 / 2.0) * k2, u[k])
                k4 = field(x + 0.1 * k3, u[k])
                x = x + (0.1 / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                bad = ~np.isfinite(x).all(axis=1)
                ref_diverged[bad & (ref_diverged < 0)] = k + 1
                x = np.where(bad[:, None], 0.0, x)
                ref_states.append(x)

        states, diverged = rk4_lanes(field, x0, u, 0.1)
        assert list(diverged) == [-1, 0, 3, 3, 6]
        for a, b in ((states, np.array(ref_states)), (diverged, ref_diverged)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert np.array_equal(states[6, 4], np.zeros(2))


class TestEnergyDrift:
    """Max |H(x_k) - H(x_0)| of a learned energy along its own unforced rollout."""

    S = structure_matrices(duffing_system())

    def drift(self, net, x0, steps, h):
        field = lambda x, u: oe_hnn_field(net, self.S, x, u)  # noqa: E731
        energies = h_value(net, rollout(field, x0, np.zeros((steps + 1, 1)), h))
        return float(np.max(np.abs(energies - energies[0])))

    def test_zero_net(self):
        net = HamiltonianNet(np.zeros((4, 2)), np.zeros(4), np.zeros(4), 0.0)
        assert self.drift(net, [0.3, 0.1], steps=100, h=0.01) == 0.0

    def test_random_net_small_drift(self):
        rng = np.random.default_rng(0)
        net = init_hamiltonian_net(2, 16, rng)
        net = with_params(net, rng.uniform(-0.5, 0.5, flatten_params(net).size))
        assert self.drift(net, [0.2, -0.3], steps=500, h=0.01) < 1e-6

    def test_fourth_order_step_scaling(self):
        rng = np.random.default_rng(1)
        net = init_hamiltonian_net(2, 16, rng)
        net = with_params(net, rng.uniform(-0.9, 0.9, flatten_params(net).size))
        x0 = [0.5, -0.4]
        drift_coarse = self.drift(net, x0, steps=250, h=0.08)
        drift_fine = self.drift(net, x0, steps=500, h=0.04)
        order = np.log2(drift_coarse / drift_fine)
        assert 3.5 <= order <= 4.5
