import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oehnn.dynamics import duffing_system, structure_matrices
from oehnn.integrate import rollout
from oehnn.netmodel import (
    BlackBoxNet,
    HamiltonianNet,
    ModelFormatError,
    _blackbox_rows,
    blackbox_field,
    flatten_params,
    h_grad_x,
    h_hess_vec,
    h_value,
    init_blackbox_net,
    init_hamiltonian_net,
    load_model,
    oe_hnn_field,
    save_model,
    with_params,
)


def random_hnet(rng, n_states=2, n_hidden=8, scale=1.0):
    net = init_hamiltonian_net(n_states, n_hidden, rng)
    theta = rng.uniform(-scale, scale, flatten_params(net).size)
    return with_params(net, theta)


def zero_hnet(n_states=2, n_hidden=4):
    return HamiltonianNet(
        w1=np.zeros((n_hidden, n_states)),
        b1=np.zeros(n_hidden),
        w2=np.zeros(n_hidden),
        b2=0.0,
    )


class TestHValue:
    def test_zero_parameters(self):
        net = zero_hnet()
        assert h_value(net, [1.3, -0.7]) == 0.0

    def test_output_bias_only(self):
        net = HamiltonianNet(np.ones((4, 2)), np.zeros(4), np.zeros(4), b2=2.5)
        assert h_value(net, [0.4, 0.2]) == 2.5

    def test_single_unit(self):
        net = HamiltonianNet(np.array([[1.0, 0.0]]), np.zeros(1), np.ones(1), 0.0)
        assert h_value(net, [0.5, 0.3]) == pytest.approx(np.tanh(0.5), abs=1e-15)
        assert h_value(net, [0.5, 0.3]) == pytest.approx(0.4621171573, abs=1e-9)

    def test_batched(self):
        rng = np.random.default_rng(0)
        net = random_hnet(rng)
        xs = rng.normal(size=(6, 2))
        vals = h_value(net, xs)
        assert vals.shape == (6,)
        assert np.allclose(vals, [h_value(net, x) for x in xs])


class TestHGrad:
    def test_zero_parameters(self):
        assert np.array_equal(h_grad_x(zero_hnet(), [0.2, 0.4]), np.zeros(2))

    def test_single_unit_closed_form(self):
        net = HamiltonianNet(np.array([[1.0, 0.0]]), np.zeros(1), np.ones(1), 0.0)
        grad = h_grad_x(net, [0.5, 0.3])
        assert grad == pytest.approx([1 - np.tanh(0.5) ** 2, 0.0], abs=1e-12)
        assert grad[0] == pytest.approx(0.7864477, abs=1e-7)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        eps = 1e-6
        for _ in range(30):
            net = random_hnet(rng)
            x = rng.uniform(-1, 1, 2)
            grad = h_grad_x(net, x)
            for i in range(2):
                e = np.zeros(2)
                e[i] = eps
                fd = (h_value(net, x + e) - h_value(net, x - e)) / (2 * eps)
                denom = max(abs(fd), 1e-8)
                assert abs(grad[i] - fd) / denom < 1e-6

    @settings(max_examples=25)
    @given(shift=st.floats(-5, 5), seed=st.integers(0, 1000))
    def test_translation_property(self, shift, seed):
        # adding a constant to the output bias shifts the energy everywhere
        # and changes the gradient nowhere
        rng = np.random.default_rng(seed)
        net = random_hnet(rng)
        shifted = HamiltonianNet(net.w1, net.b1, net.w2, net.b2 + shift)
        x = rng.uniform(-1, 1, 2)
        assert h_value(shifted, x) - h_value(net, x) == pytest.approx(shift, abs=1e-12)
        assert np.array_equal(h_grad_x(shifted, x), h_grad_x(net, x))


class TestHessVec:
    def test_matches_gradient_differences(self):
        rng = np.random.default_rng(2)
        eps = 1e-6
        for _ in range(20):
            net = random_hnet(rng)
            x = rng.uniform(-1, 1, 2)
            v = rng.normal(size=2)
            hv = h_hess_vec(net, x, v)
            fd = (h_grad_x(net, x + eps * v) - h_grad_x(net, x - eps * v)) / (2 * eps)
            assert np.max(np.abs(hv - fd)) < 1e-6 * max(1.0, np.max(np.abs(fd)))

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        net = random_hnet(rng)
        x = rng.uniform(-1, 1, 2)
        # v . (H w) == w . (H v) for the symmetric Hessian
        v, w = rng.normal(size=2), rng.normal(size=2)
        assert v @ h_hess_vec(net, x, w) == pytest.approx(w @ h_hess_vec(net, x, v), rel=1e-12)


class TestOeHnnField:
    S = structure_matrices(duffing_system())

    def test_zero_net_zero_field(self):
        assert np.array_equal(oe_hnn_field(zero_hnet(), self.S, [0.3, 0.1], [0.0]), np.zeros(2))

    def test_zero_net_input_channel(self):
        assert np.allclose(oe_hnn_field(zero_hnet(), self.S, [0.3, 0.1], [1.0]), [0.0, 1.0])

    def test_unforced_flow_orthogonal_to_gradient(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            net = random_hnet(rng)
            x = rng.uniform(-1, 1, 2)
            g = h_grad_x(net, x)
            f = oe_hnn_field(net, self.S, x, [0.0])
            assert abs(g @ f) <= 1e-12 * max(1.0, g @ g)

    def test_energy_invariance_under_rollout(self):
        # rollouts of the learned field conserve the learned energy up to
        # integrator error only
        rng = np.random.default_rng(5)
        net = random_hnet(rng, scale=0.5)
        states = rollout(
            lambda x, u: oe_hnn_field(net, self.S, x, u), [0.3, -0.2], np.zeros((501, 1)), 0.01
        )
        energies = h_value(net, states)
        assert np.max(np.abs(energies - energies[0])) < 1e-6


class TestBlackBox:
    def test_zero_parameters(self):
        net = BlackBoxNet(np.zeros((4, 3)), np.zeros(4), np.zeros((2, 4)), np.zeros(2))
        assert np.array_equal(blackbox_field(net, [0.1, 0.2], [0.5]), np.zeros(2))

    def test_bias_only_constant(self):
        net = BlackBoxNet(np.zeros((4, 3)), np.zeros(4), np.zeros((2, 4)), np.array([1.5, -2.0]))
        for x, u in ([[0.0, 0.0], 0.0], [[3.0, -1.0], 2.0]):
            assert np.allclose(blackbox_field(net, x, u), [1.5, -2.0])

    def test_independent_reimplementation(self):
        # plain per-sample loop as a second route through the forward pass
        rng = np.random.default_rng(6)
        net = init_blackbox_net(2, 1, 16, rng)
        net = with_params(net, rng.uniform(-1, 1, flatten_params(net).size))
        xs = rng.normal(size=(5, 2))
        us = rng.normal(size=(5, 1))
        batched = blackbox_field(net, xs, us)
        for i in range(5):
            xu = list(xs[i]) + list(us[i])
            hidden = [np.tanh(sum(net.w1[j][k] * xu[k] for k in range(3)) + net.b1[j])
                      for j in range(16)]
            expected = [sum(net.w2[o][j] * hidden[j] for j in range(16)) + net.b2[o]
                        for o in range(2)]
            assert np.max(np.abs(batched[i] - expected)) < 1e-12


class TestParamsRoundTrip:
    def test_hamiltonian(self):
        rng = np.random.default_rng(7)
        net = random_hnet(rng, n_hidden=5)
        theta = flatten_params(net)
        assert theta.size == 5 * 2 + 5 + 5 + 1
        back = with_params(net, theta)
        assert np.array_equal(back.w1, net.w1)
        assert np.array_equal(back.b1, net.b1)
        assert np.array_equal(back.w2, net.w2)
        assert back.b2 == net.b2

    def test_blackbox(self):
        rng = np.random.default_rng(8)
        net = init_blackbox_net(4, 1, 6, rng)
        theta = flatten_params(net)
        back = with_params(net, theta)
        assert np.array_equal(back.w1, net.w1)
        assert np.array_equal(back.w2, net.w2)
        assert np.array_equal(back.b2, net.b2)

    def test_wrong_length_rejected(self):
        net = zero_hnet()
        with pytest.raises(ValueError):
            with_params(net, np.zeros(3))
        with pytest.raises(ValueError):
            with_params(net, np.zeros((2, 3)))
        with pytest.raises(ValueError):
            with_params(net, np.zeros((1, 1, flatten_params(net).size)))

    def test_blackbox_wrong_length_rejected(self):
        net = init_blackbox_net(4, 2, 5, np.random.default_rng(0))
        P = flatten_params(net).size
        for bad in (np.zeros(P - 1), np.zeros(P + 1), np.zeros((3, P - 1)), np.zeros((1, 1, P))):
            with pytest.raises(ValueError):
                with_params(net, bad)


class TestParamLayout:
    """The flat vector is the fields in order, each row-major: w1, b1, w2, b2."""

    @staticmethod
    def nets():
        rng = np.random.default_rng(31)
        hnet = random_hnet(rng, n_states=4, n_hidden=5)
        bnet = init_blackbox_net(4, 2, 5, rng)
        bnet = with_params(bnet, rng.uniform(-1, 1, flatten_params(bnet).size))
        return {"hnn": hnet, "mlp": bnet}

    @pytest.mark.parametrize("kind", ["hnn", "mlp"])
    def test_plain(self, kind):
        net = self.nets()[kind]
        by_hand = [net.w1.ravel(), net.b1, np.ravel(net.w2), np.ravel(net.b2)]
        assert np.array_equal(flatten_params(net), np.concatenate(by_hand))

    # each field's stacked shape at K = 3, in layout order (4 states, 2 inputs, width 5)
    STACKED = {
        "hnn": [("w1", (3, 5, 4)), ("b1", (3, 1, 5)), ("w2", (3, 1, 5)), ("b2", (3,))],
        "mlp": [("w1", (3, 5, 6)), ("b1", (3, 1, 5)), ("w2", (3, 4, 5)), ("b2", (3, 1, 4))],
    }

    @pytest.mark.parametrize("kind", ["hnn", "mlp"])
    def test_stacked(self, kind):
        template = self.nets()[kind]
        P = flatten_params(template).size
        thetas = np.arange(3 * P, dtype=float).reshape(3, P)
        stacked = with_params(template, thetas)
        start = 0
        for name, shape in self.STACKED[kind]:
            stop = start + int(np.prod(shape[1:]))
            assert np.array_equal(getattr(stacked, name), thetas[:, start:stop].reshape(shape)), name
            start = stop
        assert start == P

    def test_unsupported_model_type(self):
        with pytest.raises(TypeError, match="unsupported model type"):
            flatten_params(object())
        with pytest.raises(TypeError, match="unsupported model type"):
            with_params(object(), np.zeros(3))


class TestStackedNets:
    """A (K, P) parameter array gives K models on a leading axis; each block
    of state rows goes through the same arithmetic as the plain net."""

    @pytest.mark.parametrize("kind", ["hnn", "mlp"])
    def test_stacked_forward_is_each_members_forward(self, kind):
        rng = np.random.default_rng(21)
        K, B, d, m, nh = 3, 7, 4, 1, 9
        if kind == "hnn":
            template = init_hamiltonian_net(d, nh, rng)
        else:
            template = init_blackbox_net(d, m, nh, rng)
        thetas = rng.uniform(-1, 1, (K, flatten_params(template).size))
        stacked = with_params(template, thetas)
        assert stacked.w1.shape[0] == K and stacked.b1.shape == (K, 1, nh)
        assert (stacked.n_states, stacked.n_hidden) == (d, nh)
        x = rng.normal(size=(K, B, d))
        u = rng.normal(size=(K, B, m))
        if kind == "hnn":
            out = h_grad_x(stacked, x)
            assert np.array_equal(stacked.b2, thetas[:, -1])
        else:
            out = _blackbox_rows(stacked, x, u)
            assert stacked.n_inputs == m
        for k in range(K):
            member = with_params(template, thetas[k])
            alone = h_grad_x(member, x[k]) if kind == "hnn" else _blackbox_rows(member, x[k], u[k])
            assert np.array_equal(out[k], alone)
            assert np.array_equal(flatten_params(member), thetas[k])


class TestModelFiles:
    def test_hamiltonian_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        net = random_hnet(rng, n_hidden=7)
        path = tmp_path / "model.txt"
        save_model(net, path, kind="oe-hnn", n_inputs=1, seed=13)
        saved = load_model(path)
        assert saved.kind == "oe-hnn"
        assert saved.seed == 13
        assert saved.n_inputs == 1
        assert np.array_equal(saved.model.w1, net.w1)
        assert np.array_equal(saved.model.b1, net.b1)
        assert np.array_equal(saved.model.w2, net.w2)
        assert saved.model.b2 == net.b2

    def test_blackbox_round_trip(self, tmp_path):
        rng = np.random.default_rng(10)
        net = init_blackbox_net(2, 1, 5, rng)
        path = tmp_path / "model.txt"
        save_model(net, path, kind="mlp", n_inputs=1)
        saved = load_model(path)
        assert isinstance(saved.model, BlackBoxNet)
        assert np.array_equal(saved.model.w1, net.w1)
        assert np.array_equal(saved.model.b2, net.b2)

    def test_kind_mismatch(self, tmp_path):
        rng = np.random.default_rng(11)
        net = init_blackbox_net(2, 1, 4, rng)
        path = tmp_path / "model.txt"
        save_model(net, path, kind="mlp", n_inputs=1)
        with pytest.raises(ModelFormatError, match="mlp"):
            load_model(path, expect_kind="oe-hnn")

    def test_kind_model_type_checked_on_save(self, tmp_path):
        rng = np.random.default_rng(12)
        with pytest.raises(TypeError):
            save_model(init_blackbox_net(2, 1, 4, rng), tmp_path / "m.txt", "hnn", 1)

    def test_row_count_mismatch(self, tmp_path):
        rng = np.random.default_rng(13)
        net = random_hnet(rng, n_hidden=6)
        path = tmp_path / "model.txt"
        save_model(net, path, kind="hnn", n_inputs=1)
        text = path.read_text().replace("n_hidden = 6", "n_hidden = 9")
        path.write_text(text)
        with pytest.raises(ModelFormatError, match="w1"):
            load_model(path)

    @pytest.mark.parametrize("kind", ["hnn", "mlp"])
    @pytest.mark.parametrize("extra", ["bogus = 1.0", "w2.2 = 0 0 0", "w1.3 = 0 0 0"])
    def test_unknown_parameter_key(self, tmp_path, kind, extra):
        rng = np.random.default_rng(15)
        if kind == "hnn":
            model = init_hamiltonian_net(2, 3, rng)
        else:
            model = init_blackbox_net(2, 1, 3, rng)
        path = tmp_path / "model.txt"
        save_model(model, path, kind=kind, n_inputs=1)
        path.write_text(path.read_text() + extra + "\n")
        key = extra.split(" = ")[0]
        with pytest.raises(ModelFormatError, match=f"unknown parameter key '{key}'"):
            load_model(path)

    def test_unknown_meta_key(self, tmp_path):
        rng = np.random.default_rng(16)
        path = tmp_path / "model.txt"
        save_model(init_hamiltonian_net(2, 3, rng), path, kind="hnn", n_inputs=1)
        path.write_text(path.read_text().replace("[meta]\n", "[meta]\nn_hiden = 7\n"))
        with pytest.raises(ModelFormatError, match="unknown meta key 'n_hiden'"):
            load_model(path)

    def test_unknown_section(self, tmp_path):
        rng = np.random.default_rng(17)
        path = tmp_path / "model.txt"
        save_model(init_blackbox_net(2, 1, 3, rng), path, kind="mlp", n_inputs=1)
        path.write_text(path.read_text() + "[extra]\nnote = 1\n")
        with pytest.raises(ModelFormatError, match=r"unknown section \[extra\]"):
            load_model(path)

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("junk without sections\n")
        with pytest.raises(ModelFormatError):
            load_model(path)

    def test_bad_number(self, tmp_path):
        rng = np.random.default_rng(14)
        net = init_hamiltonian_net(2, 3, rng)  # biases start at zero
        path = tmp_path / "model.txt"
        save_model(net, path, kind="oe-hnn", n_inputs=1)
        path.write_text(path.read_text().replace("b1 = 0 0 0", "b1 = 0 zero 0"))
        with pytest.raises(ModelFormatError, match="b1"):
            load_model(path)
