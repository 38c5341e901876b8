import ast
import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oehnn.dynamics import (
    SystemSpec,
    _j_apply,
    coupled_system,
    duffing_system,
    field_fn,
    hamiltonian_fn,
    structure_matrices,
)


def j_matrix(n):
    """J as the models apply it: column i is `_j_apply` of the unit row e_i."""
    return _j_apply(np.eye(2 * n), n).T


def small_states(dim):
    return arrays(np.float64, (dim,), elements=st.floats(-0.5, 0.5))


# The closed-form fields of the two benchmark systems and the chain
# Hamiltonian's gradient, kept here as references for what `field_fn` writes.
def _spring_force(delta, k, cubic):
    return k * delta - k * delta**3 if cubic else k * delta


def reference_grad_hamiltonian(x, spec):
    """Analytic gradient of the chain Hamiltonian, spring by spring: mass i
    feels spring i's force and, pulling the other way, spring i+1's."""
    x = np.asarray(x, dtype=float)
    n = spec.n_masses
    q, p = x[..., :n], x[..., n:]
    elong = [q[..., i] - q[..., i - 1] if i else q[..., 0] for i in range(n)]
    forces = [_spring_force(elong[i], spec.stiffnesses[i], spec.cubic) for i in range(n)]
    dq = [forces[i] - forces[i + 1] if i + 1 < n else forces[i] for i in range(n)]
    dp = [p[..., i] / spec.masses[i] for i in range(n)]
    return np.stack(dq + dp, axis=-1)


def reference_duffing_field(x, u, spec):
    q, p = x[..., 0], x[..., 1]
    m, k = spec.masses[0], spec.stiffnesses[0]
    u = u[..., 0]
    return np.stack(np.broadcast_arrays(p / m, -_spring_force(q, k, spec.cubic) + u), axis=-1)


def reference_coupled_field(x, u, spec):
    q1, q2, p1, p2 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    (m1, m2), (k1, k2) = spec.masses, spec.stiffnesses
    u = u[..., 0]
    f1 = _spring_force(q1, k1, spec.cubic)
    f2 = _spring_force(q2 - q1, k2, spec.cubic)
    dp1 = -f1 + f2 + (u if 0 in spec.input_map else 0.0)
    dp2 = -f2 + (u if 1 in spec.input_map else 0.0)
    return np.stack(np.broadcast_arrays(p1 / m1, p2 / m2, dp1, dp2), axis=-1)


class TestSystemSpec:
    def test_valid(self):
        spec = duffing_system()
        assert spec.n_states == 2
        assert spec.n_inputs == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_masses=0, masses=(), stiffnesses=(), input_map=(0,)),
            dict(n_masses=1, masses=(-1.0,), stiffnesses=(1.0,), input_map=(0,)),
            dict(n_masses=1, masses=(1.0,), stiffnesses=(0.0,), input_map=(0,)),
            dict(n_masses=1, masses=(1.0,), stiffnesses=(1.0,), input_map=(1,)),
            dict(n_masses=2, masses=(1.0,), stiffnesses=(1.0, 1.0), input_map=(0,)),
            dict(n_masses=1, masses=(float("nan"),), stiffnesses=(1.0,), input_map=(0,)),
            dict(n_masses=1, masses=(1.0,), stiffnesses=(float("inf"),), input_map=(0,)),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SystemSpec(**kwargs)

    @pytest.mark.parametrize("constructor", [duffing_system, coupled_system])
    def test_constructors_take_cubic_from_the_spec(self, constructor):
        # the spring law's default is stated once, on SystemSpec
        args = ast.parse(inspect.getsource(constructor)).body[0].args
        defaults = dict(zip([a.arg for a in args.args][-len(args.defaults):], args.defaults))
        assert ast.unparse(defaults["cubic"]) == "SystemSpec.cubic"
        assert constructor().cubic is SystemSpec.cubic


class TestStructureMatrices:
    def test_blocks(self):
        S = structure_matrices(coupled_system())
        n = 2
        J = j_matrix(n)
        assert np.array_equal(J[:n, n:], np.eye(n))
        assert np.array_equal(J[n:, :n], -np.eye(n))
        assert np.array_equal(J[:n, :n], np.zeros((n, n)))
        assert np.array_equal(J[n:, n:], np.zeros((n, n)))
        # input enters the second momentum only
        assert np.array_equal(S.G[:, 0], [0, 0, 0, 1])

    def test_skew_and_square(self):
        for spec in (duffing_system(), coupled_system()):
            J = j_matrix(spec.n_masses)
            assert np.array_equal(J.T, -J)
            assert np.array_equal(J @ J, -np.eye(spec.n_states))
            # J.T v, which the adjoint forms, is -J v
            v = np.random.default_rng(spec.n_masses).normal(size=(5, spec.n_states))
            assert np.array_equal(v @ J, -_j_apply(v, spec.n_masses))

    @given(g=arrays(np.float64, (4,), elements=st.floats(-100, 100)))
    def test_quadratic_form_vanishes(self, g):
        assert abs(g @ _j_apply(g, 2)) <= 1e-12 * max(1.0, g @ g)


class TestCanonicalField:
    """The true field's J grad H + G u structure. On linear springs of unit
    stiffness a state can be picked for any grad H."""

    def test_block_structure(self):
        field = field_fn(duffing_system(cubic=False))
        # grad H = (q, p) = (2, 3)
        assert np.allclose(field([2.0, 3.0], [0.0]), [3.0, -2.0])

    def test_pure_input_channel(self):
        field = field_fn(duffing_system())
        assert np.allclose(field([0.0, 0.0], [1.0]), [0.0, 1.0])

    def test_two_mass_blocks(self):
        field = field_fn(coupled_system(cubic=False))
        # grad H = (1, 2, 3, 4): spring forces 3 and 2, momenta 0.5 * (3, 4)
        out = field([3.0, 5.0, 1.5, 2.0], [0.0])
        assert np.allclose(out, [3.0, 4.0, -1.0, -2.0])

    def test_dimension_mismatch(self):
        field = field_fn(duffing_system())
        with pytest.raises(ValueError, match="state"):
            field([1.0, 2.0, 3.0], [0.0])
        with pytest.raises(ValueError, match="input"):
            field([1.0, 2.0], [0.0, 0.0])

    def test_rows_of_the_wrong_width(self):
        field = field_fn(coupled_system())
        with pytest.raises(ValueError, match="state"):
            field(np.zeros((5, 2)), np.zeros((5, 1)))
        with pytest.raises(ValueError, match="input"):
            field(np.zeros((5, 4)), np.zeros((5, 2)))

    def test_forced_rows_follow_the_input_map(self):
        # a three-mass chain forced on masses 2 and 0, against the reference
        # gradient and the structure matrices
        spec = SystemSpec(3, (0.4, 0.9, 1.1), (1.2, 0.8, 2.0), (2, 0))
        S = structure_matrices(spec)
        rng = np.random.default_rng(3)
        x = rng.uniform(-0.5, 0.5, (20, 6))
        u = rng.normal(size=(20, 2))
        expected = reference_grad_hamiltonian(x, spec) @ j_matrix(3).T + u @ S.G.T
        assert np.allclose(field_fn(spec)(x, u), expected, rtol=1e-14, atol=1e-15)


class TestDuffing:
    field = staticmethod(field_fn(duffing_system()))
    energy = staticmethod(hamiltonian_fn(duffing_system()))

    def test_equilibrium(self):
        assert np.allclose(self.field([0.0, 0.0], 0.0), [0.0, 0.0])

    def test_force_enters_momentum(self):
        assert np.allclose(self.field([0.0, 0.0], 1.0), [0.0, 1.0])

    def test_hand_evaluated_point(self):
        # spring force at q=0.5: 0.5 - 0.125 = 0.375
        assert np.allclose(self.field([0.5, 1.0], 0.0), [1.0, -0.375])

    def test_hamiltonian_values(self):
        assert self.energy([0.0, 0.0]) == 0.0
        # potential at q=1 equals the integral of the spring force from 0 to 1
        q = np.linspace(0.0, 1.0, 100001)
        integral = np.trapezoid(q - q**3, q)
        assert integral == pytest.approx(0.25, abs=1e-8)
        assert self.energy([1.0, 0.0]) == pytest.approx(integral, abs=1e-8)
        assert self.energy([0.0, 1.0]) == pytest.approx(0.5)

    def test_linear_spring_variant(self):
        spec = duffing_system(cubic=False)
        assert np.allclose(field_fn(spec)([0.5, 0.0], 0.0), [0.0, -0.5])
        assert hamiltonian_fn(spec)([1.0, 0.0]) == pytest.approx(0.5)


class TestCoupled:
    field = staticmethod(field_fn(coupled_system()))

    def test_equilibrium(self):
        assert np.allclose(self.field([0, 0, 0, 0], 0.0), np.zeros(4))

    def test_input_on_second_momentum(self):
        assert np.allclose(self.field([0, 0, 0, 0], 1.0), [0, 0, 0, 1])

    def test_symmetric_displacement(self):
        # both masses at 0.2: coupling spring unstretched, only the ground
        # spring pulls on mass 1 with 0.2 - 0.2**3 = 0.192
        out = self.field([0.2, 0.2, 0.0, 0.0], 0.0)
        assert np.allclose(out, [0.0, 0.0, -0.192, 0.0])

    def test_momentum_scaling(self):
        out = self.field([0, 0, 0.5, -0.25], 0.0)
        assert np.allclose(out[:2], [1.0, -0.5])


class TestConsistency:
    @pytest.mark.parametrize(
        "spec",
        [
            duffing_system(),
            coupled_system(),
            duffing_system(cubic=False),
            coupled_system((0.3, 0.7), (1.5, 0.5)),
            duffing_system(mass=0.6, stiffness=1.4),
            coupled_system(cubic=False),
            SystemSpec(2, (0.3, 0.7), (1.5, 0.5), (0,)),  # forced on mass 0
        ],
    )
    def test_canonical_assembly_matches_direct_field(self, spec):
        reference = {1: reference_duffing_field, 2: reference_coupled_field}[spec.n_masses]
        field = field_fn(spec)
        rng = np.random.default_rng(0)
        xs = rng.uniform(-0.5, 0.5, (50, spec.n_states))
        us = rng.normal(size=(50, 1))
        cases = [
            (xs, us),  # (B, d) and (B, m) lanes, as generation passes them
            (xs, np.zeros((50, 1))),
            (xs[:1], us[:1]),  # (1, d) and (1, m) rows, as `rollout` passes them
            (xs[3], us[3]),  # a 1-D state with an (m,) row
            (xs[4], float(us[4, 0])),  # a 1-D state with a scalar input
        ]
        for x, u in cases:
            x_before, u_before = x.copy(), np.copy(u)
            # read-only arguments: a write to either raises
            x, u = x.copy(), np.array(u)
            x.setflags(write=False)
            u.setflags(write=False)
            out = field(x, u)
            assert out.shape == x.shape
            assert np.array_equal(out, reference(x, np.reshape(u, x.shape[:-1] + (1,)), spec))
            assert np.array_equal(x, x_before) and np.array_equal(u, u_before)

    @pytest.mark.parametrize(
        "spec",
        [
            duffing_system(),
            coupled_system(),
            duffing_system(cubic=False),
            coupled_system((0.3, 0.7), (1.5, 0.5)),
            SystemSpec(3, (0.4, 0.9, 1.1), (1.2, 0.8, 2.0), (2, 0)),
        ],
    )
    def test_gradient_matches_finite_differences(self, spec):
        rng = np.random.default_rng(1)
        ham = hamiltonian_fn(spec)
        eps = 1e-6
        for _ in range(20):
            x = rng.uniform(-0.5, 0.5, spec.n_states)
            grad = reference_grad_hamiltonian(x, spec)
            for i in range(spec.n_states):
                e = np.zeros(spec.n_states)
                e[i] = eps
                fd = (ham(x + e) - ham(x - e)) / (2 * eps)
                assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    @settings(max_examples=30)
    @given(x=small_states(2), p=st.floats(-0.5, 0.5))
    def test_energy_rate_vanishes_unforced(self, x, p):
        # (dH/dx) . xdot == 0 along the unforced flow
        spec = duffing_system()
        grad = reference_grad_hamiltonian(x, spec)
        xdot = field_fn(spec)(x, 0.0)
        assert abs(grad @ xdot) <= 1e-12
        del p

    def test_batched_evaluation(self):
        spec = coupled_system()
        rng = np.random.default_rng(2)
        xs = rng.uniform(-0.5, 0.5, (7, 4))
        us = rng.normal(size=(7, 1))
        field, energy = field_fn(spec), hamiltonian_fn(spec)
        batched = field(xs, us)
        rows = np.stack([field(xs[i], us[i, 0]) for i in range(7)])
        assert np.allclose(batched, rows, atol=1e-15)
        assert np.allclose(energy(xs), [energy(x) for x in xs])
