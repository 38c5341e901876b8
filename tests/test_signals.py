import numpy as np
import pytest

from oehnn.signals import (
    MultisineSpec,
    NoiseSpec,
    add_noise,
    multisine_inputs,
    multisine_value,
    sample_phases,
)


class TestMultisine:
    def test_zero_phases_at_origin(self):
        spec = MultisineSpec(20, 0.1, np.zeros(20))
        assert multisine_value(0.0, spec) == 0.0

    def test_single_quarter_phase(self):
        spec = MultisineSpec(1, 0.1, np.array([np.pi / 2]), amplitude=2.5)
        assert multisine_value(0.0, spec) == pytest.approx(2.5)

    def test_periodicity(self):
        rng = np.random.default_rng(3)
        spec = MultisineSpec(20, 0.1, sample_phases(20, rng))
        t = rng.uniform(0.0, 50.0, 100)
        assert np.max(np.abs(multisine_value(t + spec.period, spec) - multisine_value(t, spec))) < 1e-10

    def test_vectorized_matches_scalar(self):
        spec = MultisineSpec(3, 0.5, np.array([0.1, 1.0, 2.0]))
        t = np.linspace(0, 2, 7)
        vec = multisine_value(t, spec)
        assert np.allclose(vec, [multisine_value(tk, spec) for tk in t])

    def test_validation(self):
        with pytest.raises(ValueError):
            MultisineSpec(0, 0.1, np.zeros(0))
        with pytest.raises(ValueError):
            MultisineSpec(2, -0.1, np.zeros(2))
        with pytest.raises(ValueError):
            MultisineSpec(2, 0.1, np.array([0.0, 7.0]))  # phase outside [0, 2pi)

    def test_spectral_purity(self):
        # sampled over exactly one period: energy only in bins 1..K
        rng = np.random.default_rng(4)
        spec = MultisineSpec(20, 0.1, sample_phases(20, rng))
        ts = 0.01
        n = round(spec.period / ts)
        u = multisine_value(np.arange(n) * ts, spec)
        spectrum = np.abs(np.fft.rfft(u)) ** 2
        inside = spectrum[1:21].sum()
        outside = spectrum.sum() - inside
        assert outside / inside < 1e-20


class TestSamplePhases:
    def test_deterministic_from_seed(self):
        a = sample_phases(20, np.random.default_rng(11))
        b = sample_phases(20, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_range_and_moments(self):
        phases = sample_phases(100_000, np.random.default_rng(5))
        assert phases.min() >= 0.0 and phases.max() < 2 * np.pi
        assert abs(phases.mean() - np.pi) < 0.02

    def test_needs_positive_count(self):
        with pytest.raises(ValueError):
            sample_phases(0, np.random.default_rng(0))


class TestMultisineInputs:
    @pytest.mark.parametrize("n_inputs", [1, 3])
    def test_draws_every_phase_first_in_input_order(self, n_inputs):
        t = np.arange(50) * 0.01
        rng, ref = np.random.default_rng(17), np.random.default_rng(17)
        u = multisine_inputs(t, n_inputs, 6, 0.2, 0.7, rng)
        phases = [sample_phases(6, ref) for _ in range(n_inputs)]
        specs = [MultisineSpec(6, 0.2, ph, 0.7) for ph in phases]
        want = np.stack([multisine_value(t, spec) for spec in specs], axis=-1)
        assert u.shape == (50, n_inputs)
        assert np.array_equal(u, want)
        assert rng.uniform() == ref.uniform()  # the next draw follows all phases


class TestAddNoise:
    def test_zero_variance_identity(self):
        clean = np.arange(12.0).reshape(6, 2)
        out = add_noise(clean, NoiseSpec(variance=0.0))
        assert np.array_equal(out, clean)
        assert out is not clean

    def test_input_unmodified(self):
        clean = np.zeros((100, 2))
        before = clean.copy()
        add_noise(clean, NoiseSpec(variance=0.1), np.random.default_rng(0))
        assert np.array_equal(clean, before)

    def test_sample_variance(self):
        clean = np.zeros((100_000, 1))
        noisy = add_noise(clean, NoiseSpec(variance=0.1), np.random.default_rng(6))
        var = np.var(noisy - clean)
        assert 0.095 <= var <= 0.105

    def test_reproducible_from_seed(self):
        clean = np.zeros((50, 2))
        a = add_noise(clean, NoiseSpec(variance=0.3, seed=9))
        b = add_noise(clean, NoiseSpec(variance=0.3, seed=9))
        assert np.array_equal(a, b)

    def test_whiteness(self):
        noise = add_noise(np.zeros(100_000), NoiseSpec(variance=1.0), np.random.default_rng(7))
        centered = noise - noise.mean()
        lag1 = (centered[:-1] @ centered[1:]) / (centered @ centered)
        assert abs(lag1) < 0.01

    def test_negative_variance_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(variance=-0.1)
