"""Multisine excitation synthesis and measurement-noise injection."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "MultisineSpec",
    "NoiseSpec",
    "multisine_value",
    "sample_phases",
    "multisine_inputs",
    "add_noise",
]

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class MultisineSpec:
    """Sum of `harmonics` sines at k*f0, k = 1..K, with per-realization phases."""

    harmonics: int
    f0: float
    phases: np.ndarray
    amplitude: float = 1.0

    def __post_init__(self):
        if self.harmonics < 1:
            raise ValueError("need at least one harmonic")
        if self.f0 <= 0:
            raise ValueError("base frequency must be positive")
        phases = np.asarray(self.phases, dtype=float)
        if phases.shape != (self.harmonics,):
            raise ValueError(f"expected {self.harmonics} phases, got shape {phases.shape}")
        if np.any(phases < 0.0) or np.any(phases >= TWO_PI):
            raise ValueError("phases must lie in [0, 2*pi)")
        object.__setattr__(self, "phases", phases)


@dataclass(frozen=True)
class NoiseSpec:
    """Zero-mean white Gaussian measurement noise, one variance for all
    channels; no default variance (each system's is in `cli.SYSTEM_DEFAULTS`)."""

    variance: float
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.variance < np.inf:
            raise ValueError("variance must be non-negative and finite")


def multisine_value(t, spec: MultisineSpec):
    """Evaluate amplitude * sum_k sin(2*pi*k*f0*t + phi_k) at time(s) t."""
    t = np.asarray(t, dtype=float)
    k = np.arange(1, spec.harmonics + 1, dtype=float)
    angles = TWO_PI * spec.f0 * t[..., None] * k + spec.phases
    value = spec.amplitude * np.sin(angles).sum(axis=-1)
    return value if value.ndim else float(value)


def sample_phases(harmonics: int, rng: np.random.Generator) -> np.ndarray:
    """Draw i.i.d. phases uniform on [0, 2*pi)."""
    if harmonics < 1:
        raise ValueError("need at least one harmonic")
    return rng.uniform(0.0, TWO_PI, size=harmonics)


def _check_multisine(harmonics: int, f0: float, amplitude: float, t_last: float) -> None:
    """Refuse a multisine whose values or phases overflow by t_last: K |amplitude|
    and 2 pi f0 t_last K, formed as `multisine_value` forms its largest, must be finite."""
    if not (harmonics * abs(amplitude) < np.inf and TWO_PI * f0 * t_last * harmonics < np.inf):
        raise ValueError(f"a multisine of {harmonics} harmonics, amplitude {amplitude:g} and "
                         f"base frequency {f0:g} overflows by t = {t_last:g}")


def multisine_inputs(
    t, n_inputs: int, harmonics: int, f0: float, amplitude: float, rng: np.random.Generator
) -> np.ndarray:
    """(len(t), n_inputs) multisine input signals, each with its own phases.

    Every input's phases are drawn from `rng`, in input order, before any
    value is computed, so the caller's next draw follows all of them.
    """
    specs = [
        MultisineSpec(harmonics, f0, sample_phases(harmonics, rng), amplitude)
        for _ in range(n_inputs)
    ]
    return np.stack([multisine_value(t, spec) for spec in specs], axis=-1)


def add_noise(clean: np.ndarray, spec: NoiseSpec, rng: np.random.Generator | None = None):
    """Return clean + white Gaussian noise of the configured variance.

    The input array is never modified. With variance 0 the output is an
    identical copy. When rng is omitted a fresh generator is seeded from
    spec.seed.
    """
    clean = np.asarray(clean, dtype=float)
    if spec.variance == 0.0:
        return clean.copy()
    if rng is None:
        rng = np.random.default_rng(spec.seed)
    return clean + rng.normal(0.0, np.sqrt(spec.variance), size=clean.shape)
