"""Ground-truth mass-spring benchmarks and canonical vector-field assembly.

States are ordered (q_1..q_n, p_1..p_n). All functions accept a single state
vector or an array of state rows (leading batch dimensions broadcast).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SYSTEM_DEFAULTS",
    "SystemSpec",
    "system_defaults",
    "StructureMatrices",
    "duffing_system",
    "coupled_system",
    "structure_matrices",
    "canonical_field",
    "duffing_field",
    "duffing_hamiltonian",
    "coupled_field",
    "coupled_hamiltonian",
    "hamiltonian_fn",
    "grad_hamiltonian",
    "field_fn",
]


@dataclass(frozen=True)
class SystemSpec:
    """Chain of masses joined by springs, the first spring anchored to ground.

    Spring i sits between mass i and mass i-1 and exerts the softening force
    F(d) = k_i*d - k_i*d**3 on elongation d when `cubic` is set (plain k_i*d
    otherwise). `input_map` lists the momentum coordinates that receive an
    external force, one input channel per entry.
    """

    n_masses: int
    masses: tuple[float, ...]
    stiffnesses: tuple[float, ...]
    input_map: tuple[int, ...]
    cubic: bool = True

    def __post_init__(self):
        if self.n_masses < 1:
            raise ValueError("n_masses must be at least 1")
        if len(self.masses) != self.n_masses:
            raise ValueError("need one mass value per mass")
        if len(self.stiffnesses) != self.n_masses:
            raise ValueError("need one stiffness per spring (one spring per mass)")
        if any(m <= 0 for m in self.masses):
            raise ValueError("masses must be positive")
        if any(k <= 0 for k in self.stiffnesses):
            raise ValueError("stiffnesses must be positive")
        if len(self.input_map) == 0:
            raise ValueError("input_map must name at least one momentum coordinate")
        if len(set(self.input_map)) != len(self.input_map):
            raise ValueError("input_map entries must be distinct")
        if any(i < 0 or i >= self.n_masses for i in self.input_map):
            raise ValueError("input_map entries must index a momentum coordinate")

    @property
    def n_states(self) -> int:
        return 2 * self.n_masses

    @property
    def n_inputs(self) -> int:
        return len(self.input_map)


def duffing_system(mass: float = 1.0, stiffness: float = 1.0, cubic: bool = True) -> SystemSpec:
    """Single mass on one softening spring, forced directly."""
    return SystemSpec(1, (mass,), (stiffness,), (0,), cubic)


def coupled_system(
    masses: tuple[float, float] = (0.5, 0.5),
    stiffnesses: tuple[float, float] = (1.0, 1.0),
    cubic: bool = True,
) -> SystemSpec:
    """Two masses in a chain of two softening springs, forced on the second mass."""
    return SystemSpec(2, tuple(masses), tuple(stiffnesses), (1,), cubic)


# Per-system defaults: masses, stiffnesses, measurement-noise variance and
# excitation amplitude that keep the softening springs inside their wells
# often enough for rejection sampling to succeed.
SYSTEM_DEFAULTS = {
    "duffing": {"masses": (1.0,), "stiffnesses": (1.0,), "noise_variance": 0.1, "amplitude": 0.15},
    "coupled": {
        "masses": (0.5, 0.5),
        "stiffnesses": (1.0, 1.0),
        "noise_variance": 0.05,
        "amplitude": 0.1,
    },
}


def system_defaults(spec: SystemSpec) -> dict:
    """The `SYSTEM_DEFAULTS` entry of the benchmark system (duffing or
    coupled) that `spec` is a variant of, told apart by its number of masses."""
    name = {1: "duffing", 2: "coupled"}.get(spec.n_masses)
    if name is None:
        raise ValueError(f"no default settings for a chain of {spec.n_masses} masses")
    return SYSTEM_DEFAULTS[name]


@dataclass(frozen=True)
class StructureMatrices:
    """Fixed matrices of the state dynamics: J (symplectic), G (input), C (output)."""

    J: np.ndarray
    G: np.ndarray
    C: np.ndarray

    @property
    def n_states(self) -> int:
        return self.J.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.G.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.C.shape[0]


def structure_matrices(spec: SystemSpec) -> StructureMatrices:
    """Build J = [[0, I], [-I, 0]], G = [0; I] restricted to input_map, C = I."""
    n = spec.n_masses
    d = spec.n_states
    eye = np.eye(n)
    J = np.block([[np.zeros((n, n)), eye], [-eye, np.zeros((n, n))]])
    G = np.zeros((d, spec.n_inputs))
    for col, mass_index in enumerate(spec.input_map):
        G[n + mass_index, col] = 1.0
    C = np.eye(d)
    return StructureMatrices(J=J, G=G, C=C)


def _input_rows(u, like: np.ndarray, m: int) -> np.ndarray:
    """Normalize u to rows of shape (..., m) matching the batch shape of `like`."""
    u = np.asarray(u, dtype=float)
    if u.ndim == like.ndim and u.shape[-1] == m:
        return u
    if m == 1 and u.ndim == like.ndim - 1:
        return u[..., None]
    raise ValueError(f"input has shape {u.shape}, expected trailing dimension {m}")


def canonical_field(grad_h: np.ndarray, u, S: StructureMatrices) -> np.ndarray:
    """Assemble the state derivative J @ grad_h + G @ u."""
    grad_h = np.asarray(grad_h, dtype=float)
    if grad_h.shape[-1] != S.n_states:
        raise ValueError(
            f"gradient has trailing dimension {grad_h.shape[-1]}, expected {S.n_states}"
        )
    u = _input_rows(u, grad_h, S.n_inputs)
    return grad_h @ S.J.T + u @ S.G.T


def _spring_force(delta: np.ndarray, k: float, cubic: bool) -> np.ndarray:
    return k * delta - k * delta**3 if cubic else k * delta


def _spring_potential(delta: np.ndarray, k: float, cubic: bool) -> np.ndarray:
    v = k * delta**2 / 2.0
    if cubic:
        v = v - k * delta**4 / 4.0
    return v


def duffing_field(x: np.ndarray, u, spec: SystemSpec) -> np.ndarray:
    """State derivative of the forced single-mass oscillator."""
    if spec.n_masses != 1:
        raise ValueError("duffing_field requires a single-mass system")
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 2:
        raise ValueError("state must have 2 components (q, p)")
    q, p = x[..., 0], x[..., 1]
    m, k = spec.masses[0], spec.stiffnesses[0]
    u_val = np.asarray(u, dtype=float)
    if u_val.ndim == q.ndim + 1 and u_val.shape[-1] == 1:
        u_val = u_val[..., 0]
    dq = p / m
    dp = -_spring_force(q, k, spec.cubic) + u_val
    return np.stack(np.broadcast_arrays(dq, dp), axis=-1)


def duffing_hamiltonian(x: np.ndarray, spec: SystemSpec) -> np.ndarray:
    """Total energy of the single-mass oscillator: kinetic plus spring potential."""
    if spec.n_masses != 1:
        raise ValueError("duffing_hamiltonian requires a single-mass system")
    x = np.asarray(x, dtype=float)
    q, p = x[..., 0], x[..., 1]
    m, k = spec.masses[0], spec.stiffnesses[0]
    return p**2 / (2.0 * m) + _spring_potential(q, k, spec.cubic)


def coupled_field(x: np.ndarray, u, spec: SystemSpec) -> np.ndarray:
    """State derivative of two chained oscillators, input on the second mass."""
    if spec.n_masses != 2:
        raise ValueError("coupled_field requires a two-mass system")
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 4:
        raise ValueError("state must have 4 components (q1, q2, p1, p2)")
    q1, q2, p1, p2 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    (m1, m2), (k1, k2) = spec.masses, spec.stiffnesses
    u_val = np.asarray(u, dtype=float)
    if u_val.ndim == q1.ndim + 1 and u_val.shape[-1] == 1:
        u_val = u_val[..., 0]
    f1 = _spring_force(q1, k1, spec.cubic)
    f2 = _spring_force(q2 - q1, k2, spec.cubic)
    dp1 = -f1 + f2 + (u_val if 0 in spec.input_map else 0.0)
    dp2 = -f2 + (u_val if 1 in spec.input_map else 0.0)
    return np.stack(np.broadcast_arrays(p1 / m1, p2 / m2, dp1, dp2), axis=-1)


def coupled_hamiltonian(x: np.ndarray, spec: SystemSpec) -> np.ndarray:
    """Total energy of the two-mass chain."""
    if spec.n_masses != 2:
        raise ValueError("coupled_hamiltonian requires a two-mass system")
    x = np.asarray(x, dtype=float)
    q1, q2, p1, p2 = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
    (m1, m2), (k1, k2) = spec.masses, spec.stiffnesses
    kinetic = p1**2 / (2.0 * m1) + p2**2 / (2.0 * m2)
    potential = _spring_potential(q1, k1, spec.cubic) + _spring_potential(q2 - q1, k2, spec.cubic)
    return kinetic + potential


def grad_hamiltonian(x: np.ndarray, spec: SystemSpec) -> np.ndarray:
    """Analytic gradient of the chain Hamiltonian with respect to the state."""
    x = np.asarray(x, dtype=float)
    n = spec.n_masses
    if x.shape[-1] != 2 * n:
        raise ValueError(f"state must have {2 * n} components")
    q, p = x[..., :n], x[..., n:]
    elong = q.copy()
    elong[..., 1:] = q[..., 1:] - q[..., :-1]
    forces = np.empty_like(elong)
    for i in range(n):
        forces[..., i] = _spring_force(elong[..., i], spec.stiffnesses[i], spec.cubic)
    dq = forces.copy()
    dq[..., :-1] -= forces[..., 1:]
    dp = p / np.asarray(spec.masses, dtype=float)
    return np.concatenate([dq, dp], axis=-1)


def hamiltonian_fn(spec: SystemSpec):
    """Analytic Hamiltonian of the benchmark system as a callable of the state."""
    if spec.n_masses == 1:
        return lambda x: duffing_hamiltonian(x, spec)
    if spec.n_masses == 2:
        return lambda x: coupled_hamiltonian(x, spec)

    def chain_hamiltonian(x):
        x = np.asarray(x, dtype=float)
        n = spec.n_masses
        q, p = x[..., :n], x[..., n:]
        elong = q.copy()
        elong[..., 1:] = q[..., 1:] - q[..., :-1]
        h = (p**2 / (2.0 * np.asarray(spec.masses))).sum(axis=-1)
        for i in range(n):
            h = h + _spring_potential(elong[..., i], spec.stiffnesses[i], spec.cubic)
        return h

    return chain_hamiltonian


def field_fn(spec: SystemSpec):
    """True state-derivative function of the benchmark system as f(x, u)."""
    if spec.n_masses == 1:
        return lambda x, u: duffing_field(x, u, spec)
    if spec.n_masses == 2:
        return lambda x, u: coupled_field(x, u, spec)
    S = structure_matrices(spec)
    return lambda x, u: canonical_field(grad_hamiltonian(x, spec), u, S)
