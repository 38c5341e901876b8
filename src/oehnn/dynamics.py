"""Ground-truth mass-spring benchmarks and their true vector field.

The spring chain is the one definition of every benchmark system: the
duffing oscillator is the chain of one mass, the coupled system the chain of
two. Its energy (`hamiltonian_fn`) and its true field J @ grad H(x) + G @ u
(`field_fn`) are the only closed forms. The field is written straight into
one array from the spring forces, never assembled from a gradient. The
learned models take J from `_j_apply`, which applies it to rows, and the
input matrix G from `structure_matrices`; J is written nowhere else.
The standard masses and stiffnesses are the defaults of `duffing_system` and
`coupled_system`; a system's excitation amplitude and noise variance are not set here.

States are ordered (q_1..q_n, p_1..p_n). All functions accept a single state
vector or an array of state rows (leading batch dimensions broadcast).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SystemSpec",
    "StructureMatrices",
    "duffing_system",
    "coupled_system",
    "structure_matrices",
    "hamiltonian_fn",
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
        if not all(0 < m < np.inf for m in self.masses):
            raise ValueError("masses must be positive and finite")
        if not all(0 < k < np.inf for k in self.stiffnesses):
            raise ValueError("stiffnesses must be positive and finite")
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


def duffing_system(
    mass: float = 1.0, stiffness: float = 1.0, cubic: bool = SystemSpec.cubic
) -> SystemSpec:
    """Single mass on one softening spring, forced directly."""
    return SystemSpec(1, (mass,), (stiffness,), (0,), cubic)


def coupled_system(
    masses: tuple[float, float] = (0.5, 0.5),
    stiffnesses: tuple[float, float] = (1.0, 1.0),
    cubic: bool = SystemSpec.cubic,
) -> SystemSpec:
    """Two masses in a chain of two softening springs, forced on the second mass."""
    return SystemSpec(2, tuple(masses), tuple(stiffnesses), (1,), cubic)


@dataclass(frozen=True)
class StructureMatrices:
    """Fixed input matrix G of the state dynamics; J is `_j_apply`."""

    G: np.ndarray

    @property
    def n_inputs(self) -> int:
        return self.G.shape[1]


def structure_matrices(spec: SystemSpec) -> StructureMatrices:
    """Build G = [0; I] restricted to input_map."""
    n = spec.n_masses
    G = np.zeros((spec.n_states, spec.n_inputs))
    for col, mass_index in enumerate(spec.input_map):
        G[n + mass_index, col] = 1.0
    return StructureMatrices(G=G)


def _input_rows(u, like: np.ndarray, m: int) -> np.ndarray:
    """Normalize u to rows of shape (..., m) matching the batch shape of `like`."""
    u = np.asarray(u, dtype=float)
    if u.ndim == like.ndim and u.shape[-1] == m:
        return u
    if m == 1 and u.ndim == like.ndim - 1:
        return u[..., None]
    raise ValueError(f"input has shape {u.shape}, expected trailing dimension {m}")


def _j_apply(g: np.ndarray, n: int) -> np.ndarray:
    """J @ g per row for J = [[0, I], [-I, 0]], n masses: the one statement
    of J. Its transpose is -J, so J.T @ g is `-_j_apply(g, n)`."""
    return np.concatenate([g[..., n:], -g[..., :n]], axis=-1)


def _spring_potential(delta: np.ndarray, k: float | np.ndarray, cubic: bool) -> np.ndarray:
    v = k * delta**2 / 2.0
    if cubic:
        v = v - k * delta**4 / 4.0
    return v


def _elongations(q: np.ndarray) -> np.ndarray:
    """Spring elongations: q_1 for the grounded spring, q_i - q_(i-1) after it.
    A one-mass chain's elongation is q itself, returned without a copy."""
    if q.shape[-1] == 1:
        return q
    elong = q.copy()
    elong[..., 1:] = q[..., 1:] - q[..., :-1]
    return elong


def hamiltonian_fn(spec: SystemSpec):
    """Chain Hamiltonian (kinetic energy plus spring potentials) as a callable of the state."""

    def hamiltonian(x):
        x = np.asarray(x, dtype=float)
        n = spec.n_masses
        kinetic = x[..., n:] ** 2 / (2.0 * np.asarray(spec.masses))
        elong = _elongations(x[..., :n])
        potential = _spring_potential(elong, np.asarray(spec.stiffnesses, dtype=float), spec.cubic)
        return kinetic.sum(axis=-1) + potential.sum(axis=-1)

    return hamiltonian


def field_fn(spec: SystemSpec):
    """True state derivative J @ grad H(x) + G @ u of the chain as f(x, u).

    The field is written straight into one output array: p/m into the
    position rows, G u - dH/dq into the momentum rows, with the spring forces
    computed once. x is one state or rows of states; u a scalar (one input
    channel), one input row or rows of inputs.
    """
    n, d = spec.n_masses, spec.n_states
    masses = np.asarray(spec.masses, dtype=float)
    stiffnesses = np.asarray(spec.stiffnesses, dtype=float)
    forced = [n + i for i in spec.input_map]

    def field(x, u):
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != d:
            raise ValueError(f"state has trailing dimension {x.shape[-1]}, expected {d}")
        u = _input_rows(u, x, spec.n_inputs)
        batch = x.shape[:-1]
        if u.shape[:-1] != batch:
            batch = np.broadcast_shapes(batch, u.shape[:-1])
        out = np.empty(batch + (d,))
        np.divide(x[..., n:], masses, out=out[..., :n])
        # -dH/dq of mass i: minus the force of spring i, which pulls it back,
        # plus that of spring i+1, which pulls it on
        elong = _elongations(x[..., :n])
        dp = out[..., n:]
        kd = stiffnesses * elong
        if spec.cubic:
            np.subtract(stiffnesses * elong**3, kd, out=dp)
        else:
            np.negative(kd, out=dp)
        if n > 1:
            dp[..., :-1] -= dp[..., 1:]
        for j, row in enumerate(forced):
            out[..., row] += u[..., j]
        return out

    return field
