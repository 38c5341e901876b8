"""Fixed-step RK4 integration of lane batches with zero-order-hold inputs.

One kernel, `rk4_lanes`, steps every trajectory in the package: data
generation, training rollouts and their adjoint stage record, validation
and evaluation. `rollout` is its one-lane wrapper. Each lane's update is the
same sequence of array operations whatever the batch, so a lane of the true
system field is bit-identical to the same trajectory simulated alone. A
learned field multiplies the whole batch through BLAS, whose rounding can
depend on the number of rows, so its lanes agree with one-lane rollouts to
BLAS rounding (about 1e-14 relative), not bit for bit.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["IntegrationError", "Lanes", "rk4_lanes", "rollout"]


class IntegrationError(RuntimeError):
    """A step produced a non-finite state.

    `step_index` is the index of the transition (input row) whose update
    diverged; None when raised outside a rollout.
    """

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index


class Lanes(NamedTuple):
    """Result of `rk4_lanes`."""

    states: np.ndarray  # (T + 1 - keep_from, B, d): states keep_from..T
    diverged: np.ndarray  # (B,): first non-finite state index (0 = x0), -1 if none
    peak: np.ndarray | None  # (B, d): max |x| over all T + 1 states, when asked


def rk4_lanes(field, x0, u, h: float, *, keep_from: int = 0, peak: bool = False, stages=None):
    """Classical RK4 over B independent lanes; input row u[k] is held over step k.

    x0: (B, d) initial states; u: (T, B, ...) per-lane inputs, passed to
    `field(x, u[k])` with x of shape (B, d). A lane that turns non-finite is
    dead: `diverged` reports the index of its first non-finite state, that
    state is replaced by zero, and the lane's later states carry no meaning.
    Once every lane is dead the remaining states are zero and stepping
    stops, unless a stage record is kept.

    keep_from: return only the states from that index on (the full grid is
    never stored). peak: also return each lane's running max |x| per
    coordinate. stages: a per-step record for an adjoint sweep, a tuple whose
    first array, (T, 3, B, d), receives k1..k3 of every step; further arrays
    (T, S, B, ...) are filled by `field` itself. At the step a lane dies its
    rows in every record array are zeroed, so a reverse sweep stays finite.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    x = np.asarray(x0, dtype=float)
    n_steps = len(u)
    n_lanes, d = x.shape
    diverged = np.full(n_lanes, -1, dtype=int)
    bad = ~np.isfinite(x).all(axis=1)
    if bad.any():
        diverged[bad] = 0
        x = np.where(bad[:, None], 0.0, x)
    states = np.empty((n_steps + 1 - keep_from, n_lanes, d))
    if keep_from == 0:
        states[0] = x
    top = np.abs(x) if peak else None
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            uk = u[k]
            k1 = field(x, uk)
            k2 = field(x + (h / 2.0) * k1, uk)
            k3 = field(x + (h / 2.0) * k2, uk)
            k4 = field(x + h * k3, uk)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if stages is not None:
                ks = stages[0][k]
                ks[0] = k1
                ks[1] = k2
                ks[2] = k3
            # one whole-array test per step; the lanes are sought only on a failure
            if not np.isfinite(x).all():
                bad = ~np.isfinite(x).all(axis=1)
                diverged[bad & (diverged < 0)] = k + 1
                x = np.where(bad[:, None], 0.0, x)
                if stages is not None:
                    for record in stages:
                        record[k][:, bad] = 0.0
                elif (diverged >= 0).all():
                    states[max(k + 1 - keep_from, 0) :] = 0.0
                    break
            if peak:
                np.maximum(top, np.abs(x), out=top)
            if k + 1 >= keep_from:
                states[k + 1 - keep_from] = x
    return Lanes(states, diverged, top)


def rollout(field, x0, u_seq, h: float) -> np.ndarray:
    """Simulate N samples under ZOH inputs; row k of u_seq acts on [k*h, (k+1)*h).

    Returns the N states at t = 0, h, ..., (N-1)*h with row 0 equal to x0.
    The last input row is unused (there is no transition after the last
    sample). `field` receives one-row batches: x of shape (1, d) and the
    input row as (1, m). Raises IntegrationError with the offending step
    index if the state leaves the representable range.
    """
    x0 = np.asarray(x0, dtype=float)
    u_seq = np.asarray(u_seq, dtype=float)
    n_samples = u_seq.shape[0]
    if n_samples < 1:
        raise ValueError("u_seq must contain at least one row")
    states, diverged, _ = rk4_lanes(field, x0.reshape(1, -1), u_seq[:-1, None], h)
    if diverged[0] == 0:
        raise IntegrationError("initial state is not finite", step_index=0)
    if diverged[0] > 0:
        k = int(diverged[0]) - 1
        raise IntegrationError(f"non-finite state while applying input row {k}", step_index=k)
    return states[:, 0]
