"""Fixed-step RK4 integration of lane batches with zero-order-hold inputs.

One kernel, `rk4_lanes`, steps every trajectory in the package: data
generation, training rollouts (whose field writes the adjoint's stage
record), validation and evaluation. `rollout` is its one-lane wrapper. Each
lane's update is the same sequence of array operations whatever the batch,
so a lane of the true system field is bit-identical to the same trajectory
simulated alone. A learned field multiplies the whole batch through BLAS,
whose rounding can depend on the number of rows, so its lanes agree with
one-lane rollouts to BLAS rounding (about 1e-14 relative), not bit for bit.
"""

from __future__ import annotations

import numpy as np

__all__ = ["IntegrationError", "rk4_lanes", "rollout"]


class IntegrationError(RuntimeError):
    """A step produced a non-finite state.

    `step_index` is the index of the transition (input row) whose update
    diverged; None when raised outside a rollout.
    """

    def __init__(self, message: str, step_index: int | None = None):
        super().__init__(message)
        self.step_index = step_index


def rk4_lanes(field, x0, u, h: float):
    """Classical RK4 over B independent lanes; input row u[k] is held over step k.

    x0: (B, d) initial states; u: (T, B, ...) per-lane inputs, passed to
    `field(x, u[k])` with x of shape (B, d). Returns the states (T + 1, B, d)
    and `diverged` (B,), the index of each lane's first non-finite state
    (0 = x0), -1 if none. A lane that turns non-finite is dead: that state
    is replaced by zero, and the lane's later states carry no meaning. Once
    every lane is dead the remaining states are zero and stepping stops.
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
    states = np.empty((n_steps + 1, n_lanes, d))
    states[0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            uk = u[k]
            k1 = field(x, uk)
            k2 = field(x + (h / 2.0) * k1, uk)
            k3 = field(x + (h / 2.0) * k2, uk)
            k4 = field(x + h * k3, uk)
            x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            # one whole-array test per step; the lanes are sought only on a failure
            if not np.isfinite(x).all():
                bad = ~np.isfinite(x).all(axis=1)
                diverged[bad & (diverged < 0)] = k + 1
                x = np.where(bad[:, None], 0.0, x)
                if (diverged >= 0).all():
                    states[k + 1 :] = 0.0
                    break
            states[k + 1] = x
    return states, diverged


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
    states, diverged = rk4_lanes(field, x0.reshape(1, -1), u_seq[:-1, None], h)
    if diverged[0] == 0:
        raise IntegrationError("initial state is not finite", step_index=0)
    if diverged[0] > 0:
        k = int(diverged[0]) - 1
        raise IntegrationError(f"non-finite state while applying input row {k}", step_index=k)
    return states[:, 0]
