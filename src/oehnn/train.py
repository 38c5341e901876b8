"""Losses, exact gradients through the unrolled solver, Adam, and the fit driver.

The simulation loss rolls the model field out with RK4 and measures the
output residual; its gradient is the adjoint of the discrete unrolled
computation (reverse sweep over every solver stage), so it is exact for the
loss actually computed. Nothing is recomputed: the forward records k1..k3 and
the four stages' tanh of every step, so memory is O(steps * batch * n_hidden).
The energy-net kernel (`h_grad_x`, `_grad_vjp`) writes only the buffers it is
handed (or allocates when it is handed none): in the forward, the tanh slot of
the record and a (B, n_hidden) scratch array; in the reverse sweep, that
scratch array and one more of the same shape, which each `_sim_batch` call
allocates once and every RK4 stage reuses. The derivative batches write only
the (N, n_hidden) arrays of `_derivative_buffers`, which `fit` allocates once
with the fit's G u or [x, u] rows. Every buffer is overwritten before it is
read, so no value carries from one call to the next; the reverse sweep only
reads the record, and no caller's states or cotangents are ever written.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import repeat

import numpy as np

from oehnn import textio
from oehnn.data import Dataset, Trajectory, fd_derivatives
from oehnn.dynamics import StructureMatrices, _j_apply, structure_matrices
from oehnn.integrate import rk4_lanes
from oehnn.netmodel import (
    BlackBoxNet,
    HamiltonianNet,
    _blackbox_rows,
    flatten_params,
    h_grad_x,
    init_blackbox_net,
    init_hamiltonian_net,
    with_params,
)

__all__ = [
    "TrainConfig",
    "AdamState",
    "TrainingError",
    "FitResult",
    "adam_step",
    "init_adam",
    "simulation_loss",
    "simulation_loss_grad",
    "derivative_loss_grad",
    "fit",
    "write_history_csv",
]

ANCHORS = ("measured", "true")
DERIVATIVE_SOURCES = ("fd", "true")
# Most epochs `fit` may run ahead of their validation: with the helper
# process, which validates whatever has queued in one stacked rollout, and
# inline, which validates each window of this many epochs in one rollout.
_RUN_AHEAD = 16
_INLINE_WINDOW = 8
# The loss a training or validation lane scores when its rollout diverges.
DIVERGENCE_PENALTY = 1e6


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and training-loop settings."""

    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    max_epochs: int = 5000
    patience: int = 500
    chunk_length: int | None = None
    n_hidden: int = 200
    seed: int = 0
    derivative_source: str = "fd"
    anchor: str = "measured"

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("betas must lie in [0, 1)")
        if not 0 < self.epsilon < np.inf:
            raise ValueError("epsilon must be positive and finite")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be at least 1")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.chunk_length is not None and self.chunk_length < 2:
            raise ValueError("chunk_length must be at least 2")
        if self.n_hidden < 1:
            raise ValueError("n_hidden must be at least 1")
        if self.derivative_source not in DERIVATIVE_SOURCES:
            raise ValueError(f"derivative_source must be one of {DERIVATIVE_SOURCES}")
        if self.anchor not in ANCHORS:
            raise ValueError(f"anchor must be one of {ANCHORS}")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0


def init_adam(n_params: int) -> AdamState:
    return AdamState(m=np.zeros(n_params), v=np.zeros(n_params), step=0)


def adam_step(
    theta: np.ndarray, grad: np.ndarray, state: AdamState, config: TrainConfig
) -> tuple[np.ndarray, AdamState]:
    """Bias-corrected Adam update; returns new parameters and state."""
    if theta.shape != grad.shape or theta.shape != state.m.shape:
        raise ValueError("parameter, gradient, and accumulator shapes must agree")
    if not np.all(np.isfinite(grad)):
        raise TrainingError("non-finite gradient passed to adam_step")
    t = state.step + 1
    m = config.beta1 * state.m + (1.0 - config.beta1) * grad
    v = config.beta2 * state.v + (1.0 - config.beta2) * grad**2
    m_hat = m / (1.0 - config.beta1**t)
    v_hat = v / (1.0 - config.beta2**t)
    theta_new = theta - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
    return theta_new, AdamState(m=m, v=v, step=t)


# ---------------------------------------------------------------------------
# Batched rollout of the Hamiltonian model field with adjoint backward sweep.
# Lanes (batch rows) are independent trajectory segments; a lane that turns
# non-finite is frozen at zero and contributes a fixed penalty with no
# gradient, so one runaway segment cannot poison an epoch.
# ---------------------------------------------------------------------------


class _ThetaGrad:
    """Accumulator for gradients in HamiltonianNet layout."""

    def __init__(self, net: HamiltonianNet):
        self.w1 = np.zeros_like(net.w1)
        self.b1 = np.zeros_like(net.b1)
        self.w2 = np.zeros_like(net.w2)
        self.b2 = 0.0

    def flat(self) -> np.ndarray:
        return np.concatenate([self.w1.ravel(), self.b1, self.w2, np.array([self.b2])])


def _grad_vjp(net, x, th, w, acc: _ThetaGrad, scratch=None):
    """Accumulate the parameter pullback of a cotangent w on dH/dx(x).

    `th` is tanh(z), z = w1 @ x + b1. Returns p = (w2 * s'(z)) * (w @ w1.T),
    s'(z) = -2 tanh(z) sech^2(z), so p @ w1 is the state pullback. The w2
    gradient comes from sech^2(z).T @ w, which the w1 gradient needs anyway.
    `scratch`, two arrays shaped like `th`, receives the sech^2 terms and p
    (both are allocated when it is None), so the returned p is its second
    array. Writes nothing else, never `x`, `th` or `w`.
    """
    s, p = scratch or (None, None)
    s = np.multiply(th, th, out=s)
    np.subtract(1.0, s, out=s)
    sw = s.T @ w
    s *= th
    p = np.matmul(w, (net.w1 * (-2.0 * net.w2)[:, None]).T, out=p)
    p *= s
    acc.w2 += (sw * net.w1).sum(axis=1)
    acc.b1 += p.sum(axis=0)
    acc.w1 += sw * net.w2[:, None] + p.T @ x
    return p


def _stage_vjp(net, x, th, v, n, acc: _ThetaGrad, scratch=None):
    """Pull a cotangent v on f(x) = J dH/dx + G u back to x (the Hessian of H
    applied to J.T v, returned) and to the parameters (accumulated in `acc`);
    `th` is this stage's forward tanh(w1 @ x + b1), `scratch` as in `_grad_vjp`; J.T = -J."""
    return _grad_vjp(net, x, th, _j_apply(-v, n), acc, scratch=scratch) @ net.w1


def _lane_loss(xs, y, diverged, weight, penalty):
    """Per-lane weighted sum of residual norms; a dead lane pays `penalty`.

    Also returns the residuals and their norms, (T, B, d) and (T, B).
    """
    resid = xs[1:] - y[1:]
    norms = np.linalg.norm(resid, axis=2)
    return np.where(diverged < 0, weight * norms.sum(axis=0), penalty), resid, norms


def _sim_batch(
    net: HamiltonianNet,
    S: StructureMatrices,
    x0: np.ndarray,
    gu: np.ndarray,
    y: np.ndarray,
    h: float,
    weight: np.ndarray,
    penalty: float,
    want_grad: bool,
):
    """Loss and parameter gradient of batched model rollouts.

    x0: (B, d) anchors; gu: (T, B, d) input injections G @ u per transition;
    y: (T+1, B, d) reference outputs (row 0 unused); weight: (B,) scale on
    each lane's residual-norm sum. Returns (per-lane loss, flat grad or None,
    diverged step per lane with -1 for clean lanes). The forward pass runs on
    the shared RK4 kernel, whose stage record (k1..k3 and each stage's tanh
    activations) the reverse sweep reads. Every RK4 stage of both passes
    reuses the same (B, n_hidden) scratch arrays.
    """
    n_steps, B, d = gu.shape
    n = d // 2
    scratch = (np.empty((B, net.n_hidden)), np.empty((B, net.n_hidden)) if want_grad else None)
    if want_grad:
        ks = np.empty((n_steps, 3, B, d))
        # forward-pass tanh activations per stage, reused by the reverse sweep
        ths = np.empty((n_steps, 4, B, net.n_hidden))
        slots = iter(ths.reshape(4 * n_steps, B, net.n_hidden))
        stages = (ks, ths)
    else:
        slots, stages = repeat(None), None

    def field(x, g_in):
        return _j_apply(h_grad_x(net, x, next(slots), scratch[0]), n) + g_in

    xs, diverged, _ = rk4_lanes(field, x0, gu, h, stages=stages)
    lane_loss, resid, norms = _lane_loss(xs, y, diverged, weight, penalty)
    if not want_grad:
        return lane_loss, None, diverged

    acc = _ThetaGrad(net)
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
        x4_bar = _stage_vjp(net, x4, th4, (h / 6.0) * lam, n, acc, scratch)
        x3_bar = _stage_vjp(net, x3, th3, (h / 3.0) * lam + h * x4_bar, n, acc, scratch)
        x2_bar = _stage_vjp(net, x2, th2, (h / 3.0) * lam + (h / 2.0) * x3_bar, n, acc, scratch)
        x1_bar = _stage_vjp(net, x, th1, (h / 6.0) * lam + (h / 2.0) * x2_bar, n, acc, scratch)
        lam = lam + x4_bar + x3_bar + x2_bar + x1_bar
    return lane_loss, acc.flat(), diverged


def _anchor_state(traj: Trajectory, anchor: str) -> np.ndarray:
    if anchor == "measured":
        return traj.y[0]
    if anchor == "true":
        if traj.x_true is None:
            raise TrainingError("anchor='true' requires stored noiseless states")
        return traj.x_true[0]
    raise ValueError(f"anchor must be one of {ANCHORS}")


def _traj_arrays(trajs: list[Trajectory], S: StructureMatrices, anchor: str):
    """Stack equal-length trajectories into lane-batched rollout arrays."""
    n = trajs[0].n_samples
    if any(tr.n_samples != n for tr in trajs):
        raise TrainingError("trajectories in one batch must share a common length")
    h = trajs[0].ts
    x0 = np.stack([_anchor_state(tr, anchor) for tr in trajs])
    u = np.stack([tr.u[:-1] for tr in trajs], axis=1)  # (T, B, m)
    gu = u @ S.G.T
    y = np.stack([tr.y for tr in trajs], axis=1)  # (T+1, B, d)
    weight = np.full(len(trajs), 1.0 / n)
    return x0, gu, y, h, weight


def _chunk_arrays(trajs: list[Trajectory], S: StructureMatrices, anchor: str, chunk: int):
    """Cut trajectories into sub-rollouts re-anchored at measured samples.

    Every residual sample keeps its 1/N weight, so the chunked loss sums the
    same residual terms as the full rollout, just along shorter horizons.
    Returns one (x0, gu, y, h, weight) group per distinct segment length.
    """
    groups: dict[int, list[tuple[np.ndarray, np.ndarray, np.ndarray, float]]] = {}
    h = trajs[0].ts
    for tr in trajs:
        n = tr.n_samples
        anchors = tr.y if anchor == "measured" else tr.x_true
        if anchors is None:
            raise TrainingError("anchor='true' requires stored noiseless states")
        for k0 in range(0, n - 1, chunk):
            length = min(chunk, n - 1 - k0)
            groups.setdefault(length, []).append(
                (anchors[k0], tr.u[k0 : k0 + length], tr.y[k0 : k0 + length + 1], 1.0 / n)
            )
    out = []
    for length, segs in sorted(groups.items()):
        x0 = np.stack([s[0] for s in segs])
        u = np.stack([s[1] for s in segs], axis=1)
        y = np.stack([s[2] for s in segs], axis=1)
        weight = np.array([s[3] for s in segs])
        out.append((x0, u @ S.G.T, y, h, weight))
    return out


def simulation_loss(
    net: HamiltonianNet,
    S: StructureMatrices,
    trajectory: Trajectory,
    anchor: str = "measured",
) -> float:
    """Mean output-residual norm of the model rollout against measurements.

    The model starts from the anchor sample and is driven by the recorded
    inputs; the loss is (1/N) * sum_{k>=1} ||y_k - y_hat_k||_2.
    """
    loss, _ = _sim_loss_value_grad(net, S, trajectory, anchor, want_grad=False)
    return loss


def simulation_loss_grad(
    net: HamiltonianNet,
    S: StructureMatrices,
    trajectory: Trajectory,
    anchor: str = "measured",
) -> tuple[float, np.ndarray]:
    """Simulation loss and its exact gradient with respect to the parameters."""
    return _sim_loss_value_grad(net, S, trajectory, anchor, want_grad=True)


def _sim_loss_value_grad(net, S, trajectory, anchor, want_grad):
    if trajectory.n_samples < 2:
        raise ValueError("trajectory must contain at least 2 samples")
    x0, gu, y, h, weight = _traj_arrays([trajectory], S, anchor)
    lane_loss, grad, diverged = _sim_batch(
        net, S, x0, gu, y, h, weight, penalty=DIVERGENCE_PENALTY, want_grad=want_grad
    )
    if diverged[0] >= 0:
        raise TrainingError(f"model rollout diverged at step {diverged[0]}")
    return float(lane_loss[0]), grad


# ---------------------------------------------------------------------------
# Derivative-matching losses for the classical baselines.
# ---------------------------------------------------------------------------


def _derivative_buffers(net, x, v):
    """What a derivative batch on rows x computes once and reuses: its input
    term, the rows G u for the energy net (`v`, kept as it is) or [x, u] for
    the black-box net (`v` is u), then the (N, n_hidden) arrays it writes,
    three for the energy net and two for the black-box net. A batch
    overwrites every one of them before reading it, so none carries a value
    from one call to the next."""
    rows = (len(x), net.n_hidden)
    if isinstance(net, HamiltonianNet):
        return v, np.empty(rows), np.empty(rows), np.empty(rows)
    return np.concatenate([x, v], axis=1), np.empty(rows), np.empty(rows)


def _derivative_batch_hnn(net, S, x, dx_target, u, sample_weight, out=None):
    gu, th, s, p = out or _derivative_buffers(net, x, u @ S.G.T)
    n = net.n_states // 2
    g = h_grad_x(net, x, th, s)
    r1 = g[:, n:] - dx_target[:, :n]  # momentum gradient vs position rate
    r2 = g[:, :n] + dx_target[:, n:] - gu[:, n:]  # position gradient vs forced momentum rate
    n1 = np.linalg.norm(r1, axis=1)
    n2 = np.linalg.norm(r2, axis=1)
    loss = float(np.sum(sample_weight * (n1 + n2)))
    g_cot = np.zeros_like(g)
    s1 = np.where(n1 > 0.0, sample_weight / np.maximum(n1, 1e-300), 0.0)
    s2 = np.where(n2 > 0.0, sample_weight / np.maximum(n2, 1e-300), 0.0)
    g_cot[:, n:] = s1[:, None] * r1
    g_cot[:, :n] = s2[:, None] * r2
    acc = _ThetaGrad(net)
    _grad_vjp(net, x, th, g_cot, acc, scratch=(s, p))
    return loss, acc.flat()


def _derivative_batch_mlp(net, x, dx_target, u, sample_weight, out=None):
    xu, th, hidden = out or _derivative_buffers(net, x, u)
    np.matmul(xu, net.w1.T, out=th)
    th += net.b1
    np.tanh(th, out=th)
    f = th @ net.w2.T + net.b2
    r = f - dx_target
    nr = np.linalg.norm(r, axis=1)
    loss = float(np.sum(sample_weight * nr))
    scale = np.where(nr > 0.0, sample_weight / np.maximum(nr, 1e-300), 0.0)
    f_cot = scale[:, None] * r
    w2_grad = f_cot.T @ th
    np.matmul(f_cot, net.w2, out=hidden)
    np.multiply(th, th, out=th)  # th is read no more: it takes sech^2
    np.subtract(1.0, th, out=th)
    hidden *= th
    grad = np.concatenate(
        [
            (hidden.T @ xu).ravel(),
            hidden.sum(axis=0),
            w2_grad.ravel(),
            f_cot.sum(axis=0),
        ]
    )
    return loss, grad


def derivative_loss_grad(model, S: StructureMatrices, x, dx_target, u):
    """Mean per-sample derivative-matching residual and its parameter gradient.

    For the Hamiltonian net this is the two-term structured residual
    ||dH/dp - q_dot|| + ||dH/dq + p_dot - G u|| averaged over samples; for
    the black-box net it is the plain regression residual ||f(x, u) - dx||.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    dx_target = np.atleast_2d(np.asarray(dx_target, dtype=float))
    u = np.asarray(u, dtype=float)
    if u.ndim == 0:
        u = np.full((x.shape[0], 1), float(u))
    elif u.ndim == 1:
        u = u[:, None] if u.shape[0] == x.shape[0] else np.atleast_2d(u)
    weight = np.full(x.shape[0], 1.0 / x.shape[0])
    if isinstance(model, HamiltonianNet):
        return _derivative_batch_hnn(model, S, x, dx_target, u, weight)
    if isinstance(model, BlackBoxNet):
        return _derivative_batch_mlp(model, x, dx_target, u, weight)
    raise TypeError(f"unsupported model type {type(model).__name__}")


# ---------------------------------------------------------------------------
# Training driver.
# ---------------------------------------------------------------------------


@dataclass
class FitResult:
    model: object
    kind: str
    history: np.ndarray  # (epochs, 3): epoch, train_loss, val_loss
    best_epoch: int
    best_val_loss: float


def write_history_csv(history: np.ndarray, path) -> None:
    # the number format writes a whole-number epoch without a decimal point
    textio.write_table(path, "epoch,train_loss,val_loss", history)


def _derivative_training_set(trajs, source, ts):
    xs, dxs, us, weights = [], [], [], []
    for tr in trajs:
        if source == "true":
            if tr.x_true is None or tr.dx_true is None:
                raise TrainingError("derivative_source='true' requires stored truth")
            x, dx = tr.x_true, tr.dx_true
        else:
            x, dx = tr.y, fd_derivatives(tr.y, ts)
        xs.append(x)
        dxs.append(dx)
        us.append(tr.u)
        weights.append(np.full(tr.n_samples, 1.0 / tr.n_samples))
    return (
        np.concatenate(xs),
        np.concatenate(dxs),
        np.concatenate(us),
        np.concatenate(weights),
    )


def _val_losses(template, thetas, kind, S, groups, penalty) -> list[float]:
    """Validation loss of each parameter vector in `thetas` (K, P).

    One RK4 rollout of the stacked model steps all K models at once, over
    K * B lanes. Each model's block of B lanes goes through the same
    operations as a one-model rollout, and its loss is reduced from its own
    lanes alone, so each loss has the bits of validating that model alone.
    """
    K = len(thetas)
    # a lone model runs as a plain net, whose 2-D matmuls cost less per call
    net = with_params(template, thetas[0] if K == 1 else thetas)
    totals = [0.0] * K
    for x0, gu, y, h, weight in groups:
        B, d = x0.shape
        block = (B, d) if K == 1 else (K, B, d)
        if kind == "mlp":
            # the black-box net takes raw inputs: G has orthonormal columns
            u = gu @ S.G
            if K > 1:
                u = np.repeat(u[:, None], K, axis=1)  # each model's block of lanes

            def field(x, uk):
                return _blackbox_rows(net, x.reshape(block), uk).reshape(K * B, d)

        else:
            u = gu

            def field(x, g_in):
                return (_j_apply(h_grad_x(net, x.reshape(block)), d // 2) + g_in).reshape(K * B, d)

        xs, diverged, _ = rk4_lanes(field, np.tile(x0, (K, 1)), u, h)
        xs = xs.reshape(len(xs), K, B, d)
        diverged = diverged.reshape(K, B)
        for k in range(K):
            totals[k] += float(_lane_loss(xs[:, k], y, diverged[k], weight, penalty)[0].sum())
    return totals


def _serve_validation(conn, parent_end, val_losses) -> None:
    """Helper-process loop: every parameter vector queued in the pipe is
    validated in one stacked rollout, and their losses go back as one list."""
    import signal

    # an interrupt is the parent's to handle; the parent then stops this process
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # the forked copy of the parent's end would keep this end from seeing EOF
    parent_end.close()
    with conn:
        while True:
            try:
                thetas = [np.frombuffer(conn.recv_bytes())]
                while conn.poll():
                    thetas.append(np.frombuffer(conn.recv_bytes()))
                conn.send(val_losses(np.stack(thetas)))
            except (EOFError, BrokenPipeError):
                return


class _ValidationHelper:
    """One forked process that validates the epochs `fit` has run ahead of,
    while the parent computes training gradients.

    The fork inherits the validation arrays and the loss function, so only
    parameter bytes and losses cross the pipe, and the helper runs the same
    code on the same bytes as an inline call.
    """

    def __init__(self, val_losses):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        self._proc = ctx.Process(
            target=_serve_validation,
            args=(child_end, self._conn, val_losses),
            daemon=True,
        )
        self._proc.start()
        # once closed here, the helper's exit shows as EOF on self._conn
        child_end.close()

    def submit(self, theta: np.ndarray) -> None:
        try:
            self._conn.send_bytes(theta.tobytes())
        except ConnectionError:
            raise self._died() from None

    def results(self, block: bool) -> list[float]:
        """The losses sent back since the last call, in submission order;
        with `block`, wait until there is at least one."""
        out: list[float] = []
        try:
            while (block and not out) or self._conn.poll():
                out += self._conn.recv()
        except (EOFError, ConnectionError):
            # a helper that exits with parameters still unread resets the pipe
            raise self._died() from None
        return out

    def _died(self) -> TrainingError:
        self._proc.join(timeout=1.0)
        return TrainingError(
            f"the validation helper process exited unexpectedly (exit code {self._proc.exitcode})"
        )

    def close(self) -> None:
        self._conn.close()
        self._proc.terminate()
        self._proc.join()


def _process_budget(workers: int) -> int:
    """The processes `workers` allows: its value, every usable core for 0, and
    always 1 in a daemonic process (a pool worker), which may not fork."""
    if workers < 0:
        raise ValueError("workers must be at least 0")
    import multiprocessing

    if multiprocessing.current_process().daemon:
        return 1
    if workers == 0:
        return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    return workers


def _check_first_loss(split: str, loss: float) -> None:
    """A loss that is not finite at the first epoch comes from the data (a
    value whose residual norm overflows), not from training, so no epoch
    could improve on it."""
    if not np.isfinite(loss):
        raise TrainingError(
            f"the {split} loss at epoch 1 is {loss}; the {split} data may hold "
            "values too large for its residual norms"
        )


# `fit` reports a loss or gradient that overflows itself (the divergence
# penalty, `_check_first_loss`, the non-finite gradient check), so numpy's
# warnings would only repeat it; the forked validation helper inherits this.
@np.errstate(over="ignore", invalid="ignore")
def fit(
    kind: str,
    dataset: Dataset,
    config: TrainConfig | None = None,
    initial_model=None,
    workers: int = 0,
) -> FitResult:
    """Train a model of the given kind and return the best-validation copy.

    One full-batch Adam step per epoch: the training loss and gradient are
    summed over all training trajectories (simulation loss for 'oe-hnn',
    derivative matching for 'hnn' and 'mlp'). Validation is always the
    simulation loss, so model selection is comparable across estimators.
    Pass `initial_model` to warm-start instead of drawing a fresh seeded
    initialization (used for staged chunked-then-full training).

    Adam's steps never read the validation loss, so the fit runs ahead:
    epoch e+1's gradient starts before epoch e is validated, and the
    epochs awaiting validation are validated together, in one rollout of a
    stacked model. Their results are settled strictly in epoch order, so
    `history`, the best copy, `best_epoch` and the patience stop are those
    of validating every epoch before the next step. A patience stop at
    epoch e discards every gradient computed past e. A non-finite gradient
    raises `TrainingError` only once every earlier epoch is settled and none
    of them stopped the fit, as without run-ahead; an all-diverged first
    epoch, or a training loss that is not finite at the first epoch, raises
    at once, and a validation loss that is not finite at the first epoch
    raises when that epoch is settled.

    `workers` is a process budget: its value, every usable core for 0 (the
    default), and always 1 in a daemonic process such as a pool worker,
    which may not fork; a negative value raises `ValueError`. With a budget
    of 1, this process validates each window of `_INLINE_WINDOW` epochs
    after their gradients. With 2 or more, one forked helper process
    validates while this process computes gradients: each epoch's
    parameters go to the helper as the epoch starts, the helper validates
    everything queued for it in one rollout, and this process waits only
    when `_RUN_AHEAD` epochs await validation, at the last epoch and before
    refusing a non-finite gradient. Each stacked member's loss has the bits
    of validating that model alone, so `history` and the returned model are
    bit-identical for every `workers` and every batching. The helper is
    stopped when `fit` returns or raises; if it dies, `fit` raises
    `TrainingError`.
    """
    config = config or TrainConfig()
    if kind not in ("oe-hnn", "hnn", "mlp"):
        raise ValueError(f"unknown model kind {kind!r}")
    overlap = _process_budget(workers) >= 2
    if not dataset.train or not dataset.validation:
        raise TrainingError("dataset needs non-empty train and validation splits")

    S = structure_matrices(dataset.system)
    d = dataset.system.n_states
    m = dataset.system.n_inputs
    rng = np.random.default_rng(config.seed)
    if initial_model is not None:
        wants_hamiltonian = kind in ("oe-hnn", "hnn")
        if wants_hamiltonian != isinstance(initial_model, HamiltonianNet):
            raise TrainingError(f"initial_model type does not fit kind {kind!r}")
        template = initial_model
    elif kind == "mlp":
        template = init_blackbox_net(d, m, config.n_hidden, rng)
    else:
        template = init_hamiltonian_net(d, config.n_hidden, rng)
    theta = flatten_params(template)
    adam = init_adam(theta.size)

    if kind == "oe-hnn":
        if config.chunk_length is None:
            train_groups = [_traj_arrays(dataset.train, S, config.anchor)]
        else:
            train_groups = _chunk_arrays(dataset.train, S, config.anchor, config.chunk_length)
    else:
        x_fit, dx_fit, u_fit, w_fit = _derivative_training_set(
            dataset.train, config.derivative_source, dataset.ts
        )
        buffers = _derivative_buffers(template, x_fit, u_fit @ S.G.T if kind == "hnn" else u_fit)
    val_groups = [_traj_arrays(dataset.validation, S, config.anchor)]

    def train_loss_grad(model):
        if kind == "oe-hnn":
            total = 0.0
            grad = np.zeros_like(theta)
            n_dead = 0
            n_lanes = 0
            for x0, gu, y, h, weight in train_groups:
                lane_loss, g, diverged = _sim_batch(
                    model, S, x0, gu, y, h, weight, DIVERGENCE_PENALTY, True
                )
                total += float(lane_loss.sum())
                grad += g
                n_dead += int((diverged >= 0).sum())
                n_lanes += len(lane_loss)
            return total, grad, n_dead == n_lanes
        if kind == "hnn":
            loss, g = _derivative_batch_hnn(model, S, x_fit, dx_fit, u_fit, w_fit, buffers)
        else:
            loss, g = _derivative_batch_mlp(model, x_fit, dx_fit, u_fit, w_fit, buffers)
        return loss, g, False

    validate = partial(
        _val_losses, template, kind=kind, S=S, groups=val_groups,
        penalty=DIVERGENCE_PENALTY,
    )
    history = []
    best_theta = theta.copy()
    best_val = np.inf
    best_epoch = 0
    pending: deque = deque()  # (epoch, theta, train loss) awaiting validation, oldest first
    losses: deque = deque()  # the validation losses known for the oldest of them
    helper = _ValidationHelper(validate) if overlap else None
    limit = _RUN_AHEAD if helper is not None else _INLINE_WINDOW

    def fetch(block: bool) -> list[float]:
        if helper is not None:
            return helper.results(block)
        return validate(np.stack([th for _, th, _ in pending])) if block else []

    try:
        for epoch in range(1, config.max_epochs + 1):
            if helper is not None:
                helper.submit(theta)
            tr_loss, grad, all_dead = train_loss_grad(with_params(template, theta))
            if all_dead and epoch == 1:
                raise TrainingError(
                    "every training rollout diverged at the first epoch; "
                    "reduce the learning rate or set a chunk_length"
                )
            if epoch == 1:
                _check_first_loss("training", tr_loss)
            pending.append((epoch, theta, tr_loss))
            # settle every epoch before the last one or before a non-finite
            # gradient is refused, else just enough to stay within the limit
            if epoch == config.max_epochs or not np.isfinite(grad).all():
                n_due = len(pending)
            else:
                n_due = len(pending) - limit + 1
            losses.extend(fetch(block=False))
            stopped = False
            while not stopped and (losses or n_due > 0):
                if not losses:
                    losses.extend(fetch(block=True))
                ep, th, tr = pending.popleft()
                v_loss = losses.popleft()
                if ep == 1:
                    _check_first_loss("validation", v_loss)
                n_due -= 1
                history.append((ep, tr, v_loss))
                if v_loss < best_val:
                    best_val = v_loss
                    best_theta = th.copy()
                    best_epoch = ep
                elif ep - best_epoch >= config.patience:
                    stopped = True
            if stopped:
                break
            theta, adam = adam_step(theta, grad, adam, config)
    finally:
        if helper is not None:
            helper.close()

    return FitResult(
        model=with_params(template, best_theta),
        kind=kind,
        history=np.array(history),
        best_epoch=best_epoch,
        best_val_loss=float(best_val),
    )
