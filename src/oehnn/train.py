"""Losses, exact gradients through the unrolled solver, Adam, and the fit driver.

The simulation loss rolls the model field out with RK4 and measures the
output residual; its gradient is the adjoint of the discrete unrolled
computation (reverse sweep over every solver stage), so it is exact for the
loss actually computed. Nothing is recomputed: the forward records each
stage's rows [x, 1] and tanh, so memory is O(steps * batch * n_hidden).

`_lanes` alone turns a split into RK4 lanes, whole trajectories or
re-anchored segments, all padded to the longest lane's steps and each scored
only over its own, for training, validation, `simulation_loss(_grad)` and
`evaluate`. `_energy_rollout` is the one energy-net rollout, plain or
stacked, with or without a stage record; each stage writes its rows [x, 1]
to its slot, and `netmodel._energy_kernel` returns J dH/dx from them, forms
w1 @ x + b1 in scratch, scales by one contiguous tile of w2 built per
rollout and writes only tanh to the stage's slot. The reverse sweep forms
J.T v from v's two halves in one concatenation, and its VJP, `_grad_vjp`,
takes the stage's rows [x, 1] too.

The stage record, with two (B, n_hidden) scratch arrays that every RK4 stage
of both passes reuses, comes from `_stage_record`. `fit` allocates one record
per fit, in the shapes of its training lanes, and every epoch's gradient
reuses it; a caller that hands none, such as `simulation_loss_grad`, gets one
per call. Before its loop the reverse sweep computes each step's residual
pullback (lane scale times residual) in one whole-array pass;
`_ThetaGrad` holds the VJP's net factors (w1 * -2 w2[:, None]).T and
w2[:, None]; each step forms (h/6) lambda and (h/3) lambda once. Each of
these is the operation the loop would otherwise repeat, on the same
operands, so the bits do not depend on where it runs. The sweep only reads
the record.

`fit` computes every training gradient itself and validates windows of
`_WINDOW` epochs, one stacked rollout each, inline or in a forked helper
process, and settles them in epoch order.

The energy-net kernel (`_energy_kernel`, `_grad_vjp`) writes only the buffers
it is handed, or allocates when it is handed none. The derivative batches
run their rows through `_derivative_blocks` in blocks of about
`_BLOCK_ELEMENTS` / n_hidden rows into one gradient accumulator, and write
only one block's (rows, n_hidden) arrays of `_derivative_buffers`, which
`fit` allocates once with the fit's [x, 1] and G u rows or [x, u] rows.
Every work array is overwritten before it is read, so no value carries from
one block or call to the next, and no caller's states or cotangents are
ever written.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from oehnn import textio
from oehnn.data import Dataset, Trajectory, fd_derivatives
from oehnn.dynamics import StructureMatrices, structure_matrices
from oehnn.integrate import rk4_lanes
from oehnn.netmodel import (
    MODEL_KINDS,
    BlackBoxNet,
    HamiltonianNet,
    _blackbox_rows,
    _energy_kernel,
    _with_ones,
    flatten_params,
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
# The epochs `fit` validates together, in one rollout of a stacked model.
_WINDOW = 8
# The loss a training or validation lane scores when its rollout diverges.
DIVERGENCE_PENALTY = 1e6
# Values in each work array of one derivative-matching block: 2**16 float64
# values are 512 KiB, so a block's arrays stay in a 4 MiB L2 cache.
_BLOCK_ELEMENTS = 2**16


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
# The lanes (batch rows) are independent trajectory segments; a lane that
# turns non-finite is frozen at zero and contributes a fixed penalty with no
# gradient, so one runaway segment cannot poison an epoch.
# ---------------------------------------------------------------------------


class _ThetaGrad:
    """Accumulator for gradients in HamiltonianNet layout.

    It also holds the net's factors that `_grad_vjp` reads at every call:
    (w1 * -2 w2[:, None]).T, whose product with a cotangent gives the VJP's
    p before its sech^2 factor, and w2 as a column.
    """

    def __init__(self, net: HamiltonianNet):
        self.w1 = np.zeros_like(net.w1)
        self.b1 = np.zeros_like(net.b1)
        self.w2 = np.zeros_like(net.w2)
        self.b2 = 0.0
        self.p_factor = (net.w1 * (-2.0 * net.w2)[:, None]).T
        self.w2_column = net.w2[:, None]

    def flat(self) -> np.ndarray:
        return flatten_params(HamiltonianNet(self.w1, self.b1, self.w2, self.b2))


def _grad_vjp(net, xa, th, w, acc: _ThetaGrad, scratch=None):
    """Accumulate the parameter pullback of a cotangent w on dH/dx(x).

    `xa` holds the rows [x, 1] (`_with_ones`) and `th` is tanh(z), z = w1 @ x
    + b1. Returns p = (w2 * s'(z)) * (w @ w1.T), s'(z) = -2 tanh(z) sech^2(z),
    so p @ w1 is the state pullback. The w2 gradient comes from
    sech^2(z).T @ w, which the w1 gradient needs anyway; one GEMM p.T @ xa
    gives the w1 term and, in its last column, the b1 gradient. `scratch`,
    two arrays shaped like `th`, receives the sech^2 terms and p (both are
    allocated when it is None), so the returned p is its second array.
    Writes nothing else, never `xa`, `th` or `w`.
    """
    s, p = scratch if scratch is not None else (None, None)
    s = np.square(th, out=s)
    np.subtract(1.0, s, out=s)
    sw = s.T @ w
    s *= th
    p = np.matmul(w, acc.p_factor, out=p)
    p *= s
    acc.w2 += (sw * net.w1).sum(axis=1)
    p_xa = p.T @ xa
    acc.b1 += p_xa[:, -1]
    acc.w1 += sw * acc.w2_column + p_xa[:, :-1]
    return p


def _stage_vjp(net, xa, th, v, n, acc: _ThetaGrad, scratch=None):
    """Pull a cotangent v on f(x) = J dH/dx + G u back to x (the Hessian of H
    applied to J.T v, returned) and to the parameters (accumulated in `acc`);
    `xa` is the stage's rows [x, 1], `th` its forward tanh(w1 @ x + b1),
    `scratch` as in `_grad_vjp`; J.T v is v's last n columns negated, then
    its first n."""
    jt_v = np.concatenate([-v[:, n:], v[:, :n]], axis=1)
    return _grad_vjp(net, xa, th, jt_v, acc, scratch=scratch) @ net.w1


def _lane_loss(xs, lanes, diverged, penalty):
    """Per-lane weighted sum of residual norms over each lane's own `steps`;
    a dead lane pays `penalty`.

    The residuals of a lane's padded steps are zeroed, and a lane whose
    first non-finite state lies in its padding stays live. Also returns the
    residuals and their norms, (T, B, d) and (T, B), and `diverged` with
    such lanes set to -1.
    """
    resid = xs[1:] - lanes.y[1:]
    resid[np.arange(len(resid))[:, None] >= lanes.steps] = 0.0
    diverged = np.where(diverged > lanes.steps, -1, diverged)
    norms = np.linalg.norm(resid, axis=2)
    lane_loss = np.where(diverged < 0, lanes.weight * norms.sum(axis=0), penalty)
    return lane_loss, resid, norms, diverged


def _stage_record(n_steps: int, n_lanes: int, d: int, n_hidden: int):
    """The arrays a `_sim_batch` gradient over `n_steps` steps (padded steps
    included) and `n_lanes` lanes writes: the rows [x, 1] of the four RK4
    stage states, (T, 4, B, d + 1), and their tanh, (T, 4, B, n_hidden), of
    every lane-step, then two (B, n_hidden) scratch arrays. A call overwrites
    what it reads, so calls on lanes of these shapes that run one after
    another can share one record."""
    return (
        np.empty((n_steps, 4, n_lanes, d + 1)),
        np.empty((n_steps, 4, n_lanes, n_hidden)),
        np.empty((2, n_lanes, n_hidden)),
    )


class _LaneGroup(NamedTuple):
    """The RK4 lanes of one split, from `_lanes`."""

    x0: np.ndarray  # (B, d) anchor states
    u: np.ndarray  # (T, B, m) recorded inputs, row k held over step k
    y: np.ndarray  # (T + 1, B, d) measured outputs, row 0 unused
    h: float
    weight: np.ndarray  # (B,) 1/N of each lane's trajectory, N its samples
    steps: np.ndarray  # (B,) each lane's own steps; u and y repeat their last rows after them


def _same_step(a: Trajectory, b: Trajectory) -> bool:
    """Whether the steps t[1] - t[0] of two trajectories differ by no more
    than a few ulps of their first two times, which is what rounding the
    times of one grid step apart leaves."""
    ulps = np.spacing(np.abs(a.t[:2]).max()) + np.spacing(np.abs(b.t[:2]).max())
    return abs(a.ts - b.ts) <= 4.0 * ulps


def _lanes(trajs: list[Trajectory], anchor: str, chunk: int | None = None) -> _LaneGroup:
    """Cut trajectories into RK4 lanes: whole trajectories, or with `chunk`
    segments of min(chunk, N - 1) transitions, each re-anchored at its first
    sample. The lanes keep the order of `trajs` and of their segments.

    Every lane is padded to the longest lane's steps by repeating its last
    input and measurement rows, and records its own step count; `_lane_loss`
    scores only those steps, and every residual sample keeps its
    trajectory's 1/N weight, so the chunked loss sums the same residual terms
    as the full rollout, just along shorter horizons. Every lane steps at the
    first trajectory's step t[1] - t[0]; another trajectory's step may differ
    from it only by the rounding of their times, as for equal grids that
    start at different times. A trajectory of fewer than 2 samples, or whose
    step differs by more, raises `ValueError` naming its index.
    """
    if anchor not in ANCHORS:
        raise ValueError(f"anchor must be one of {ANCHORS}")
    for i, tr in enumerate(trajs):
        if tr.n_samples < 2:
            raise ValueError(f"trajectory {i} must contain at least 2 samples")
        if not _same_step(tr, trajs[0]):
            raise ValueError(f"trajectory {i} has step {tr.ts}, trajectory 0 has {trajs[0].ts}")
        if anchor == "true" and tr.x_true is None:
            raise TrainingError("anchor='true' requires stored noiseless states")
    lengths = [min(chunk or tr.n_samples - 1, tr.n_samples - 1) for tr in trajs]
    n_steps = max(lengths)
    segs = []
    for tr, length in zip(trajs, lengths):
        n = tr.n_samples
        anchors = tr.y if anchor == "measured" else tr.x_true
        for k0 in range(0, n - 1, length):
            # rows past the trajectory's end repeat its last input and measurement
            rows = np.minimum(np.arange(k0, k0 + n_steps + 1), n - 1)
            segs.append((
                anchors[k0], tr.u[np.minimum(rows[:-1], n - 2)], tr.y[rows], 1.0 / n,
                min(length, n - 1 - k0),
            ))
    x0, u, y, weight, steps = zip(*segs)
    return _LaneGroup(
        np.stack(x0), np.stack(u, axis=1), np.stack(y, axis=1), trajs[0].ts,
        np.array(weight), np.array(steps),
    )


def _energy_rollout(net: HamiltonianNet, x0, gu, h: float, record=None, scratch=None):
    """RK4 states and diverged steps of J dH/dx + G u from anchors x0 (B, d)
    under injections gu (T, B, d); a stacked net of K members steps K * B
    lanes, member k's block from x0, each block as the plain net would.
    Each stage writes its rows [x, 1] and its tanh to its own slots of
    `record` (a stage record's first two arrays), else to one array of rows
    and `scratch[0]`; `scratch[1]` takes w1 @ x + b1 (`scratch` is allocated
    when None). `_energy_kernel` returns J dH/dx, scaled by one tile of w2
    for all stages, to which G u is added in place."""
    B, d = x0.shape
    lead = net.w1.shape[:-2]  # (K,) for a stacked net
    block = (*lead, B, d)
    if scratch is None:
        scratch = np.empty((2, *lead, B, net.n_hidden))
    if record is None:
        xas, ths = repeat(_with_ones(np.broadcast_to(x0, block))), repeat(scratch[0])
    else:
        record[0][..., d] = 1.0
        xas = iter(record[0].reshape(-1, *block[:-1], d + 1))
        ths = iter(record[1].reshape(-1, *scratch[0].shape))
    w2 = np.broadcast_to(net.w2, scratch[0].shape).copy()

    def field(x, g_in):
        xa = next(xas)
        xa[..., :d] = x.reshape(block)
        f = _energy_kernel(net, xa, net.w1_j, next(ths), scratch[1], w2)
        f += g_in
        return f.reshape(x.shape)

    return rk4_lanes(field, np.broadcast_to(x0, block).reshape(-1, d), gu, h)


def _sim_batch(
    net: HamiltonianNet,
    S: StructureMatrices,
    lanes: _LaneGroup,
    penalty: float,
    record=None,
):
    """Loss and exact parameter gradient of the model rollouts of `lanes`.

    Each lane's loss is its weight times its residual-norm sum over its own
    steps. Returns (per-lane loss, flat grad, diverged step per lane with -1
    for live lanes, as `_lane_loss` gives it). The forward,
    `_energy_rollout`, writes the stage record that the reverse sweep reads,
    each stage's rows [x, 1] and tanh; `record`, from `_stage_record` in the
    lanes' T steps and B lanes, holds it and the (B, n_hidden) scratch
    arrays every RK4 stage of both passes reuses (it is allocated when None).
    """
    x0, u, h = lanes.x0, lanes.u, lanes.h
    n_steps, B, d = len(u), *x0.shape
    n = d // 2
    xas, ths, scratch = record or _stage_record(n_steps, B, d, net.n_hidden)
    xs, diverged = _energy_rollout(net, x0, u @ S.G.T, h, (xas, ths), scratch)
    # from the step a lane dies on, its rows may hold anything (NaN, a handed
    # record's old values); the sweep's cotangent on them is zero, and zeroed
    # rows keep it finite
    dead = (diverged >= 0) & (np.arange(n_steps)[:, None] >= diverged - 1)
    xas.transpose(0, 2, 1, 3)[dead, :, :d] = 0.0
    ths.transpose(0, 2, 1, 3)[dead] = 0.0
    lane_loss, resid, norms, diverged = _lane_loss(xs, lanes, diverged, penalty)

    # each step's residual pullback, in one whole-array pass
    live_w = np.where(diverged < 0, lanes.weight, 0.0)
    scale = np.where(norms > 0.0, live_w / np.maximum(norms, 1e-300), 0.0)
    pulls = scale[:, :, None] * resid
    acc = _ThetaGrad(net)
    lam = np.zeros((B, d))
    for k in range(n_steps - 1, -1, -1):
        lam = lam + pulls[k]
        lam6 = (h / 6.0) * lam
        lam3 = (h / 3.0) * lam
        xa1, xa2, xa3, xa4 = xas[k]
        th1, th2, th3, th4 = ths[k]
        x4_bar = _stage_vjp(net, xa4, th4, lam6, n, acc, scratch)
        x3_bar = _stage_vjp(net, xa3, th3, lam3 + h * x4_bar, n, acc, scratch)
        x2_bar = _stage_vjp(net, xa2, th2, lam3 + (h / 2.0) * x3_bar, n, acc, scratch)
        x1_bar = _stage_vjp(net, xa1, th1, lam6 + (h / 2.0) * x2_bar, n, acc, scratch)
        lam = lam + x4_bar + x3_bar + x2_bar + x1_bar
    return lane_loss, acc.flat(), diverged


def _sim_loss(net: HamiltonianNet, S: StructureMatrices, lanes: _LaneGroup, penalty: float):
    """The per-lane loss and diverged steps of `_sim_batch`, with the same
    bits, from the forward alone and without a stage record."""
    xs, diverged = _energy_rollout(net, lanes.x0, lanes.u @ S.G.T, lanes.h)
    lane_loss, _, _, diverged = _lane_loss(xs, lanes, diverged, penalty)
    return lane_loss, diverged


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
    return _sim_loss_value_grad(net, S, trajectory, anchor, want_grad=False)[0]


def simulation_loss_grad(
    net: HamiltonianNet,
    S: StructureMatrices,
    trajectory: Trajectory,
    anchor: str = "measured",
) -> tuple[float, np.ndarray]:
    """Simulation loss and its exact gradient with respect to the parameters."""
    return _sim_loss_value_grad(net, S, trajectory, anchor, want_grad=True)


def _sim_loss_value_grad(net, S, trajectory, anchor, want_grad):
    lanes = _lanes([trajectory], anchor)
    if want_grad:
        lane_loss, grad, diverged = _sim_batch(net, S, lanes, DIVERGENCE_PENALTY)
    else:
        (lane_loss, diverged), grad = _sim_loss(net, S, lanes, DIVERGENCE_PENALTY), None
    if diverged[0] == 0:  # named as `rollout` names them
        raise TrainingError("model rollout diverged: initial state is not finite")
    if diverged[0] > 0:
        where = f"non-finite state while applying input row {diverged[0] - 1}"
        raise TrainingError(f"model rollout diverged: {where}")
    return float(lane_loss[0]), grad


# ---------------------------------------------------------------------------
# Derivative-matching losses for the classical baselines.
# ---------------------------------------------------------------------------


def _block_rows(n_hidden: int) -> int:
    """Rows of one derivative block: each of its (rows, n_hidden) float64
    work arrays holds about `_BLOCK_ELEMENTS` values."""
    return max(1, _BLOCK_ELEMENTS // n_hidden)


def _derivative_buffers(net, S, x, u):
    """What the derivative batch on rows x computes once and reuses: its
    input rows, a tuple of (x, G u) for the energy net or ([x, u],) for the
    black-box net, one row per row of x, then the (rows, n_hidden) arrays a
    block writes, three for the energy net and two for the black-box net,
    with rows the block size of `_derivative_blocks` (or N when smaller). A
    block overwrites every one of those arrays before reading it, so none
    carries a value from one block or call to the next."""
    rows = (min(len(x), _block_rows(net.n_hidden)), net.n_hidden)
    if isinstance(net, HamiltonianNet):
        return (x, u @ S.G.T), np.empty(rows), np.empty(rows), np.empty(rows)
    return (np.concatenate([x, u], axis=1),), np.empty(rows), np.empty(rows)


def _derivative_blocks(net, dx_target, sample_weight, buffers):
    """Loss and flat gradient of the derivative batch on the rows of
    `_derivative_buffers`: blocks of as many rows as its work arrays hold go
    through `_derivative_batch_hnn` or `_mlp` one after another, which sum
    their losses and add their gradient terms into one accumulator in block
    order. Rows that fit in one block give the bits of that kernel on all of
    them."""
    inputs, *work = buffers
    rows = len(work[0])
    if isinstance(net, HamiltonianNet):
        batch, acc = _derivative_batch_hnn, _ThetaGrad(net)
    else:
        batch, acc = _derivative_batch_mlp, with_params(net, np.zeros_like(flatten_params(net)))
    loss = 0.0
    for start in range(0, len(dx_target), rows):
        block = slice(start, start + rows)
        n = len(dx_target[block])
        out = (*(a[block] for a in inputs), *(a[:n] for a in work))
        loss += batch(net, dx_target[block], sample_weight[block], out, acc)
    return loss, acc.flat() if batch is _derivative_batch_hnn else flatten_params(acc)


def _derivative_batch_hnn(net, dx_target, sample_weight, out, acc):
    """One block of `_derivative_blocks` for the energy net: returns its loss
    and adds its gradient into `acc`, a `_ThetaGrad`; `out` is the block's
    rows of `_derivative_buffers`."""
    x, gu, th, s, p = out
    n = net.n_states // 2
    xa = _with_ones(x)  # the rows of both the forward and the VJP
    g = _energy_kernel(net, xa, net.w1, th, s)
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
    _grad_vjp(net, xa, th, g_cot, acc, scratch=(s, p))
    return loss


def _derivative_batch_mlp(net, dx_target, sample_weight, out, acc):
    """One block of `_derivative_blocks` for the black-box net: returns its
    loss and adds its gradient into `acc`, a `BlackBoxNet` of gradients;
    `out` is the block's rows of `_derivative_buffers`, whose [x, u] rows it
    reads."""
    xu, th, hidden = out
    np.matmul(xu, net.w1.T, out=th)
    th += net.b1
    np.tanh(th, out=th)
    f = th @ net.w2.T + net.b2
    r = f - dx_target
    nr = np.linalg.norm(r, axis=1)
    loss = float(np.sum(sample_weight * nr))
    scale = np.where(nr > 0.0, sample_weight / np.maximum(nr, 1e-300), 0.0)
    f_cot = scale[:, None] * r
    acc.w2[...] += f_cot.T @ th
    np.matmul(f_cot, net.w2, out=hidden)
    np.square(th, out=th)  # th is read no more: it takes sech^2
    np.subtract(1.0, th, out=th)
    hidden *= th
    acc.w1[...] += hidden.T @ xu
    acc.b1[...] += hidden.sum(axis=0)
    acc.b2[...] += f_cot.sum(axis=0)
    return loss


def _sample_rows(name: str, a, shape: tuple[int, int]) -> np.ndarray:
    """`a` broadcast to `shape`, (samples, width): all rows or a single one."""
    a = np.asarray(a, dtype=float)
    if a.ndim > 2 or a.shape[-1:] not in ((shape[1],), ()) or (
        a.ndim == 2 and len(a) not in (1, shape[0])
    ):
        raise ValueError(
            f"{name} has shape {a.shape}, expected {shape} or a single row of {shape[1]}"
        )
    return np.broadcast_to(a, shape)


def derivative_loss_grad(model, S: StructureMatrices, x, dx_target, u):
    """Mean per-sample derivative-matching residual and its parameter gradient.

    For the Hamiltonian net this is the two-term structured residual
    ||dH/dp - q_dot|| + ||dH/dq + p_dot - G u|| averaged over samples; for
    the black-box net it is the plain regression residual ||f(x, u) - dx||.
    """
    if not isinstance(model, (HamiltonianNet, BlackBoxNet)):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.ndim != 2 or x.shape[1] != model.n_states or len(x) == 0:
        raise ValueError(
            f"x has shape {x.shape}, expected one or more rows of {model.n_states} states"
        )
    # a single target row, a scalar input or a single input row holds for
    # every sample, in every block
    dx_target = _sample_rows("dx_target", dx_target, x.shape)
    u = np.asarray(u, dtype=float)
    if u.ndim == 1 and len(u) == len(x):
        u = u[:, None]  # one scalar input per sample
    u = np.atleast_2d(u)
    m = S.n_inputs if isinstance(model, HamiltonianNet) else model.n_inputs
    u = _sample_rows("u", u, (len(x), m))
    weight = np.full(x.shape[0], 1.0 / x.shape[0])
    return _derivative_blocks(model, dx_target, weight, _derivative_buffers(model, S, x, u))


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


def _val_losses(template, thetas, kind, S, lanes, penalty) -> list[float]:
    """Validation loss on `lanes` of each parameter vector in `thetas` (K, P).

    One RK4 rollout of the stacked model steps all K models at once, over
    K * B lanes. Each model's block of B lanes goes through the same
    operations as a one-model rollout, and its loss is reduced from its own
    lanes alone, so each loss has the bits of validating that model alone.
    """
    K = len(thetas)
    # a lone model runs as a plain net, whose 2-D matmuls cost less per call
    net = with_params(template, thetas[0] if K == 1 else thetas)
    x0, u, h = lanes.x0, lanes.u, lanes.h
    B, d = x0.shape
    if kind == "mlp":
        block = (B, d) if K == 1 else (K, B, d)
        if K > 1:
            u = np.repeat(u[:, None], K, axis=1)  # each model's block of lanes
        b1 = np.broadcast_to(net.b1, (*block[:-1], net.n_hidden)).copy()

        def field(x, uk):
            return _blackbox_rows(net, x.reshape(block), uk, b1).reshape(K * B, d)

        xs, diverged = rk4_lanes(field, np.tile(x0, (K, 1)), u, h)
    else:
        xs, diverged = _energy_rollout(net, x0, u @ S.G.T, h)
    xs = xs.reshape(len(xs), K, B, d)
    diverged = diverged.reshape(K, B)
    return [
        float(_lane_loss(xs[:, k], lanes, diverged[k], penalty)[0].sum()) for k in range(K)
    ]


def _serve_validation(conn, parent_end, val_losses) -> None:
    """Helper-process loop: each (W, P) stack of parameter vectors it
    receives is validated in one rollout, and its W losses go back as one
    list."""
    import signal

    # an interrupt is the parent's to handle; the parent then stops this process
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # the forked copy of the parent's end would keep this end from seeing EOF
    parent_end.close()
    with conn:
        while True:
            try:
                conn.send(val_losses(conn.recv()))
            except (EOFError, BrokenPipeError):
                return


class _ValidationHelper:
    """One forked process that validates a window of epochs while the parent
    computes the next window's training gradients.

    The fork inherits the validation arrays and the function, so only
    parameters and losses cross the pipe, and the helper runs the same code
    on the same bytes as an inline call. At most one window is outstanding:
    each `submit` is followed by its `receive` before the next `submit`.
    """

    def __init__(self, val_losses):
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        self._conn, child_end = ctx.Pipe()
        self._proc = ctx.Process(
            target=_serve_validation, args=(child_end, self._conn, val_losses), daemon=True
        )
        self._proc.start()
        # once closed here, the helper's exit shows as EOF on self._conn
        child_end.close()

    def submit(self, params: np.ndarray) -> None:
        """Send a (W, P) window to validate."""
        try:
            self._conn.send(params)
        except ConnectionError:
            raise self._died() from None

    def receive(self) -> list[float]:
        """The W losses of the window last submitted."""
        try:
            return self._conn.recv()
        except (EOFError, ConnectionError):
            # a helper that exits with parameters still unread resets the pipe
            raise self._died() from None

    def _died(self) -> TrainingError:
        self._proc.join(timeout=1.0)
        return TrainingError(
            f"the validation helper process exited unexpectedly (exit code {self._proc.exitcode})"
        )

    def close(self) -> None:
        self._conn.close()
        self._proc.terminate()
        self._proc.join()


def _process_budget() -> int:
    """The processes a fit may use: the usable cores of the affinity mask,
    and always 1 in a daemonic process (a pool worker), which may not fork."""
    import multiprocessing

    if multiprocessing.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


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
) -> FitResult:
    """Train a model of the given kind and return the best-validation copy.

    One full-batch Adam step per epoch: the training loss and gradient are
    summed over all training trajectories (simulation loss for 'oe-hnn',
    derivative matching for 'hnn' and 'mlp'). No step follows the epoch
    `max_epochs`, so its gradient is neither checked nor applied. Validation
    is always the simulation loss, so model selection is comparable across
    estimators.
    Pass `initial_model` to warm-start instead of drawing a fresh seeded
    initialization (used for staged chunked-then-full training).

    Adam's steps never read the validation loss, so the fit runs ahead of
    it: epochs are validated in windows of `_WINDOW`, each in one rollout of
    a stacked model, and settled strictly in epoch order, so `history`, the
    best copy, `best_epoch` and the patience stop are those of validating
    every epoch before the next step. A window is sent as soon as its last
    epoch's parameters are known, before that epoch's gradient; the last
    epoch sends its partial window the same way, and a non-finite gradient
    sends it after the gradient. A patience stop at epoch e discards every
    gradient computed past e. A non-finite gradient raises `TrainingError`
    only once every earlier epoch is settled and none of them stopped the
    fit, as without run-ahead; an all-diverged first epoch, or a training
    loss that is not finite at the first epoch, raises at once, and a
    validation loss that is not finite at the first epoch raises when that
    epoch is settled.

    The process budget is the usable cores of the affinity mask, and always
    1 in a daemonic process such as a pool worker, which may not fork. With
    a budget of 1, this process validates each window when it is sent. With
    2 or more, one forked helper process validates each window while this
    process computes the next window's gradients; it holds at most one
    window, so at most 2 * `_WINDOW` - 1 epochs await validation. Every
    training gradient is computed here, in one batch of all training lanes.
    Both budgets validate the same windows, and each stacked member's loss
    has the bits of validating that model alone, so `history` and the
    returned model are bit-identical for every process budget. The helper is
    stopped when `fit` returns or raises; if it dies, `fit` raises
    `TrainingError`.
    """
    config = config or TrainConfig()
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}")
    overlap = _process_budget() >= 2
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
        train_lanes = _lanes(dataset.train, config.anchor, config.chunk_length)
        # one stage record for the whole fit, which every epoch's gradient overwrites
        record = _stage_record(*train_lanes.u.shape[:2], d, template.n_hidden)
    else:
        x_fit, dx_fit, u_fit, w_fit = _derivative_training_set(
            dataset.train, config.derivative_source, dataset.ts
        )
        buffers = _derivative_buffers(template, S, x_fit, u_fit)
    val_lanes = _lanes(dataset.validation, config.anchor)

    def train_loss_grad(theta):
        """Training loss, gradient and whether every lane died."""
        model = with_params(template, theta)
        if kind == "oe-hnn":
            lane_loss, grad, diverged = _sim_batch(
                model, S, train_lanes, DIVERGENCE_PENALTY, record
            )
            return float(lane_loss.sum()), grad, bool((diverged >= 0).all())
        return *_derivative_blocks(model, dx_fit, w_fit, buffers), False

    validate = partial(
        _val_losses, template, kind=kind, S=S, lanes=val_lanes, penalty=DIVERGENCE_PENALTY
    )
    history = []
    best_theta = theta.copy()
    best_val = np.inf
    best_epoch = 0
    train_losses = []  # of every epoch so far
    window = []  # (epoch, theta) of each epoch not yet sent for validation
    sent = None  # (window, its losses, or None while the helper has it) out for validation
    helper = _ValidationHelper(validate) if overlap else None

    def settle() -> bool:
        """Settle the window out for validation in epoch order; True at a patience stop."""
        nonlocal sent, best_val, best_theta, best_epoch
        if sent is None:
            return False
        (epochs, losses), sent = sent, None
        for (ep, th), v_loss in zip(epochs, losses if helper is None else helper.receive()):
            if ep == 1:
                _check_first_loss("validation", v_loss)
            history.append((ep, train_losses[ep - 1], v_loss))
            if v_loss < best_val:
                best_val, best_theta, best_epoch = v_loss, th, ep
            elif ep - best_epoch >= config.patience:
                return True
        return False

    def send() -> bool:
        """Settle the window out, if any, then send `window`; True at a patience stop."""
        nonlocal sent
        if settle():
            return True
        thetas = np.stack([th for _, th in window])
        sent = window.copy(), validate(thetas) if helper is None else helper.submit(thetas)
        window.clear()
        return False

    try:
        for epoch in range(1, config.max_epochs + 1):
            window.append((epoch, theta))
            last = epoch == config.max_epochs
            if (len(window) == _WINDOW or last) and send():
                break
            tr_loss, grad, all_dead = train_loss_grad(theta)
            if all_dead and epoch == 1:
                raise TrainingError(
                    "every training rollout diverged at the first epoch; "
                    "reduce the learning rate or set a chunk_length"
                )
            if epoch == 1:
                _check_first_loss("training", tr_loss)
            train_losses.append(tr_loss)
            if last:
                settle()
                break
            # settle every epoch before a non-finite gradient is refused;
            # inline, each window as soon as it can be
            finite = np.isfinite(grad).all()
            if not finite and window and send():
                break
            if (helper is None or not finite) and settle():
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
