"""Learnable models: scalar Hamiltonian network and black-box derivative net.

The Hamiltonian network is a single hidden tanh layer producing a scalar
energy; its state gradient and Hessian-vector product are in closed form,
with no autodiff engine. Training differentiates through `_energy_kernel`
with its own pullback (`train._grad_vjp`); only the benchmark calls
`h_hess_vec`.

`_energy_kernel` is the one energy-net forward: dH/dx for `h_grad_x` and
the `hnn` batch, J dH/dx for every learned-field rollout (training with its
stage record, stacked validation, `evaluate` and `simulate`). It folds two
passes into its GEMMs: the first takes rows [x, 1] against [w1.T; b1]
(`HamiltonianNet.w_in`), so b1 is added inside the product, and the output
GEMM takes w1 with J folded in as a signed column permutation
(`HamiltonianNet.w1_j`), so it returns J dH/dx without a pass of its own.
Its pullback (`train._grad_vjp`) takes the same rows [x, 1] and reads the
b1 gradient off the last column of its GEMM p.T @ [x, 1].
Negation is exact, and the accumulation of each product runs over the same
terms in the same order as x @ w1.T followed by + b1, as s @ w1 followed by
J, and as p.T @ x and the column sums of p. With numpy 2.4 on OpenBLAS
0.3.31 the results are bit-identical to the unfolded kernel for 2 and 4
states at 1, 5, 15, 135, 306, 327 and 7500 rows plain, at 1, 5, 15, 135
and 7500 rows stacked, and for the pullback at 1, 5, 15, 135, 306 and 327
rows (`tests/test_train.py::TestFoldedKernel`, width 200, and 40 for the
stacked net at 7500 rows); other shapes are not known to be, and 6 states
at one row are not (numpy takes a matrix-vector path there).

A net's flat parameter vector (`flatten_params`, `with_params`) is its
dataclass fields in order, each row-major: w1, b1, w2, b2. The field order
is the one statement of that layout; the gradients in `train` are built as
nets and flattened the same way.

A stacked net (`with_params` on a (K, P) array) carries K models along a
leading axis of every parameter; its per-unit vectors are (K, 1, n), so
they broadcast over each model's state rows as a plain net's (n,) vectors
do. `h_grad_x` and `_blackbox_rows` take it with state rows (K, B, d), one
block of B rows per model, and compute each block with the same
operations as the plain net on those B rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from oehnn import textio
from oehnn.dynamics import StructureMatrices, _input_rows, _j_apply

__all__ = [
    "HamiltonianNet",
    "BlackBoxNet",
    "MODEL_KINDS",
    "ModelFormatError",
    "SavedModel",
    "h_value",
    "h_grad_x",
    "h_hess_vec",
    "oe_hnn_field",
    "blackbox_field",
    "init_hamiltonian_net",
    "init_blackbox_net",
    "flatten_params",
    "with_params",
    "save_model",
    "load_model",
]

MODEL_KINDS = ("oe-hnn", "hnn", "mlp")


@dataclass(frozen=True)
class HamiltonianNet:
    """Scalar energy net: H(x) = w2 . tanh(w1 @ x + b1) + b2."""

    w1: np.ndarray  # (n_hidden, n_states); stacked: (K, n_hidden, n_states)
    b1: np.ndarray  # (n_hidden,); stacked: (K, 1, n_hidden)
    w2: np.ndarray  # (n_hidden,); stacked: (K, 1, n_hidden)
    b2: float  # stacked: (K,)

    @property
    def n_states(self) -> int:
        return self.w1.shape[-1]

    @property
    def n_hidden(self) -> int:
        return self.w1.shape[-2]

    # The kernel's folded weights, formed once per net: nothing writes a
    # net's parameters in place, so they cannot go stale.
    @cached_property
    def w_in(self) -> np.ndarray:
        """[w1.T; b1], (d + 1, n_hidden); stacked: (K, d + 1, n_hidden)."""
        b1 = self.b1.reshape(*self.w1.shape[:-2], 1, -1)
        return np.concatenate([self.w1.mT, b1], axis=-2)

    @cached_property
    def w1_j(self) -> np.ndarray:
        """w1 with J applied to each row, so that s @ w1_j = J (s @ w1)."""
        return _j_apply(self.w1, self.n_states // 2)


@dataclass(frozen=True)
class BlackBoxNet:
    """One-hidden-layer tanh net mapping (x, u) directly to a state derivative."""

    w1: np.ndarray  # (n_hidden, n_states + n_inputs); stacked: (K, n_hidden, n_in)
    b1: np.ndarray  # (n_hidden,); stacked: (K, 1, n_hidden)
    w2: np.ndarray  # (n_states, n_hidden); stacked: (K, n_states, n_hidden)
    b2: np.ndarray  # (n_states,); stacked: (K, 1, n_states)

    @property
    def n_states(self) -> int:
        return self.w2.shape[-2]

    @property
    def n_inputs(self) -> int:
        return self.w1.shape[-1] - self.w2.shape[-2]

    @property
    def n_hidden(self) -> int:
        return self.w1.shape[-2]


def h_value(net: HamiltonianNet, x: np.ndarray):
    """Evaluate the scalar energy at state row(s) x."""
    x = np.asarray(x, dtype=float)
    z = x @ net.w1.T + net.b1
    value = np.tanh(z) @ net.w2 + net.b2
    return value if np.ndim(value) else float(value)


def _with_ones(x: np.ndarray) -> np.ndarray:
    """Rows [x, 1], the first layer's input with its bias folded in."""
    xa = np.empty((*x.shape[:-1], x.shape[-1] + 1))
    xa[..., :-1] = x
    xa[..., -1] = 1.0
    return xa


def _energy_kernel(
    net: HamiltonianNet, xa, w_out, th_out=None, s_out=None, w2=None
) -> np.ndarray:
    """(w2 * sech^2(w1 @ x + b1)) @ w_out on rows xa = [x, 1] (`_with_ones`).

    With w_out = net.w1 this is dH/dx, with net.w1_j it is J dH/dx. With
    `th_out` (shaped like xa @ net.w_in), tanh(w1 @ x + b1) is written there,
    e.g. into a stage record, and nothing else is; with `s_out` (the same
    shape), w1 @ x + b1 and then the w2 * sech^2 term are computed there, and
    it holds nothing afterwards that a caller needs. Without them both are
    allocated. `w2`, when given, is a contiguous tile of net.w2 with one row
    per row of xa, which a rollout builds once for all its stages: it scales
    with the same bits as the vector and costs about half as much. Never
    writes `xa`. A stacked net takes xa of shape (K, B, d + 1).
    """
    z = np.matmul(xa, net.w_in, out=s_out)
    th = np.tanh(z, out=th_out)
    s = np.square(th, out=z)
    np.subtract(1.0, s, out=s)
    s *= net.w2 if w2 is None else w2
    return s @ w_out


def h_grad_x(
    net: HamiltonianNet,
    x: np.ndarray,
    th_out: np.ndarray | None = None,
    s_out: np.ndarray | None = None,
) -> np.ndarray:
    """Closed-form state gradient: w1.T @ (w2 * sech^2(w1 @ x + b1)).

    `th_out` and `s_out` as in `_energy_kernel`. Never writes `x`. A stacked
    net takes x of shape (K, B, d).
    """
    return _energy_kernel(net, _with_ones(np.asarray(x, dtype=float)), net.w1, th_out, s_out)


def h_hess_vec(net: HamiltonianNet, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Hessian-vector product of the energy, closed form.

    d2H/dx2 @ v = w1.T @ ((w2 * s'(z)) * (w1 @ v)) with s'(z) = -2 tanh(z) sech^2(z).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    z = x @ net.w1.T + net.b1
    th = np.tanh(z)
    sprime = -2.0 * th * (1.0 - th**2)
    return ((net.w2 * sprime) * (v @ net.w1.T)) @ net.w1


def oe_hnn_field(net: HamiltonianNet, S: StructureMatrices, x: np.ndarray, u) -> np.ndarray:
    """Model vector field J @ dH/dx + G @ u."""
    f = _energy_kernel(net, _with_ones(np.asarray(x, dtype=float)), net.w1_j)
    f += _input_rows(u, f, S.n_inputs) @ S.G.T
    return f


def blackbox_field(net: BlackBoxNet, x: np.ndarray, u) -> np.ndarray:
    """Forward pass of the black-box derivative net on concatenated (x, u)."""
    x = np.asarray(x, dtype=float)
    return _blackbox_rows(net, x, _input_rows(u, x, net.n_inputs))


def _blackbox_rows(net: BlackBoxNet, x: np.ndarray, u: np.ndarray, b1=None) -> np.ndarray:
    """`blackbox_field` on float arrays of state rows (..., d) and input rows
    (..., m), without input normalization (for per-stage calls). A stacked
    net takes x of shape (K, B, d) and u of shape (K, B, m). `b1`, when
    given, is a contiguous tile of net.b1 with one row per state row, which
    adds with the same bits and costs less than broadcasting the vector."""
    z = np.concatenate([x, u], axis=-1) @ net.w1.mT
    z += net.b1 if b1 is None else b1
    return np.tanh(z, out=z) @ net.w2.mT + net.b2


def init_hamiltonian_net(
    n_states: int, n_hidden: int, rng: np.random.Generator
) -> HamiltonianNet:
    """Glorot-uniform weights, zero biases. Consumes the rng deterministically."""
    lim1 = np.sqrt(6.0 / (n_states + n_hidden))
    lim2 = np.sqrt(6.0 / (n_hidden + 1))
    w1 = rng.uniform(-lim1, lim1, size=(n_hidden, n_states))
    w2 = rng.uniform(-lim2, lim2, size=n_hidden)
    return HamiltonianNet(w1=w1, b1=np.zeros(n_hidden), w2=w2, b2=0.0)


def init_blackbox_net(
    n_states: int, n_inputs: int, n_hidden: int, rng: np.random.Generator
) -> BlackBoxNet:
    n_in = n_states + n_inputs
    lim1 = np.sqrt(6.0 / (n_in + n_hidden))
    lim2 = np.sqrt(6.0 / (n_hidden + n_states))
    w1 = rng.uniform(-lim1, lim1, size=(n_hidden, n_in))
    w2 = rng.uniform(-lim2, lim2, size=(n_states, n_hidden))
    return BlackBoxNet(w1=w1, b1=np.zeros(n_hidden), w2=w2, b2=np.zeros(n_states))


def _param_shapes(model) -> dict[str, tuple[int, ...]]:
    """Each parameter's shape, by field name in field order (the flat layout)."""
    if not isinstance(model, (HamiltonianNet, BlackBoxNet)):
        raise TypeError(f"unsupported model type {type(model).__name__}")
    return {f.name: np.shape(getattr(model, f.name)) for f in fields(model)}


def flatten_params(model) -> np.ndarray:
    """Concatenate the net's fields in order, each row-major, into one vector."""
    return np.concatenate([np.ravel(getattr(model, name)) for name in _param_shapes(model)])


def with_params(model, theta: np.ndarray):
    """Rebuild a model of the same architecture from a flat parameter vector.

    `model` is a plain net, whose field shapes give the layout. A (K, P)
    array of K parameter vectors gives a stacked net: every parameter gains
    a leading axis of length K, and each per-unit vector also a length-1
    axis for the state rows it broadcasts over.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim not in (1, 2):
        raise ValueError("parameters must be one vector or a (K, P) stack of vectors")
    shapes = _param_shapes(model)
    expected = sum(math.prod(shape) for shape in shapes.values())
    if theta.shape[-1] != expected:
        raise ValueError(f"expected {expected} parameters, got {theta.shape[-1]}")
    lead = theta.shape[:-1]
    params, start = {}, 0
    for name, shape in shapes.items():
        stop = start + math.prod(shape)
        rows = (1,) if lead and len(shape) == 1 else ()
        value = theta[..., start:stop].reshape((*lead, *rows, *shape)).copy()
        params[name] = value if value.ndim else float(value)
        start = stop
    return type(model)(**params)


# ---------------------------------------------------------------------------
# Model files: `textio` sections, [meta] with the architecture and kind tag,
# [params] with one row of numbers per named parameter row.
# ---------------------------------------------------------------------------


class ModelFormatError(ValueError):
    pass


@dataclass(frozen=True)
class SavedModel:
    model: object
    kind: str
    n_states: int
    n_inputs: int
    n_hidden: int
    seed: int | None


def _file_rows(shapes: dict[str, tuple[int, ...]]):
    """(key, field, length) of each model-file row, in field order: one row
    per row of a matrix parameter, keyed `<field>.<i>`, and one row for any
    other parameter, keyed by its field."""
    for name, shape in shapes.items():
        if len(shape) == 2:
            yield from ((f"{name}.{i}", name, shape[1]) for i in range(shape[0]))
        else:
            yield name, name, math.prod(shape)


def save_model(model, path, kind: str, n_inputs: int, seed: int | None = None) -> None:
    """Write the model to a text file with architecture metadata and kind tag."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}, expected one of {MODEL_KINDS}")
    cls = BlackBoxNet if kind == "mlp" else HamiltonianNet
    if not isinstance(model, cls):
        raise TypeError(f"kind {kind!r} requires a {cls.__name__}")
    meta = {"kind": kind, "n_states": model.n_states, "n_inputs": n_inputs,
            "n_hidden": model.n_hidden}
    if seed is not None:
        meta["seed"] = seed
    meta["normalization"] = "none"
    shapes = _param_shapes(model)
    rows = (row for name in shapes for row in np.atleast_2d(getattr(model, name)))
    params = {key: row for (key, _, _), row in zip(_file_rows(shapes), rows)}
    Path(path).write_text(textio.sections_text({"meta": meta, "params": params}), encoding="utf-8")


def _row(params: dict[str, np.ndarray], key: str, expected_len: int, path) -> np.ndarray:
    if params[key].size != expected_len:
        raise ModelFormatError(
            f"{path}: row {key!r} has {params[key].size} values, expected {expected_len}"
        )
    return params[key]


_META_TYPES = {"kind": "str", "n_states": "int", "n_inputs": "int", "n_hidden": "int",
               "seed": "int", "normalization": "str"}
_SCHEMA = {"meta": _META_TYPES.get, "params": lambda key: "ndarray"}  # rows checked below


def load_model(path, expect_kind: str | None = None) -> SavedModel:
    """Read a model file back; optionally enforce the stored kind tag.

    Any section other than [meta] and [params], and any [meta] key that
    `save_model` does not write, is an error rather than silently ignored.
    """
    sections = textio.read_sections(path, _SCHEMA, ModelFormatError)
    if "meta" not in sections or "params" not in sections:
        raise ModelFormatError(f"{path}: missing [meta] or [params] section")
    meta = sections["meta"]
    params = sections["params"]
    try:
        kind = meta["kind"]
        n_states = meta["n_states"]
        n_inputs = meta["n_inputs"]
        n_hidden = meta["n_hidden"]
    except KeyError as exc:
        raise ModelFormatError(f"{path}: missing meta key {exc}") from exc
    seed = meta.get("seed")
    if min(n_states, n_inputs, n_hidden) < 1:
        raise ModelFormatError(f"{path}: n_states, n_inputs and n_hidden must be positive")
    if kind not in MODEL_KINDS:
        raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
    if expect_kind is not None and kind != expect_kind:
        raise ModelFormatError(
            f"{path}: model kind is {kind!r} but {expect_kind!r} was requested"
        )
    if meta.get("normalization", "none") != "none":
        raise ModelFormatError(f"{path}: unsupported normalization {meta['normalization']!r}")

    # the net of this kind with each parameter's shape in place of its value
    if kind == "mlp":
        shape_net = BlackBoxNet(w1=(n_hidden, n_states + n_inputs), b1=(n_hidden,),
                                w2=(n_states, n_hidden), b2=(n_states,))
    else:
        shape_net = HamiltonianNet(w1=(n_hidden, n_states), b1=(n_hidden,), w2=(n_hidden,), b2=())
    shapes = {f.name: getattr(shape_net, f.name) for f in fields(shape_net)}
    if sum(shape[0] if len(shape) == 2 else 1 for shape in shapes.values()) > len(params):
        # name the first missing row without listing every row a size asks for
        missing = next(key for key, _, _ in _file_rows(shapes) if key not in params)
        raise ModelFormatError(f"{path}: missing parameter row {missing!r}")
    known = {key for key, _, _ in _file_rows(shapes)}  # no more names than the file has rows
    unknown = [k for k in params if k not in known]
    if unknown:
        raise ModelFormatError(f"{path}: unknown parameter key {unknown[0]!r}")
    rows = {name: [] for name in shapes}
    for key, name, length in _file_rows(shapes):
        rows[name].append(_row(params, key, length, path))
    values = {name: np.reshape(rows[name], shape) for name, shape in shapes.items()}
    model = type(shape_net)(**{name: v if v.ndim else float(v) for name, v in values.items()})
    return SavedModel(
        model=model,
        kind=kind,
        n_states=n_states,
        n_inputs=n_inputs,
        n_hidden=n_hidden,
        seed=seed,
    )
