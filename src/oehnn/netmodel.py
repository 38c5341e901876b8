"""Learnable models: scalar Hamiltonian network and black-box derivative net.

The Hamiltonian network is a single hidden tanh layer producing a scalar
energy; its state gradient and Hessian-vector products are implemented in
closed form so that training can differentiate through them without a
generic autodiff engine.

A stacked net (`with_params` on a (K, P) array) carries K models along a
leading axis of every parameter; its per-unit vectors are (K, 1, n), so
they broadcast over each model's state rows as a plain net's (n,) vectors
do. `h_grad_x` and `_blackbox_rows` take it with state rows (K, B, d), one
block of B rows per model, and compute each block with the same
operations as the plain net on those B rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from oehnn import textio
from oehnn.dynamics import StructureMatrices, canonical_field, _input_rows

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


def h_grad_x(
    net: HamiltonianNet,
    x: np.ndarray,
    th_out: np.ndarray | None = None,
    s_out: np.ndarray | None = None,
) -> np.ndarray:
    """Closed-form state gradient: w1.T @ (w2 * sech^2(w1 @ x + b1)).

    With `th_out` (shaped like x @ w1.T), tanh(w1 @ x + b1) is computed in
    place there, e.g. in a stage record; with `s_out` (the same shape), the
    w2 * sech^2 term is computed there, and it holds nothing afterwards that
    a caller needs. Without them both are allocated. Never writes `x`. A
    stacked net takes x of shape (K, B, d).
    """
    th = np.matmul(np.asarray(x, dtype=float), net.w1.mT, out=th_out)
    th += net.b1
    np.tanh(th, out=th)
    s = np.multiply(th, th, out=s_out)
    np.subtract(1.0, s, out=s)
    s *= net.w2
    return s @ net.w1


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
    return canonical_field(h_grad_x(net, x), u, S)


def blackbox_field(net: BlackBoxNet, x: np.ndarray, u) -> np.ndarray:
    """Forward pass of the black-box derivative net on concatenated (x, u)."""
    x = np.asarray(x, dtype=float)
    return _blackbox_rows(net, x, _input_rows(u, x, net.n_inputs))


def _blackbox_rows(net: BlackBoxNet, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """`blackbox_field` on float arrays of state rows (..., d) and input rows
    (..., m), without input normalization (for per-stage calls). A stacked
    net takes x of shape (K, B, d) and u of shape (K, B, m)."""
    z = np.concatenate([x, u], axis=-1) @ net.w1.mT + net.b1
    return np.tanh(z) @ net.w2.mT + net.b2


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


def flatten_params(model) -> np.ndarray:
    """Concatenate all parameters into one vector (w1 row-major, b1, w2, b2)."""
    if isinstance(model, HamiltonianNet):
        return np.concatenate(
            [model.w1.ravel(), model.b1, model.w2, np.array([model.b2])]
        )
    if isinstance(model, BlackBoxNet):
        return np.concatenate([model.w1.ravel(), model.b1, model.w2.ravel(), model.b2])
    raise TypeError(f"unsupported model type {type(model).__name__}")


def with_params(model, theta: np.ndarray):
    """Rebuild a model of the same architecture from a flat parameter vector.

    A (K, P) array of K parameter vectors gives a stacked net: every
    parameter gains a leading axis of length K, and each per-unit vector
    also a length-1 axis for the state rows it broadcasts over.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.ndim not in (1, 2):
        raise ValueError("parameters must be one vector or a (K, P) stack of vectors")
    lead = theta.shape[:-1]
    rows = (*lead, 1) if lead else ()
    if isinstance(model, HamiltonianNet):
        nh, d = model.n_hidden, model.n_states
        expected = nh * d + nh + nh + 1
        if theta.shape[-1] != expected:
            raise ValueError(f"expected {expected} parameters, got {theta.shape[-1]}")
        ofs = nh * d
        b2 = theta[..., -1]
        return HamiltonianNet(
            w1=theta[..., :ofs].reshape(*lead, nh, d).copy(),
            b1=theta[..., ofs : ofs + nh].reshape(*rows, nh).copy(),
            w2=theta[..., ofs + nh : ofs + 2 * nh].reshape(*rows, nh).copy(),
            b2=b2.copy() if lead else float(b2),
        )
    if isinstance(model, BlackBoxNet):
        nh, d = model.n_hidden, model.n_states
        n_in = d + model.n_inputs
        expected = nh * n_in + nh + d * nh + d
        if theta.shape[-1] != expected:
            raise ValueError(f"expected {expected} parameters, got {theta.shape[-1]}")
        ofs = nh * n_in
        w1 = theta[..., :ofs].reshape(*lead, nh, n_in).copy()
        b1 = theta[..., ofs : ofs + nh].reshape(*rows, nh).copy()
        ofs += nh
        w2 = theta[..., ofs : ofs + d * nh].reshape(*lead, d, nh).copy()
        b2 = theta[..., ofs + d * nh :].reshape(*rows, d).copy()
        return BlackBoxNet(w1=w1, b1=b1, w2=w2, b2=b2)
    raise TypeError(f"unsupported model type {type(model).__name__}")


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


def save_model(model, path, kind: str, n_inputs: int, seed: int | None = None) -> None:
    """Write the model to a text file with architecture metadata and kind tag."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}, expected one of {MODEL_KINDS}")
    if kind in ("oe-hnn", "hnn") and not isinstance(model, HamiltonianNet):
        raise TypeError(f"kind {kind!r} requires a HamiltonianNet")
    if kind == "mlp" and not isinstance(model, BlackBoxNet):
        raise TypeError("kind 'mlp' requires a BlackBoxNet")
    meta = {"kind": kind, "n_states": model.n_states, "n_inputs": n_inputs,
            "n_hidden": model.n_hidden}
    if seed is not None:
        meta["seed"] = seed
    meta["normalization"] = "none"
    params = {f"w1.{i}": row for i, row in enumerate(model.w1)}
    params["b1"] = model.b1
    if isinstance(model, HamiltonianNet):
        params["w2"] = model.w2
    else:
        params.update((f"w2.{i}", row) for i, row in enumerate(model.w2))
    params["b2"] = model.b2
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

    hamiltonian = kind in ("oe-hnn", "hnn")
    rows = chain(
        (f"w1.{i}" for i in range(n_hidden)),
        ["b1", "w2"] if hamiltonian else ["b1", *(f"w2.{i}" for i in range(n_states))],
        ["b2"],
    )
    if n_hidden + (1 if hamiltonian else n_states) + 2 > len(params):
        # name the first missing row without listing every row a size asks for
        missing = next(key for key in rows if key not in params)
        raise ModelFormatError(f"{path}: missing parameter row {missing!r}")
    known = set(rows)  # no more names than the file has rows
    unknown = [k for k in params if k not in known]
    if unknown:
        raise ModelFormatError(f"{path}: unknown parameter key {unknown[0]!r}")
    if hamiltonian:
        w1 = np.stack([_row(params, f"w1.{i}", n_states, path) for i in range(n_hidden)])
        b1 = _row(params, "b1", n_hidden, path)
        w2 = _row(params, "w2", n_hidden, path)
        b2 = float(_row(params, "b2", 1, path)[0])
        model: object = HamiltonianNet(w1=w1, b1=b1, w2=w2, b2=b2)
    else:
        w1 = np.stack(
            [_row(params, f"w1.{i}", n_states + n_inputs, path) for i in range(n_hidden)]
        )
        b1 = _row(params, "b1", n_hidden, path)
        w2 = np.stack([_row(params, f"w2.{i}", n_hidden, path) for i in range(n_states)])
        b2 = _row(params, "b2", n_states, path)
        model = BlackBoxNet(w1=w1, b1=b1, w2=w2, b2=b2)
    return SavedModel(
        model=model,
        kind=kind,
        n_states=n_states,
        n_inputs=n_inputs,
        n_hidden=n_hidden,
        seed=seed,
    )
