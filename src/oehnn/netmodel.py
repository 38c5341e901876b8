"""Learnable models: scalar Hamiltonian network and black-box derivative net.

The Hamiltonian network is a single hidden tanh layer producing a scalar
energy; its state gradient and Hessian-vector products are implemented in
closed form so that training can differentiate through them without a
generic autodiff engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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

    w1: np.ndarray  # (n_hidden, n_states)
    b1: np.ndarray  # (n_hidden,)
    w2: np.ndarray  # (n_hidden,)
    b2: float

    @property
    def n_states(self) -> int:
        return self.w1.shape[1]

    @property
    def n_hidden(self) -> int:
        return self.w1.shape[0]


@dataclass(frozen=True)
class BlackBoxNet:
    """One-hidden-layer tanh net mapping (x, u) directly to a state derivative."""

    w1: np.ndarray  # (n_hidden, n_states + n_inputs)
    b1: np.ndarray  # (n_hidden,)
    w2: np.ndarray  # (n_states, n_hidden)
    b2: np.ndarray  # (n_states,)

    @property
    def n_states(self) -> int:
        return self.w2.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.w1.shape[1] - self.w2.shape[0]

    @property
    def n_hidden(self) -> int:
        return self.w1.shape[0]


def h_value(net: HamiltonianNet, x: np.ndarray):
    """Evaluate the scalar energy at state row(s) x."""
    x = np.asarray(x, dtype=float)
    z = x @ net.w1.T + net.b1
    value = np.tanh(z) @ net.w2 + net.b2
    return value if np.ndim(value) else float(value)


def h_grad_x(net: HamiltonianNet, x: np.ndarray) -> np.ndarray:
    """Closed-form state gradient: w1.T @ (w2 * sech^2(w1 @ x + b1))."""
    x = np.asarray(x, dtype=float)
    z = x @ net.w1.T + net.b1
    sech2 = 1.0 - np.tanh(z) ** 2
    return (net.w2 * sech2) @ net.w1


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
    (..., m), without input normalization (for per-stage calls)."""
    z = np.concatenate([x, u], axis=-1) @ net.w1.T + net.b1
    return np.tanh(z) @ net.w2.T + net.b2


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
    """Rebuild a model of the same architecture from a flat parameter vector."""
    theta = np.asarray(theta, dtype=float)
    if theta.ndim != 1:
        raise ValueError("parameter vector must be 1-D")
    if isinstance(model, HamiltonianNet):
        nh, d = model.w1.shape
        expected = nh * d + nh + nh + 1
        if theta.size != expected:
            raise ValueError(f"expected {expected} parameters, got {theta.size}")
        ofs = nh * d
        return HamiltonianNet(
            w1=theta[:ofs].reshape(nh, d).copy(),
            b1=theta[ofs : ofs + nh].copy(),
            w2=theta[ofs + nh : ofs + 2 * nh].copy(),
            b2=float(theta[-1]),
        )
    if isinstance(model, BlackBoxNet):
        nh, n_in = model.w1.shape
        d = model.n_states
        expected = nh * n_in + nh + d * nh + d
        if theta.size != expected:
            raise ValueError(f"expected {expected} parameters, got {theta.size}")
        ofs = nh * n_in
        w1 = theta[:ofs].reshape(nh, n_in).copy()
        b1 = theta[ofs : ofs + nh].copy()
        ofs += nh
        w2 = theta[ofs : ofs + d * nh].reshape(d, nh).copy()
        b2 = theta[ofs + d * nh :].copy()
        return BlackBoxNet(w1=w1, b1=b1, w2=w2, b2=b2)
    raise TypeError(f"unsupported model type {type(model).__name__}")


# ---------------------------------------------------------------------------
# Model files: plain text, [meta] section plus named parameter rows with
# 17-significant-digit decimals (lossless round trip for float64).
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


def _fmt(values) -> str:
    return " ".join(f"{float(v):.17g}" for v in np.atleast_1d(values))


def save_model(model, path, kind: str, n_inputs: int, seed: int | None = None) -> None:
    """Write the model to a text file with architecture metadata and kind tag."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"unknown model kind {kind!r}, expected one of {MODEL_KINDS}")
    if kind in ("oe-hnn", "hnn") and not isinstance(model, HamiltonianNet):
        raise TypeError(f"kind {kind!r} requires a HamiltonianNet")
    if kind == "mlp" and not isinstance(model, BlackBoxNet):
        raise TypeError("kind 'mlp' requires a BlackBoxNet")
    lines = ["[meta]"]
    lines.append(f"kind = {kind}")
    lines.append(f"n_states = {model.n_states}")
    lines.append(f"n_inputs = {n_inputs}")
    lines.append(f"n_hidden = {model.n_hidden}")
    if seed is not None:
        lines.append(f"seed = {seed}")
    lines.append("normalization = none")
    lines.append("")
    lines.append("[params]")
    for i, row in enumerate(model.w1):
        lines.append(f"w1.{i} = {_fmt(row)}")
    lines.append(f"b1 = {_fmt(model.b1)}")
    if isinstance(model, HamiltonianNet):
        lines.append(f"w2 = {_fmt(model.w2)}")
        lines.append(f"b2 = {_fmt(model.b2)}")
    else:
        for i, row in enumerate(model.w2):
            lines.append(f"w2.{i} = {_fmt(row)}")
        lines.append(f"b2 = {_fmt(model.b2)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _parse_sections(path) -> dict[str, dict[str, str]]:
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                current = sections.setdefault(line[1:-1], {})
                continue
            if "=" not in line or current is None:
                raise ModelFormatError(f"{path}:{lineno}: expected 'key = value' inside a section")
            key, value = line.split("=", 1)
            key = key.strip()
            if key in current:
                raise ModelFormatError(f"{path}:{lineno}: duplicate key {key!r}")
            current[key] = value.strip()
    return sections


def _parse_row(params: dict[str, str], key: str, expected_len: int, path) -> np.ndarray:
    if key not in params:
        raise ModelFormatError(f"{path}: missing parameter row {key!r}")
    try:
        row = np.array([float(tok) for tok in params[key].split()])
    except ValueError as exc:
        raise ModelFormatError(f"{path}: cannot parse row {key!r}: {exc}") from exc
    if row.size != expected_len:
        raise ModelFormatError(
            f"{path}: row {key!r} has {row.size} values, expected {expected_len}"
        )
    return row


def load_model(path, expect_kind: str | None = None) -> SavedModel:
    """Read a model file back; optionally enforce the stored kind tag."""
    sections = _parse_sections(path)
    if "meta" not in sections or "params" not in sections:
        raise ModelFormatError(f"{path}: missing [meta] or [params] section")
    meta = sections["meta"]
    params = sections["params"]
    try:
        kind = meta["kind"]
        n_states = int(meta["n_states"])
        n_inputs = int(meta["n_inputs"])
        n_hidden = int(meta["n_hidden"])
    except KeyError as exc:
        raise ModelFormatError(f"{path}: missing meta key {exc}") from exc
    except ValueError as exc:
        raise ModelFormatError(f"{path}: bad meta value: {exc}") from exc
    if kind not in MODEL_KINDS:
        raise ModelFormatError(f"{path}: unknown model kind {kind!r}")
    if expect_kind is not None and kind != expect_kind:
        raise ModelFormatError(
            f"{path}: model kind is {kind!r} but {expect_kind!r} was requested"
        )
    if meta.get("normalization", "none") != "none":
        raise ModelFormatError(f"{path}: unsupported normalization {meta['normalization']!r}")
    seed = int(meta["seed"]) if "seed" in meta else None

    w1_rows = {f"w1.{i}" for i in range(n_hidden)}
    extra_w1 = [k for k in params if k.startswith("w1.") and k not in w1_rows]
    if extra_w1:
        raise ModelFormatError(
            f"{path}: {len(extra_w1)} w1 rows besides w1.0 to w1.{n_hidden - 1} "
            f"(first {extra_w1[0]!r})"
        )
    if kind in ("oe-hnn", "hnn"):
        w1 = np.stack([_parse_row(params, f"w1.{i}", n_states, path) for i in range(n_hidden)])
        b1 = _parse_row(params, "b1", n_hidden, path)
        w2 = _parse_row(params, "w2", n_hidden, path)
        b2 = float(_parse_row(params, "b2", 1, path)[0])
        model: object = HamiltonianNet(w1=w1, b1=b1, w2=w2, b2=b2)
    else:
        w1 = np.stack(
            [_parse_row(params, f"w1.{i}", n_states + n_inputs, path) for i in range(n_hidden)]
        )
        b1 = _parse_row(params, "b1", n_hidden, path)
        w2 = np.stack([_parse_row(params, f"w2.{i}", n_hidden, path) for i in range(n_states)])
        b2 = _parse_row(params, "b2", n_states, path)
        model = BlackBoxNet(w1=w1, b1=b1, w2=w2, b2=b2)
    return SavedModel(
        model=model,
        kind=kind,
        n_states=n_states,
        n_inputs=n_inputs,
        n_hidden=n_hidden,
        seed=seed,
    )
