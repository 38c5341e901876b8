"""oehnn's text files: the number format, `key = value` sections and numeric tables.

Floats are written with 17 significant digits, which read back as the same
float64 (signed zeros, infinities and NaN included). Manifests, model files,
configs and reports are `key = value` lines under optional `[name]` lines,
each value a dataclass field as `encode` writes it. Trajectories, histories
and simulations are comma-separated numbers below a header line.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "encode",
    "decode",
    "field_types",
    "sections_text",
    "read_sections",
    "write_table",
    "read_table",
]

_NUMBER = "%.17g"
_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def encode(value) -> str:
    """A value as text: None as `none`, booleans as `true`/`false`, floats in
    the number format, tuples comma-separated and arrays space-separated."""
    if value is None:
        return "none"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return _NUMBER % value
    if isinstance(value, tuple):
        return ",".join(map(encode, value))
    if isinstance(value, np.ndarray):
        return " ".join(_NUMBER % v for v in value.ravel())
    return str(value)


def decode(ftype: str, raw: str):
    """The value `raw` gives a field annotated `ftype`, such as "int | None",
    "tuple[float, ...]" or "ndarray" (a row of numbers). An optional field
    reads `none` or nothing as None; a fixed-length tuple takes as many
    items as it has. Raises ValueError for text of another type."""
    raw = raw.strip()
    base = ftype.removesuffix(" | None")
    if base != ftype and raw.lower() in ("none", ""):
        return None
    if base.startswith("tuple["):
        types = [t.strip() for t in base[len("tuple[") : -1].split(",")]
        items = raw.split(",")
        if types[-1] == "...":
            types = types[:1] * len(items)
        elif len(items) != len(types):
            raise ValueError(f"expected {len(types)} comma-separated values, got {len(items)}")
        return tuple(map(decode, types, items))
    if base == "bool":
        if raw.lower() not in _BOOLEANS:
            raise ValueError(f"expected a boolean, got {raw!r}")
        return _BOOLEANS[raw.lower()]
    if base == "ndarray":
        return np.array([float(v) for v in raw.split()])
    return {"int": int, "float": float}.get(base, str)(raw)


def field_types(cls) -> dict[str, str]:
    """Each field of dataclass `cls` with its annotated type, in field order."""
    return {f.name: f.type for f in dataclasses.fields(cls)}


def sections_text(sections: dict[str, dict]) -> str:
    """`key = value` lines, each section's under its `[name]` line (none for
    the name ''), with a blank line between sections."""
    blocks = []
    for name, body in sections.items():
        lines = [f"[{name}]"] if name else []
        blocks.append("\n".join(lines + [f"{k} = {encode(v)}" for k, v in body.items()]))
    return "\n\n".join(blocks) + "\n"


def _read_lines(path, error) -> list[str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from None


def read_sections(path, schema: dict, error: type[Exception]) -> dict[str, dict]:
    """Read a `key = value` file, '#' starting a comment, into its decoded sections.

    `schema` maps each section the file may hold ('' for the lines before
    any `[name]` line) to a function giving a key's field type, or None for
    a key it does not take. A malformed line, an unknown section or key, a
    duplicate key and a bad value raise `error` naming `path:line`.
    """
    sections: dict[str, dict] = {"": {}} if "" in schema else {}
    name, current = "", sections.get("")
    for lineno, raw in enumerate(_read_lines(path, error), start=1):
        line = raw.split("#", 1)[0].strip()
        where = f"{path}:{lineno}"
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name not in schema:
                raise error(f"{where}: unknown section [{name}]")
            current = sections.setdefault(name, {})
        elif line:
            if "=" not in line:
                raise error(f"{where}: expected 'key = value', got {line!r}")
            if current is None:
                raise error(f"{where}: expected a [section] line before 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            ftype = schema[name](key)
            if ftype is None:
                raise error(f"{where}: unknown {name + ' ' if name else ''}key {key!r}")
            if key in current:
                raise error(f"{where}: duplicate key {key!r}")
            try:
                current[key] = decode(ftype, value)
            except ValueError as exc:
                raise error(f"{where}: bad value for {key!r}: {exc}") from None
    return sections


def write_table(path, header: str, rows: np.ndarray, newline: str = "\n") -> None:
    """Write the `header` line(s), then each row of `rows` as comma-separated numbers."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        np.savetxt(fh, rows, fmt=_NUMBER, delimiter=",", newline=newline, header=header,
                   comments="")


def read_table(path, error: type[Exception]) -> tuple[list[str], np.ndarray]:
    """The column names and (rows, columns) numbers of a table below a header
    line, bit-exactly. Blank lines are skipped; a row of another width or a
    cell that is not a number raises `error` naming `path:line`."""
    lines = _read_lines(path, error)
    columns, rows = lines[0].split(","), lines[1:]
    if not any(line.strip() for line in rows):
        return columns, np.empty((0, len(columns)))
    try:
        data = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2)
        if data.shape[1] == len(columns):
            return columns, data
    except ValueError:
        pass
    for lineno, line in enumerate(rows, start=2):  # name the first line at fault
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(columns):
            raise error(f"{path}:{lineno}: expected {len(columns)} columns, found {len(cells)}")
        try:
            list(map(float, cells))
        except ValueError as exc:
            raise error(f"{path}:{lineno}: {exc}") from None
    raise error(f"{path}: not a table of numbers")
