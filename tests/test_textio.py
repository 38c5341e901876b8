import dataclasses

import numpy as np
import pytest

from oehnn import textio
from oehnn.cli import ExperimentConfig
from oehnn.data import GenerationProtocol
from oehnn.dynamics import coupled_system, duffing_system
from oehnn.signals import NoiseSpec


@pytest.mark.parametrize(
    "ftype, raw, value",
    [
        ("tuple[float, ...] | None", "none", None),
        ("tuple[float, ...] | None", " ", None),
        ("tuple[float, ...]", "0.5, 1e-3", (0.5, 1e-3)),
        ("tuple[int, int, int]", "15,5,5", (15, 5, 5)),
        ("tuple[str, str, int, int]", "traj_000.csv,train,3,1", ("traj_000.csv", "train", 3, 1)),
        ("int | None", "None", None),
        ("int | None", "7", 7),
        ("float", "-inf", -np.inf),
        ("bool", "Yes", True),
        ("bool", "0", False),
        ("str", " oe-hnn ", "oe-hnn"),
    ],
)
def test_decode(ftype, raw, value):
    assert textio.decode(ftype, raw) == value


@pytest.mark.parametrize(
    "ftype, raw",
    [
        ("tuple[int, int, int]", "15,5"),
        ("tuple[float, ...]", "1,,2"),
        ("tuple[float, ...]", "none"),
        ("int", "1.5"),
        ("int", ""),
        ("bool", "maybe"),
    ],
)
def test_decode_rejects(ftype, raw):
    with pytest.raises(ValueError):
        textio.decode(ftype, raw)


@pytest.mark.parametrize(
    "value",
    [
        duffing_system(),
        coupled_system(cubic=False),
        GenerationProtocol(ts=1 / 3, amplitude=0.15),
        NoiseSpec(variance=0.05, seed=9),
        ExperimentConfig(system="coupled", masses=(0.5, 0.7), chunk_length=50).resolved(),
    ],
    ids=lambda v: type(v).__name__,
)
def test_every_field_round_trips(value):
    types = textio.field_types(type(value))
    text = {key: textio.encode(v) for key, v in dataclasses.asdict(value).items()}
    assert type(value)(**{key: textio.decode(types[key], raw) for key, raw in text.items()}) == value


def test_table_errors_name_the_line(tmp_path):
    path = tmp_path / "table.csv"
    textio.write_table(path, "a,b", np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    lines = path.read_text().splitlines()
    for bad, named in (("3,x", "table.csv:3: could not convert"), ("3", "table.csv:3: expected 2")):
        path.write_text("\n".join(lines[:2] + [bad] + lines[3:]) + "\n")
        with pytest.raises(ValueError, match=named):
            textio.read_table(path, ValueError)
    path.write_text("a,b\n1,2,3\n4,5,6\n")
    with pytest.raises(ValueError, match="table.csv:2: expected 2 columns, found 3"):
        textio.read_table(path, ValueError)


def test_table_round_trip_skips_blank_lines(tmp_path):
    path = tmp_path / "table.csv"
    rows = np.array([[-0.0, np.inf, np.nan], [5e-324, 1 / 3, -1e300]])
    textio.write_table(path, "a,b,c", rows, newline="\r\n")
    path.write_bytes(path.read_bytes().replace(b"\r\n", b"\r\n\r\n", 1) + b"\n")
    columns, back = textio.read_table(path, ValueError)
    assert columns == ["a", "b", "c"]
    assert back.tobytes() == rows.tobytes()
