import dataclasses
import filecmp
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oehnn.cli
from oehnn.cli import ConfigError, ExperimentConfig, build_config, load_config_file, main
from oehnn.data import GenerationProtocol, read_csv
from oehnn.netmodel import init_blackbox_net, save_model
from oehnn.train import TrainConfig, _block_rows

GEN_FAST = [
    "--n-realizations", "6", "--n-train", "3", "--n-val", "2", "--n-test", "1",
    "--n-samples", "30", "--t-start", "0.5",
]
TRAIN_FAST = ["--n-hidden", "6", "--max-epochs", "4", "--patience", "4"]


def run_cli(*args):
    return main([str(a) for a in args])


class TestConfig:
    def test_defaults_resolve_per_system(self):
        duffing = ExperimentConfig().resolved()
        assert duffing.noise_variance == 0.1
        assert duffing.masses == (1.0,)
        coupled = ExperimentConfig(system="coupled").resolved()
        assert coupled.noise_variance == 0.05
        assert coupled.masses == (0.5, 0.5)
        assert coupled.system_spec().n_states == 4

    def test_unknown_system(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(system="pendulum").resolved()

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "exp.txt"
        path.write_text(
            "# comment line\n"
            "system = coupled\n"
            "n_hidden = 32\n"
            "learning_rate = 5e-3\n"
            "chunk_length = none\n"
            "masses = 0.5,0.5\n"
        )
        values = load_config_file(path)
        assert values["system"] == "coupled"
        assert values["n_hidden"] == 32
        assert values["learning_rate"] == 5e-3
        assert values["chunk_length"] is None
        assert values["masses"] == (0.5, 0.5)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.txt"
        path.write_text("learning_rte = 0.001\n")
        with pytest.raises(ConfigError, match="learning_rte"):
            load_config_file(path)

    @pytest.mark.parametrize(
        "text, named",
        [
            ("n_hidden = 3\nn_hidden = 4\n", "exp.txt:2: duplicate key 'n_hidden'"),
            ("n_hidden = 3\nlearning_rte = 0.1\n", "exp.txt:2: unknown key 'learning_rte'"),
            ("[train]\nn_hidden = 3\n", "exp.txt:1: unknown section [train]"),
            ("n_hidden = 3\nworkers = 2\n", "exp.txt:2: unknown key 'workers'"),
            ("n_hidden = 3\ncubic = maybe\n", "exp.txt:2: bad value for 'cubic'"),
        ],
        ids=["duplicate", "unknown", "section", "removed", "value"],
    )
    def test_bad_line_is_named(self, tmp_path, text, named):
        path = tmp_path / "exp.txt"
        path.write_text(text)
        with pytest.raises(ConfigError) as excinfo:
            load_config_file(path)
        assert named in str(excinfo.value)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "exp.txt"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="exp.txt:1"):
            load_config_file(path)


class TestLibraryConfigsByName:
    """`protocol()` and `train_config()` take each field from the config key
    of the same name; only split and seed are renamed."""

    RENAMED = {"split", "seed"}
    # a valid value other than the built object's default, per shared key
    OTHER = {
        "n_realizations": 26, "n_samples": 40, "ts": 0.02, "t_start": 1.5, "harmonics": 7,
        "f0": 0.3, "amplitude": 0.25, "init_range": 0.2, "q_max": 3.0, "max_retries": 9,
        "learning_rate": 4e-3, "beta1": 0.8, "beta2": 0.99, "epsilon": 1e-7, "max_epochs": 17,
        "patience": 5, "chunk_length": 12, "n_hidden": 9, "derivative_source": "true",
        "anchor": "measured",
    }

    @pytest.mark.parametrize("cls", [GenerationProtocol, TrainConfig], ids=lambda c: c.__name__)
    def test_every_field_is_a_key(self, cls):
        keys = {f.name for f in dataclasses.fields(ExperimentConfig)}
        names = {f.name for f in dataclasses.fields(cls)} - self.RENAMED
        assert names <= keys, sorted(names - keys)
        assert not self.RENAMED & keys

    def test_each_key_reaches_the_built_object(self):
        shared = {f.name for cls in (GenerationProtocol, TrainConfig)
                  for f in dataclasses.fields(cls)} - self.RENAMED
        assert set(self.OTHER) == shared
        default = ExperimentConfig()
        defaults = {**vars(default.protocol()), **vars(default.train_config())}
        cfg = ExperimentConfig(**self.OTHER, n_test=6, train_seed=11)
        built = {**vars(cfg.protocol()), **vars(cfg.train_config())}
        for key, value in self.OTHER.items():
            assert defaults[key] != value, key
            assert built[key] == value, key
        assert (defaults["split"], defaults["seed"]) == ((15, 5, 5), 0)
        assert (built["split"], built["seed"]) == ((15, 5, 6), 11)

    def test_errors_are_config_errors(self):
        with pytest.raises(ConfigError, match="split"):
            ExperimentConfig(n_test=6).protocol()
        with pytest.raises(ConfigError, match="learning_rate"):
            ExperimentConfig(learning_rate=0.0).train_config()


class TestGenerateCommand:
    def test_writes_dataset_and_echo(self, tmp_path):
        out = tmp_path / "data"
        assert run_cli("generate-data", "--out", out, *GEN_FAST) == 0
        assert (out / "manifest.txt").exists()
        assert (out / "config.txt").exists()
        ds = read_csv(out)
        assert [len(ds.train), len(ds.validation), len(ds.test)] == [3, 2, 1]

    def test_seed_reproducibility(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run_cli("generate-data", "--out", out, "--master-seed", 7, *GEN_FAST) == 0
        comparison = filecmp.dircmp(a, b)
        assert not comparison.diff_files

    def test_unknown_config_key_exit_code(self, tmp_path, capsys):
        config = tmp_path / "bad.txt"
        config.write_text("not_a_key = 1\n")
        code = run_cli("generate-data", "--out", tmp_path / "d", "--config", config)
        assert code == 2
        assert "not_a_key" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--n-samples", "0"],
            ["--n-samples", "1"],
            ["--n-samples", "abc"],
            ["--ts", "0"],
            ["--ts", "nan"],
            ["--n-train", "30"],
            ["--harmonics", "0"],
            ["--f0", "0"],
            ["--noise-variance", "-1"],
            ["--max-retries", "0"],
            ["--init-range", "-1"],
            ["--masses", "-1"],
            ["--masses", "1,x"],
            ["--masses", "1,2"],
            ["--system", "coupled", "--masses", "1"],
            ["--master-seed", "-1"],
            ["--t-start", "1e300"],  # a grid too long for an array
            ["--n-samples", "1" + "0" * 400],  # too many samples even for a float
            ["--ts", "1e308"],  # a grid whose last time overflows
        ],
    )
    def test_bad_generation_value_is_usage_error(self, tmp_path, capsys, flags):
        code = run_cli("generate-data", "--out", tmp_path / "d", *GEN_FAST, *flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "d").exists()

    def test_config_echo_reruns_identically(self, tmp_path):
        first = tmp_path / "first"
        assert run_cli("generate-data", "--out", first, "--master-seed", 3, *GEN_FAST) == 0
        second = tmp_path / "second"
        assert run_cli(
            "generate-data", "--out", second, "--config", first / "config.txt"
        ) == 0
        assert not filecmp.dircmp(first, second).diff_files


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    assert run_cli("generate-data", "--out", out, *GEN_FAST) == 0
    return out


@pytest.fixture(scope="module")
def trained_models(cli_dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    paths = {}
    for kind in ("oe-hnn", "hnn", "mlp"):
        out = root / kind
        assert run_cli(
            "train", "--data", cli_dataset, "--out", out, "--model", kind, *TRAIN_FAST
        ) == 0
        paths[kind] = out / "model.txt"
    return paths


class TestTrainCommand:
    def test_outputs(self, cli_dataset, trained_models):
        for kind, path in trained_models.items():
            assert path.exists()
            history = path.parent / "history.csv"
            lines = history.read_text().splitlines()
            assert lines[0] == "epoch,train_loss,val_loss"
            assert len(lines) >= 2
            text = path.read_text()
            assert f"kind = {kind}" in text

    def test_missing_dataset_dir(self, tmp_path, capsys):
        code = run_cli("train", "--data", tmp_path / "nope", "--out", tmp_path / "o")
        assert code == 2
        assert "manifest" in capsys.readouterr().err

    def test_hnn_logs_derivative_choice(self, cli_dataset, tmp_path, capsys):
        assert run_cli(
            "train", "--data", cli_dataset, "--out", tmp_path / "h",
            "--model", "hnn", *TRAIN_FAST,
        ) == 0
        assert "finite differences" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--n-hidden", "0"],
            ["--chunk-length", "1"],
            ["--max-epochs", "0"],
            ["--workers", "2"],  # the affinity mask sets the process budget
            ["--model", "foo"],
            ["--train-seed", "-1"],
            ["--learning-rate", "nan"],
            ["--learning-rate", "inf"],
            ["--epsilon", "nan"],
        ],
    )
    def test_bad_training_value_is_usage_error(self, cli_dataset, tmp_path, capsys, flags):
        code = run_cli("train", "--data", cli_dataset, "--out", tmp_path / "o", *flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("split", ["train", "validation"])
    def test_empty_split_is_usage_error(self, cli_dataset, tmp_path, capsys, split):
        data = tmp_path / "data"
        shutil.copytree(cli_dataset, data)
        manifest = data / "manifest.txt"
        lines = manifest.read_text().splitlines()
        manifest.write_text("\n".join(ln for ln in lines if f",{split}," not in ln) + "\n")
        code = run_cli("train", "--data", data, "--out", tmp_path / "o", *TRAIN_FAST)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-empty train and validation splits" in err
        assert not (tmp_path / "o").exists()

    @staticmethod
    def _set_cell(cli_dataset, tmp_path, victim, value):
        """A copy of the dataset with the first output cell of the fifth data
        row (line 6) of trajectory `victim` set to `value`."""
        data = tmp_path / "data"
        shutil.copytree(cli_dataset, data)
        path = data / f"traj_{victim:03d}.csv"
        lines = path.read_bytes().split(b"\r\n")
        cells = lines[5].split(b",")
        cells[2] = value.encode()
        lines[5] = b",".join(cells)
        path.write_bytes(b"\r\n".join(lines))
        return data

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_cell_is_usage_error(self, cli_dataset, tmp_path, capsys, value):
        data = self._set_cell(cli_dataset, tmp_path, 0, value)
        code = run_cli("train", "--data", data, "--out", tmp_path / "o", *TRAIN_FAST)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "traj_000.csv:6: y_0 is not a finite number" in err

    # numpy's overflow warnings would add lines to the one `error:` line
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "victim, model, split",
        [(0, "oe-hnn", "training"), (1, "hnn", "training"), (3, "mlp", "validation")],
    )
    def test_overflowing_cell_is_runtime_error(self, cli_dataset, tmp_path, capsys,
                                               process_budget, victim, model, split):
        # a finite cell whose squared residual overflows the loss
        data = self._set_cell(cli_dataset, tmp_path, victim, "1e300")
        out = tmp_path / "o"
        process_budget(1)
        code = run_cli("train", "--data", data, "--out", out, "--model", model, *TRAIN_FAST)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"the {split} loss at epoch 1 is inf" in err
        assert not (out / "model.txt").exists()


    @pytest.mark.parametrize("model", ["hnn", "mlp"])
    def test_fd_targets_on_two_sample_trajectories_is_usage_error(self, tmp_path, capsys, model):
        data = tmp_path / "two"
        assert run_cli("generate-data", "--out", data, *GEN_FAST, "--n-samples", "2") == 0
        code = run_cli(
            "train", "--data", data, "--out", tmp_path / "o", "--model", model,
            "--derivative-source", "fd", *TRAIN_FAST,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "at least 3 samples" in err

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_one_sample_dataset_is_usage_error(self, trained_models, tmp_path, capsys, command):
        # a two-sample dataset edited into one-sample trajectories
        data = tmp_path / "one"
        assert run_cli("generate-data", "--out", data, *GEN_FAST, "--n-samples", "2") == 0
        manifest = data / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("n_samples = 2\n", "n_samples = 1\n"))
        for victim in data.glob("traj_*.csv"):
            victim.write_text("\n".join(victim.read_text().splitlines()[:2]) + "\n")
        capsys.readouterr()
        extra = (
            ["--model", "oe-hnn", *TRAIN_FAST] if command == "train"
            else ["--models", trained_models["oe-hnn"]]
        )
        code = run_cli(command, "--data", data, "--out", tmp_path / "o", *extra)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "two samples" in err


class TestEvaluateCommand:
    def test_three_model_comparison(self, cli_dataset, trained_models, tmp_path, capsys):
        out = tmp_path / "eval"
        assert run_cli(
            "evaluate", "--data", cli_dataset, "--out", out,
            "--models", *trained_models.values(),
        ) == 0
        table = (out / "comparison.csv").read_text().splitlines()
        assert table[0] == "method,q,p"
        assert [row.split(",")[0] for row in table[1:]] == ["oe-hnn", "hnn", "mlp"]
        assert (out / "report_0_oe-hnn.txt").exists()

    def test_single_model(self, cli_dataset, trained_models, tmp_path):
        out = tmp_path / "eval1"
        assert run_cli(
            "evaluate", "--data", cli_dataset, "--out", out,
            "--models", trained_models["mlp"],
        ) == 0
        assert len((out / "comparison.csv").read_text().splitlines()) == 2

    def test_dimension_mismatch_exit_code(self, trained_models, tmp_path, capsys):
        coupled_data = tmp_path / "coupled"
        assert run_cli(
            "generate-data", "--out", coupled_data, "--system", "coupled",
            "--amplitude", "0.05", *GEN_FAST,
        ) == 0
        code = run_cli(
            "evaluate", "--data", coupled_data, "--out", tmp_path / "e",
            "--models", trained_models["oe-hnn"],
        )
        assert code == 2
        assert "states" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["hnn", "mlp"])
    def test_input_count_mismatch_names_the_model(self, cli_dataset, trained_models, tmp_path,
                                                  capsys, kind):
        # a model file for two inputs, on a one-input dataset
        bad = tmp_path / "model.txt"
        if kind == "hnn":
            text = trained_models["hnn"].read_text()
            assert "n_inputs = 1\n" in text
            bad.write_text(text.replace("n_inputs = 1\n", "n_inputs = 2\n"))
        else:
            net = init_blackbox_net(2, 2, 6, np.random.default_rng(0))
            save_model(net, bad, "mlp", n_inputs=2)
        capsys.readouterr()
        code = run_cli("evaluate", "--data", cli_dataset, "--out", tmp_path / "e", "--models", bad)
        assert code == 2
        err = capsys.readouterr().err
        assert err == (f"error: {bad}: model has 2 states and 2 inputs "
                       "but the dataset system has 2 and 1\n")

    @pytest.mark.parametrize("flags", [["--reference", "foo"], ["--anchor", "foo"]])
    def test_bad_evaluation_value_is_usage_error(self, cli_dataset, trained_models, tmp_path,
                                                 capsys, flags):
        code = run_cli(
            "evaluate", "--data", cli_dataset, "--out", tmp_path / "e",
            "--models", trained_models["oe-hnn"], *flags,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flags[0][2:] in err

    @pytest.mark.parametrize("defect", ["empty test split", "no stored truth"])
    def test_dataset_without_what_evaluate_needs_is_usage_error(self, trained_models, tmp_path,
                                                               capsys, defect):
        data = tmp_path / "data"
        split = ["--n-val", "3", "--n-test", "0"] if defect == "empty test split" else []
        assert run_cli("generate-data", "--out", data, *GEN_FAST, *split) == 0
        if defect == "no stored truth":
            for victim in data.glob("traj_*.csv"):
                rows = [line.split(",")[:4] for line in victim.read_text().splitlines()]
                victim.write_text("\n".join(",".join(row) for row in rows) + "\n")
        capsys.readouterr()
        code = run_cli("evaluate", "--data", data, "--out", tmp_path / "e",
                       "--models", trained_models["oe-hnn"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    # numpy's overflow warnings would add lines to the one `error:` line
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_reference_is_usage_error(self, cli_dataset, trained_models, tmp_path,
                                                  capsys):
        # a finite measured cell of the test trajectory whose squared error overflows
        data = TestTrainCommand._set_cell(cli_dataset, tmp_path, 5, "1e300")
        out = tmp_path / "e"
        code = run_cli("evaluate", "--data", data, "--out", out, "--reference", "measured",
                       "--models", trained_models["hnn"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}: test trajectory 0:") and err.count("\n") == 1
        assert "RMSE against measured overflows" in err
        assert not (out / "comparison.csv").exists()

    def test_malformed_row_key_is_usage_error(self, cli_dataset, trained_models, tmp_path,
                                              capsys):
        bad = tmp_path / "model.txt"
        text = trained_models["hnn"].read_text()
        bad.write_text(text.replace("[params]\n", "[params]\nw1.x = 0 0\n"))
        code = run_cli("evaluate", "--data", cli_dataset, "--out", tmp_path / "e", "--models", bad)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'w1.x'" in err


    def test_unknown_parameter_key_is_usage_error(self, cli_dataset, trained_models, tmp_path,
                                                  capsys):
        bad = tmp_path / "model.txt"
        bad.write_text(trained_models["oe-hnn"].read_text() + "bogus = 1.0\n")
        code = run_cli("evaluate", "--data", cli_dataset, "--out", tmp_path / "e", "--models", bad)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'bogus'" in err


    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda t: t.replace("[meta]\n", "[meta]\nn_hiden = 7\n"), "'n_hiden'"),
            (lambda t: t + "[extra]\nnote = 1\n", "[extra]"),
            (lambda t: t.replace("seed = 0\n", "seed = 0.0\n"), "'0.0'"),
            (lambda t: t.replace("n_hidden = 6\n", "n_hidden = 0\n"), "must be positive"),
            (lambda t: t.replace("n_hidden = 6\n", "n_hidden = 10000000000\n"), "'w1.6'"),
        ],
    )
    def test_bad_meta_or_section_is_usage_error(
        self, cli_dataset, trained_models, tmp_path, capsys, edit, named
    ):
        bad = tmp_path / "model.txt"
        bad.write_text(edit(trained_models["hnn"].read_text()))
        code = run_cli("evaluate", "--data", cli_dataset, "--out", tmp_path / "e", "--models", bad)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err


# One corruption of a model file: cut it after line i; delete line i; put
# free text in place of line i or before it; give line i a new value; or put
# a copy of line j with a new value before line i. A new value is a small
# integer, a float (nan and inf too) or free text.
_LINE_TEXT = st.text(st.characters(blacklist_characters="\r\n", codec="utf-8"), max_size=30)
_VALUE = st.one_of(
    st.integers(-3, 12).map(str), st.floats(allow_nan=True).map(repr), _LINE_TEXT
)
_CORRUPTION = st.tuples(
    st.sampled_from(["truncate", "delete", "replace", "insert", "revalue", "copy"]),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.one_of(_VALUE, _LINE_TEXT),
)


def _corrupt(lines, corruption):
    op, at, donor, text = corruption
    i = at % len(lines)
    if op == "truncate":
        return lines[:i]
    if op in ("revalue", "copy"):
        key = lines[i if op == "revalue" else donor % len(lines)].split("=", 1)[0].strip()
        text = f"{key} = {text}"
    if op in ("insert", "copy"):
        return lines[:i] + [text] + lines[i:]
    return lines[:i] + ([] if op == "delete" else [text]) + lines[i + 1 :]


class TestModelFileContract:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(kind=st.sampled_from(["oe-hnn", "hnn", "mlp"]), corruption=_CORRUPTION)
    def test_corrupt_model_file_exits_cleanly(
        self, cli_dataset, trained_models, capsys, kind, corruption
    ):
        lines = trained_models[kind].read_text().splitlines()
        with tempfile.TemporaryDirectory() as tmp:
            bad = Path(tmp) / "model.txt"
            bad.write_text("\n".join(_corrupt(lines, corruption)) + "\n", encoding="utf-8")
            capsys.readouterr()
            code = run_cli("evaluate", "--data", cli_dataset, "--out", Path(tmp) / "e",
                           "--models", bad)
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        if code != 0:
            assert [ln for ln in err.splitlines() if ln.startswith("error:")] == [
                err.splitlines()[-1]
            ]
            assert err.count("error:") == 1


def _exits_cleanly(capsys, argv):
    """Run `main`: it returns 0, 1 or 2, and an error is one `error:` line."""
    capsys.readouterr()
    code = main([str(a) for a in argv])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code != 0:
        assert err.startswith("error: ") and err.count("\n") == 1


def _run_on_dataset(capsys, data, out, model, trained_models):
    train = ["train", "--data", data, "--out", out / "t", "--model", model, *TRAIN_FAST]
    _exits_cleanly(capsys, train)
    _exits_cleanly(capsys, ["evaluate", "--data", data, "--out", out / "e",
                            "--models", trained_models[model]])


def _corrupt_table(lines, corruption):
    """`_corrupt`, but a new value on a table row goes into one of its cells,
    counted from the last (a small `donor` leaves the time column alone)."""
    op, at, donor, text = corruption
    row = lines[at % len(lines)]
    if op != "revalue" or "=" in row:
        return _corrupt(lines, corruption)
    cells = row.split(",")
    cells[-1 - donor % len(cells)] = text
    return lines[: at % len(lines)] + [",".join(cells)] + lines[at % len(lines) + 1 :]


# mostly new values, most of which a dataset reads, so that training and
# evaluation see them
_DATASET_CORRUPTION = st.tuples(
    st.sampled_from(["truncate", "delete", "replace", "insert", "copy"] + ["revalue"] * 5),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    _VALUE,
)


class TestCorruptDataset:
    def _copy(self, cli_dataset, tmp_path):
        data = tmp_path / "data"
        shutil.copytree(cli_dataset, data)
        return data

    @pytest.mark.parametrize(
        "defect, named",
        [
            ("non-integer realization", "manifest.txt:29"),
            ("non-integer trajectory key", "manifest.txt:29: unknown trajectories key 'zero'"),
            ("non-UTF-8 manifest", "manifest.txt: not UTF-8"),
            ("non-UTF-8 trajectory", "traj_001.csv: not UTF-8"),
            ("repeated time stamp", "traj_000.csv: the time column is not strictly increasing"),
            ("unknown manifest key", "manifest.txt:12: unknown protocol key 'tss'"),
            ("duplicate manifest key", "manifest.txt:12: duplicate key 'ts'"),
            ("missing manifest key", "manifest.txt: [protocol] has no 'ts'"),
        ],
        ids=["realization", "trajectory-key", "manifest-bytes", "trajectory-bytes", "time-stamp",
             "unknown-key", "duplicate-key", "missing-key"],
    )
    @pytest.mark.parametrize("command", ["train", "evaluate", "simulate"])
    def test_is_usage_error(self, cli_dataset, trained_models, tmp_path, capsys, defect, named,
                            command):
        data = self._copy(cli_dataset, tmp_path)
        manifest = data / "manifest.txt"
        text = manifest.read_text()
        if defect == "non-integer realization":
            manifest.write_text(text.replace("traj_000.csv,train,0,", "traj_000.csv,train,x,"))
        elif defect == "non-integer trajectory key":
            manifest.write_text(text.replace("\n0 = traj_000", "\nzero = traj_000"))
        elif defect == "non-UTF-8 manifest":
            manifest.write_bytes(text.encode() + b"\xff")
        elif defect == "non-UTF-8 trajectory":
            victim = data / "traj_001.csv"
            victim.write_bytes(victim.read_bytes() + b"\xff")
        elif defect == "repeated time stamp":
            victim = data / "traj_000.csv"
            lines = victim.read_text().splitlines()
            lines[2] = lines[1].split(",")[0] + "," + lines[2].split(",", 1)[1]
            victim.write_text("\n".join(lines) + "\n")
        elif defect == "unknown manifest key":
            manifest.write_text(text.replace("\nts = 0.01\n", "\nts = 0.01\ntss = 0.02\n"))
        elif defect == "duplicate manifest key":
            manifest.write_text(text.replace("\nts = 0.01\n", "\nts = 0.01\nts = 0.02\n"))
        else:
            manifest.write_text(text.replace("\nts = 0.01\n", "\n"))
        capsys.readouterr()
        extra = {
            "train": ["--model", "oe-hnn", *TRAIN_FAST],
            "evaluate": ["--models", trained_models["oe-hnn"]],
            "simulate": [],
        }[command]
        source = "--like-dataset" if command == "simulate" else "--data"
        code = run_cli(command, source, data, "--out", tmp_path / "o", *extra)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named in err

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        victim=st.integers(0, 10**6),
        corruption=_DATASET_CORRUPTION,
        bad_byte=st.sampled_from([None] * 4 + [0]).flatmap(
            lambda at: st.none() if at is None else st.integers(0, 10**6)
        ),
        model=st.sampled_from(["oe-hnn", "hnn", "mlp"]),
    )
    def test_exits_cleanly(self, cli_dataset, trained_models, capsys, process_budget, victim,
                           corruption, bad_byte, model):
        # one file of the dataset corrupted as `_corrupt_table` does, and
        # perhaps a byte that is not UTF-8 put into it; trained inline
        process_budget(1)
        with tempfile.TemporaryDirectory() as tmp:
            data = self._copy(cli_dataset, Path(tmp))
            files = sorted(data.glob("traj_*.csv")) + [data / "manifest.txt"]
            path = files[victim % len(files)]
            lines = path.read_text().splitlines()
            text = ("\n".join(_corrupt_table(lines, corruption)) + "\n").encode()
            if bad_byte is not None:
                at = bad_byte % (len(text) + 1)
                text = text[:at] + b"\xff" + text[at:]
            path.write_bytes(text)
            _run_on_dataset(capsys, data, Path(tmp), model, trained_models)


# generate-data argv: a tiny valid run (at most 4 realizations of 30 samples
# after at most 200 pre-roll steps), optional flags drawn from valid ranges,
# mass lists of any length, then up to two flags given an edge value, most of
# them invalid there (so splits that do not sum, zero, negative, nan, text).
_EDGE = st.sampled_from(["0", "1", "-1", "-0.5", "nan", "inf", "abc", "", "1,2"])
_OPTIONAL = {
    "--system": st.sampled_from(["duffing", "coupled"]),
    "--masses": st.lists(st.floats(0.1, 2.0), min_size=1, max_size=3),
    "--stiffnesses": st.lists(st.floats(0.1, 2.0), min_size=1, max_size=3),
    "--cubic": st.sampled_from(["true", "false"]),
    "--ts": st.floats(1e-3, 0.05),
    "--harmonics": st.integers(1, 5),
    "--f0": st.floats(0.05, 2.0),
    "--amplitude": st.floats(-1.0, 3.0),
    "--noise-variance": st.floats(0.0, 0.2),
    "--init-range": st.floats(0.0, 1.0),
    "--q-max": st.floats(0.5, 5.0),
    "--max-retries": st.integers(1, 3),
    "--master-seed": st.integers(0, 100),
}


def _text(value):
    return ",".join(map(repr, value)) if isinstance(value, list) else str(value)


@st.composite
def _generate_argv(draw):
    split = draw(st.tuples(st.integers(1, 2), st.integers(0, 1), st.integers(0, 1)))
    flags = {
        "--n-realizations": sum(split),
        "--n-train": split[0],
        "--n-val": split[1],
        "--n-test": split[2],
        "--n-samples": draw(st.integers(2, 30)),
        "--t-start": draw(st.floats(0.0, 0.2)),
    }
    flags.update(draw(st.fixed_dictionaries({}, optional=_OPTIONAL)))
    for flag in draw(st.lists(st.sampled_from([*flags, *_OPTIONAL]), max_size=2, unique=True)):
        flags[flag] = draw(_EDGE)
    return {flag: _text(value) for flag, value in flags.items()}


class TestGenerateArgvContract:
    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(flags=_generate_argv())
    def test_generate_data_exits_cleanly(self, capsys, flags):
        argv = [token for flag, value in flags.items() for token in (flag, value)]
        with tempfile.TemporaryDirectory() as tmp:
            capsys.readouterr()
            code = main(["generate-data", "--out", str(Path(tmp) / "d"), *argv])
        err = capsys.readouterr().err
        assert code in (0, 1, 2)
        if code != 0:
            assert err.startswith("error: ") and err.count("\n") == 1


# train, evaluate and simulate argv, as for generate-data: a tiny valid run,
# optional flags from valid ranges, then up to two flags given an edge value
# (a negative exponent too) or, last, no value at all.
_ARGV_EDGE = st.sampled_from(["0", "1", "-1", "-0.5", "-1e-3", "nan", "inf", "abc", "", "1,2",
                              None])
_TRAIN_OPTIONAL = {
    "--model": st.sampled_from(["oe-hnn", "hnn", "mlp"]),
    "--learning-rate": st.floats(1e-4, 0.1),
    "--beta1": st.floats(0.0, 0.99),
    "--beta2": st.floats(0.0, 0.999),
    "--epsilon": st.floats(1e-10, 1e-6),
    "--chunk-length": st.integers(2, 40),
    "--train-seed": st.integers(0, 100),
    "--derivative-source": st.sampled_from(["fd", "true"]),
    "--anchor": st.sampled_from(["measured", "true"]),
}
_EVALUATE_OPTIONAL = {
    "--reference": st.sampled_from(["true", "measured"]),
    "--anchor": st.sampled_from(["measured", "true"]),
    "--system": st.sampled_from(["duffing", "coupled"]),
}
_SIMULATE_OPTIONAL = {
    "--x0": st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4),
    "--input": st.sampled_from(["multisine", "zero"]),
    "--phase-seed": st.integers(0, 100),
    "--ts": st.floats(1e-3, 0.05),
    "--harmonics": st.integers(1, 5),
    "--f0": st.floats(0.05, 2.0),
    "--amplitude": st.floats(-1.0, 3.0),
    "--system": st.sampled_from(["duffing", "coupled"]),
    "--masses": st.lists(st.floats(0.1, 2.0), min_size=1, max_size=3),
    "--cubic": st.sampled_from(["true", "false"]),
}


@st.composite
def _argv(draw, base, optional):
    flags = {flag: draw(value) for flag, value in base.items()}
    flags.update(draw(st.fixed_dictionaries({}, optional=optional)))
    for flag in draw(st.lists(st.sampled_from([*flags, *optional]), max_size=2, unique=True)):
        flags[flag] = draw(_ARGV_EDGE)
    valued = [tok for flag, value in flags.items() if value is not None
              for tok in (flag, _text(value))]
    return valued + [flag for flag, value in flags.items() if value is None]


class TestArgvContract:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(argv=_argv({"--n-hidden": st.integers(1, 6), "--max-epochs": st.integers(1, 3),
                       "--patience": st.integers(1, 3)}, _TRAIN_OPTIONAL))
    def test_train_exits_cleanly(self, cli_dataset, capsys, argv):
        with tempfile.TemporaryDirectory() as tmp:
            _exits_cleanly(capsys, ["train", "--data", cli_dataset, "--out", tmp, *argv])

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(models=st.lists(st.sampled_from(["oe-hnn", "hnn", "mlp"]), max_size=3),
           argv=_argv({}, _EVALUATE_OPTIONAL))
    def test_evaluate_exits_cleanly(self, cli_dataset, trained_models, capsys, models, argv):
        paths = [trained_models[kind] for kind in models]
        with tempfile.TemporaryDirectory() as tmp:
            _exits_cleanly(capsys, ["evaluate", "--data", cli_dataset, "--out", tmp, *argv,
                                    "--models", *paths])

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(source=st.sampled_from(["true-system", "model-file", "like-dataset"]),
           argv=_argv({"--steps": st.integers(1, 40), "--realization": st.integers(0, 6)},
                      _SIMULATE_OPTIONAL))
    def test_simulate_exits_cleanly(self, cli_dataset, trained_models, capsys, source, argv):
        origin = {
            "true-system": ["--true-system"],
            "model-file": ["--model-file", trained_models["hnn"]],
            "like-dataset": ["--like-dataset", cli_dataset],
        }[source]
        with tempfile.TemporaryDirectory() as tmp:
            _exits_cleanly(capsys, ["simulate", *origin, "--out", Path(tmp) / "s.csv", *argv])


# --config files: the keys of a tiny valid run, optional keys from valid
# ranges (the argv strategies' flags as keys), up to two keys given an edge
# value or none, and now and then an unknown key (one a past version took
# among them), a repeated line, a [section] line and a byte that is not UTF-8.
_NOW_AND_THEN = st.sampled_from([False, False, False, True])


def _as_keys(flags):
    return {flag[2:].replace("-", "_"): value for flag, value in flags.items()}


@st.composite
def _config_file(draw, base, optional):
    values = {key: draw(value) for key, value in _as_keys(base).items()}
    optional = _as_keys(optional)
    values.update(draw(st.fixed_dictionaries({}, optional=optional)))
    for key in draw(st.lists(st.sampled_from([*values, *optional]), max_size=2, unique=True)):
        values[key] = draw(_ARGV_EDGE)
    lines = [f"{key} = {'' if value is None else _text(value)}" for key, value in values.items()]
    if draw(_NOW_AND_THEN):
        lines.append(draw(st.sampled_from(["workers = 2", "learning_rte = 0.1", "seed = 1"])))
    if draw(_NOW_AND_THEN):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    if draw(_NOW_AND_THEN):
        lines.insert(draw(st.integers(0, len(lines))), "[section]")
    text = ("\n".join(lines) + "\n").encode()
    if draw(_NOW_AND_THEN):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + b"\xff" + text[at:]
    return text


_GENERATE_BASE = {flag: st.just(value) for flag, value in zip(GEN_FAST[::2], GEN_FAST[1::2])}
_TRAIN_BASE = {"--n-hidden": st.integers(1, 6), "--max-epochs": st.integers(1, 3),
               "--patience": st.integers(1, 3)}


class TestConfigFileContract:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_config_file(_GENERATE_BASE, _OPTIONAL))
    def test_generate_data_exits_cleanly(self, capsys, text):
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "exp.txt"
            config.write_bytes(text)
            _exits_cleanly(capsys, ["generate-data", "--out", Path(tmp) / "d", "--config", config])

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_config_file(_TRAIN_BASE, {**_OPTIONAL, **_TRAIN_OPTIONAL}))
    def test_train_exits_cleanly(self, cli_dataset, capsys, text):
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "exp.txt"
            config.write_bytes(text)
            _exits_cleanly(capsys, ["train", "--data", cli_dataset, "--out", Path(tmp) / "t",
                                    "--config", config])


class TestSimulateCommand:
    def test_zero_input_true_system_equilibrium(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run_cli(
            "simulate", "--true-system", "--input", "zero", "--steps", 20, "--out", out
        ) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(rows[:, 2:], np.zeros((20, 2)))

    def test_reproduces_dataset_realization_bit_exactly(self, cli_dataset, tmp_path):
        coupled = tmp_path / "coupled"
        assert run_cli(
            "generate-data", "--out", coupled, "--system", "coupled", "--amplitude", 2.0,
            *GEN_FAST,
        ) == 0
        for dataset in (cli_dataset, coupled):
            ds = read_csv(dataset)
            for target in ds.all_trajectories():
                out = tmp_path / "re.csv"
                assert run_cli(
                    "simulate", "--like-dataset", dataset, "--realization", target.realization,
                    "--out", out,
                ) == 0
                rows = np.loadtxt(out, delimiter=",", skiprows=1)
                assert np.array_equal(rows[:, 1:2], target.u)
                assert np.array_equal(rows[:, 2:], target.x_true)
        assert max(tr.attempt for tr in read_csv(coupled).all_trajectories()) > 0

    def test_divergence_flagged(self, tmp_path, capsys):
        out = tmp_path / "div.csv"
        code = run_cli(
            "simulate", "--true-system", "--input", "zero", "--steps", 3000,
            "--x0", "30,0", "--out", out,
        )
        assert code == 0
        assert "diverged" in capsys.readouterr().out
        assert out.read_text().startswith("# diverged_at_step = ")

    def test_model_file_simulation(self, trained_models, tmp_path):
        out = tmp_path / "model_sim.csv"
        assert run_cli(
            "simulate", "--model-file", trained_models["oe-hnn"], "--steps", 15,
            "--phase-seed", 4, "--out", out,
        ) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows.shape == (15, 4)

    @pytest.mark.parametrize("kind", ["hnn", "mlp"])
    def test_input_count_mismatch_names_the_model(self, trained_models, tmp_path, capsys, kind):
        # a model file for two inputs, simulated on the one-input duffing system
        bad = tmp_path / "model.txt"
        if kind == "hnn":
            text = trained_models["hnn"].read_text()
            assert "n_inputs = 1\n" in text
            bad.write_text(text.replace("n_inputs = 1\n", "n_inputs = 2\n"))
        else:
            net = init_blackbox_net(2, 2, 6, np.random.default_rng(0))
            save_model(net, bad, "mlp", n_inputs=2)
        out = tmp_path / "sim.csv"
        capsys.readouterr()
        code = run_cli("simulate", "--model-file", bad, "--steps", 5, "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err == (f"error: {bad}: model has 2 states and 2 inputs "
                       "but the configured system has 2 and 1\n")
        assert not out.exists()

    def test_negative_values_in_a_list(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run_cli(
            "simulate", "--true-system", "--input", "zero", "--steps", 2, "--x0", "-0.3,-1e-2",
            "--out", out,
        ) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(rows[0, 2:], [-0.3, -1e-2])

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        code = run_cli("simulate", "--out", tmp_path / "x.csv")
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [
            ["--ts", "0"],
            ["--ts", "nan"],
            ["--ts", "inf"],
            ["--harmonics", "0"],
            ["--f0", "0"],
            ["--phase-seed", "-1"],
        ],
    )
    @pytest.mark.parametrize("source", ["--true-system", "--model-file"])
    def test_bad_signal_setting_is_usage_error(self, trained_models, tmp_path, capsys, flags,
                                               source):
        model = [trained_models["oe-hnn"]] if source == "--model-file" else []
        out = tmp_path / "x.csv"
        code = run_cli("simulate", source, *model, "--steps", 5, *flags, "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--steps", 0],
        ["--x0", "0.1,abc"],
        ["--steps", 10**20],  # a grid too long for an array
        ["--steps", 3, "--n-samples", 2, "--ts", "1e308"],  # the last time overflows
    ])
    def test_bad_steps_or_x0_is_usage_error(self, tmp_path, capsys, flags):
        code = run_cli("simulate", "--true-system", *flags, "--out", tmp_path / "x.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestOutOfMemory:
    """A size whose first array numpy refuses at once ends in one line and
    exit 1, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["generate-data", *GEN_FAST, "--harmonics", 10**12],
        ["simulate", "--true-system", "--steps", 10**12],
        *(["train", "--model", kind, "--n-hidden", 10**12] for kind in ("oe-hnn", "hnn", "mlp")),
    ])
    def test_is_runtime_error(self, cli_dataset, tmp_path, capsys, argv):
        if argv[0] == "train":
            argv = [*argv, "--data", cli_dataset]
        out = tmp_path / ("x.csv" if argv[0] == "simulate" else "out")
        assert run_cli(*argv, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not out.exists()


class TestGradcheckCommand:
    def test_passes_and_detects_fault(self, capsys, monkeypatch):
        assert run_cli(
            "gradcheck", "--cases", 10, "--steps", 2, 5, "--long-steps", 20,
            "--n-hidden", 8,
        ) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        for kind in ("hnn", "mlp"):
            # three blocks of the derivative batch and part of a fourth
            rows = 3 * _block_rows(8) + 5
            assert f"derivative-matching gradient, {kind}, {rows} rows, width 8" in out
        # every analytic gradient with its sign flipped
        def flipped(fn):
            def run(*args):
                out = fn(*args)
                return -out if isinstance(out, np.ndarray) else (out[0], -out[1])
            return run

        for name in ("h_grad_x", "simulation_loss_grad", "derivative_loss_grad"):
            monkeypatch.setattr(oehnn.cli, name, flipped(getattr(oehnn.cli, name)))
        assert run_cli(
            "gradcheck", "--cases", 5, "--steps", 2, "--long-steps", 10, "--n-hidden", 8,
        ) == 1
        out = capsys.readouterr().out
        assert "FAIL (5 checks)" in out and "PASS" not in out


    @pytest.mark.parametrize(
        "flags", [["--steps", "0"], ["--steps", "2", "0"], ["--long-steps", "0"],
                  ["--n-hidden", "-1"], ["--seed", "-1"], ["--cases", "0"]],
    )
    def test_bad_setting_is_usage_error(self, capsys, flags):
        code = run_cli("gradcheck", "--cases", 1, "--steps", 2, "--long-steps", 3,
                       "--n-hidden", 2, *flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--data", "d", "--out", "o", "--n-hidden"],
            ["evaluate", "--data", "d", "--out", "o", "--models"],
            ["train", "--data", "d"],
            ["simulate", "--true-system", "--steps", "abc", "--out", "x.csv"],
            ["train", "--data", "d", "--out", "o", "--no-such-flag", "1"],
            ["no-such-command"],
            [],
        ],
    )
    def test_argparse_error_is_one_line(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_negative_exponent_is_a_value(self, cli_dataset, tmp_path, capsys):
        code = run_cli("train", "--data", cli_dataset, "--out", tmp_path / "o",
                       "--learning-rate", "-1e-3")
        assert code == 2
        assert capsys.readouterr().err == "error: learning_rate must be positive and finite\n"


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "oehnn", "--version"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "oehnn" in result.stdout


def test_end_to_end_determinism(tmp_path, process_budget):
    """generate -> train (short) -> evaluate at process budgets 1 and 2:
    metrics files identical."""
    outputs = []
    for tag, budget in (("a", 1), ("b", 2)):
        base = tmp_path / tag
        process_budget(budget)
        assert run_cli(
            "generate-data", "--out", base / "data", "--master-seed", 11, *GEN_FAST,
        ) == 0
        assert run_cli(
            "train", "--data", base / "data", "--out", base / "model",
            "--model", "oe-hnn", *TRAIN_FAST,
        ) == 0
        assert run_cli(
            "evaluate", "--data", base / "data", "--out", base / "eval",
            "--models", base / "model" / "model.txt",
        ) == 0
        outputs.append(base)
    a, b = outputs
    for rel in ("model/model.txt", "model/history.csv", "eval/comparison.csv",
                "eval/report_0_oe-hnn.txt"):
        assert (a / rel).read_text() == (b / rel).read_text()
