import filecmp
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from oehnn.cli import ConfigError, ExperimentConfig, build_config, load_config_file, main
from oehnn.data import read_csv

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

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "exp.txt"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match="exp.txt:1"):
            load_config_file(path)


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
        [["--n-hidden", "0"], ["--chunk-length", "1"], ["--max-epochs", "0"], ["--workers", "-1"]],
    )
    def test_bad_training_value_is_usage_error(self, cli_dataset, tmp_path, capsys, flags):
        code = run_cli("train", "--data", cli_dataset, "--out", tmp_path / "o", *flags)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


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

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        code = run_cli("simulate", "--out", tmp_path / "x.csv")
        assert code == 2

    @pytest.mark.parametrize("flags", [["--steps", 0], ["--x0", "0.1,abc"]])
    def test_bad_steps_or_x0_is_usage_error(self, tmp_path, capsys, flags):
        code = run_cli("simulate", "--true-system", *flags, "--out", tmp_path / "x.csv")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestGradcheckCommand:
    def test_passes_and_detects_fault(self, capsys):
        assert run_cli(
            "gradcheck", "--cases", 10, "--steps", 2, 5, "--long-steps", 20,
            "--n-hidden", 8,
        ) == 0
        assert "PASS" in capsys.readouterr().out
        assert run_cli(
            "gradcheck", "--cases", 5, "--steps", 2, "--long-steps", 10,
            "--n-hidden", 8, "--inject-fault", "sign-flip",
        ) == 1
        assert "FAIL" in capsys.readouterr().out


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "oehnn", "--version"], capture_output=True, text=True
    )
    assert result.returncode == 0
    assert "oehnn" in result.stdout


def test_end_to_end_determinism(tmp_path):
    """generate -> train (short) -> evaluate twice: metrics files identical."""
    outputs = []
    for tag, workers in (("a", "1"), ("b", "4")):
        base = tmp_path / tag
        assert run_cli(
            "generate-data", "--out", base / "data", "--master-seed", 11,
            "--workers", workers, *GEN_FAST,
        ) == 0
        assert run_cli(
            "train", "--data", base / "data", "--out", base / "model",
            "--model", "oe-hnn", "--workers", workers, *TRAIN_FAST,
        ) == 0
        assert run_cli(
            "evaluate", "--data", base / "data", "--out", base / "eval",
            "--models", base / "model" / "model.txt", "--workers", workers,
        ) == 0
        outputs.append(base)
    a, b = outputs
    for rel in ("model/model.txt", "model/history.csv", "eval/comparison.csv",
                "eval/report_0_oe-hnn.txt"):
        assert (a / rel).read_text() == (b / rel).read_text()
