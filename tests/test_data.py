import copy
import dataclasses

import numpy as np
import pytest

from oehnn import data
from oehnn.data import (
    DataGenerationError,
    DatasetFormatError,
    Trajectory,
    _attempt_inputs,
    _simulate_realizations,
    fd_derivatives,
    generate,
    read_csv,
    write_csv,
)
from oehnn.cli import SYSTEM_DEFAULTS, main
from oehnn.dynamics import coupled_system, duffing_system, field_fn
from oehnn.integrate import IntegrationError, rollout
from oehnn.signals import NoiseSpec
from tests.conftest import TINY_PROTOCOL, config_dataset


class TestGenerate:
    def test_shapes_and_split(self, tiny_duffing_dataset):
        ds = tiny_duffing_dataset
        assert [len(ds.train), len(ds.validation), len(ds.test)] == [3, 2, 1]
        for tr in ds.all_trajectories():
            assert tr.n_samples == 40
            assert tr.u.shape == (40, 1)
            assert tr.y.shape == (40, 2)
            assert tr.x_true.shape == (40, 2)
            assert tr.dx_true.shape == (40, 2)
            assert tr.t[0] == pytest.approx(0.5)
            assert np.allclose(np.diff(tr.t), 0.01)

    def test_no_realization_in_two_splits(self, tiny_duffing_dataset):
        seen = [tr.realization for tr in tiny_duffing_dataset.all_trajectories()]
        assert sorted(seen) == list(range(6))

    def test_derivative_storage_consistent(self, tiny_duffing_dataset):
        ds = tiny_duffing_dataset
        truth = field_fn(ds.system)
        for tr in ds.all_trajectories():
            expected = truth(tr.x_true, tr.u)
            assert np.max(np.abs(tr.dx_true - expected)) < 1e-12

    def test_recorded_windows_bounded(self, tiny_duffing_dataset):
        ds = tiny_duffing_dataset
        n = ds.system.n_masses
        for tr in ds.all_trajectories():
            assert np.max(np.abs(tr.x_true[:, :n])) <= ds.protocol.q_max

    def test_zero_noise_outputs_equal_truth(self):
        ds = generate(duffing_system(), TINY_PROTOCOL, NoiseSpec(variance=0.0), master_seed=1)
        for tr in ds.all_trajectories():
            assert np.array_equal(tr.y, tr.x_true)

    def test_deterministic(self):
        a = generate(duffing_system(), TINY_PROTOCOL, NoiseSpec(variance=0.1), master_seed=5)
        b = generate(duffing_system(), TINY_PROTOCOL, NoiseSpec(variance=0.1), master_seed=5)
        for ta, tb in zip(a.all_trajectories(), b.all_trajectories()):
            assert np.array_equal(ta.y, tb.y)
            assert np.array_equal(ta.u, tb.u)
            assert np.array_equal(ta.x_true, tb.x_true)

    def test_noise_streams_differ_across_realizations(self, tiny_duffing_dataset):
        ds = tiny_duffing_dataset
        v0 = ds.train[0].y[0] - ds.train[0].x_true[0]
        v1 = ds.train[1].y[0] - ds.train[1].x_true[0]
        assert not np.allclose(v0, v1)

    def test_escape_exhausts_retries(self):
        # strong forcing drives the softening spring out of its well on every
        # attempt; a tiny retry cap must fail loudly
        protocol = dataclasses.replace(TINY_PROTOCOL, amplitude=5.0, max_retries=2)
        with pytest.raises(DataGenerationError, match="realization"):
            generate(duffing_system(), protocol, NoiseSpec(variance=0.1), master_seed=0)

    def test_retry_produces_bounded_trajectory(self):
        # amplitude where some realizations escape once but retries succeed
        protocol = dataclasses.replace(TINY_PROTOCOL, amplitude=3.0, max_retries=10)
        ds = generate(duffing_system(), protocol, NoiseSpec(variance=0.1), master_seed=0)
        assert any(tr.attempt > 0 for tr in ds.all_trajectories())
        n = ds.system.n_masses
        for tr in ds.all_trajectories():
            assert np.max(np.abs(tr.x_true[:, :n])) <= protocol.q_max

    def test_lead_in_peak_is_kept(self):
        # attempt 0 of duffing realization 5 reaches its largest |q| before
        # the recorded window: with q_max between that peak and the window's,
        # the attempt is rejected, as a one-lane rollout of it would be
        system = duffing_system()
        n_pre = round(TINY_PROTOCOL.t_start / TINY_PROTOCOL.ts)
        t_grid = np.arange(n_pre + TINY_PROTOCOL.n_samples) * TINY_PROTOCOL.ts
        _, x0, u = _attempt_inputs(system, TINY_PROTOCOL, 0, 5, 0, t_grid)
        q = np.abs(rollout(field_fn(system), x0, u, TINY_PROTOCOL.ts)[:, 0])
        lead_peak, window_peak = q[:n_pre].max(), q[n_pre:].max()
        assert lead_peak > window_peak
        protocol = dataclasses.replace(TINY_PROTOCOL, q_max=(lead_peak + window_peak) / 2)
        ds = generate(system, protocol, NoiseSpec(variance=0.1), master_seed=0)
        assert ds.all_trajectories()[5].attempt > 0

    def test_split_must_sum(self):
        with pytest.raises(ValueError):
            dataclasses.replace(TINY_PROTOCOL, split=(3, 2, 2))

    @pytest.mark.parametrize(
        "change",
        [
            dict(n_samples=1),
            dict(ts=float("nan")),
            dict(t_start=float("inf")),
            dict(split=(7, -1, 0)),
            dict(harmonics=0),
            dict(f0=0.0),
            dict(amplitude=float("nan")),
            dict(init_range=-1.0),
            dict(q_max=float("nan")),
        ],
    )
    def test_invalid_protocol_value(self, change):
        with pytest.raises(ValueError):
            dataclasses.replace(TINY_PROTOCOL, **change)

    def test_two_samples_are_one_step(self):
        protocol = dataclasses.replace(TINY_PROTOCOL, n_samples=2)
        ds = generate(duffing_system(), protocol, NoiseSpec(variance=0.1), master_seed=2)
        assert all(tr.n_samples == 2 for tr in ds.all_trajectories())
        assert ds.train[0].ts == pytest.approx(protocol.ts)

    @pytest.mark.parametrize("name", ["duffing", "coupled"])
    def test_unset_noise_is_the_systems_default(self, name, tmp_path):
        # `generate` given the config's values equals what `oehnn generate-data` writes
        ds = config_dataset(system=name, master_seed=61)
        assert ds.noise == NoiseSpec(SYSTEM_DEFAULTS[name]["noise_variance"], seed=61)
        assert main(["generate-data", "--out", str(tmp_path), "--system", name,
                     "--master-seed", "61"]) == 0
        back = read_csv(tmp_path)
        assert (back.system, back.protocol, back.noise) == (ds.system, ds.protocol, ds.noise)
        for ta, tb in zip(ds.all_trajectories(), back.all_trajectories(), strict=True):
            for field in ("t", "u", "y", "x_true", "dx_true"):
                assert np.array_equal(getattr(ta, field), getattr(tb, field))

    @pytest.mark.parametrize("variance", [0.0, 0.1])
    def test_noise_is_the_inline_draw_on_the_realization_stream(self, variance):
        # y = x_true + rng.normal(0, sqrt(variance)) on the stream left by the
        # accepted attempt, bit for bit
        system = duffing_system()
        ds = generate(system, TINY_PROTOCOL, NoiseSpec(variance=variance), master_seed=3)
        simulated = _simulate_realizations(
            system, TINY_PROTOCOL, 3, range(TINY_PROTOCOL.n_realizations)
        )
        for tr, (_, _, x_true, _, rng, _) in zip(ds.all_trajectories(), simulated):
            expected = x_true + rng.normal(0.0, np.sqrt(variance), size=x_true.shape)
            assert np.array_equal(tr.y, expected)


# Strong forcing: some attempts escape, so retries and lockstep blocks of
# several attempts are exercised on both systems.
RETRY_PROTOCOL = dataclasses.replace(TINY_PROTOCOL, amplitude=4.0, max_retries=10)
SYSTEMS = {"duffing": duffing_system(), "coupled": coupled_system()}


def sequential_attempts(system, protocol, master_seed, realization):
    """Yield (attempt, recorded window or None if rejected) one attempt at a
    time, each simulated alone by a one-lane rollout."""
    n_pre = int(round(protocol.t_start / protocol.ts))
    t_grid = np.arange(n_pre + protocol.n_samples) * protocol.ts
    for attempt in range(protocol.max_retries):
        _, x0, u_grid = _attempt_inputs(system, protocol, master_seed, realization, attempt, t_grid)
        try:
            x_grid = rollout(field_fn(system), x0, u_grid, protocol.ts)
        except IntegrationError:
            yield attempt, None
            continue
        bounded = np.max(np.abs(x_grid[:, : system.n_masses])) <= protocol.q_max
        yield attempt, x_grid[n_pre:] if bounded else None


@pytest.mark.parametrize("name", sorted(SYSTEMS))
class TestLockstepGeneration:
    def test_window_equals_one_lane_rollout(self, name):
        system = SYSTEMS[name]
        ds = generate(system, RETRY_PROTOCOL, NoiseSpec(variance=0.1), master_seed=0)
        for tr in ds.all_trajectories():
            windows = dict(sequential_attempts(system, RETRY_PROTOCOL, 0, tr.realization))
            assert np.array_equal(tr.x_true, windows[tr.attempt])

    def test_accepts_first_passing_attempt(self, name):
        system = SYSTEMS[name]
        ds = generate(system, RETRY_PROTOCOL, NoiseSpec(variance=0.1), master_seed=0)
        attempts = [tr.attempt for tr in ds.all_trajectories()]
        assert max(attempts) > 0
        for tr in ds.all_trajectories():
            first = next(
                a for a, window in sequential_attempts(system, RETRY_PROTOCOL, 0, tr.realization)
                if window is not None
            )
            assert tr.attempt == first

    @pytest.mark.parametrize("first_block", [1, 2, 4, RETRY_PROTOCOL.max_retries + 1])
    def test_block_schedule_cannot_change_a_dataset(self, name, first_block, tmp_path,
                                                     monkeypatch):
        # the lockstep rounds only decide which attempts share a batch; the
        # dataset, and its regeneration by `simulate --like-dataset`, are those
        # of the default schedule byte for byte
        system = SYSTEMS[name]
        expected = generate(system, RETRY_PROTOCOL, NoiseSpec(variance=0.1), master_seed=0)
        write_csv(expected, tmp_path / "data")
        monkeypatch.setattr(data, "_FIRST_BLOCK", first_block)
        ds = generate(system, RETRY_PROTOCOL, NoiseSpec(variance=0.1), master_seed=0)
        for ta, tb in zip(expected.all_trajectories(), ds.all_trajectories(), strict=True):
            assert (ta.realization, ta.attempt) == (tb.realization, tb.attempt)
            for field in ("t", "u", "y", "x_true", "dx_true"):
                assert getattr(ta, field).tobytes() == getattr(tb, field).tobytes()
        for tr in expected.all_trajectories():
            out = tmp_path / f"re_{tr.realization}.csv"
            assert main(["simulate", "--like-dataset", str(tmp_path / "data"),
                         "--realization", str(tr.realization), "--out", str(out)]) == 0
            rows = np.loadtxt(out, delimiter=",", skiprows=1)
            assert rows[:, 2:].tobytes() == tr.x_true.tobytes()

    def test_exhausted_retries_name_lowest_realization(self, name):
        # forcing at which realization 0 passes and at least two later ones escape
        system = SYSTEMS[name]
        amplitude = {"duffing": 4.0, "coupled": 2.0}[name]
        protocol = dataclasses.replace(RETRY_PROTOCOL, amplitude=amplitude, max_retries=1)
        failing = [
            r for r in range(protocol.n_realizations)
            if all(w is None for _, w in sequential_attempts(system, protocol, 0, r))
        ]
        assert len(failing) >= 2 and failing[0] > 0
        expected = (
            f"realization {failing[0]}: no bounded trajectory within 1 attempts "
            "(|q| <= 5.0); reduce the input amplitude or raise q_max"
        )
        with pytest.raises(DataGenerationError) as excinfo:
            generate(system, protocol, NoiseSpec(variance=0.1), master_seed=0)
        assert str(excinfo.value) == expected


class TestFdDerivatives:
    def test_linear_ramp_exact(self):
        ts = 0.1
        y = 3.0 * np.arange(8)[:, None] * ts
        dy = fd_derivatives(y, ts)
        assert np.allclose(dy, 3.0, atol=1e-12)

    def test_quadratic_exact_interior(self):
        ts = 0.05
        t = np.arange(10) * ts
        y = (t**2)[:, None]
        dy = fd_derivatives(y, ts)
        assert np.allclose(dy[1:-1, 0], 2.0 * t[1:-1], atol=1e-12)

    def test_sine_error_bound(self):
        ts = 0.01
        t = np.arange(200) * ts
        dy = fd_derivatives(np.sin(t)[:, None], ts)
        assert np.max(np.abs(dy[1:-1, 0] - np.cos(t[1:-1]))) < 2e-5

    def test_too_short(self):
        with pytest.raises(ValueError):
            fd_derivatives(np.zeros((2, 1)), 0.1)


class TestCsvRoundTrip:
    def test_bit_exact(self, tiny_duffing_dataset, tmp_path):
        write_csv(tiny_duffing_dataset, tmp_path)
        back = read_csv(tmp_path)
        assert back.system == tiny_duffing_dataset.system
        assert back.protocol == tiny_duffing_dataset.protocol
        assert back.noise == tiny_duffing_dataset.noise
        assert back.master_seed == tiny_duffing_dataset.master_seed
        for ta, tb in zip(tiny_duffing_dataset.all_trajectories(), back.all_trajectories()):
            assert np.array_equal(ta.t, tb.t)
            assert np.array_equal(ta.u, tb.u)
            assert np.array_equal(ta.y, tb.y)
            assert np.array_equal(ta.x_true, tb.x_true)
            assert np.array_equal(ta.dx_true, tb.dx_true)
            assert (ta.realization, ta.attempt) == (tb.realization, tb.attempt)

    def test_split_sizes_preserved(self, tiny_duffing_dataset, tmp_path):
        write_csv(tiny_duffing_dataset, tmp_path)
        back = read_csv(tmp_path)
        assert [len(back.train), len(back.validation), len(back.test)] == [3, 2, 1]

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="manifest"):
            read_csv(tmp_path)

    def test_truncated_trajectory_file(self, tiny_duffing_dataset, tmp_path):
        write_csv(tiny_duffing_dataset, tmp_path)
        victim = tmp_path / "traj_002.csv"
        lines = victim.read_text().splitlines()
        victim.write_text("\n".join(lines[:10]) + "\n")
        with pytest.raises(DatasetFormatError, match="traj_002.csv"):
            read_csv(tmp_path)

    def test_inconsistent_column_count(self, tiny_duffing_dataset, tmp_path):
        write_csv(tiny_duffing_dataset, tmp_path)
        victim = tmp_path / "traj_001.csv"
        lines = victim.read_text().splitlines()
        lines[3] = lines[3] + ",0.5"
        victim.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match="traj_001.csv:4"):
            read_csv(tmp_path)

    def test_non_numeric_cell(self, tiny_duffing_dataset, tmp_path):
        write_csv(tiny_duffing_dataset, tmp_path)
        victim = tmp_path / "traj_000.csv"
        text = victim.read_text().splitlines()
        cells = text[5].split(",")
        cells[1] = "bogus"
        text[5] = ",".join(cells)
        victim.write_text("\n".join(text) + "\n")
        with pytest.raises(DatasetFormatError, match="traj_000.csv"):
            read_csv(tmp_path)

    def test_one_sample_manifest(self, tiny_duffing_dataset, tmp_path):
        # a consistent dataset of one-sample trajectories has no step to train on
        write_csv(tiny_duffing_dataset, tmp_path)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(manifest.read_text().replace("n_samples = 40", "n_samples = 1"))
        for victim in tmp_path.glob("traj_*.csv"):
            victim.write_text("\n".join(victim.read_text().splitlines()[:2]) + "\n")
        with pytest.raises(DatasetFormatError, match="two samples"):
            read_csv(tmp_path)

    def test_special_values_round_trip(self, tiny_duffing_dataset, tmp_path):
        # signed zeros, subnormals and the extremes read back bit for bit;
        # infinities and NaN are written as they are but refused on reading
        ds = copy.deepcopy(tiny_duffing_dataset)
        special = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, np.finfo(float).max,
                   -np.finfo(float).max, 0.1, 1 / 3]
        ds.train[0].y[: len(special), 0] = special
        ds.train[0].u[: len(special), 0] = special[::-1]
        write_csv(ds, tmp_path)
        back = read_csv(tmp_path)
        for ta, tb in zip(ds.all_trajectories(), back.all_trajectories(), strict=True):
            for name in ("t", "u", "y", "x_true", "dx_true"):
                a, b = getattr(ta, name), getattr(tb, name)
                assert a.tobytes() == b.tobytes(), name
        for row, value in enumerate([np.inf, -np.inf, np.nan]):
            bad = copy.deepcopy(ds)
            bad.train[1].u[row, 0] = value
            write_csv(bad, tmp_path)
            with pytest.raises(DatasetFormatError, match=rf"traj_001.csv:{row + 2}: u_0 is not"):
                read_csv(tmp_path)

    def test_file_layout(self, tiny_duffing_dataset, tmp_path):
        # CRLF trajectory tables and an INI-style manifest whose sections each end in a blank line
        write_csv(tiny_duffing_dataset, tmp_path)
        table = (tmp_path / "traj_000.csv").read_bytes()
        assert table.startswith(b"t,u_0,y_0,y_1,x_0,x_1,dx_0,dx_1\r\n0.5,")
        assert table.count(b"\r\n") == table.count(b"\n") == 41
        manifest = (tmp_path / "manifest.txt").read_text()
        assert manifest.startswith(
            "[system]\nn_masses = 1\nmasses = 1\nstiffnesses = 1\ninput_map = 0\ncubic = true\n\n"
            "[protocol]\nn_realizations = 6\nn_samples = 40\nts = 0.01\nt_start = 0.5\n"
            "split = 3,2,1\nharmonics = 20\nf0 = 0.10000000000000001\n"
            "amplitude = 0.14999999999999999\n"
        )
        assert manifest.endswith("\n[trajectories]\n0 = traj_000.csv,train,0,0\n"
                                 "1 = traj_001.csv,train,1,0\n2 = traj_002.csv,train,2,0\n"
                                 "3 = traj_003.csv,validation,3,0\n4 = traj_004.csv,validation,4,0\n"
                                 "5 = traj_005.csv,test,5,0\n\n")

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda t: t.replace("\nts = 0.01\n", "\nts = 0.01\nts = 0.02\n"),
             "manifest.txt:12: duplicate key 'ts'"),
            (lambda t: t.replace("\nts = 0.01\n", "\nts = 0.01\nTS = 0.02\n"),
             "manifest.txt:12: unknown protocol key 'TS'"),
            (lambda t: t.replace("[seeds]", "[seeds]\nseed = 3"), "unknown seeds key 'seed'"),
            (lambda t: t.replace("\n0 = traj", "\n-1 = traj"), "unknown trajectories key '-1'"),
            (lambda t: t.replace("\n0 = traj", "\n1 = traj"), "duplicate key '1'"),
            (lambda t: t + "[extra]\n", "unknown section [extra]"),
            (lambda t: t.replace("split = 3,2,1", "split = 3,3"), "expected 3 comma-separated"),
            (lambda t: t.replace("harmonics = 20\n", ""), "[protocol] has no 'harmonics'"),
            (lambda t: t.replace("[noise]", "[noisy]"), "unknown section [noisy]"),
            (lambda t: t.replace("master_seed = 42", "master_seed = -1"),
             "master_seed must be at least 0"),
        ],
        ids=["duplicate", "unknown", "unknown-seed", "negative-entry", "duplicate-entry",
             "section", "split", "missing", "renamed-section", "negative-seed"],
    )
    def test_bad_manifest_line(self, tiny_duffing_dataset, tmp_path, edit, named):
        write_csv(tiny_duffing_dataset, tmp_path)
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(edit(manifest.read_text()))
        with pytest.raises(DatasetFormatError) as excinfo:
            read_csv(tmp_path)
        assert named in str(excinfo.value)

    @pytest.mark.parametrize("t_start", [0.5, 50.0])
    @pytest.mark.parametrize("seed", [0, 5])
    @pytest.mark.parametrize("name", ["duffing", "coupled"])
    def test_time_column_steps_by_ts(self, name, seed, t_start, tmp_path):
        # every dataset `generate` writes reads back, though rounding puts
        # its times up to an ulp off the grid k * ts (more at a later start);
        # a time column stretched to steps of 2 ts is refused, naming its file
        protocol = dataclasses.replace(TINY_PROTOCOL, t_start=t_start, amplitude=0.02)
        ds = generate(SYSTEMS[name], protocol, NoiseSpec(variance=0.1), master_seed=seed)
        write_csv(ds, tmp_path)
        back = read_csv(tmp_path)
        for ta, tb in zip(ds.all_trajectories(), back.all_trajectories(), strict=True):
            assert ta.t.tobytes() == tb.t.tobytes()
        victim = tmp_path / "traj_002.csv"
        lines = victim.read_text().splitlines()
        for i, line in enumerate(lines[1:], start=1):
            t, rest = line.split(",", 1)
            lines[i] = f"{2.0 * float(t)!r},{rest}"
        victim.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetFormatError, match=r"traj_002.csv:3: the time column steps by"):
            read_csv(tmp_path)

    def test_missing_trajectory_file(self, tiny_duffing_dataset, tmp_path):
        write_csv(tiny_duffing_dataset, tmp_path)
        (tmp_path / "traj_004.csv").unlink()
        with pytest.raises(DatasetFormatError, match="traj_004.csv"):
            read_csv(tmp_path)


def test_trajectory_length_validation():
    with pytest.raises(ValueError):
        Trajectory(t=np.arange(5.0), u=np.zeros((4, 1)), y=np.zeros((5, 2)))
