import dataclasses
import multiprocessing
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oehnn.data import Trajectory
from oehnn.dynamics import duffing_system, field_fn, structure_matrices
from oehnn.evaluate import (
    TrainStage,
    compare_estimators,
    evaluate,
    model_field,
    rmse,
    state_labels,
    write_comparison_csv,
    write_metrics_report,
)
from oehnn.integrate import rk4_lanes, rollout
from oehnn.netmodel import init_hamiltonian_net
from oehnn.train import _lanes

SPEC = duffing_system()
S = structure_matrices(SPEC)


class TestRmse:
    def test_identical_arrays(self):
        x = np.arange(12.0).reshape(6, 2)
        assert np.array_equal(rmse(x, x), np.zeros(2))

    def test_constant_offset_single_coordinate(self):
        ref = np.zeros((10, 3))
        sim = ref.copy()
        sim[:, 1] += 0.7
        assert np.allclose(rmse(sim, ref), [0.0, 0.7, 0.0])

    def test_alternating_residual(self):
        ref = np.zeros((8, 1))
        sim = np.array([[0.3], [-0.3]] * 4)
        assert rmse(sim, ref)[0] == pytest.approx(0.3)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.zeros((3, 2)), np.zeros((4, 2)))

    # snap magnitudes whose square would underflow; "zero iff equal" is a
    # statement about physically scaled residuals
    _elements = st.floats(-10, 10).map(lambda v: 0.0 if abs(v) < 1e-100 else v)

    @settings(max_examples=25)
    @given(
        sim=arrays(np.float64, (6, 2), elements=_elements),
        ref=arrays(np.float64, (6, 2), elements=_elements),
        seed=st.integers(0, 100),
    )
    def test_row_permutation_invariance_and_zero_iff_equal(self, sim, ref, seed):
        perm = np.random.default_rng(seed).permutation(6)
        assert np.allclose(rmse(sim[perm], ref[perm]), rmse(sim, ref), atol=1e-12)
        if np.array_equal(sim, ref):
            assert np.all(rmse(sim, ref) == 0)
        elif not np.allclose(sim, ref, atol=0, rtol=0):
            assert np.any(rmse(sim, ref) > 0)


class TestEvaluate:
    def test_one_sample_trajectory_is_named(self, tiny_duffing_dataset):
        good = tiny_duffing_dataset.test[0]
        one = Trajectory(t=good.t[:1], u=good.u[:1], y=good.y[:1], x_true=good.x_true[:1])
        named = r"trajectory 1 \(realization 0\) must contain at least 2 samples"
        with pytest.raises(ValueError, match=named):
            evaluate(field_fn(SPEC), [good, one])

    def test_oracle_model_true_anchor_is_exact(self, tiny_duffing_dataset):
        metrics = evaluate(field_fn(SPEC), tiny_duffing_dataset.test, anchor="true")
        assert np.all(metrics.per_state_rmse < 1e-6)
        assert metrics.n_diverged == 0

    def test_oracle_model_noisy_anchor_regression(self, standard_duffing_dataset):
        # the perfect model started from the measured first sample: the
        # remaining error is pure anchor-noise propagation. Frozen once as a
        # regression baseline; it dwarfs the trained-model error bands, which
        # is why the benchmark pipeline anchors at the stored true state.
        metrics = evaluate(
            field_fn(standard_duffing_dataset.system), standard_duffing_dataset.test,
            anchor="measured",
        )
        assert metrics.per_state_rmse[0] == pytest.approx(0.4205616312127116, rel=1e-9)
        assert metrics.per_state_rmse[1] == pytest.approx(0.5701386182705495, rel=1e-9)

    def test_measured_reference_equals_true_on_noiseless_data(self, tiny_duffing_dataset):
        noiseless = [
            Trajectory(t=tr.t, u=tr.u, y=tr.x_true.copy(), x_true=tr.x_true, dx_true=tr.dx_true)
            for tr in tiny_duffing_dataset.test
        ]
        truth = field_fn(SPEC)
        a = evaluate(truth, noiseless, reference="true")
        b = evaluate(truth, noiseless, reference="measured")
        assert np.array_equal(a.per_state_rmse, b.per_state_rmse)

    def test_diverged_rollout_flagged(self, tiny_duffing_dataset):
        # an escaping anchor makes the softening spring blow up in finite time
        test = [dataclasses.replace(tiny_duffing_dataset.test[0])]
        test[0].y = test[0].y.copy()
        test[0].y[0] = [30.0, 0.0]
        long_u = np.zeros((3000, 1))
        test[0] = Trajectory(
            t=np.arange(3000) * 0.01, u=long_u, y=np.zeros((3000, 2)), x_true=np.zeros((3000, 2))
        )
        test[0].y[0] = [30.0, 0.0]
        metrics = evaluate(field_fn(SPEC), test, reference="true", anchor="measured")
        assert metrics.n_diverged == 1
        assert metrics.per_trajectory[0].diverged
        assert np.all(np.isnan(metrics.per_trajectory[0].rmse))

    def test_death_in_the_padding_is_not_flagged(self):
        # a linear field that grows about 1e10-fold per RK4 step: from 1, a
        # 10-sample trajectory stays finite over its own 9 steps and
        # overflows in its padding to the 40-sample one, which starts at 0
        def growth(x, u):
            return (700.0 / 0.01) * x

        short = Trajectory(t=np.arange(10) * 0.01, u=np.zeros((10, 1)), y=np.ones((10, 2)),
                           x_true=np.zeros((10, 2)))
        long = Trajectory(t=np.arange(40) * 0.01, u=np.zeros((40, 1)), y=np.zeros((40, 2)),
                          x_true=np.zeros((40, 2)))
        lanes = _lanes([short, long], "measured")
        _, diverged = rk4_lanes(growth, lanes.x0, lanes.u, lanes.h)
        assert diverged[0] > 9 and diverged[1] < 0
        metrics = evaluate(growth, [short, long], anchor="measured")
        assert metrics.n_diverged == 0
        alone = evaluate(growth, [short], anchor="measured").per_trajectory[0].rmse
        assert np.isfinite(alone).all() and alone.min() > 1e80
        assert np.array_equal(metrics.per_trajectory[0].rmse, alone)
        assert np.array_equal(metrics.per_trajectory[1].rmse, np.zeros(2))

    def test_mixed_steps_are_named(self, tiny_duffing_dataset):
        good = tiny_duffing_dataset.test[0]
        slow = Trajectory(t=2 * good.t, u=good.u, y=good.y, x_true=good.x_true)
        with pytest.raises(ValueError, match=r"trajectory 1 \(realization 0\) has step"):
            evaluate(field_fn(SPEC), [good, slow])

    def test_later_start_shares_the_step(self, tiny_duffing_dataset):
        # the same grid started 5 s later: its step differs by some ulps and
        # it is run at the first trajectory's step
        good = tiny_duffing_dataset.test[0]
        later = dataclasses.replace(good, t=good.t + 5.0)
        assert later.ts != good.ts
        metrics = evaluate(field_fn(SPEC), [good, later])
        np.testing.assert_allclose(metrics.per_trajectory[1].rmse,
                                   metrics.per_trajectory[0].rmse, rtol=1e-12)

    def test_empty_test_split(self):
        with pytest.raises(ValueError):
            evaluate(field_fn(SPEC), [], reference="true")

    @pytest.mark.parametrize("option", ["reference", "anchor"])
    def test_unknown_reference_or_anchor(self, tiny_duffing_dataset, option):
        with pytest.raises(ValueError, match=option):
            evaluate(field_fn(SPEC), tiny_duffing_dataset.test, **{option: "foo"})

    def test_rmse_is_the_pooled_and_per_trajectory_metric(self, tiny_duffing_dataset):
        test = tiny_duffing_dataset.test * 2
        metrics = evaluate(field_fn(SPEC), test, anchor="true")
        sims = [rollout(field_fn(SPEC), tr.x_true[0], tr.u, tr.ts) for tr in test]
        for res, sim, tr in zip(metrics.per_trajectory, sims, test):
            assert np.array_equal(res.rmse, rmse(sim, tr.x_true))
        pooled = rmse(np.concatenate(sims), np.concatenate([tr.x_true for tr in test]))
        assert np.array_equal(metrics.per_state_rmse, pooled)

    def test_requires_truth_for_true_reference(self, tiny_duffing_dataset):
        stripped = [
            Trajectory(t=tr.t, u=tr.u, y=tr.y) for tr in tiny_duffing_dataset.test
        ]
        with pytest.raises(ValueError):
            evaluate(field_fn(SPEC), stripped, reference="true")


class TestReports:
    def make_metrics(self, tiny_duffing_dataset, kind="oe-hnn"):
        return evaluate(field_fn(SPEC), tiny_duffing_dataset.test, kind=kind)

    def test_metrics_report(self, tiny_duffing_dataset, tmp_path):
        metrics = self.make_metrics(tiny_duffing_dataset)
        path = tmp_path / "report.txt"
        write_metrics_report(metrics, path, state_labels(1))
        text = path.read_text()
        assert "kind = oe-hnn" in text
        assert "rmse_q = " in text
        assert "trajectory_0_rmse = " in text

    def test_comparison_csv(self, tiny_duffing_dataset, tmp_path):
        rows = [self.make_metrics(tiny_duffing_dataset, kind) for kind in ("oe-hnn", "hnn")]
        path = tmp_path / "comparison.csv"
        write_comparison_csv(rows, path, state_labels(1))
        lines = path.read_text().splitlines()
        assert lines[0] == "method,q,p"
        assert lines[1].startswith("oe-hnn,")
        assert lines[2].startswith("hnn,")

    def test_state_labels(self):
        assert state_labels(1) == ["q", "p"]
        assert state_labels(2) == ["q1", "q2", "p1", "p2"]


def test_model_field_dispatch():
    rng = np.random.default_rng(2)
    net = init_hamiltonian_net(2, 4, rng)
    f = model_field(net, S)
    assert np.allclose(f([0.1, 0.2], [0.0]), np.asarray(f([0.1, 0.2], [0.0])))
    with pytest.raises(TypeError):
        model_field(object(), S)


def test_compare_estimators_workers_do_not_change_results(tiny_duffing_dataset, process_budget):
    # sequential, then a pool of 2 and a pool of 3 over the three seeds
    kwargs = dict(
        seeds=(1, 2, 3),
        n_hidden=4,
        oe_stages=(TrainStage(5e-3, 10, 3), TrainStage(1e-3, None, 2)),
        baseline_epochs=3,
    )
    results = []
    for budget in (1, 2, 3):
        process_budget(budget)
        results.append(compare_estimators(tiny_duffing_dataset, **kwargs))
    one, *others = results
    for other in others:
        for kind in one.kinds:
            assert np.array_equal(one.rmse_array(kind), other.rmse_array(kind))
    assert multiprocessing.active_children() == []


def test_compare_estimators_needs_a_seed(tiny_duffing_dataset, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("fit ran")

    # the package's `evaluate` attribute is the function, so reach the module
    monkeypatch.setattr(sys.modules["oehnn.evaluate"], "fit", no_fit)
    with pytest.raises(ValueError, match="seed"):
        compare_estimators(tiny_duffing_dataset, seeds=())


@pytest.mark.parametrize(
    "kwargs, named",
    [
        (dict(kinds=()), "distinct"),
        (dict(kinds=("hnn", "hnn")), "distinct"),
        (dict(kinds=("oe-hnn", "hnn", "sindy")), "'sindy'"),
        (dict(oe_stages=()), "oe_stages"),
        (dict(baseline_epochs=0), "max_epochs"),
        (dict(oe_stages=(TrainStage(5e-3, 10, 3), TrainStage(1e-3, None, 0))), "max_epochs"),
    ],
    ids=["no kinds", "repeated kind", "unknown kind after oe-hnn", "no oe stages",
         "no baseline epochs", "empty stage after a good one"],
)
def test_compare_estimators_refuses_bad_kinds_before_any_fit(
    tiny_duffing_dataset, monkeypatch, kwargs, named
):
    fits = []

    def no_fit(*args, **kw):
        fits.append(args[0])
        raise AssertionError("fit ran")  # also from a forked pool worker

    monkeypatch.setattr(sys.modules["oehnn.evaluate"], "fit", no_fit)
    with pytest.raises(ValueError, match=named):
        compare_estimators(tiny_duffing_dataset, **kwargs)
    assert fits == []
