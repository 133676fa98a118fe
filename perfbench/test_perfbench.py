"""Tests of the benchmark's own verifier, op accounting and tracer.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import calibration  # noqa: E402
import layers  # noqa: E402
import locindex.association  # noqa: E402
import locindex.smoothing  # noqa: E402
import tracing  # noqa: E402
import verification  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from locindex import (  # noqa: E402
    BandwidthError,
    FitSpec,
    FittedCurve,
    LossKind,
    SmoothingError,
    dpi_bandwidth,
    fit_curve,
    jitter,
    median_adjust,
)


def small_pair(n=200, seed=5):
    x, y = workloads.synthetic_pair(n, seed)
    return jitter(workloads.PairWorkload("t", n, ("mean",), seed).build((x, y)), 1e-5, seed)


def fitted(sample, loss, grid=50):
    bw = dpi_bandwidth(sample)
    if loss.kind == "quantile":
        bw = median_adjust(bw, loss.tau)
    return fit_curve(sample, FitSpec(loss=loss, bandwidth=bw, grid_size=grid))


def test_mean_check_passes_and_flags_a_1e6_perturbation_at_one_point():
    sample = small_pair()
    curve = fitted(sample, LossKind.quadratic())
    assert verification.check_mean_curve(sample, curve).ok
    values = curve.values.copy()
    values[verification.sample_indices(curve.grid.size)[5]] += 1e-6
    bad = FittedCurve(grid=curve.grid, values=values, spec=curve.spec)
    check = verification.check_mean_curve(sample, bad)
    assert len(check.problems) == 1
    assert check.worst == pytest.approx(1e-6, rel=1e-6)


def test_median_check_passes_and_flags_coefficients_off_the_lp_optimum(monkeypatch):
    sample = small_pair()
    curve = fitted(sample, LossKind.median())
    check = verification.check_median_curve(sample, curve)
    assert check.ok and check.worst < verification.MEDIAN_GAP_TOL

    original = locindex.smoothing.local_linear_fit

    def moved(sample, x0, bandwidth, loss):
        b0, b1 = original(sample, x0, bandwidth, loss)
        return b0 + 0.05, b1

    monkeypatch.setattr(locindex.smoothing, "local_linear_fit", moved)
    shifted = fitted(sample, LossKind.median())
    check = verification.check_median_curve(sample, shifted)
    assert len(check.problems) == check.points
    assert all("above the LP optimum" in p for p in check.problems)


def test_median_check_flags_a_curve_that_local_linear_fit_does_not_reproduce():
    sample = small_pair()
    curve = fitted(sample, LossKind.median())
    values = curve.values.copy()
    values[0] += 1e-12
    check = verification.check_median_curve(
        sample, FittedCurve(grid=curve.grid, values=values, spec=curve.spec))
    assert any("differs from local_linear_fit" in p for p in check.problems)


def test_lp_optimum_is_never_worse_than_a_grid_of_candidate_lines():
    sample = small_pair(n=40)
    x0, h = 0.5, 0.2
    b0, b1 = verification.check_loss_lp(sample.x, sample.y, x0, h, 0.5)
    best = locindex.smoothing.check_loss_objective(sample, x0, h, 0.5, b0, b1)
    for c0 in np.linspace(0.2, 0.9, 15):
        for c1 in np.linspace(-1.0, 2.0, 15):
            assert best <= locindex.smoothing.check_loss_objective(
                sample, x0, h, 0.5, c0, c1) + 1e-12


def run_once(monkeypatch, workload, sample):
    """One repetition with its fits captured the way the worker captures them."""
    monkeypatch.setattr(locindex.association, "fit_curve", locindex.association.fit_curve)
    capture = worker.FitCapture(locindex.association)
    return workload.run(sample), capture.fits


@pytest.mark.parametrize("target, error", [
    ("fit_curve", SmoothingError("singular weighted design")),
    ("dpi_bandwidth", BandwidthError("plug-in bandwidth needs n >= 20")),
])
def test_raised_smoothing_or_bandwidth_error_counts_as_failed(monkeypatch, target, error):
    workload = workloads.PairWorkload("t", 200, ("mean", "median"), 3, grid=30)
    sample = workload.build(workload.generate())

    def boom(*args, **kwargs):
        raise error

    monkeypatch.setattr(locindex.association, target, boom)
    ops, fits = run_once(monkeypatch, workload, sample)
    report = layers.check_and_count(workload, sample, ops, fits, [ops, ops])
    assert report["ops_attempted"] == 6
    assert report["ops_failed"] == 4  # both LOC ops, in both repetitions
    assert any(type(error).__name__ in p for p in report["problems"])


def test_fixture_pairs_that_loc_matrix_reports_as_failed_count_as_failed(monkeypatch):
    workload = workloads.FixtureMatrix(0, grid=20)
    sample = workload.build(workload.generate())

    def boom(*args, **kwargs):
        raise SmoothingError("singular weighted design")

    monkeypatch.setattr(locindex.association, "fit_curve", boom)
    ops = workload.ops(sample, workload.run(sample))
    report = layers.check_and_count(workload, sample, ops, [], [ops])
    assert report["ops_attempted"] == 12
    assert report["ops_failed"] == 12


def test_fixture_ops_verify_and_a_changed_repetition_counts_as_failed(monkeypatch):
    workload = workloads.FixtureMatrix(0, grid=20)
    sample = workload.build(workload.generate())
    ops, fits = run_once(monkeypatch, workload, sample)
    ops = workload.ops(sample, ops)
    report = layers.check_and_count(workload, sample, ops, fits, [ops])
    assert (report["ops_attempted"], report["ops_failed"]) == (12, 0), report["problems"]
    changed = [workloads.Op(op.name, {"loc": op.values["loc"] + 1e-9}) for op in ops[:1]]
    report = layers.check_and_count(workload, sample, ops, fits, [ops, changed + ops[1:]])
    assert (report["ops_attempted"], report["ops_failed"]) == (24, 1)
    raised = [workloads.Op(op.name, op.values, problem="SmoothingError: x") for op in ops[:2]]
    report = layers.check_and_count(workload, sample, ops, fits, [ops, raised + ops[2:]])
    assert (report["ops_attempted"], report["ops_failed"]) == (24, 2)


def test_a_loc_value_that_is_not_the_loc_of_its_curve_fails(monkeypatch):
    workload = workloads.FixtureMatrix(0, grid=20)
    sample = workload.build(workload.generate())
    ops, fits = run_once(monkeypatch, workload, sample)
    ops = workload.ops(sample, ops)
    ops[3].values["loc"] += 1e-12
    report = layers.check_and_count(workload, sample, ops, fits, [ops])
    assert report["ops_failed"] == 1
    assert "differs from the LOC of its fitted curve" in report["problems"][0]


def test_rank_op_fails_when_rank_loc_differs_from_finite_population_i(monkeypatch):
    workload = workloads.PairWorkload("t", 200, ("mean",), 3, grid=30)
    sample = workload.build(workload.generate())
    ops, fits = run_once(monkeypatch, workload, sample)
    assert layers.check_and_count(workload, sample, ops, fits, [ops])["ops_failed"] == 0
    ops[0].values["rank_loc"] *= 1.0 + 1e-9
    report = layers.check_and_count(workload, sample, ops, fits, [ops])
    assert report["ops_failed"] == 1
    assert report["problems"][0].startswith("ranks: rank LOC differs")


def test_non_json_cli_output_fails_every_op():
    workload = workloads.FixtureMatrix(0, grid=20)
    sample = workload.build(workload.generate())
    ops = workload.ops(sample, (0, "not json"))
    assert len(ops) == 12 and all(op.problem for op in ops)


def span(sid, name, start, end, parent=None, rep=0, attrs=None):
    return [sid, name, start, end, parent, rep, attrs]


def test_self_time_is_duration_minus_child_coverage():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 3.0, parent=0),
        span(2, "b", 2.0, 4.0, parent=0),  # overlaps a: covered once
        span(3, "c", 6.0, 7.0, parent=0),
        span(4, "a.child", 1.5, 2.5, parent=1),
        span(5, "late", 9.5, 11.0, parent=0),  # clipped to the parent's end
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - (3.0 + 1.0 + 0.5))
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(1.0)


def test_wrappers_nest_spans_record_attrs_and_restore():
    class Module:
        pass

    mod = Module()
    mod.inner = lambda v: v + 1
    mod.outer = lambda v: mod.inner(v) * 2
    tracer = tracing.Tracer()
    tracer.wrap(mod, "inner", "m.inner", lambda a, k, r: {"arg": a[0]})
    tracer.wrap(mod, "outer", "m.outer")
    original_outer = mod.outer.__wrapped__
    with tracer.span("bench.rep"):
        assert mod.outer(3) == 8
    tracer.restore()
    assert mod.outer is original_outer
    names = {s[tracing.NAME]: s for s in tracer.spans}
    assert names["m.outer"][tracing.PARENT] == names["bench.rep"][tracing.SPAN_ID]
    assert names["m.inner"][tracing.PARENT] == names["m.outer"][tracing.SPAN_ID]
    assert names["m.inner"][tracing.ATTRS] == {"arg": 3}


def test_per_layer_folds_spans_per_repetition():
    spans = [
        span(0, "cli.main", 0.0, 10.0, rep=0),
        span(1, "association.loc_matrix", 1.0, 9.0, parent=0, attrs={"pairs": 6, "failed": 1}),
        span(2, "smoothing.fit_curve", 2.0, 8.0, parent=1,
             attrs={"loss": "quantile", "points": 1000}),
        span(3, "cli.main", 20.0, 24.0, rep=1),
    ]
    checks = {"checks": {"smoothing.median_obj_gap_max": 1e-5}}
    out = layers.per_layer(spans, 2, checks)
    assert out["cli.self_s"] == pytest.approx((2.0 + 4.0) / 2)  # median of two reps
    assert out["smoothing.median_point_us"] == pytest.approx((6.0 / 1000 * 1e6 + 0.0) / 2)
    assert out["smoothing.median_obj_gap_max"] == 1e-5
    assert set(out) == {name for name, _, _ in layers.PER_LAYER} - {"bench.trace_overhead_s"}


def test_benchmark_json_declares_exactly_the_per_layer_metrics_reported():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer"]
    assert [(m["name"], m["unit"], m["better"]) for m in declared] == list(layers.PER_LAYER)


def test_each_repetition_is_scaled_by_its_own_unit_times():
    ref = calibration.REFERENCE_UNIT_S
    units = [[ref, 2 * ref, 2 * ref], [4 * ref, 4 * ref, ref]]
    assert calibration.scale_reps([6.0, 8.0], units) == pytest.approx([3.0, 2.0])
    assert calibration.scale(5.0, [ref / 2]) == pytest.approx(10.0)


def test_sampler_samples_inside_the_block_and_stops_after_it():
    sampler = calibration.Sampler()
    with sampler:
        end = time.perf_counter() + 4.5 * calibration.PERIOD_S
        while time.perf_counter() < end:
            pass
    assert len(sampler.samples) == 4
    assert sampler.spent >= sum(sampler.samples)
    time.sleep(2 * calibration.PERIOD_S)
    assert len(sampler.samples) == 4


def test_calibration_unit_is_deterministic_and_a_burst_times_at_least_three_units():
    assert calibration.unit() == calibration.unit()
    assert len(calibration.burst(0.0)) == 3
