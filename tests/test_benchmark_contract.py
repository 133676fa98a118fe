"""The names and behaviour the benchmark in perfbench/ relies on.

perfbench wraps module attributes of ``locindex`` by name and finds every
fit through ``association.fit_curve``; these tests fail when a rename or a
fit made another way would break it.
"""

from pathlib import Path

import numpy as np
import pytest

import locindex

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # FitCapture replaces association.fit_curve; setting it to itself makes
    # monkeypatch put the original back after the test
    monkeypatch.setattr(locindex.association, "fit_curve", locindex.association.fit_curve)
    import layers
    import tracing
    import worker
    import workloads

    return layers, tracing, worker, workloads


def test_every_traced_attribute_exists(perfbench):
    _, tracing, worker, _ = perfbench
    before = dict(vars(locindex.association))
    tracer = tracing.Tracer()
    worker.install_trace(tracer, locindex)  # raises AttributeError on a missing name
    tracer.restore()
    assert dict(vars(locindex.association)) == before


def test_fixture_warm_up_runs_through_fit_capture(perfbench):
    layers, _, worker, workloads = perfbench
    capture = worker.FitCapture(locindex.association)
    workload = workloads.warm_up_copy(workloads.FixtureMatrix(0))
    inputs = workload.build(workload.generate())
    result = workload.run(inputs)
    ops = workload.ops(inputs, result)
    assert result[0] == 0
    assert len(capture.fits) == 12  # 6 ordered pairs x 2 losses
    report = layers.check_and_count(workload, inputs, ops, capture.fits, [ops])
    assert report["ops_attempted"] == 12
    assert report["ops_failed"] == 0, report["problems"]


def test_fixture_warm_up_fits_only_medians_through_local_linear_fit(perfbench):
    # perfbench's smoothing.local_fit_calls counts the calls made through the
    # module attribute: fit_curve calls it once per grid point for check
    # loss and solves the mean itself, so 6 median curves x 20 points
    _, tracing, worker, workloads = perfbench
    tracer = tracing.Tracer()
    worker.install_trace(tracer, locindex)
    try:
        workload = workloads.warm_up_copy(workloads.FixtureMatrix(0))
        inputs = workload.build(workload.generate())
        assert workload.run(inputs)[0] == 0
    finally:
        tracer.restore()
    names = [span[tracing.NAME] for span in tracer.spans]
    assert names.count("smoothing.fit_curve") == 12
    assert names.count("smoothing.local_linear_fit") == 120


def test_median_curve_in_large_windows_passes_verification(perfbench):
    # at n = 2000 every window holds hundreds of rows, above the size below
    # which the median solver sorts instead of selecting; perfbench's check
    # must find every sampled fit at the linear programming optimum
    _, _, _, workloads = perfbench
    import verification

    x, y = workloads.synthetic_pair(2000, 0)
    jittered = locindex.jitter(locindex.PairedSample(x=x, y=y), workloads.JITTER_SD, 0)
    h = locindex.median_adjust(locindex.dpi_bandwidth(jittered))
    spec = locindex.FitSpec(loss=locindex.LossKind.median(), bandwidth=h, grid_size=200)
    curve = locindex.fit_curve(jittered, spec)
    reach = locindex.smoothing._REACH * h.value
    windows = np.sum(np.abs(jittered.x[None, :] - curve.grid[:, None]) <= reach, axis=1)
    assert windows.min() >= locindex.smoothing._SMALL_WINDOW
    check = verification.check_median_curve(jittered, curve)
    assert check.ok, check.problems
    assert check.points == verification.POINTS_PER_FIT
    assert check.worst <= 1e-12
