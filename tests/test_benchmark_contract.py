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


def traced_span_names(perfbench, workload) -> list[str]:
    """The names of the spans a traced run of ``workload`` records; every op must succeed."""
    _, tracing, worker, _ = perfbench
    tracer = tracing.Tracer()
    worker.install_trace(tracer, locindex)
    try:
        inputs = workload.build(workload.generate())
        ops = workload.ops(inputs, workload.run(inputs))
    finally:
        tracer.restore()
    assert ops and all(op.problem is None for op in ops)
    return [span[tracing.NAME] for span in tracer.spans]


def test_fixture_warm_up_solves_its_medians_in_lock_step(perfbench):
    # every fixture window holds fewer than _SMALL_WINDOW rows, so fit_curve
    # solves the median grid points together and calls local_linear_fit for
    # none of them: perfbench's smoothing.local_fit_calls reads 0 here,
    # though the median work is still done, inside smoothing.fit_curve
    _, _, _, workloads = perfbench
    names = traced_span_names(perfbench, workloads.warm_up_copy(workloads.FixtureMatrix(0)))
    assert names.count("smoothing.fit_curve") == 12  # 6 ordered pairs x 2 losses
    assert names.count("smoothing.local_linear_fit") == 0


def test_fixture_workload_certifies_most_of_its_median_grid_points(perfbench, monkeypatch):
    # at the timed grid of 1000 points the optimal median line is mostly a
    # neighbour's: the lock step solves every _STRIDE-th point, and the line
    # of a solved neighbour certified 5,041 of the other 5,250 (measured; the
    # warm-up's grid of 20 certifies only 18 of its 102); local_linear_fit
    # solves none of them, so smoothing.local_fit_calls still reads 0
    _, _, _, workloads = perfbench
    certify, certified = locindex.smoothing._certify, []

    def counted(*args):
        values = certify(*args)
        certified.append(int(np.count_nonzero(~np.isnan(values))))
        return values

    monkeypatch.setattr(locindex.smoothing, "_certify", counted)
    names = traced_span_names(perfbench, workloads.FixtureMatrix(0))
    assert names.count("smoothing.fit_curve") == 12  # 6 ordered pairs x 2 losses
    assert names.count("smoothing.local_linear_fit") == 0
    assert sum(certified) >= 4800  # of 6 x 1000 median grid points


def test_fixture_warm_up_solves_its_means_in_lock_step(perfbench, monkeypatch):
    # the mean curves too: no fixture grid point takes the per-point
    # _solve_wls, so smoothing.mean_fit_s times the lock step there; the
    # pair workloads' mean windows hold more than _SMALL_WINDOW rows, and
    # every grid point of them takes the per-point path
    _, _, _, workloads = perfbench
    calls = []
    solve = locindex.smoothing._solve_wls
    monkeypatch.setattr(locindex.smoothing, "_solve_wls",
                        lambda *a: calls.append(a[3]) or solve(*a))
    names = traced_span_names(perfbench, workloads.warm_up_copy(workloads.FixtureMatrix(0)))
    assert names.count("smoothing.fit_curve") == 12  # 6 ordered pairs x 2 losses
    assert calls == []
    workload = workloads.warm_up_copy(workloads.make("pair-mean-1e5", 0))
    jittered = locindex.jitter(workload.build(workload.generate()), workloads.JITTER_SD,
                               workload.seed)
    h = locindex.dpi_bandwidth(jittered).value
    grid = np.linspace(jittered.x.min(), jittered.x.max(), workload.grid)
    windows = np.sum(np.abs(jittered.x[None, :] - grid[:, None])
                     <= locindex.smoothing._REACH * h, axis=1)
    assert windows.min() >= locindex.smoothing._SMALL_WINDOW
    assert traced_span_names(perfbench, workload).count("smoothing.fit_curve") == 1
    assert len(calls) == workload.grid


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", ["pair-both-1e4", "pair-mean-1e5"])
def test_pair_workloads_take_no_lock_step_at_full_size(perfbench, name, seed):
    # every grid point of the timed pair workloads has a window of at least
    # _SMALL_WINDOW rows, so their fits run the per-point paths alone and a
    # change to the lock step shows only on fixture-matrix; windows as
    # fit_curve finds them, since an n x grid matrix would not fit in memory
    _, _, _, workloads = perfbench
    workload = workloads.make(name, seed)
    jittered = locindex.jitter(workload.build(workload.generate()), workloads.JITTER_SD,
                               workload.seed)
    xs = np.sort(jittered.x)
    grid = np.linspace(xs[0], xs[-1], workload.grid)
    h = locindex.dpi_bandwidth(jittered)
    for loss in workload.losses:
        bw = h if loss == "mean" else locindex.median_adjust(h, 0.5)
        reach = locindex.smoothing._REACH * bw.value
        windows = (np.searchsorted(xs, grid + reach, side="right")
                   - np.searchsorted(xs, grid - reach, side="left"))
        assert windows.min() >= locindex.smoothing._SMALL_WINDOW, (loss, windows.min())


def test_median_curve_in_large_windows_calls_local_linear_fit_where_no_warm_start_holds(
        perfbench, monkeypatch):
    # the warm-up pair at n = 400 has windows of 119-283 rows on tie-free x,
    # all on the per-point path: every grid point starts from the line of the
    # one before it, and takes a local_linear_fit call only where that warm
    # start is not certified, at the first grid point at least, which has no
    # line to start from.  smoothing.local_fit_calls counts those cold calls
    _, _, _, workloads = perfbench
    workload = workloads.warm_up_copy(workloads.make("pair-both-1e4", 0))
    jittered = locindex.jitter(workload.build(workload.generate()), workloads.JITTER_SD,
                               workload.seed)
    h = locindex.median_adjust(locindex.dpi_bandwidth(jittered)).value
    grid = np.linspace(jittered.x.min(), jittered.x.max(), workload.grid)
    windows = np.sum(np.abs(jittered.x[None, :] - grid[:, None])
                     <= locindex.smoothing._REACH * h, axis=1)
    assert windows.min() >= locindex.smoothing._SMALL_WINDOW
    warm_fit, warm = locindex.smoothing._warm_fit, []
    monkeypatch.setattr(locindex.smoothing, "_warm_fit",
                        lambda *a: warm.append(warm_fit(*a)) or warm[-1])
    names = traced_span_names(perfbench, workload)
    assert names.count("smoothing.fit_curve") == 2
    assert len(warm) == workload.grid
    cold = sum(fit is None for fit in warm)
    assert warm[0] is None and cold < workload.grid // 4
    assert names.count("smoothing.local_linear_fit") == cold


def test_median_curve_in_large_windows_passes_verification(perfbench):
    # at n = 2000 every window holds hundreds of rows, above the size below
    # which fit_curve solves the median in lock step; perfbench's check must
    # find every sampled fit at the linear programming optimum
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


def test_no_plug_in_block_of_the_workloads_calls_lstsq(perfbench, monkeypatch):
    # every block of every workload's pair is fitted from its Gram matrix:
    # lstsq, which blocks of fewer than five distinct x keep, is never
    # reached, so the Gram solve's gain shows on the timed traffic
    _, _, _, workloads = perfbench

    def refuse(*args, **kwargs):
        raise AssertionError("a plug-in block called np.linalg.lstsq")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    fits = []
    dpi = locindex.association.dpi_bandwidth
    monkeypatch.setattr(locindex.association, "dpi_bandwidth",
                        lambda sample: fits.append(sample.n) or dpi(sample))
    workload = workloads.warm_up_copy(workloads.FixtureMatrix(0))
    inputs = workload.build(workload.generate())
    ops = workload.ops(inputs, workload.run(inputs))
    assert fits == [52] * 12  # 6 ordered pairs x 2 losses, as at the timed grid
    assert all(op.problem is None for op in ops)
    for name in ("pair-both-1e4", "pair-mean-1e5"):
        workload = workloads.make(name, 0)
        jittered = locindex.jitter(workload.build(workload.generate()), workloads.JITTER_SD,
                                   workload.seed)
        assert not dpi(jittered).diagnostics.fallback


def test_pair_workload_ranks_its_jittered_sample_once(perfbench, monkeypatch):
    # the five rank quantities of a repetition share one Ranks: two
    # _dense_ranks calls, for x and for y
    _, _, _, workloads = perfbench
    calls = []
    dense_ranks = locindex.association._dense_ranks
    monkeypatch.setattr(locindex.association, "_dense_ranks",
                        lambda *a: calls.append(a[1]) or dense_ranks(*a))
    workload = workloads.warm_up_copy(workloads.make("pair-mean-1e5", 0))
    inputs = workload.build(workload.generate())
    for repetition in range(1, 4):
        ops = workload.run(inputs)
        assert all(op.problem is None for op in ops)
        assert calls == ["x", "y"] * repetition


def test_pair_workload_sorts_its_jittered_x_once(perfbench, monkeypatch):
    # the ranks, the plug-in and the mean curve of a repetition share the
    # jittered sample's x_order: one argsort of x, where each took its own
    _, _, _, workloads = perfbench
    workload = workloads.warm_up_copy(workloads.make("pair-mean-1e5", 0))
    inputs = workload.build(workload.generate())
    x = locindex.jitter(inputs, workloads.JITTER_SD, workload.seed).x
    sorted_x = []
    argsort = np.argsort

    def counted(a, *args, **kwargs):
        sorted_x.append(np.array_equal(a, x))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counted)
    ops = workload.run(inputs)
    assert all(op.problem is None for op in ops)
    assert sorted_x.count(True) == 1
