import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from locindex import (
    BandwidthEstimate,
    FitSpec,
    LossKind,
    PairedSample,
    SmoothingError,
    dpi_bandwidth,
    fit_curve,
    jitter,
    local_linear_fit,
    median_adjust,
    pair,
    smoothing,
)

from oracles import (
    check_loss_lp_minimum,
    check_loss_minimum,
    check_loss_value,
    global_least_squares,
    kernel_weights,
    random_tie_free_sample,
    weighted_quantile_row,
)

TAUS = (0.1, 0.5, 0.9)
COLUMNS = ("mathematics", "reading", "spelling")
ORDERED_PAIRS = [(a, b) for a in COLUMNS for b in COLUMNS if a != b]
LOSSES = (LossKind.quadratic(), LossKind.median())


def assert_reaches_minimum(sample: PairedSample, x0: float, h: float, tau: float,
                           minimum=check_loss_minimum) -> None:
    b0, b1 = local_linear_fit(sample, x0, h, LossKind.quantile(tau))
    fitted = check_loss_value(sample.x, sample.y, x0, h, tau, b0, b1)
    optimum = minimum(sample.x, sample.y, x0, h, tau)
    # (b0, b1) is the optimal line rounded to floating point, which moves each
    # residual by a few ulps of the terms it is computed from
    d = sample.x - x0
    w = np.exp(-0.5 * (d / h) ** 2)
    slack = 1e-12 * float(w @ (np.abs(sample.y) + abs(b0) + np.abs(b1 * d)))
    assert fitted <= optimum + slack, (x0, tau, fitted, optimum)


class TestCheckLossOptimality:
    @pytest.mark.parametrize("tau", TAUS)
    def test_tie_free_data(self, tau):
        rng = np.random.default_rng(3)
        x, y = random_tie_free_sample(rng, 40)
        sample = PairedSample(x=x, y=y)
        for h in (0.05, 0.2):
            for x0 in np.linspace(x.min(), x.max(), 5):
                assert_reaches_minimum(sample, float(x0), h, tau)

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("x_name,y_name", ORDERED_PAIRS)
    def test_tied_fixture_pairs(self, marks_sample, x_name, y_name, tau):
        # un-jittered marks carry ties, so optimal lines often pass through
        # more than two observations; a descent that stops at the first line
        # no rotation about its two defining points improves ends up to 64%
        # above the optimum at about 2% of these points
        pr = pair(marks_sample, x_name, y_name)
        for h in (0.03, 0.08, 0.2):
            for x0 in np.linspace(pr.x.min(), pr.x.max(), 20):
                assert_reaches_minimum(pr, float(x0), h, tau)

    @settings(max_examples=60, deadline=None)
    @given(
        points=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 4)), min_size=4, max_size=12
        ),
        tau=st.sampled_from((0.1, 0.25, 0.5, 0.75, 0.9)),
        h=st.sampled_from((0.1, 0.3, 1.0)),
        where=st.floats(0.0, 1.0),
    )
    def test_coarse_grid_data(self, points, tau, h, where):
        x = np.array([p[0] / 5.0 for p in points])
        y = np.array([p[1] / 4.0 for p in points])
        x0 = float(x.min() + where * np.ptp(x))
        sample = PairedSample(x=x, y=y)
        u = (x - x0) / h
        weighted = np.exp(-0.5 * u * u) / np.sqrt(2 * np.pi) >= 1e-12
        assume(len(np.unique(x[weighted])) >= 2)
        assert_reaches_minimum(sample, x0, h, tau)


class TestCheckLossOptimalityInLargeWindows:
    # windows above smoothing._SMALL_WINDOW rows, where each rotation finds
    # its slope by selection instead of sorting every row

    @pytest.mark.parametrize("tau", TAUS)
    @pytest.mark.parametrize("tied", [False, True])
    def test_reaches_the_linear_programming_optimum(self, tau, tied):
        rng = np.random.default_rng(12)
        x = rng.uniform(0.0, 1.0, 500)
        y = 0.3 + 0.5 * x + 0.1 * np.sin(8.0 * x) + rng.normal(0.0, 0.1, 500)
        if tied:  # many points on each candidate line
            x, y = np.round(x, 2), np.round(y, 1)
        sample = PairedSample(x=x, y=y)
        for h in (0.04, 0.1):
            for x0 in np.linspace(0.0, 1.0, 7):
                u = (x - x0) / h
                assert np.sum(np.exp(-0.5 * u * u) / np.sqrt(2 * np.pi) >= 1e-12) \
                    >= smoothing._SMALL_WINDOW
                assert_reaches_minimum(sample, float(x0), h, tau, check_loss_lp_minimum)


class TestSelect:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_sorting_and_running_sums(self, data):
        # small integer weights keep every partial sum exact, so the row is
        # determined; few levels of v give exact ties
        n = data.draw(st.integers(1, 150))
        v = np.array(data.draw(st.lists(st.integers(-8, 8), min_size=n, max_size=n)),
                     dtype=float) / 4.0
        c = np.array(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)),
                     dtype=float)
        assume(c.sum() > 0.0)
        # a zero-weight row may carry the inf or nan slope of a row at a = 0
        specials = data.draw(st.lists(st.sampled_from([None, np.inf, -np.inf, np.nan]),
                                      min_size=n, max_size=n))
        for i, special in enumerate(specials):
            if c[i] == 0.0 and special is not None:
                v[i] = special
        partial = np.cumsum(c[sorted(np.flatnonzero(c), key=lambda i: (v[i], i))])
        total = float(partial[-1])
        cut = data.draw(st.one_of(
            st.sampled_from(partial.tolist()),  # a cut equal to a partial sum
            st.floats(0.0, total, exclude_min=True),
            st.sampled_from([total * (1.0 + 1e-15), total + 0.5]),  # above the total
        ))
        # the guess of a rotation is often one of the slopes
        guess = data.draw(st.one_of(st.floats(-3.0, 3.0),
                                    st.sampled_from(np.arange(-8, 9) / 4.0)))
        spread = data.draw(st.sampled_from([0.0, 1e-12, 0.1, 1.0, 1e6]))
        row = smoothing._select(v, c, cut, guess, spread)
        expected = weighted_quantile_row(v, c, cut)
        assert c[row] > 0.0
        assert v[row] == v[expected]
        assert row == expected


class TestLocalLinearFit:
    def test_mean_with_huge_bandwidth_is_global_least_squares(self):
        rng = np.random.default_rng(7)
        x, y = random_tie_free_sample(rng, 50)
        intercept, slope = global_least_squares(x, y)
        for x0 in (0.0, 0.3, 0.8):
            b0, b1 = local_linear_fit(PairedSample(x=x, y=y), x0, 1e6, LossKind.quadratic())
            assert b1 == pytest.approx(slope, abs=1e-10)
            assert b0 == pytest.approx(intercept + slope * x0, abs=1e-10)

    def test_degenerate_ceiling_line_takes_few_rotations(self, monkeypatch):
        # at x0 = 0.95 nearly every y sits exactly on the ceiling y = 1, at
        # distinct x: the optimal line passes through hundreds of points, and
        # their rotation rates certify it without a rotation about each
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.0, 1000)
        y = np.clip(0.5 + 0.8 * x + rng.normal(0.0, 0.1, 1000), 0.0, 1.0)
        rotations = []
        rotate = smoothing._rotate
        monkeypatch.setattr(smoothing, "_rotate", lambda *a: rotations.append(1) or rotate(*a))
        assert local_linear_fit(PairedSample(x=x, y=y), 0.95, 0.05, LossKind.median()) == (1.0, 0.0)
        assert len(rotations) <= 10

    @pytest.mark.parametrize("loss", LOSSES)
    def test_linear_data_reproduced(self, linear_pair, loss):
        for h in (0.05, 0.5):
            for x0 in (0.0, 0.37, 1.0):
                b0, b1 = local_linear_fit(linear_pair, x0, h, loss)
                assert b0 == pytest.approx(2.0 * x0 + 1.0, abs=1e-12)
                assert b1 == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("loss", LOSSES)
    def test_constant_y_returns_the_constant(self, loss):
        sample = PairedSample(x=np.linspace(0.0, 1.0, 25), y=np.full(25, 0.3))
        for x0 in (0.0, 0.5, 0.9):
            b0, b1 = local_linear_fit(sample, x0, 0.2, loss)
            assert b0 == pytest.approx(0.3, abs=1e-15)
            assert b1 == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize(
        "x,x0",
        [
            (np.append(np.linspace(0.0, 1.0, 20), 5.0), 5.0),  # one weighted point
            (np.array([0.2] * 5 + [3.0] * 5), 0.2),  # weighted points share one x
            (np.linspace(0.0, 1.0, 20), 9.0),  # no weighted point at all
        ],
    )
    def test_unidentifiable_x0_raises(self, loss, x, x0):
        sample = PairedSample(x=x, y=np.linspace(0.0, 1.0, len(x)))
        with pytest.raises(SmoothingError, match="fewer than 2 distinct"):
            local_linear_fit(sample, x0, 0.1, loss)


class TestKernelWeights:
    @pytest.mark.parametrize("n", [52, 1_000, 25_000, 100_000])
    def test_equal_to_the_kernel_formula_on_windows(self, n):
        rng = np.random.default_rng(n)
        xs = np.sort(rng.uniform(0.0, 1.0, n))
        for h in (0.002, 0.03, 0.2):
            for x0 in rng.uniform(0.0, 1.0, 5).tolist():
                lo, hi = np.searchsorted(xs, [x0 - smoothing._REACH * h,
                                              x0 + smoothing._REACH * h])
                window = xs[lo:hi]
                np.testing.assert_array_equal(smoothing._kernel_weights(window, x0, h),
                                              kernel_weights(window, x0, h))


def sorted_by_x(pr: PairedSample) -> PairedSample:
    order = np.argsort(pr.x, kind="stable")
    return PairedSample(x=pr.x[order], y=pr.y[order])


def assert_curve_is_local_fit(pr: PairedSample, loss: LossKind, h: BandwidthEstimate,
                              reference: PairedSample | None = None) -> None:
    # the reference defaults to the sample stably sorted by x
    reference = sorted_by_x(pr) if reference is None else reference
    curve = fit_curve(pr, FitSpec(loss=loss, bandwidth=h, grid_size=200))
    for i in range(0, 200, 3):
        b0, _ = local_linear_fit(reference, float(curve.grid[i]), h.value, loss)
        assert curve.values[i] == b0, (loss, i)


class TestFitCurve:
    # fit_curve fits each grid point on its kernel window of the sample sorted
    # by x; the curve is local_linear_fit on the stably x-sorted sample, bit
    # for bit, tied data included

    @pytest.mark.parametrize("x_name,y_name", ORDERED_PAIRS)
    def test_median_curve_equals_local_fit(self, marks_sample, x_name, y_name):
        # on jittered data and on tied data where the optimum is not unique
        raw = pair(marks_sample, x_name, y_name)
        jittered = jitter(raw, 1e-5, 11)
        h = median_adjust(dpi_bandwidth(jittered))
        for pr in (jittered, raw):
            for tau in TAUS:
                assert_curve_is_local_fit(pr, LossKind.quantile(tau), h)

    @pytest.mark.parametrize("x_name,y_name", ORDERED_PAIRS)
    def test_jittered_median_curve_equals_local_fit_on_the_unsorted_sample(
            self, marks_sample, x_name, y_name):
        # on tie-free data the optimal line is unique and the value depends
        # on the line only, so the order of the rows does not matter
        jittered = jitter(pair(marks_sample, x_name, y_name), 1e-5, 11)
        assert len(np.unique(jittered.x)) == jittered.n
        h = median_adjust(dpi_bandwidth(jittered))
        assert_curve_is_local_fit(jittered, LossKind.median(), h, reference=jittered)

    @pytest.mark.parametrize("loss", LOSSES)
    @pytest.mark.parametrize("seed", range(4))
    def test_row_permutation_gives_the_same_curve_on_tie_free_x(self, loss, seed):
        rng = np.random.default_rng(seed)
        x, y = random_tie_free_sample(rng, 300)
        sample = PairedSample(x=x, y=y)
        order = rng.permutation(300)
        spec = FitSpec(loss=loss, bandwidth=BandwidthEstimate(value=0.08, method="fixed"),
                       grid_size=100)
        base = fit_curve(sample, spec)
        moved = fit_curve(PairedSample(x=x[order], y=y[order]), spec)
        np.testing.assert_array_equal(moved.grid, base.grid)
        np.testing.assert_array_equal(moved.values, base.values)

    @pytest.mark.parametrize("x_name,y_name", ORDERED_PAIRS)
    def test_mean_curve_equals_local_fit(self, marks_sample, x_name, y_name):
        raw = pair(marks_sample, x_name, y_name)
        jittered = jitter(raw, 1e-5, 11)
        h = dpi_bandwidth(jittered)
        for pr in (jittered, raw):
            assert_curve_is_local_fit(pr, LossKind.quadratic(), h)

    @pytest.mark.parametrize("loss", LOSSES)
    def test_tied_x_at_a_large_n_equals_local_fit(self, loss):
        # x rounded to 1e-3 puts about 20 rows on each value; at n = 2e4
        # numpy's default sort is not stable, so the ties take the stable sort.
        # y is rounded too, so that several lines can be optimal for the median
        rng = np.random.default_rng(5)
        x = np.round(rng.uniform(0.0, 1.0, 20_000), 3)
        y = np.round(np.sin(3.0 * x) + rng.normal(0.0, 0.1, 20_000), 2)
        sample = PairedSample(x=x, y=y)
        assert_curve_is_local_fit(sample, loss, BandwidthEstimate(value=0.02, method="fixed"))

    @pytest.mark.parametrize("loss", LOSSES)
    def test_row_just_inside_the_weight_floor_is_in_the_window(self, loss):
        # at the grid point x0 = 0.5 the row at x = 1 carries a weight just
        # above the floor, and its large y moves the mean fit there
        x = np.linspace(0.0, 1.0, 21)
        y = np.where(x == 1.0, 1e6, np.sin(3.0 * x))
        sample = PairedSample(x=x, y=y)
        floor_u = np.sqrt(-2.0 * np.log(smoothing.WEIGHT_FLOOR * np.sqrt(2.0 * np.pi)))
        h = BandwidthEstimate(value=0.5 / (floor_u * (1.0 - 1e-9)), method="fixed")
        assert 0.0 < smoothing._kernel_weights(x, 0.5, h.value)[-1] < 2e-12
        curve = fit_curve(sample, FitSpec(loss=loss, bandwidth=h, grid_size=101))
        assert curve.grid[50] == 0.5
        for x0, value in zip(curve.grid, curve.values):
            assert value == local_linear_fit(sample, float(x0), h.value, loss)[0]

    def test_mean_singular_design_raises_local_linear_fits_error(self):
        # near x0 = 0.02 the weighted rows are two x values 1e-8 apart, far
        # from x0 against their spread
        x = np.array([0.0, 1e-8, 1.0, 1.0 + 1e-8])
        sample = PairedSample(x=x, y=np.array([0.1, 0.2, 0.3, 0.4]))
        h = BandwidthEstimate(value=0.05, method="fixed")
        loss = LossKind.quadratic()
        with pytest.raises(SmoothingError) as info:
            fit_curve(sample, FitSpec(loss=loss, bandwidth=h, grid_size=101))
        x0 = float(np.linspace(0.0, 1.0 + 1e-8, 101)[2])
        with pytest.raises(SmoothingError) as expected:
            local_linear_fit(sample, x0, h.value, loss)
        assert "singular weighted design" in str(expected.value)
        assert str(info.value) == f"grid point 2: {expected.value}"

    def test_mean_gathers_weighted_rows_around_a_zero_weight_row(self, monkeypatch):
        # the kernel falls away from x0, so the weighted rows of a window are
        # one run in x order; should rounding ever zero a row inside it, the
        # mean fits the weighted rows alone, as local_linear_fit does
        x = np.linspace(0.0, 1.0, 41)
        sample = PairedSample(x=x, y=np.sin(3.0 * x))
        kernel = smoothing._kernel_weights

        def holed(xw, x0, h):
            w = kernel(xw, x0, h)
            w[xw == 0.5] = 0.0
            return w

        rows = []
        solve = smoothing._solve_wls
        monkeypatch.setattr(smoothing, "_kernel_weights", holed)
        monkeypatch.setattr(smoothing, "_solve_wls", lambda d, *a: rows.append(len(d)) or solve(d, *a))
        loss = LossKind.quadratic()
        h = BandwidthEstimate(value=0.2, method="fixed")  # every row has weight
        curve = fit_curve(sample, FitSpec(loss=loss, bandwidth=h, grid_size=30))
        assert rows == [40] * 30
        for x0, value in zip(curve.grid, curve.values):
            assert value == local_linear_fit(sample, float(x0), h.value, loss)[0]

    @pytest.mark.parametrize("loss", LOSSES)
    def test_gap_wider_than_the_window_raises_at_its_first_grid_point(self, loss):
        # grid points inside the gap see one row or none, which a window
        # cannot even hold; the error is local_linear_fit's on the full sample
        x = np.concatenate([np.linspace(0.0, 0.2, 10), np.linspace(0.8, 1.0, 10)])
        sample = PairedSample(x=x, y=np.cos(4.0 * x))
        h = BandwidthEstimate(value=0.02, method="fixed")
        with pytest.raises(SmoothingError) as info:
            fit_curve(sample, FitSpec(loss=loss, bandwidth=h, grid_size=101))
        grid = np.linspace(0.0, 1.0, 101)
        for i, x0 in enumerate(grid):
            try:
                local_linear_fit(sample, float(x0), h.value, loss)
            except SmoothingError as exc:
                message = str(exc)
                break
        assert str(info.value) == f"grid point {i}: {message}"
        assert "fewer than 2 distinct" in message
        assert np.sum(np.abs(x - grid[i]) <= smoothing._REACH * h.value) < 2
