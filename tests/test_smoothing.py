import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from locindex import (
    BandwidthEstimate,
    FitSpec,
    FittedCurve,
    LossKind,
    PairedSample,
    SmoothingError,
    dpi_bandwidth,
    fit_curve,
    jitter,
    loc_matrix,
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


def rounding_slack(x: np.ndarray, y: np.ndarray, x0: float, h: float, b0: float,
                   b1: float) -> float:
    # (b0, b1) is the optimal line rounded to floating point, which moves each
    # residual by a few ulps of the terms it is computed from
    d = x - x0
    w = np.exp(-0.5 * (d / h) ** 2)
    return 1e-12 * float(w @ (np.abs(y) + abs(b0) + np.abs(b1 * d)))


def assert_reaches_minimum(sample: PairedSample, x0: float, h: float, tau: float,
                           minimum=check_loss_minimum) -> None:
    b0, b1 = local_linear_fit(sample, x0, h, LossKind(kind="quantile", tau=tau))
    fitted = check_loss_value(sample.x, sample.y, x0, h, tau, b0, b1)
    optimum = minimum(sample.x, sample.y, x0, h, tau)
    assert fitted <= optimum + rounding_slack(sample.x, sample.y, x0, h, b0, b1), \
        (x0, tau, fitted, optimum)


def assert_value_of_an_optimal_line(sample: PairedSample, x0: float, h: float, tau: float,
                                    value: float) -> None:
    # value is, up to rounding, the value at x0 of a line through two
    # weighted observations of distinct x whose check loss is the optimum;
    # a fit anchors that line on either point, a few ulps apart
    weighted = kernel_weights(sample.x, x0, h) > 0.0
    x, y = sample.x[weighted], sample.y[weighted]
    p, q = np.triu_indices(len(x), 1)
    distinct = x[p] != x[q]
    p, q = p[distinct], q[distinct]
    slope = (y[q] - y[p]) / (x[q] - x[p])
    terms = np.abs(y[p]) + np.abs(y[q]) + np.abs(slope) * (np.abs(x[p] - x0) + np.abs(x[q] - x0))
    near = np.abs(y[p] + slope * (x0 - x[p]) - value) <= 1e-12 * terms
    optimum = check_loss_minimum(x, y, x0, h, tau)
    assert any(check_loss_value(x, y, x0, h, tau, value, b1)
               <= optimum + rounding_slack(x, y, x0, h, value, b1)
               for b1 in slope[near].tolist()), (x0, tau, value, optimum)


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


    @pytest.mark.parametrize("n", [30, 100])  # a window of a few rows, and a larger one
    @pytest.mark.parametrize("tau", TAUS)
    def test_slopes_beyond_the_float_range(self, n, tau):
        # x spread over subnormals, as a jitter of 1e-320 leaves zeros: a y
        # step between two of them is a slope beyond the float range, which
        # overflows to inf without a warning; no line of finite slope beats
        # the fit
        rng = np.random.default_rng(13)
        x = np.append(rng.normal(0.0, 1e-320, n - 1), 1.0)
        y = np.append((rng.uniform(size=n - 1) < 0.2) + rng.normal(0.0, 1e-320, n - 1), 0.0)
        for x0 in (0.0, 0.5):
            b0, b1 = local_linear_fit(PairedSample(x=x, y=y), x0, 0.5,
                                      LossKind(kind="quantile", tau=tau))
            fitted = check_loss_value(x, y, x0, 0.5, tau, b0, b1)
            p, q = np.triu_indices(n, 1)
            distinct = x[p] != x[q]
            p, q = p[distinct], q[distinct]
            with np.errstate(all="ignore"):  # the steepest lines are inf or nan
                slope = (y[q] - y[p]) / (x[q] - x[p])
                intercept = y[p] + slope * (x0 - x[p])
                values = check_loss_value(x, y, x0, 0.5, tau, intercept[:, None],
                                          slope[:, None])
            assert fitted <= np.nanmin(values) * (1.0 + 1e-12)


class TestCheckLossOptimalityInLargeWindows:
    # windows above smoothing._SMALL_WINDOW rows, the ones fit_curve leaves to
    # local_linear_fit: each rotation selects its slope among hundreds of rows

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
    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, np.nan])
    def test_bandwidth_not_above_zero_raises(self, linear_pair, loss, bandwidth):
        # nan fails every comparison, so the test asks for > 0
        with pytest.raises(ValueError, match="bandwidth must be > 0"):
            local_linear_fit(linear_pair, 0.5, bandwidth, loss)

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

    def test_equal_to_the_kernel_formula_on_the_rows_of_a_lock_step_block(self):
        # the lock step weighs many windows at once, each row of a
        # (points x window) array against its own x0
        rng = np.random.default_rng(4)
        xs = np.sort(rng.uniform(0.0, 1.0, 52))
        x0 = rng.uniform(0.0, 1.0, 300)
        weights = smoothing._kernel_weights(np.broadcast_to(xs, (300, 52)), x0[:, None], 0.05)
        for row, point in zip(weights, x0.tolist()):
            np.testing.assert_array_equal(row, kernel_weights(xs, point, 0.05))


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
                assert_curve_is_local_fit(pr, LossKind(kind="quantile", tau=tau), h)

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

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(4, 90),
        seed=st.integers(0, 2**32 - 1),
        h=st.sampled_from((0.02, 0.05, 0.1, 0.3)),
        rounded=st.booleans(),
        twin=st.booleans(),
    )
    # at grid point 191, in the second block, the only weighted rows are a row
    # and its twin: a singular design, handed back by the lock step
    @example(n=10, seed=117, h=0.02, rounded=False, twin=True)
    # at grid point 136 the window holds two rows and only one weighs
    @example(n=10, seed=1, h=0.02, rounded=False, twin=False)
    def test_mean_curve_equals_local_fit_on_random_samples(self, n, seed, h, rounded, twin):
        # windows of fewer than smoothing._SMALL_WINDOW rows are solved in lock
        # step and larger ones (n > 63 at h = 0.3) one point at a time; x
        # rounded to multiples of 1/20 puts ties in the windows, and a twin
        # of a row 1e-9 away makes the designs of some windows singular
        rng = np.random.default_rng(seed)
        x, y = random_tie_free_sample(rng, n)
        if rounded:
            x = np.round(x * 20.0) / 20.0
        if twin:
            x, y = np.append(x, x[0] + 1e-9), np.append(y, rng.uniform(0.0, 1.0))
        assume(x.min() < x.max())
        sample = PairedSample(x=x, y=y)
        loss = LossKind.quadratic()
        bandwidth = BandwidthEstimate(value=h, method="fixed")
        try:
            assert_curve_is_local_fit(sample, loss, bandwidth)  # 200 points: two blocks
        except SmoothingError:
            assert_raises_local_fits_first_error(sample, loss, bandwidth, 200)

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

    def test_mean_sums_that_overflow_raise_instead_of_a_nan_curve(self):
        # at x * 1e200 the weighted sum of d^2 overflows, and numpy warns of
        # it; the determinant is nan, which the singularity test rejects
        rng = np.random.default_rng(6)
        sample = PairedSample(x=rng.uniform(0.0, 1.0, 40) * 1e200,
                              y=rng.uniform(0.0, 1.0, 40))
        spec = FitSpec(loss=LossKind.quadratic(),
                       bandwidth=BandwidthEstimate(value=1e199, method="fixed"), grid_size=20)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(SmoothingError, match="singular weighted design"):
            fit_curve(sample, spec)

    def test_median_objective_that_overflows_raises(self):
        rng = np.random.default_rng(6)
        sample = PairedSample(x=rng.uniform(0.0, 1.0, 40),
                              y=rng.uniform(-1.0, 1.0, 40) * 1e308)
        spec = FitSpec(loss=LossKind.median(),
                       bandwidth=BandwidthEstimate(value=0.3, method="fixed"), grid_size=20)
        with pytest.raises(SmoothingError, match="check-loss objective overflows"):
            fit_curve(sample, spec)

    @pytest.mark.parametrize("loss", LOSSES)
    def test_x_spanning_more_than_the_float_range_raises(self, loss):
        # max(x) - min(x) overflows, and so would the grid's step: the error
        # comes before numpy can warn of it, which would fail this test
        x = np.append(np.linspace(-1e307, 1e307, 20), [-1.7e308, 1.7e308])
        sample = PairedSample(x=x, y=np.linspace(0.0, 1.0, 22))
        spec = FitSpec(loss=loss, bandwidth=BandwidthEstimate(value=1e306, method="fixed"),
                       grid_size=20)
        with pytest.raises(SmoothingError, match="x spans more than the float range"):
            fit_curve(sample, spec)

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

    @pytest.mark.parametrize("n, bandwidth, message", [
        (3, BandwidthEstimate(value=0.5, method="fixed"),
         "^curve fitting needs at least 4 observations$"),
        (10, None, "^spec.bandwidth must be set before fitting$"),
    ])
    def test_too_few_rows_or_no_bandwidth_raises(self, n, bandwidth, message):
        sample = PairedSample(x=np.linspace(0.0, 1.0, n), y=np.linspace(0.2, 0.8, n))
        spec = FitSpec(loss=LossKind.quadratic(), bandwidth=bandwidth, grid_size=20)
        with pytest.raises(ValueError, match=message):
            fit_curve(sample, spec)

    @pytest.mark.parametrize("loss", LOSSES)
    def test_gap_wider_than_the_window_raises_at_its_first_grid_point(self, loss):
        # grid points inside the gap see one row or none, which a window
        # cannot even hold; the error is local_linear_fit's on the full sample
        x = np.concatenate([np.linspace(0.0, 0.2, 10), np.linspace(0.8, 1.0, 10)])
        sample = PairedSample(x=x, y=np.cos(4.0 * x))
        h = BandwidthEstimate(value=0.02, method="fixed")
        i, message = assert_raises_local_fits_first_error(sample, loss, h, 101)
        assert "fewer than 2 distinct" in message
        x0 = np.linspace(0.0, 1.0, 101)[i]
        assert np.sum(np.abs(x - x0) <= smoothing._REACH * h.value) < 2


def assert_raises_local_fits_first_error(sample: PairedSample, loss: LossKind,
                                         h: BandwidthEstimate, grid_size: int) -> tuple[int, str]:
    """fit_curve raises local_linear_fit's error at its first failing grid point."""
    with pytest.raises(SmoothingError) as info:
        fit_curve(sample, FitSpec(loss=loss, bandwidth=h, grid_size=grid_size))
    reference = sorted_by_x(sample)
    for i, x0 in enumerate(np.linspace(sample.x.min(), sample.x.max(), grid_size).tolist()):
        try:
            local_linear_fit(reference, x0, h.value, loss)
        except SmoothingError as exc:
            assert str(info.value) == f"grid point {i}: {exc}"
            return i, str(exc)
    raise AssertionError(f"local_linear_fit raised nowhere, fit_curve raised {info.value}")


class TestMeanInLockStep:
    # fit_curve solves the mean grid points whose windows hold fewer than
    # smoothing._SMALL_WINDOW rows together, with _solve_wls's sums

    def test_row_wls_equals_solve_wls_on_gathered_rows(self):
        # each point's run is gathered from a padded block into a
        # C-contiguous (points x run) array; a numpy or BLAS whose stacked dot
        # rounds otherwise than the dot of one row fails here, instead of
        # moving mean curves in their last bits
        rng = np.random.default_rng(3)
        width = smoothing._SMALL_WINDOW
        block = rng.normal(0.0, 1.0, (50, width))
        block *= 10.0 ** rng.uniform(-6.0, 6.0, block.shape)
        ys = rng.normal(0.0, 1.0, block.shape)
        weights = smoothing._kernel_weights(rng.uniform(-4.0, 4.0, block.shape), 0.0, 1.0)
        runs = []
        for length in range(2, width):
            rows = np.arange(50)[:, None]
            cols = rng.integers(0, width - length + 1, (50, 1)) + np.arange(length)
            runs.append((block[rows, cols], ys[rows, cols], weights[rows, cols]))
        d, y, w = runs[5]
        runs.append((np.repeat(d[:, :1], d.shape[1], axis=1), y, w))  # one distinct x per row
        runs.append((d * 1e200, y, w))  # sums that overflow
        outcomes = set()
        # as in fit_curve's lock step, a row that _solve_wls rejects may overflow or divide by 0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for d, y, w in runs:
                beta0, beta1, regular = smoothing._row_wls(d, y, w)
                for i, row in enumerate(zip(d, y, w)):
                    try:
                        expected = smoothing._solve_wls(*row, 0.0)
                    except SmoothingError:
                        assert not regular[i], (d.shape, i)
                    else:
                        assert regular[i], (d.shape, i)
                        assert (beta0[i], beta1[i]) == expected, (d.shape, i)
                outcomes.update(regular.tolist())
        assert outcomes == {False, True}


class TestMedianInLockStep:
    # fit_curve solves the median grid points whose windows hold fewer than
    # smoothing._SMALL_WINDOW rows together; the curve is still
    # local_linear_fit on the stably x-sorted sample, bit for bit

    @settings(max_examples=400, deadline=None)
    @given(
        n=st.integers(6, 63),
        seed=st.integers(0, 2**32 - 1),
        tau=st.sampled_from((0.25, 0.5, 0.8)),
        h=st.sampled_from((0.05, 0.1, 0.3)),
        rounded=st.booleans(),
    )
    def test_equals_local_fit_at_every_grid_point(self, n, seed, tau, h, rounded):
        # y rounded to multiples of 1/20 puts more than two rows on some
        # optimal lines, which local_linear_fit finishes
        rng = np.random.default_rng(seed)
        x, y = random_tie_free_sample(rng, n)
        if rounded:
            y = np.round(y * 20.0) / 20.0
        sample = PairedSample(x=x, y=y)
        loss = LossKind(kind="quantile", tau=tau)
        bandwidth = BandwidthEstimate(value=h, method="fixed")
        try:
            curve = fit_curve(sample, FitSpec(loss=loss, bandwidth=bandwidth, grid_size=60))
        except SmoothingError:  # a gap in x: the error is the scalar path's
            assert_raises_local_fits_first_error(sample, loss, bandwidth, 60)
            return
        reference = sorted_by_x(sample)
        for x0, value in zip(curve.grid.tolist(), curve.values.tolist()):
            assert value == local_linear_fit(reference, x0, h, loss)[0], x0

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(10, 60),
        seed=st.integers(0, 2**32 - 1),
        tau=st.sampled_from((0.25, 0.5, 0.8)),
        h=st.sampled_from((0.02, 0.04)),
        copies=st.integers(1, 3),
    )
    # grid point 0 has weighted rows at one x only: every line through the
    # pivot ties, so the point is handed back and local_linear_fit raises
    @example(n=10, seed=8, tau=0.25, h=0.02, copies=3)
    # at grid point 1 two pairs of rows of tied x put a running weight of a
    # rotation exactly at the cut: two lines are optimal, and the lock step's
    # sums, taken in another order, reach the one local_linear_fit does not,
    # unless the point is handed back
    @example(n=10, seed=17, tau=0.5, h=0.04, copies=2)
    def test_tied_x_in_some_windows_equals_local_fit_at_every_grid_point(
            self, n, seed, tau, h, copies):
        # a few x values repeated with new y: windows with and without a tie
        # take the lock step alike, which hands back the points that
        # local_linear_fit finishes, among them those where it raises
        # because a window's weighted rows share one x
        rng = np.random.default_rng(seed)
        x, y = random_tie_free_sample(rng, n)
        dup = rng.choice(n, copies, replace=False)
        sample = PairedSample(x=np.append(x, x[dup]),
                              y=np.append(y, rng.uniform(0.0, 1.0, copies)))
        reference = sorted_by_x(sample)
        grid = np.linspace(reference.x[0], reference.x[-1], 60)
        reach = smoothing._REACH * h
        tied = [np.any(np.diff(reference.x[np.abs(reference.x - x0) <= reach]) == 0.0)
                for x0 in grid]
        assume(0 < sum(tied) < len(grid))
        loss = LossKind(kind="quantile", tau=tau)
        bandwidth = BandwidthEstimate(value=h, method="fixed")
        try:
            curve = fit_curve(sample, FitSpec(loss=loss, bandwidth=bandwidth, grid_size=60))
        except SmoothingError:  # a gap in x: the error is the scalar path's
            assert_raises_local_fits_first_error(sample, loss, bandwidth, 60)
            return
        for x0, value in zip(curve.grid.tolist(), curve.values.tolist()):
            assert value == local_linear_fit(reference, x0, h, loss)[0], x0

    def test_raw_fixture_windows_with_tied_x_take_the_lock_step(self, marks_sample,
                                                                monkeypatch):
        # every window of the un-jittered marks holds a tied x; a point takes
        # the lock step by its window size alone, so local_linear_fit sees
        # only the points the lock step hands back
        raw = pair(marks_sample, "mathematics", "reading")
        calls = []
        scalar = smoothing.local_linear_fit
        monkeypatch.setattr(smoothing, "local_linear_fit",
                            lambda *a: calls.append(a[1]) or scalar(*a))
        h = median_adjust(dpi_bandwidth(raw))
        fit_curve(raw, FitSpec(loss=LossKind.median(), bandwidth=h, grid_size=200))
        assert len(calls) < 200

    @pytest.mark.parametrize("jitter_sd", [0.0, 1e-5])
    def test_fixture_points_left_nan_are_those_local_linear_fit_solves(self, marks_sample,
                                                                       monkeypatch, jitter_sd):
        # the six median curves of the fixture's loc-matrix: every window holds
        # under _SMALL_WINDOW rows, so every grid point takes the lock step, and
        # exactly the points it returns as nan reach local_linear_fit; how many
        # the raw marks hand back depends on rounding, so the counts are
        # compared with each other
        nan_points, calls = [], []
        lock_step, scalar = smoothing._lock_step, smoothing.local_linear_fit

        def counted_lock_step(*args):
            values = lock_step(*args)
            nan_points.append(int(np.isnan(values).sum()))
            return values

        monkeypatch.setattr(smoothing, "_lock_step", counted_lock_step)
        monkeypatch.setattr(smoothing, "local_linear_fit",
                            lambda *a: calls.append(a[1]) or scalar(*a))
        matrix = loc_matrix(marks_sample, FitSpec(loss=LossKind.median(), grid_size=1000),
                            jitter_sd=jitter_sd)
        assert not matrix.failures
        assert sum(nan_points) == len(calls)
        assert (len(calls) > 0) == (jitter_sd == 0.0), len(calls)

    @pytest.mark.parametrize("x_name,y_name", ORDERED_PAIRS)
    def test_raw_fixture_curves_take_values_of_optimal_lines(self, marks_sample, x_name,
                                                             y_name):
        # the lock step's values on tied x, checked against the brute-force
        # optimum instead of the scalar descent
        raw = pair(marks_sample, x_name, y_name)
        for tau in TAUS:
            h = median_adjust(dpi_bandwidth(raw), tau)
            loss = LossKind(kind="quantile", tau=tau)
            curve = fit_curve(raw, FitSpec(loss=loss, bandwidth=h, grid_size=60))
            for x0, value in zip(curve.grid.tolist(), curve.values.tolist()):
                assert_value_of_an_optimal_line(raw, x0, h.value, tau, value)

    def test_grid_of_several_blocks_equals_local_fit(self):
        rng = np.random.default_rng(9)
        x, y = random_tie_free_sample(rng, 50)
        sample = PairedSample(x=x, y=y)
        loss = LossKind.median()
        h = BandwidthEstimate(value=0.1, method="fixed")
        grid_size = 2 * smoothing._BLOCK + 3
        curve = fit_curve(sample, FitSpec(loss=loss, bandwidth=h, grid_size=grid_size))
        reference = sorted_by_x(sample)
        for x0, value in zip(curve.grid.tolist(), curve.values.tolist()):
            assert value == local_linear_fit(reference, x0, h.value, loss)[0]

    def test_lines_through_more_rows_are_finished_by_local_linear_fit(self, monkeypatch):
        rng = np.random.default_rng(8)
        x, y = random_tie_free_sample(rng, 40)
        sample = PairedSample(x=x, y=np.round(y * 10.0) / 10.0)
        calls = []
        scalar = smoothing.local_linear_fit
        monkeypatch.setattr(smoothing, "local_linear_fit",
                            lambda *a: calls.append(a[1]) or scalar(*a))
        loss = LossKind.median()
        h = BandwidthEstimate(value=0.15, method="fixed")
        curve = fit_curve(sample, FitSpec(loss=loss, bandwidth=h, grid_size=200))
        assert 0 < len(calls) < 100
        reference = sorted_by_x(sample)
        for x0, value in zip(curve.grid.tolist(), curve.values.tolist()):
            assert value == scalar(reference, x0, h.value, loss)[0]

    @pytest.mark.parametrize("loss", LOSSES)  # the mean's own check of its window too
    @pytest.mark.parametrize("x, grid_size, first", [
        # the last grid point sits on a lone row; the row below it is inside
        # the window (within _REACH) but beyond the weight floor
        (np.append(np.linspace(0.0, 1.0, 30), 1.734), 101, 100),
        # the same with that lone row doubled, on the scalar path
        (np.append(np.linspace(0.0, 1.0, 30), [1.734, 1.734]), 101, 100),
        # the middle grid point has two rows in its window and neither weighs
        (np.concatenate([np.linspace(0.0, 1.0, 30), np.linspace(2.47, 3.47, 30)]), 3, 1),
        # the middle grid point weighs two rows of one x 3e-162 away: the mean's
        # sums are subnormal, and its determinant would pass the test by rounding
        (np.array([-1.0, -0.99, 3e-162, 3e-162, 0.99, 1.0]), 3, 1),
    ])
    def test_window_of_fewer_than_two_weighted_x_raises_local_fits_error(self, x, grid_size,
                                                                         first, loss):
        h = 0.1  # the rows 7.34 to 7.35 bandwidths away weigh 0
        sample = PairedSample(x=x, y=np.sin(3.0 * x))
        i, message = assert_raises_local_fits_first_error(
            sample, loss, BandwidthEstimate(value=h, method="fixed"), grid_size)
        assert i == first
        assert "fewer than 2 distinct" in message
        x0 = np.linspace(x.min(), x.max(), grid_size)[i]
        assert np.sum(np.abs(x - x0) <= smoothing._REACH * h) >= 2

    def test_objective_that_overflows_raises_local_fits_error(self):
        # slopes of about 1e108 across a window 1e200 wide
        rng = np.random.default_rng(6)
        sample = PairedSample(x=rng.uniform(0.0, 1.0, 40) * 1e200,
                              y=rng.uniform(-1.0, 1.0, 40) * 1e308)
        # the start's least-squares sums overflow too, and numpy warns of it
        with np.errstate(over="ignore", invalid="ignore"):
            _, message = assert_raises_local_fits_first_error(
                sample, LossKind.median(), BandwidthEstimate(value=1e199, method="fixed"), 20)
        assert message == "check-loss objective overflows"


def _curve(grid, values, grid_size):
    return FittedCurve(grid=grid, values=values,
                       spec=FitSpec(loss=LossKind.quadratic(), grid_size=grid_size))


@pytest.mark.parametrize("build, message", [
    (lambda: LossKind(kind="quadratic", tau=0.5), "^quadratic loss takes no tau$"),
    (lambda: LossKind(kind="quantile"), r"^quantile loss needs tau in \(0, 1\)$"),
    (lambda: LossKind(kind="quantile", tau=1.0), r"^quantile loss needs tau in \(0, 1\)$"),
    (lambda: LossKind(kind="huber"), "^unknown loss kind 'huber'$"),
    (lambda: FitSpec(loss=LossKind.median(), grid_size=1), "^grid_size must be >= 2$"),
    (lambda: _curve([0, 1], [0], 2), "^grid and values must be 1-d and of equal length$"),
    (lambda: _curve([[0, 1]], [[0, 1]], 2), "^grid and values must be 1-d and of equal length$"),
    (lambda: _curve([0, 1, 2], [0, 0, 0], 2), "^grid length must equal spec.grid_size$"),
    (lambda: _curve([0, 1, 1], [0, 0, 0], 3), "^grid must be strictly increasing$"),
])
def test_constructors_reject_inconsistent_fields(build, message):
    with pytest.raises(ValueError, match=message):
        build()
