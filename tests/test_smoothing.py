import hashlib

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
    check_loss_objective,
    dpi_bandwidth,
    fit_curve,
    jitter,
    loc_matrix,
    local_linear_fit,
    median_adjust,
    pair,
    pair_seed,
    smoothing,
)

from oracles import (
    check_loss_lp_minimum,
    check_loss_minimum,
    check_loss_value,
    global_least_squares,
    kernel_weights,
    mean_kernel,
    random_tie_free_sample,
    weighted_quantile_row,
)
from reference import mean_curve, median_curve

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


class TestRotate:
    @staticmethod
    def formula_rotate(x, y, w, tau, k, guess, spread):
        # _rotate's formulas as written before its passes were cut: c = w |a|,
        # a masked dot in the cut and the check loss as a max of two lines
        a = x - x[k]
        dy = y - y[k]
        c = w * np.abs(a)
        total = float(c.sum())
        cut = tau * total + (1.0 - 2.0 * tau) * float(np.dot(c, a < 0.0))
        slopes = dy / a
        j = smoothing._select(slopes, c, cut, guess, spread / total)
        b1 = float(slopes[j])
        r = dy - b1 * a
        return int(j), b1, float(w @ np.maximum(tau * r, (tau - 1.0) * r)), r, a

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(64, 600),
        tied=st.booleans(),
        tau=st.sampled_from(TAUS),
        h=st.sampled_from((0.05, 0.2, 1.0)),
        where=st.floats(0.0, 1.0),
        spread=st.sampled_from((0.0, 1e-3, 1.0, 1e3)),
        data=st.data(),
    )
    def test_equals_the_formulas(self, seed, n, tied, tau, h, where, spread, data):
        # the windows local_linear_fit takes one point at a time: 64 rows or more
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, n)
        y = 0.3 + 0.5 * x + 0.1 * np.sin(8.0 * x) + rng.normal(0.0, 0.1, n)
        if tied:  # equal x, and equal slopes through the pivot
            x, y = np.round(x, 2), np.round(y, 1)
        w = smoothing._kernel_weights(x, where, h)
        x, y, w = x[w > 0.0], y[w > 0.0], w[w > 0.0]
        assume(len(x) >= smoothing._SMALL_WINDOW and np.ptp(x) > 0.0)
        k = data.draw(st.integers(0, len(x) - 1))
        guess = data.draw(st.floats(-3.0, 3.0))
        with np.errstate(divide="ignore", invalid="ignore"):  # a = 0 at the pivot's x
            j, b1, f, r, a = smoothing._rotate(x, y, w, tau, k, guess, spread)
            j0, b10, f0, r0, a0 = self.formula_rotate(x, y, w, tau, k, guess, spread)
        assert (j, b1, f) == (j0, b10, f0)
        assert np.array_equal(r, r0) and np.array_equal(a, a0)

    @pytest.mark.parametrize("x_scale,y_scale", [
        (1e307, 1e307),  # c sums to inf, and so does the weight of a < 0
        (1.0, 1e-310),  # subnormal residuals, whose halves round
    ])
    def test_equals_the_formulas_at_the_ends_of_the_float_range(self, x_scale, y_scale):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, 200) * x_scale
        y = rng.normal(0.0, 1.0, 200) * y_scale
        w = rng.uniform(0.01, 0.4, 200)
        for k in (0, 1, 2):
            with np.errstate(all="ignore"):
                got = smoothing._rotate(x, y, w, 0.5, k, 0.0, 1.0)
                want = self.formula_rotate(x, y, w, 0.5, k, 0.0, 1.0)
            assert got[:3] == want[:3] or np.isnan(got[2]) and np.isnan(want[2])
            assert np.array_equal(got[3], want[3]) and np.array_equal(got[4], want[4])


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
    # every caller, for either loss, takes oracles.mean_kernel's doubles: the
    # kernel and the per-point rows of local_linear_fit, the warm start and
    # the mean, the lock-step windows of both losses and check_loss_objective.
    # Against long double they rounded by at most 6.2e-15 relative on these
    # windows and the textbook exp(-u u / 2) / sqrt(2 pi) by 5.0e-15; the two
    # forms differed by at most 7.4e-15 and had the same zero sets (measured)

    @pytest.mark.parametrize("n", [52, 1_000, 25_000, 100_000])
    def test_equal_to_the_kernel_formula_on_windows(self, n):
        rng = np.random.default_rng(n)
        xs = np.sort(rng.uniform(0.0, 1.0, n))
        ys = rng.uniform(0.0, 1.0, n)
        for h in (0.002, 0.03, 0.2):
            for x0 in rng.uniform(0.0, 1.0, 5).tolist():
                lo, hi = np.searchsorted(xs, [x0 - smoothing._REACH * h,
                                              x0 + smoothing._REACH * h])
                window = xs[lo:hi]
                expected = mean_kernel(window, x0, h)
                textbook = kernel_weights(window, x0, h)
                np.testing.assert_array_equal(smoothing._kernel_weights(window, x0, h), expected)
                inside = np.abs(window - x0) <= smoothing._RADIUS * h
                if window.size:
                    w = smoothing._weighted_rows(window, ys[lo:hi], x0, h)[2]
                    np.testing.assert_array_equal(w, expected[inside])
                np.testing.assert_array_equal(expected == 0.0, textbook == 0.0)
                np.testing.assert_allclose(expected, textbook, rtol=1e-14, atol=0.0)

    def test_equal_to_the_kernel_formula_on_the_rows_of_a_lock_step_block(self):
        # the lock step weighs many windows at once, each row of a
        # (points x window) array against its own x0; both losses take their
        # windows' weights from _windows
        rng = np.random.default_rng(4)
        xs = np.sort(rng.uniform(0.0, 1.0, 52))
        x0 = rng.uniform(0.0, 1.0, 300)
        block = np.broadcast_to(xs, (300, 52))
        for row, point in zip(smoothing._kernel_weights(block, x0[:, None], 0.05), x0.tolist()):
            np.testing.assert_array_equal(row, mean_kernel(xs, point, 0.05))
        lo = np.searchsorted(xs, x0 - smoothing._REACH * 0.05)
        hi = np.searchsorted(xs, x0 + smoothing._REACH * 0.05, side="right")
        w = smoothing._windows(xs, rng.uniform(0.0, 1.0, 52), x0, lo, hi, 0.05)[2]
        for row, point, first, end in zip(w, x0.tolist(), lo.tolist(), hi.tolist()):
            np.testing.assert_array_equal(row[:end - first], mean_kernel(xs[first:end], point, 0.05))
            assert not row[end - first:].any()

    def test_check_loss_objective_takes_the_same_weights(self):
        rng = np.random.default_rng(8)
        x, y = random_tie_free_sample(rng, 200)
        sample = PairedSample(x=x, y=y)
        for x0, tau, b0, b1 in [(0.3, 0.5, 0.4, 0.2), (0.71, 0.1, 0.6, -1.0), (0.02, 0.9, 0.1, 3.0)]:
            r = y - b0 - b1 * (x - x0)
            expected = float(np.sum(mean_kernel(x, x0, 0.05) * r * (tau - (r < 0.0))))
            assert check_loss_objective(sample, x0, 0.05, tau, b0, b1) == expected

    @pytest.mark.parametrize("h", [1e-320, 1e-160, 1e160, 1e199])
    def test_bandwidths_beyond_the_squared_range_take_the_textbook_form(self, h):
        # there h * h is 0 or subnormal, or d * d overflows at the radius
        assert not smoothing._SQUARED_OFFSETS[0] < h < smoothing._SQUARED_OFFSETS[1]
        x = np.linspace(-8.0, 8.0, 161) * h
        np.testing.assert_array_equal(smoothing._kernel_weights(x, 0.0, h),
                                      kernel_weights(x, 0.0, h))


def curve_or_error(sample: PairedSample, spec: FitSpec) -> bytes | str:
    """A curve's values as bytes, or the message of the error it raises."""
    try:
        return fit_curve(sample, spec).values.tobytes()
    except SmoothingError as exc:
        return str(exc)


def assert_curve_is_local_fit(pr: PairedSample, loss: LossKind, h: BandwidthEstimate,
                              reference: PairedSample | None = None) -> None:
    # the reference defaults to the sample itself
    reference = pr if reference is None else reference
    curve = fit_curve(pr, FitSpec(loss=loss, bandwidth=h, grid_size=200))
    for i in range(0, 200, 3):
        b0, _ = local_linear_fit(reference, float(curve.grid[i]), h.value, loss)
        assert curve.values[i] == b0, (loss, i)


class TestFitCurve:
    # fit_curve fits each grid point on its kernel window of the sample's
    # sorted_xy; the curve is local_linear_fit on the sample, bit for bit,
    # tied data included

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
        # the marks are not sorted by x, and local_linear_fit on their rows
        # reversed takes the same sorted rows as the curve
        jittered = jitter(pair(marks_sample, x_name, y_name), 1e-5, 11)
        assert len(np.unique(jittered.x)) == jittered.n
        assert np.any(np.diff(jittered.x) < 0.0)
        h = median_adjust(dpi_bandwidth(jittered))
        reversed_rows = PairedSample(x=jittered.x[::-1], y=jittered.y[::-1])
        assert_curve_is_local_fit(jittered, LossKind.median(), h, reference=reversed_rows)

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
        permuted = PairedSample(x=x[order], y=y[order])
        moved = fit_curve(permuted, spec)
        np.testing.assert_array_equal(moved.grid, base.grid)
        np.testing.assert_array_equal(moved.values, base.values)
        fits = [local_linear_fit(permuted, x0, 0.08, loss)[0] for x0 in base.grid.tolist()]
        np.testing.assert_array_equal(fits, base.values)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(8, 200),
        seed=st.integers(0, 2**32 - 1),
        x_levels=st.sampled_from((5, 20, 50)),
        y_levels=st.sampled_from((10, 30)),
        h=st.sampled_from((0.05, 0.15, 0.3)),
    )
    @example(n=60, seed=0, x_levels=20, y_levels=30, h=0.15)
    def test_row_permutation_gives_the_same_curve_on_tied_data(self, n, seed, x_levels,
                                                               y_levels, h):
        # x and y on lattices, as marks are, tie in both coordinates; the
        # sample sorted by (x, y) is a function of the multiset of rows, and so
        # is each curve, or the error it raises, and each local fit
        rng = np.random.default_rng(seed)
        x = np.round(rng.uniform(0.0, 1.0, n) * x_levels) / x_levels
        y = np.round(np.clip(0.3 + 0.5 * x + rng.normal(0.0, 0.2, n), 0.0, 1.0) * y_levels)
        y /= y_levels
        assume(x.min() < x.max())
        order = rng.permutation(n)
        permuted = PairedSample(x=x[order], y=y[order])
        for loss in LOSSES:
            spec = FitSpec(loss=loss, bandwidth=BandwidthEstimate(value=h, method="fixed"),
                           grid_size=100)
            base = curve_or_error(PairedSample(x=x, y=y), spec)
            assert curve_or_error(permuted, spec) == base, loss
            if isinstance(base, bytes):
                grid = np.linspace(x.min(), x.max(), 100).tolist()
                fits = [local_linear_fit(permuted, x0, h, loss)[0] for x0 in grid]
                assert np.array(fits).tobytes() == base, loss

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
        # numpy's default sort is not stable, so the ties are sorted by (x, y).
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

    @pytest.mark.parametrize("loss", LOSSES)
    def test_x_range_of_a_few_floats_raises_before_any_fit(self, loss, monkeypatch):
        # x spans 3e-16 above 0.5, about three floats, too few for a grid of
        # 1000 strictly increasing points; the error names the range and the
        # grid size, and no fit is attempted first
        x = 0.5 + np.linspace(0.0, 3e-16, 30)
        sample = PairedSample(x=x, y=np.linspace(0.0, 1.0, 30))
        spec = FitSpec(loss=loss, bandwidth=BandwidthEstimate(value=1e-16, method="fixed"),
                       grid_size=1000)

        def no_fit(*args):
            raise AssertionError("a grid point was fitted")

        for name in ("_windows", "_sorted_fit", "_warm_fit", "local_linear_fit"):
            monkeypatch.setattr(smoothing, name, no_fit)
        with pytest.raises(SmoothingError) as info:
            fit_curve(sample, spec)
        assert str(info.value) == ("x spans too few floats for 1000 distinct grid points: "
                                   f"{x[0]} to {x[-1]}")

    def test_weighted_rows_of_each_window_are_those_within_the_radius(self, monkeypatch):
        # a row carries weight at x0 when |x - x0| <= _RADIUS h; rows are
        # placed on the last float inside that bound and the first outside it,
        # on both sides of three grid points, and the per-point mean, the warm
        # median and the lock step's windows see exactly the rows inside
        h = 0.03
        radius = smoothing._RADIUS * h
        rng = np.random.default_rng(2)
        grid = np.linspace(0.0, 1.0, 21)
        edges = [radius_edges(x0, radius) for x0 in grid[[5, 10, 15]].tolist()]
        x = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, 400), np.ravel(edges)]))
        y = np.sin(5.0 * x) + rng.normal(0.0, 0.1, len(x))
        sample = PairedSample(x=x, y=y)
        assert window_sizes(sample, grid, h).min() >= smoothing._SMALL_WINDOW
        inside = {x0: np.abs(x - x0) <= radius for x0 in grid.tolist()}
        for x0, (left_in, left_out, right_in, right_out) in zip(grid[[5, 10, 15]].tolist(), edges):
            rows = x[inside[x0]]
            assert (rows[0], rows[-1]) == (left_in, right_in)
            assert left_out < rows[0] and right_out > rows[-1]
        offsets, warm_rows = {}, {}
        solve, warm_fit = smoothing._solve_wls, smoothing._warm_fit

        def spy_solve(d, y, w, x0, *dd):
            offsets[x0] = d.copy()
            return solve(d, y, w, x0, *dd)

        def spy_warm_fit(x, y, w, x0, *rest):
            warm_rows[x0] = x
            return warm_fit(x, y, w, x0, *rest)

        monkeypatch.setattr(smoothing, "_solve_wls", spy_solve)
        monkeypatch.setattr(smoothing, "_warm_fit", spy_warm_fit)
        bandwidth = BandwidthEstimate(value=h, method="fixed")
        fit_curve(sample, FitSpec(loss=LossKind.quadratic(), bandwidth=bandwidth, grid_size=21))
        assert set(offsets) == set(inside)
        for x0, rows in inside.items():
            np.testing.assert_array_equal(offsets[x0], (x - x0)[rows])
        fit_curve(sample, FitSpec(loss=LossKind.median(), bandwidth=bandwidth, grid_size=21))
        assert set(warm_rows) == set(inside)
        for x0, rows in inside.items():
            np.testing.assert_array_equal(warm_rows[x0], x[rows])
        lo = np.searchsorted(x, grid - smoothing._REACH * h)
        hi = np.searchsorted(x, grid + smoothing._REACH * h, side="right")
        xw, _, w = smoothing._windows(x, y, grid, lo, hi, h)
        in_window = np.arange(xw.shape[1]) < (hi - lo)[:, None]
        np.testing.assert_array_equal(w != 0.0, in_window & (np.abs(xw - grid[:, None]) <= radius))

    @pytest.mark.parametrize("loss", LOSSES)
    def test_local_linear_fit_takes_the_weighted_rows_of_the_sorted_sample(self, loss):
        # in random row order the rows within the radius are not one run of
        # the input rows, but they are one run of the sample's sorted_xy; the
        # fit takes that run, so it equals the fit of a sample of those rows
        # alone, which sorts them the same way
        rng = np.random.default_rng(9)
        x, y = random_tie_free_sample(rng, 200)
        sample = PairedSample(x=x, y=y)
        h = 0.05
        for x0 in (0.1, 0.5, 0.93):
            rows = np.flatnonzero(np.abs(x - x0) <= smoothing._RADIUS * h)
            assert rows[-1] - rows[0] + 1 > len(rows) >= 20
            alone = PairedSample(x=x[rows], y=y[rows])
            assert local_linear_fit(sample, x0, h, loss) == local_linear_fit(alone, x0, h, loss)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(100, 400),
        seed=st.integers(0, 2**32 - 1),
        h=st.sampled_from((0.1, 0.2, 0.5)),
        rounded=st.booleans(),
    )
    def test_large_mean_windows_equal_local_fit_at_every_grid_point(self, n, seed, h, rounded):
        # windows of _SMALL_WINDOW rows or more take the per-point mean, whose
        # weights and least-squares sums share the squared offsets; x
        # rounded to 1/50 has ties, which are sorted by (x, y)
        rng = np.random.default_rng(seed)
        x, y = random_tie_free_sample(rng, n)
        if rounded:
            x = np.round(x * 50.0) / 50.0
        sample = PairedSample(x=x, y=y)
        grid = np.linspace(x.min(), x.max(), 60)
        assume(window_sizes(sample, grid, h).min() >= smoothing._SMALL_WINDOW)
        loss = LossKind.quadratic()
        curve = fit_curve(sample, FitSpec(loss=loss, bandwidth=BandwidthEstimate(
            value=h, method="fixed"), grid_size=60))
        for x0, value in zip(curve.grid.tolist(), curve.values.tolist()):
            assert value == local_linear_fit(sample, x0, h, loss)[0], x0

    # sha256 (first 16 hex digits) of each curve's values, or its error, at
    # bandwidths outside smoothing._SQUARED_OFFSETS, as they were before the
    # mean took its weights from the squared offsets
    @pytest.mark.parametrize("h, mean, median", [
        (1e-320, "grid point 0: singular weighted design at x0 = 2.8e-322",
         "grid point 0: check-loss objective overflows"),
        (1e-160, "b2a54cb5b4b94bf1", "7d6265f03a523124"),
        (1e160, "grid point 0: singular weighted design at x0 = 2.82703218662006e+158",
         "bfd8e3e97cfe3606"),
        (1e199, "grid point 0: singular weighted design at x0 = 2.8270321866200603e+197",
         "546b7fef478fb9cc"),
    ])
    def test_extreme_bandwidths_keep_their_curves(self, h, mean, median):
        rng = np.random.default_rng(12)
        sample = PairedSample(x=rng.uniform(0.0, 1.0, 40) * (10.0 * h),
                              y=rng.uniform(0.0, 1.0, 40))
        for loss, expected in zip(LOSSES, (mean, median)):
            spec = FitSpec(loss=loss, bandwidth=BandwidthEstimate(value=h, method="fixed"),
                           grid_size=20)
            try:
                # d * d overflows in the least-squares sums at h = 1e160 and up
                with np.errstate(over="ignore", invalid="ignore"):
                    values = fit_curve(sample, spec).values
            except SmoothingError as exc:
                assert str(exc) == expected
            else:
                assert hashlib.sha256(values.tobytes()).hexdigest()[:16] == expected

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

    @pytest.mark.parametrize("rounded", [False, True])
    def test_large_median_windows_are_views_of_the_sorted_sample(self, monkeypatch, rounded):
        # the sorted arrays are read-only, so the rows that each descent takes,
        # warm-started or in local_linear_fit's sample, share them instead of
        # copying the window's rows at every grid point; x rounded to 1/1000
        # has ties, on which every point takes local_linear_fit
        rng = np.random.default_rng(4)
        x, y = random_tie_free_sample(rng, 300)
        if rounded:
            x = np.round(x, 3)
        descents, windows = [], []
        line, scalar = smoothing._check_loss_line, smoothing.local_linear_fit
        monkeypatch.setattr(smoothing, "_check_loss_line",
                            lambda *a: descents.append(a[:2]) or line(*a))
        monkeypatch.setattr(smoothing, "local_linear_fit",
                            lambda *a: windows.append(a[0]) or scalar(*a))
        h = BandwidthEstimate(value=0.05, method="fixed")  # every window is a large one
        fit_curve(PairedSample(x=x, y=y), FitSpec(loss=LossKind.median(), bandwidth=h,
                                                  grid_size=30))
        assert len(descents) >= 30 and len({id(wx) for wx, _ in descents}) > 1
        assert (len(windows) == 30) == rounded and 0 < len(windows) <= 30
        sorted_x, sorted_y = descents[0][0].base, descents[0][1].base
        assert sorted_x is not None and sorted_y is not None and sorted_x is not x
        assert all(wx.base is sorted_x and wy.base is sorted_y for wx, wy in descents)
        assert all(w.x.base is sorted_x and w.y.base is sorted_y for w in windows)


def radius_edges(x0: float, radius: float) -> tuple[float, float, float, float]:
    """The floats at the radius of x0: the least x with x - x0 >= -radius, the
    float below it, the greatest x with x - x0 <= radius, the float above it."""
    def last_inside(start: float, inside, outward: float) -> float:
        x = start
        while not inside(x):
            x = np.nextafter(x, -outward)
        while inside(np.nextafter(x, outward)):
            x = np.nextafter(x, outward)
        return float(x)

    left = last_inside(x0 - radius, lambda v: v - x0 >= -radius, -np.inf)
    right = last_inside(x0 + radius, lambda v: v - x0 <= radius, np.inf)
    return left, float(np.nextafter(left, -np.inf)), right, float(np.nextafter(right, np.inf))


def assert_raises_local_fits_first_error(sample: PairedSample, loss: LossKind,
                                         h: BandwidthEstimate, grid_size: int) -> tuple[int, str]:
    """fit_curve raises local_linear_fit's error at its first failing grid point."""
    with pytest.raises(SmoothingError) as info:
        fit_curve(sample, FitSpec(loss=loss, bandwidth=h, grid_size=grid_size))
    for i, x0 in enumerate(np.linspace(sample.x.min(), sample.x.max(), grid_size).tolist()):
        try:
            local_linear_fit(sample, x0, h.value, loss)
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
    # local_linear_fit on the sample sorted by (x, y), bit for bit

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
        for x0, value in zip(curve.grid.tolist(), curve.values.tolist()):
            assert value == local_linear_fit(sample, x0, h, loss)[0], x0

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
        xs = np.sort(sample.x)
        grid = np.linspace(xs[0], xs[-1], 60)
        reach = smoothing._REACH * h
        tied = [np.any(np.diff(xs[np.abs(xs - x0) <= reach]) == 0.0) for x0 in grid]
        assume(0 < sum(tied) < len(grid))
        loss = LossKind(kind="quantile", tau=tau)
        bandwidth = BandwidthEstimate(value=h, method="fixed")
        try:
            curve = fit_curve(sample, FitSpec(loss=loss, bandwidth=bandwidth, grid_size=60))
        except SmoothingError:  # a gap in x: the error is the scalar path's
            assert_raises_local_fits_first_error(sample, loss, bandwidth, 60)
            return
        for x0, value in zip(curve.grid.tolist(), curve.values.tolist()):
            assert value == local_linear_fit(sample, x0, h, loss)[0], x0

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
        # exactly the points it returns as nan reach the per-point path, one
        # descent each.  A window that small takes no warm start, so each of
        # them is a local_linear_fit call; how many the raw marks hand back
        # depends on rounding, so the counts are compared with each other
        nan_points, calls, descents, warm = [], [], [], []
        lock_step, scalar = smoothing._lock_step, smoothing.local_linear_fit
        line, warm_fit = smoothing._check_loss_line, smoothing._warm_fit

        def counted_lock_step(*args):
            values, lines = lock_step(*args)
            nan_points.append(int(np.isnan(values).sum()))
            return values, lines

        monkeypatch.setattr(smoothing, "_lock_step", counted_lock_step)
        monkeypatch.setattr(smoothing, "local_linear_fit",
                            lambda *a: calls.append(a[1]) or scalar(*a))
        monkeypatch.setattr(smoothing, "_check_loss_line",
                            lambda *a: descents.append(a[4]) or line(*a))
        monkeypatch.setattr(smoothing, "_warm_fit", lambda *a: warm.append(a[3]) or warm_fit(*a))
        matrix = loc_matrix(marks_sample, FitSpec(loss=LossKind.median(), grid_size=1000),
                            jitter_sd=jitter_sd)
        assert not matrix.failures
        assert sum(nan_points) == len(descents) == len(calls)
        assert warm == []
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
        for x0, value in zip(curve.grid.tolist(), curve.values.tolist()):
            assert value == local_linear_fit(sample, x0, h.value, loss)[0]

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(10, 60),
        seed=st.integers(0, 2**32 - 1),
        tau=st.sampled_from((0.25, 0.5, 0.8)),
        h=st.sampled_from((0.05, 0.1, 0.3)),
        kind=st.sampled_from(("tie-free", "y rounded", "tied x")),
    )
    def test_certified_points_equal_local_fit(self, n, seed, tau, h, kind):
        # at grid 200 the lock step solves every _STRIDE-th point first, and a
        # point that the line of a solved neighbour certifies takes that line's
        # value; y rounded to multiples of 1/20 and tied x put more than two
        # rows on some lines and make some rotations flat
        rng = np.random.default_rng(seed)
        x, y = random_tie_free_sample(rng, n)
        if kind == "y rounded":
            y = np.round(y * 20.0) / 20.0
        elif kind == "tied x":
            dup = rng.choice(n, 3, replace=False)
            x, y = np.append(x, x[dup]), np.append(y, rng.uniform(0.0, 1.0, 3))
        sample = PairedSample(x=x, y=y)
        certify, certified = smoothing._certify, []

        def recorded(x, y, w, x0, *rest):
            values = certify(x, y, w, x0, *rest)
            done = ~np.isnan(values)
            certified.extend(zip(x0[done].tolist(), values[done].tolist()))
            return values

        loss = LossKind(kind="quantile", tau=tau)
        bandwidth = BandwidthEstimate(value=h, method="fixed")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(smoothing, "_certify", recorded)
            try:
                fit_curve(sample, FitSpec(loss=loss, bandwidth=bandwidth, grid_size=200))
            except SmoothingError:  # a gap in x, found after the lock step's passes
                pass
        # rarely, every line the lock step finds holds a third row (y rounded
        # and one window of all rows), and there is no line to certify with
        assume(certified)
        for x0, value in certified:
            assert value == local_linear_fit(sample, x0, h, loss)[0], x0

    @staticmethod
    def certify_one(x, y, tau, h, x0, line):
        """_certify at x0 against the line through the sorted rows ``line``
        of a window that holds the whole sample, and local_linear_fit there."""
        x, y, at = np.array(x), np.array(y), np.array([x0])
        window = smoothing._windows(x, y, at, np.array([0]), np.array([len(x)]), h)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            value = smoothing._certify(*window, at, tau, np.array([line]))[0]
        loss = LossKind(kind="quantile", tau=tau)
        return value, local_linear_fit(PairedSample(x=x, y=y), x0, h, loss)[0]

    def test_lock_step_line_certifies_its_own_point(self):
        rng = np.random.default_rng(4)
        x, y = random_tie_free_sample(rng, 30)
        sample = PairedSample(x=x, y=y)
        x0 = np.linspace(0.1, 0.9, 9)
        lo, hi = np.zeros(9, dtype=int), np.full(9, 30)
        window = smoothing._windows(*sample.sorted_xy, x0, lo, hi, 0.1)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            values, lines = smoothing._lock_step(*window, x0, 0.5)
            certified = smoothing._certify(*window, x0, 0.5, lines)
        assert np.array_equal(certified, values)
        for x0_i, value in zip(x0.tolist(), values.tolist()):
            assert value == local_linear_fit(sample, x0_i, 0.1, LossKind.median())[0]

    def test_line_through_a_third_weighted_row_is_not_certified(self):
        # rows 1-3 lie on y = 0.9 - 0.9 x, which is the optimal line at
        # x0 = 0.9; local_linear_fit defines it by another pair of those
        # rows, whose slope and anchor give a value 6e-17 away
        x = [-0.3, 0.4, 0.7, 0.9]
        y = [-0.5, *(0.9 + -0.9 * np.array(x[1:]))]
        value, expected = self.certify_one(x, y, 0.25, 0.5, 0.9, (1, 2))
        assert np.isnan(value)
        assert expected == 0.08999999999999997

    def test_line_with_a_flat_rotation_is_not_certified(self):
        # at tau = 1/2 the rotation about row 2 towards row 1, which shares
        # row 0's x and weight, has a rate of exactly 0, rounded to 1.4e-17:
        # the line through rows 0 and 2 is optimal, but so are others, and
        # local_linear_fit ends on one of them, whose value is 0.507, not 0.45
        x = [0.0, 0.0, 0.7, 0.7, 0.7]
        y = [0.1, 0.3, 0.59, 0.59 + 0.5, 0.0]
        value, expected = self.certify_one(x, y, 0.5, 0.5, 0.5, (0, 2))
        assert np.isnan(value)
        assert expected == pytest.approx(0.5071428571428571, abs=1e-15)

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
        for x0, value in zip(curve.grid.tolist(), curve.values.tolist()):
            assert value == scalar(sample, x0, h.value, loss)[0]

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


def synthetic_pair(n: int, seed: int) -> PairedSample:
    # the benchmark's pair, jittered as loc_matrix jitters: tie-free x
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    y = np.clip(0.3 + 0.5 * x + 0.1 * np.sin(8.0 * x) + rng.normal(0.0, 0.1, n), 0.0, 1.0)
    return jitter(PairedSample(x=x, y=y), 1e-5, seed)


def window_sizes(sample: PairedSample, grid: np.ndarray, h: float) -> np.ndarray:
    xs = np.sort(sample.x)
    reach = smoothing._REACH * h
    return np.searchsorted(xs, grid + reach, side="right") - np.searchsorted(xs, grid - reach)


class TestWarmStart:
    # on tie-free x, a grid point whose window holds _SMALL_WINDOW rows or
    # more starts its descent from the line of the grid point before it, and
    # keeps the result only where _certify's rule proves it the only optimal
    # line; the curve is still local_linear_fit on the sample sorted by (x, y)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(100, 400),
        seed=st.integers(0, 2**32 - 1),
        tau=st.sampled_from(TAUS),
        h=st.sampled_from((0.1, 0.2, 0.5)),
        kind=st.sampled_from(("tie-free", "y rounded", "x rounded")),
    )
    def test_equals_local_fit_at_every_grid_point(self, n, seed, tau, h, kind):
        # y rounded to multiples of 1/20 puts a third weighted row on some
        # optimal lines, which the warm start leaves to local_linear_fit; x
        # rounded to 1/50 has ties, on which every point takes local_linear_fit
        rng = np.random.default_rng(seed)
        x, y = random_tie_free_sample(rng, n)
        if kind == "y rounded":
            y = np.round(y * 20.0) / 20.0
        elif kind == "x rounded":
            x = np.round(x * 50.0) / 50.0
        sample = PairedSample(x=x, y=y)
        grid = np.linspace(x.min(), x.max(), 60)
        assume(window_sizes(sample, grid, h).min() >= smoothing._SMALL_WINDOW)
        loss = LossKind(kind="quantile", tau=tau)
        curve = fit_curve(sample, FitSpec(loss=loss, bandwidth=BandwidthEstimate(
            value=h, method="fixed"), grid_size=60))
        for x0, value in zip(curve.grid.tolist(), curve.values.tolist()):
            assert value == local_linear_fit(sample, x0, h, loss)[0], x0

    def test_off_optimum_local_linear_fit_reaches_every_value(self, monkeypatch):
        # perfbench's median check moves local_linear_fit's intercept off the
        # optimum and expects every sampled value of the curve to move with it:
        # a line through no observation seeds no warm start, so every grid
        # point after a cold one is cold too
        sample = synthetic_pair(1000, 3)
        h = median_adjust(dpi_bandwidth(sample))
        spec = FitSpec(loss=LossKind.median(), bandwidth=h, grid_size=100)
        assert window_sizes(sample, np.linspace(sample.x.min(), sample.x.max(), 100),
                            h.value).min() >= smoothing._SMALL_WINDOW
        curve = fit_curve(sample, spec)
        scalar = smoothing.local_linear_fit

        def moved(window, x0, bandwidth, loss):
            b0, b1 = scalar(window, x0, bandwidth, loss)
            return b0 + 0.05, b1

        monkeypatch.setattr(smoothing, "local_linear_fit", moved)
        shifted = fit_curve(sample, spec)
        np.testing.assert_array_equal(shifted.values, curve.values + 0.05)

    def test_window_of_more_than_20000_rows_equals_local_fit(self, monkeypatch):
        # a rate summed over this many rows can round by more than _ON_LINE
        # times the total weight and span, so _rate_margin grows with the count
        sample = synthetic_pair(40_000, 5)
        h = 0.075
        grid = np.linspace(sample.x.min(), sample.x.max(), 60)
        sizes = window_sizes(sample, grid, h)
        assert sizes.min() > 20_000
        assert smoothing._rate_margin(1.0, 1.0, int(sizes.min())) > smoothing._ON_LINE
        calls = []
        scalar = smoothing.local_linear_fit
        monkeypatch.setattr(smoothing, "local_linear_fit",
                            lambda *a: calls.append(a[1]) or scalar(*a))
        loss = LossKind.median()
        curve = fit_curve(sample, FitSpec(loss=loss, bandwidth=BandwidthEstimate(
            value=h, method="fixed"), grid_size=60))
        assert 1 <= len(calls) < 10  # the first grid point has no line to start from
        for x0, value in zip(curve.grid.tolist(), curve.values.tolist()):
            assert value == scalar(sample, x0, h, loss)[0], x0

    def test_rate_margin_grows_with_the_count_above_1024_rows(self):
        assert smoothing._rate_margin(3.0, 0.5, 1024) == smoothing._ON_LINE * 3.0 * 0.5
        assert smoothing._rate_margin(3.0, 0.5, 63) == smoothing._ON_LINE * 3.0 * 0.5
        assert smoothing._rate_margin(3.0, 0.5, 4096) == 4 * smoothing._ON_LINE * 3.0 * 0.5

    @staticmethod
    def formula_rates(w, tau, a, r, on, rows):
        # _line_rates as written before its cost was cut
        g = np.where(on, 0.0, w * np.where(r > 0.0, tau, tau - 1.0))
        g0 = g.sum(-1, keepdims=True)
        g1 = np.matmul(g[..., None, :], a[..., :, None])[..., 0]
        ai, wi = a[rows], w[rows]
        cw = np.cumsum(wi, axis=-1)
        cwa = np.cumsum(wi * ai, axis=-1)
        left = ai * cw - cwa
        right = (cwa[..., -1:] - cwa) - ai * (cw[..., -1:] - cw)
        pull = g1 - ai * g0
        return np.minimum((1.0 - tau) * right + tau * left - pull,
                          tau * right + (1.0 - tau) * left + pull)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        tau=st.sampled_from((*TAUS, 0.25)),
        points=st.sampled_from((None, 1, 7)),
        odd=st.sampled_from(("none", "nan", "inf")),
    )
    def test_line_rates_equal_the_formulas(self, seed, n, tau, points, odd):
        # one line (points None: 1-d arrays, with one to 20 rows on it, in
        # Python floats up to smoothing._FLOAT_ROWS) or one line per row of
        # (points x window) arrays with two rows each, as _certify passes
        # them; residuals that are nan or +-inf only choose a side, and the
        # rates stay finite
        rng = np.random.default_rng(seed)
        shape = (n,) if points is None else (points, n)
        a = np.sort(rng.normal(0.0, 1.0, shape) * 10.0 ** rng.uniform(-3.0, 3.0), axis=-1)
        w = smoothing._kernel_weights(rng.uniform(-4.0, 4.0, shape), 0.0, 1.0)
        r = rng.normal(0.0, 1.0, shape)
        r[rng.uniform(0.0, 1.0, shape) < 0.1] = 0.0
        if odd != "none":
            r[rng.uniform(0.0, 1.0, shape) < 0.2] = np.nan if odd == "nan" else np.inf
            r[rng.uniform(0.0, 1.0, shape) < 0.1] = -np.inf
        if points is None:
            rows = np.sort(rng.choice(n, min(n, int(rng.integers(1, 21))), replace=False))
            on = np.zeros(n, dtype=bool)
            on[rows] = True
        else:
            assume(n >= 2)
            lines = np.sort(np.array([rng.choice(n, 2, replace=False) for _ in range(points)]),
                            axis=1)
            on = rng.uniform(0.0, 1.0, shape) < 0.05
            on[np.arange(points)[:, None], lines] = True
            rows = (np.arange(points)[:, None], lines)
        got = smoothing._line_rates(w, tau, a, r, on, rows)
        want = self.formula_rates(w, tau, a, r, on, rows)
        assert got.shape == want.shape and np.isfinite(want).all()
        assert (got == want).all()


class TestMeanAgainstReference:
    # tests/reference.py's mean curve: weighted lstsq on the full sample with
    # the textbook kernel at each grid point, against the closed form on the
    # squared offsets

    def test_fixture_mean_curves_equal_weighted_least_squares(self, marks_sample):
        # the six pairs jittered as loc-matrix jitters them (seed 0) and raw,
        # at grid 60 and 100: relative gaps measured at most 1.7e-15 (2.0e-15
        # with the textbook kernel's weights)
        columns = marks_sample.column_names
        for i, x_name in enumerate(columns):
            for j, y_name in enumerate(columns):
                if i == j:
                    continue
                raw = pair(marks_sample, x_name, y_name)
                for sample in (raw, jitter(raw, 1e-5, pair_seed(0, i, j))):
                    h = dpi_bandwidth(sample)
                    for grid in (60, 100):
                        assert_mean_curve_is_least_squares(sample, h, grid, 4e-15)

    @pytest.mark.parametrize("n", [1_000, 10_000])
    @pytest.mark.parametrize("grid", [60, 100])
    def test_synthetic_mean_curves_equal_weighted_least_squares(self, n, grid):
        # windows of hundreds to thousands of rows, all on the per-point path:
        # relative gaps measured at most 1.6e-15 over seeds 0-2
        sample = synthetic_pair(n, 0)
        assert_mean_curve_is_least_squares(sample, dpi_bandwidth(sample), grid, 4e-15)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(4, 300),
        seed=st.integers(0, 2**32 - 1),
        h=st.sampled_from((0.02, 0.05, 0.1, 0.3)),
        rounded=st.booleans(),
    )
    def test_mean_curve_equals_weighted_least_squares_on_random_samples(self, n, seed, h,
                                                                        rounded):
        # lock-step and per-point windows, x rounded to 1/20 for ties.  A
        # 2 x 2 solve rounds by about eps times the condition s0 s2 / det of
        # its sums; over 600 random samples the gap was at most 5.5 eps times
        # that (with y in [0, 1]), and the bound is 32
        rng = np.random.default_rng(seed)
        x, y = random_tie_free_sample(rng, n)
        if rounded:
            x = np.round(x * 20.0) / 20.0
        assume(x.min() < x.max())
        sample = PairedSample(x=x, y=y)
        try:
            curve = fit_curve(sample, FitSpec(loss=LossKind.quadratic(), bandwidth=(
                BandwidthEstimate(value=h, method="fixed")), grid_size=60))
        except SmoothingError:
            assume(False)
        reference = mean_curve(x, y, curve.grid, h)
        for x0, value, expected in zip(curve.grid.tolist(), curve.values.tolist(),
                                       reference.tolist()):
            w = kernel_weights(x, x0, h)
            d = x - x0
            s0, s1, s2 = w.sum(), w @ d, w @ (d * d)
            condition = s0 * s2 / (s0 * s2 - s1 * s1)
            assert abs(value - expected) <= 32 * np.finfo(float).eps * condition, x0


def assert_mean_curve_is_least_squares(sample: PairedSample, h: BandwidthEstimate, grid: int,
                                       relative: float) -> None:
    curve = fit_curve(sample, FitSpec(loss=LossKind.quadratic(), bandwidth=h, grid_size=grid))
    reference = mean_curve(sample.x, sample.y, curve.grid, h.value)
    np.testing.assert_allclose(curve.values, reference, rtol=relative, atol=0.0)


class TestMedianAgainstReference:
    def test_fixture_median_curves_reach_the_linear_programming_optimum(self, marks_sample):
        # the six jittered median curves of loc-matrix (seed 0) at grid 60,
        # against tests/reference.py's linprog line at each grid point: the
        # objective at the curve's value with the reference slope equals the
        # reference optimum.  Relative gaps measured -1.4e-15 to 8.4e-15, and
        # the values were within 1.2e-16 of the reference intercepts.
        columns = marks_sample.column_names
        for i, x_name in enumerate(columns):
            for j, y_name in enumerate(columns):
                if i == j:
                    continue
                sample = jitter(pair(marks_sample, x_name, y_name), 1e-5, pair_seed(0, i, j))
                h = median_adjust(dpi_bandwidth(sample))
                curve = fit_curve(sample, FitSpec(loss=LossKind.median(), bandwidth=h,
                                                  grid_size=60))
                intercepts, slopes = median_curve(sample.x, sample.y, curve.grid, h.value)
                for x0, value, b0, b1 in zip(curve.grid.tolist(), curve.values.tolist(),
                                             intercepts.tolist(), slopes.tolist()):
                    optimum = check_loss_objective(sample, x0, h.value, 0.5, b0, b1)
                    fitted = check_loss_objective(sample, x0, h.value, 0.5, value, b1)
                    assert abs(fitted - optimum) <= 1e-13 * optimum, (x_name, y_name, x0)

    def test_raw_fixture_median_curves_reach_the_linear_programming_optimum(self, marks_sample):
        # the six median curves of loc-matrix with jitter_sd = 0 at grid 60.
        # On the tied marks the optimum need not be unique, so objectives are
        # compared, not values: at each grid point the curve takes the value
        # of local_linear_fit's own line, whose objective equals that at
        # tests/reference.py's linprog line.
        # Relative gaps measured -3.5e-15 to 5.8e-16
        columns = marks_sample.column_names
        loss = LossKind.median()
        for x_name in columns:
            for y_name in columns:
                if x_name == y_name:
                    continue
                raw = pair(marks_sample, x_name, y_name)
                h = median_adjust(dpi_bandwidth(raw))
                curve = fit_curve(raw, FitSpec(loss=loss, bandwidth=h, grid_size=60))
                intercepts, slopes = median_curve(raw.x, raw.y, curve.grid, h.value)
                for x0, value, b0, b1 in zip(curve.grid.tolist(), curve.values.tolist(),
                                             intercepts.tolist(), slopes.tolist()):
                    line = local_linear_fit(raw, x0, h.value, loss)
                    assert value == line[0], (x_name, y_name, x0)
                    optimum = check_loss_objective(raw, x0, h.value, 0.5, b0, b1)
                    fitted = check_loss_objective(raw, x0, h.value, 0.5, *line)
                    assert abs(fitted - optimum) <= 1e-13 * optimum, (x_name, y_name, x0)

    def test_large_window_median_curve_reaches_the_linear_programming_optimum(self):
        # the benchmark's pair at n = 1000 has windows of 103 rows and more, so
        # every grid point but the first starts from its neighbour's line.
        # Relative gaps measured -3.4e-16 to 4.3e-16, and the values were within
        # 1.2e-16 of the reference intercepts
        sample = synthetic_pair(1000, 2)
        h = median_adjust(dpi_bandwidth(sample))
        curve = fit_curve(sample, FitSpec(loss=LossKind.median(), bandwidth=h, grid_size=40))
        assert window_sizes(sample, curve.grid, h.value).min() >= smoothing._SMALL_WINDOW
        intercepts, slopes = median_curve(sample.x, sample.y, curve.grid, h.value)
        for x0, value, b0, b1 in zip(curve.grid.tolist(), curve.values.tolist(),
                                     intercepts.tolist(), slopes.tolist()):
            optimum = check_loss_objective(sample, x0, h.value, 0.5, b0, b1)
            fitted = check_loss_objective(sample, x0, h.value, 0.5, value, b1)
            assert abs(fitted - optimum) <= 1e-13 * optimum, x0


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
