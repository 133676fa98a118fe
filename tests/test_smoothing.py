import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from locindex import (
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
    check_loss_minimum,
    check_loss_value,
    global_least_squares,
    random_tie_free_sample,
)

TAUS = (0.1, 0.5, 0.9)
COLUMNS = ("mathematics", "reading", "spelling")
ORDERED_PAIRS = [(a, b) for a in COLUMNS for b in COLUMNS if a != b]
LOSSES = (LossKind.quadratic(), LossKind.median())


def assert_reaches_minimum(sample: PairedSample, x0: float, h: float, tau: float) -> None:
    b0, b1 = local_linear_fit(sample, x0, h, LossKind.quantile(tau))
    fitted = check_loss_value(sample.x, sample.y, x0, h, tau, b0, b1)
    optimum = check_loss_minimum(sample.x, sample.y, x0, h, tau)
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


class TestFitCurve:
    @pytest.mark.parametrize("x_name,y_name", ORDERED_PAIRS)
    def test_median_curve_equals_local_fit(self, marks_sample, x_name, y_name):
        # the curve is local_linear_fit evaluated on the grid, bit for bit,
        # on jittered data and on tied data where the optimum is not unique
        raw = pair(marks_sample, x_name, y_name)
        jittered = jitter(raw, 1e-5, 11)
        h = median_adjust(dpi_bandwidth(jittered))
        for pr in (jittered, raw):
            for tau in TAUS:
                loss = LossKind.quantile(tau)
                curve = fit_curve(pr, FitSpec(loss=loss, bandwidth=h, grid_size=200))
                for i in range(0, 200, 3):
                    b0, _ = local_linear_fit(pr, float(curve.grid[i]), h.value, loss)
                    assert curve.values[i] == b0, (tau, i)
