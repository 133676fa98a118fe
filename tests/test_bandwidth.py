import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locindex import (
    KERNEL_ROUGHNESS,
    KERNEL_SECOND_MOMENT,
    BandwidthError,
    BandwidthEstimate,
    FitSpec,
    LossKind,
    PairedSample,
    dpi_bandwidth,
    fit_curve,
    jitter,
    median_adjust,
    oversmoothed_bandwidth,
    pair,
    yu_jones_factor,
)

from oracles import amise_bandwidth, scipy_yu_jones_factor
from reference import plug_in_bandwidth

COLUMNS = ("mathematics", "reading", "spelling")
ORDERED_PAIRS = [(a, b) for a in COLUMNS for b in COLUMNS if a != b]


def noisy_quadratic(n: int, sigma: float, seed: int) -> PairedSample:
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, n)
    return PairedSample(x=x, y=x**2 + rng.normal(0.0, sigma, n))


class TestKernelConstants:
    def test_gaussian_values(self):
        assert KERNEL_ROUGHNESS == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)))
        assert KERNEL_SECOND_MOMENT == 1.0


class TestYuJonesFactor:
    def test_median_value_is_pi_over_two_fifth_root(self):
        assert abs(yu_jones_factor(0.5) - (math.pi / 2.0) ** 0.2) < 1e-12
        assert yu_jones_factor(0.5) == pytest.approx(1.0945206896134454, abs=1e-12)

    def test_symmetric_in_tau(self):
        assert yu_jones_factor(0.25) == pytest.approx(yu_jones_factor(0.75), abs=1e-13)

    def test_matches_scipy_normal_formula(self):
        # the oracle is the formula through scipy's normal pdf and quantile;
        # at the median, the level the CLI uses, the factor is the same double
        assert yu_jones_factor(0.5) == scipy_yu_jones_factor(0.5)
        for tau in np.linspace(0.01, 0.99, 197):
            assert yu_jones_factor(tau) == pytest.approx(scipy_yu_jones_factor(tau),
                                                         rel=1e-14, abs=0.0)

    def test_tau_domain(self):
        for tau in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ValueError):
                yu_jones_factor(tau)


class TestMedianAdjust:
    def test_unit_bandwidth_at_median(self):
        base = BandwidthEstimate(value=1.0, method="fixed")
        adjusted = median_adjust(base, 0.5)
        assert adjusted.value == pytest.approx((math.pi / 2.0) ** 0.2, abs=1e-12)
        assert adjusted.method == "median_adjusted"

    def test_keeps_diagnostics(self):
        est = dpi_bandwidth(noisy_quadratic(100, 0.05, 0))
        adjusted = median_adjust(est, 0.5)
        assert adjusted.diagnostics == est.diagnostics

    def test_tau_validation(self):
        base = BandwidthEstimate(value=0.5, method="fixed")
        with pytest.raises(ValueError):
            median_adjust(base, 1.0)


class TestDpiBandwidth:
    def test_close_to_amise_on_known_quadratic(self):
        # h'' = 2 everywhere, x uniform: theta22 = 4, sigma known
        sigma = 0.05
        sample = noisy_quadratic(500, sigma, seed=11)
        est = dpi_bandwidth(sample)
        target = amise_bandwidth(500, sigma, float(np.ptp(sample.x)), 4.0)
        assert abs(est.value / target - 1.0) <= 0.25

    def test_scale_equivariance(self):
        rng = np.random.default_rng(3)
        x = np.sort(rng.uniform(0.0, 1.0, 80))
        y = np.sin(3.0 * x) + rng.normal(0.0, 0.1, 80)
        base = dpi_bandwidth(PairedSample(x=x, y=y)).value
        for c in (2.0, 3.0, 0.5):
            scaled = dpi_bandwidth(PairedSample(x=c * x, y=y)).value
            assert abs(scaled / (c * base) - 1.0) < 1e-10

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(40, 120),
           c=st.floats(0.05, 20.0), a=st.floats(-2.0, 2.0))
    def test_affine_map_of_y_keeps_the_bandwidth(self, seed, n, c, a):
        # sigma^2 and theta22 both scale by c^2 and both floors are relative
        # to ptp(y), so neither the Cp choice nor h moves beyond rounding
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 1.0, n)
        y = np.clip(0.5 + 0.3 * np.sin(6.0 * x) + rng.normal(0.0, 0.2, n), 0.0, 1.0)
        base = dpi_bandwidth(PairedSample(x=x, y=y))
        moved = dpi_bandwidth(PairedSample(x=x, y=c * y + a))
        assert moved.diagnostics.block_count == base.diagnostics.block_count
        assert moved.diagnostics.fallback == base.diagnostics.fallback
        assert moved.value == pytest.approx(base.value, rel=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(4)
        x = np.sort(rng.uniform(0.0, 1.0, 70))
        y = x**2 + rng.normal(0.0, 0.05, 70)
        base = dpi_bandwidth(PairedSample(x=x, y=y)).value
        shifted = dpi_bandwidth(PairedSample(x=x + 0.7, y=y)).value
        assert abs(shifted / base - 1.0) < 1e-8

    def test_permutation_invariance(self):
        sample = noisy_quadratic(90, 0.08, seed=5)
        rng = np.random.default_rng(6)
        perm = rng.permutation(90)
        base = dpi_bandwidth(sample).value
        shuffled = dpi_bandwidth(PairedSample(x=sample.x[perm], y=sample.y[perm])).value
        assert shuffled == base

    def test_permutation_invariance_with_tied_x(self):
        rng = np.random.default_rng(7)
        x = np.repeat(np.linspace(0.1, 0.9, 20), 3)  # heavy ties
        y = x + rng.normal(0.0, 0.05, 60)
        base = dpi_bandwidth(PairedSample(x=x, y=y)).value
        perm = rng.permutation(60)
        shuffled = dpi_bandwidth(PairedSample(x=x[perm], y=y[perm])).value
        assert shuffled == base

    def test_permutation_invariance_with_tied_x_at_a_large_n(self):
        # x rounded to 1e-3 puts about 20 rows on each value; at n = 2e4
        # numpy's default sort is not stable, so the ties take the (x, y) sort
        rng = np.random.default_rng(8)
        x = np.round(rng.uniform(0.0, 1.0, 20_000), 3)
        y = np.sin(8.0 * x) + rng.normal(0.0, 0.1, 20_000)
        base = dpi_bandwidth(PairedSample(x=x, y=y))
        assert base.diagnostics.block_count > 1  # blocks split groups of ties
        perm = rng.permutation(20_000)
        assert dpi_bandwidth(PairedSample(x=x[perm], y=y[perm])) == base

    def test_n_power_scaling(self):
        # doubling n should shrink the bandwidth by about 2^(-1/5)
        def sin_sample(n, seed):
            rng = np.random.default_rng(seed)
            x = np.sort(rng.uniform(0.0, 1.0, n))
            return PairedSample(x=x, y=np.sin(3.0 * x) + rng.normal(0.0, 0.05, n))

        b_small = dpi_bandwidth(sin_sample(300, seed=5)).value
        b_large = dpi_bandwidth(sin_sample(600, seed=5)).value
        assert abs(b_large / b_small / 2.0 ** (-0.2) - 1.0) <= 0.15

    def test_linear_noiseless_falls_back_with_warning(self, linear_pair, fallback_warnings):
        est = dpi_bandwidth(linear_pair)
        [message] = fallback_warnings()
        assert "falling back" in message
        assert est.diagnostics.fallback
        assert est.diagnostics.reason == "curvature ~ 0"
        assert f"({est.diagnostics.reason})" in message
        assert est.value == pytest.approx(oversmoothed_bandwidth(linear_pair.x))

    def test_noiseless_curved_data_also_falls_back(self, fallback_warnings):
        # quartic fits interpolate: the residual variance is zero up to
        # rounding (2.7e-32 here), never exactly zero
        x = np.linspace(0.0, 1.0, 40)
        est = dpi_bandwidth(PairedSample(x=x, y=x**2))
        [message] = fallback_warnings()
        assert "falling back" in message
        assert est.diagnostics.fallback
        assert est.diagnostics.reason == "residual variance ~ 0"
        # the floor is relative to the amplitude of y
        for c in (1e6, 1e-6):
            scaled = dpi_bandwidth(PairedSample(x=x, y=c * x**2))
            [message] = fallback_warnings()
            assert "falling back" in message
            assert scaled.diagnostics.fallback
            assert scaled.value == est.value
        # the fallback exists so that the fits at the returned bandwidth work
        sample = PairedSample(x=x, y=x**2)
        for loss, b in ((LossKind.quadratic(), est), (LossKind.median(), median_adjust(est))):
            curve = fit_curve(sample, FitSpec(loss=loss, bandwidth=b, grid_size=50))
            assert np.all(np.isfinite(curve.values))

    def test_noiseless_data_uses_one_block(self, fallback_warnings):
        # interpolating fits leave Mallows' Cp undefined; its choice would
        # otherwise be made from rounding noise
        x = np.linspace(0.0, 1.0, 100)
        est = dpi_bandwidth(PairedSample(x=x, y=x**2))
        [message] = fallback_warnings()
        assert "falling back" in message
        assert est.diagnostics.block_count == 1

    def test_constant_y_falls_back(self, fallback_warnings):
        # ptp(y) = 0 zeroes both floors, and rounding leaves the curvature at
        # about 1e-30, so only an explicit check catches it
        x = np.linspace(0.0, 1.0, 40)
        est = dpi_bandwidth(PairedSample(x=x, y=np.full(40, 0.3)))
        [message] = fallback_warnings()
        assert "y is constant" in message
        assert est.diagnostics.fallback
        assert est.diagnostics.reason == "y is constant"
        assert est.diagnostics.block_count == 1
        assert est.value == oversmoothed_bandwidth(x)

    def test_degenerate_x_rejected(self):
        with pytest.raises(BandwidthError, match="degenerate"):
            dpi_bandwidth(PairedSample(x=np.full(30, 0.4), y=np.linspace(0, 1, 30)))

    @pytest.mark.parametrize("scale_x, scale_y", [(1.0, 1e200), (1e-80, 1.0), (1e-200, 1.0)])
    def test_floors_out_of_float_range_raise_bandwidth_error(self, scale_x, scale_y):
        # the variance floor squares ptp(y), the curvature floor divides by
        # ptp(x)^2: the first overflows, the second overflows or divides by 0
        base = noisy_quadratic(60, 0.1, seed=2)
        pr = PairedSample(x=base.x * scale_x, y=base.y * scale_y)
        with pytest.raises(BandwidthError, match="out of the plug-in's float range"):
            dpi_bandwidth(pr)

    def test_small_sample_rejected(self):
        pr = PairedSample(x=np.linspace(0, 1, 10), y=np.linspace(0, 1, 10) ** 2)
        with pytest.raises(BandwidthError, match="n >= 20"):
            dpi_bandwidth(pr)

    def test_diagnostics_populated(self):
        est = dpi_bandwidth(noisy_quadratic(120, 0.1, seed=8))
        assert est.method == "dpi"
        assert 1 <= est.diagnostics.block_count <= 5
        assert est.diagnostics.curvature > 0
        assert est.diagnostics.residual_variance > 0
        assert not est.diagnostics.fallback
        assert est.diagnostics.reason is None

    def test_block_cap_for_52_rows(self, marks_sample):
        pr = jitter(pair(marks_sample, "mathematics", "reading"), 1e-5, 0)
        est = dpi_bandwidth(pr)
        assert est.diagnostics.block_count in (1, 2)  # Nmax = max(min(52//20, 5), 1)


def roadmap_pair(n: int) -> PairedSample:
    """x ~ U(0, 1), y = clip(0.3 + 0.5x + 0.1 sin 8x + N(0, 0.1^2), 0, 1), seed 0,
    jittered with sd 1e-5 and seed 0."""
    rng = np.random.default_rng(0)
    x = rng.uniform(0.0, 1.0, n)
    y = np.clip(0.3 + 0.5 * x + 0.1 * np.sin(8.0 * x) + rng.normal(0.0, 0.1, n), 0.0, 1.0)
    return jitter(PairedSample(x=x, y=y), 1e-5, 0)


class TestDpiAgainstReference:
    # tests/reference.py's plug-in: np.polyfit quartics per block and its own
    # blocking; the measured gap in h is below 1e-14 on every case here

    @staticmethod
    def assert_agrees(pr: PairedSample) -> tuple[int, str | None]:
        est = dpi_bandwidth(pr)
        h, blocks, reason = plug_in_bandwidth(pr.x, pr.y)
        assert (est.diagnostics.block_count, est.diagnostics.reason) == (blocks, reason)
        assert est.value == pytest.approx(h, rel=1e-10, abs=0.0)
        return blocks, reason

    @pytest.mark.parametrize("x_name,y_name", ORDERED_PAIRS)
    def test_raw_fixture_pairs(self, marks_sample, x_name, y_name):
        assert self.assert_agrees(pair(marks_sample, x_name, y_name)) == (1, None)

    @pytest.mark.parametrize("n", [400, 10_000])
    def test_synthetic_pair_of_two_blocks(self, n):
        assert self.assert_agrees(roadmap_pair(n)) == (2, None)

    @pytest.mark.parametrize("y, reason", [
        (lambda x: 2.0 * x + 1.0, "curvature ~ 0"),
        (lambda x: np.full_like(x, 0.5), "y is constant"),
        (lambda x: x**4, "residual variance ~ 0"),
    ])
    def test_fallbacks(self, y, reason):
        x = np.linspace(0.0, 1.0, 100)
        assert self.assert_agrees(PairedSample(x=x, y=y(x))) == (1, reason)


class TestBandwidthEstimate:
    def test_value_must_be_positive(self):
        with pytest.raises(ValueError):
            BandwidthEstimate(value=0.0, method="fixed")

    def test_dpi_requires_diagnostics(self):
        with pytest.raises(ValueError):
            BandwidthEstimate(value=0.1, method="dpi")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            BandwidthEstimate(value=0.1, method="cv")
