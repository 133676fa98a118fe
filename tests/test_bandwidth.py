import math

import numpy as np
import pytest

from locindex import (
    GAUSSIAN_KERNEL,
    BandwidthError,
    BandwidthEstimate,
    FitSpec,
    KernelConstants,
    LossKind,
    PairedSample,
    dpi_bandwidth,
    fit_curve,
    median_adjust,
    oversmoothed_bandwidth,
    yu_jones_factor,
)

from oracles import amise_bandwidth


def noisy_quadratic(n: int, sigma: float, seed: int) -> PairedSample:
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 1.0, n)
    return PairedSample(x=x, y=x**2 + rng.normal(0.0, sigma, n))


class TestKernelConstants:
    def test_gaussian_values(self):
        assert GAUSSIAN_KERNEL.roughness == pytest.approx(1.0 / (2.0 * math.sqrt(math.pi)))
        assert GAUSSIAN_KERNEL.second_moment == 1.0

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            KernelConstants(roughness=0.0, second_moment=1.0)


class TestYuJonesFactor:
    def test_median_value_is_pi_over_two_fifth_root(self):
        assert abs(yu_jones_factor(0.5) - (math.pi / 2.0) ** 0.2) < 1e-12
        assert yu_jones_factor(0.5) == pytest.approx(1.0945206896134454, abs=1e-12)

    def test_symmetric_in_tau(self):
        assert yu_jones_factor(0.25) == pytest.approx(yu_jones_factor(0.75), abs=1e-13)

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

    def test_n_power_scaling(self):
        # doubling n should shrink the bandwidth by about 2^(-1/5)
        def sin_sample(n, seed):
            rng = np.random.default_rng(seed)
            x = np.sort(rng.uniform(0.0, 1.0, n))
            return PairedSample(x=x, y=np.sin(3.0 * x) + rng.normal(0.0, 0.05, n))

        b_small = dpi_bandwidth(sin_sample(300, seed=5)).value
        b_large = dpi_bandwidth(sin_sample(600, seed=5)).value
        assert abs(b_large / b_small / 2.0 ** (-0.2) - 1.0) <= 0.15

    def test_linear_noiseless_falls_back_with_warning(self, linear_pair):
        with pytest.warns(RuntimeWarning, match="falling back"):
            est = dpi_bandwidth(linear_pair)
        assert est.diagnostics.fallback
        assert est.value == pytest.approx(oversmoothed_bandwidth(linear_pair.x))

    def test_noiseless_curved_data_also_falls_back(self):
        # quartic fits interpolate: the residual variance is zero up to
        # rounding (2.7e-32 here), never exactly zero
        x = np.linspace(0.0, 1.0, 40)
        with pytest.warns(RuntimeWarning, match="falling back"):
            est = dpi_bandwidth(PairedSample(x=x, y=x**2))
        assert est.diagnostics.fallback
        # the floor is relative to the amplitude of y
        for c in (1e6, 1e-6):
            with pytest.warns(RuntimeWarning, match="falling back"):
                scaled = dpi_bandwidth(PairedSample(x=x, y=c * x**2))
            assert scaled.diagnostics.fallback
            assert scaled.value == est.value
        # the fallback exists so that the fits at the returned bandwidth work
        sample = PairedSample(x=x, y=x**2)
        for loss, b in ((LossKind.quadratic(), est), (LossKind.median(), median_adjust(est))):
            curve = fit_curve(sample, FitSpec(loss=loss, bandwidth=b, grid_size=50))
            assert np.all(np.isfinite(curve.values))

    def test_noiseless_data_uses_one_block(self):
        # interpolating fits leave Mallows' Cp undefined; its choice would
        # otherwise be made from rounding noise
        x = np.linspace(0.0, 1.0, 100)
        with pytest.warns(RuntimeWarning, match="falling back"):
            est = dpi_bandwidth(PairedSample(x=x, y=x**2))
        assert est.diagnostics.block_count == 1

    def test_constant_y_falls_back(self):
        # ptp(y) = 0 zeroes both floors, and rounding leaves the curvature at
        # about 1e-30, so only an explicit check catches it
        x = np.linspace(0.0, 1.0, 40)
        with pytest.warns(RuntimeWarning, match="y is constant"):
            est = dpi_bandwidth(PairedSample(x=x, y=np.full(40, 0.3)))
        assert est.diagnostics.fallback
        assert est.diagnostics.block_count == 1
        assert est.value == oversmoothed_bandwidth(x)

    def test_degenerate_x_rejected(self):
        with pytest.raises(BandwidthError, match="degenerate"):
            dpi_bandwidth(PairedSample(x=np.full(30, 0.4), y=np.linspace(0, 1, 30)))

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

    def test_block_cap_for_52_rows(self, marks_sample):
        from locindex import jitter, pair

        pr = jitter(pair(marks_sample, "mathematics", "reading"), 1e-5, 0)
        est = dpi_bandwidth(pr)
        assert est.diagnostics.block_count in (1, 2)  # Nmax = max(min(52//20, 5), 1)


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
