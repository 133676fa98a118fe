"""Global bandwidth selection for local linear smoothing.

The conditional-mean bandwidth is the direct plug-in estimate built from
blocked quartic fits: the data are split into N blocks by the ordered x
values, an ordinary quartic polynomial is fitted per block, and the fits
supply the curvature functional integral(h''(x)^2 f(x) dx) and the residual
variance entering the asymptotically optimal bandwidth

    b = [ R(K) * sigma^2 * |support| / (n * mu2(K)^2 * theta22) ]^(1/5).

The block count is picked by Mallows' Cp over N = 1..Nmax with
Nmax = max(min(floor(n/20), 5), 1), the published defaults of the procedure.
The conditional-median bandwidth multiplies the mean-based estimate by the
Yu-Jones factor {tau(1-tau) / phi(PHI^-1(tau))^2}^(1/5).

References
----------
.. [1] Ruppert, D., Sheather, S. J. and Wand, M. P. (1995). "An effective
       bandwidth selector for local least squares regression." *JASA* 90:
       1257-1270.
.. [2] Fan, J. and Gijbels, I. (1996). *Local Polynomial Modelling and Its
       Applications.* Chapman & Hall. (Formula (3.21) for the asymptotically
       optimal bandwidth.)
.. [3] Yu, K. and Jones, M. C. (1998). "Local linear quantile regression."
       *JASA* 93: 228-237.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.stats import norm

from .dataset import PairedSample

__all__ = [
    "BandwidthError",
    "KernelConstants",
    "GAUSSIAN_KERNEL",
    "BandwidthDiagnostics",
    "BandwidthEstimate",
    "dpi_bandwidth",
    "median_adjust",
    "yu_jones_factor",
    "oversmoothed_bandwidth",
]


class BandwidthError(ValueError):
    """Raised when a bandwidth cannot be selected for the given sample."""


@dataclass(frozen=True)
class KernelConstants:
    """Roughness R(K) = integral K^2 and second moment mu2(K) of the kernel."""

    roughness: float
    second_moment: float

    def __post_init__(self) -> None:
        if self.roughness <= 0 or self.second_moment <= 0:
            raise ValueError("kernel constants must be strictly positive")


#: Standard normal kernel: R(K) = 1/(2 sqrt(pi)), mu2 = 1.  The smoothing
#: machinery is hard-wired to this kernel; the constants live here so the
#: plug-in formula reads like the display above.
GAUSSIAN_KERNEL = KernelConstants(roughness=1.0 / (2.0 * math.sqrt(math.pi)), second_moment=1.0)


@dataclass(frozen=True)
class BandwidthDiagnostics:
    """What the plug-in saw: chosen block count, curvature and variance."""

    block_count: int
    curvature: float            # estimate of integral h''(x)^2 f(x) dx
    residual_variance: float
    fallback: bool = False


@dataclass(frozen=True)
class BandwidthEstimate:
    value: float
    method: str  # "dpi" | "median_adjusted" | "fixed"
    diagnostics: BandwidthDiagnostics | None = None

    def __post_init__(self) -> None:
        if self.value <= 0 or not math.isfinite(self.value):
            raise ValueError("bandwidth must be a positive finite number")
        if self.method not in ("dpi", "median_adjusted", "fixed"):
            raise ValueError(f"unknown bandwidth method {self.method!r}")
        if self.method == "dpi" and self.diagnostics is None:
            raise ValueError("dpi bandwidth requires diagnostics")


def oversmoothed_bandwidth(x: np.ndarray) -> float:
    """Fallback bandwidth range(x) * n^(-1/5), used when the plug-in degenerates."""
    x = np.asarray(x, dtype=float)
    return float(np.ptp(x)) * len(x) ** (-0.2)


def _blocked_quartic(xs: np.ndarray, ys: np.ndarray, n_blocks: int) -> tuple[float, float]:
    """RSS and curvature functional from per-block quartic OLS fits.

    Expects xs sorted.  Returns (rss, theta22) with
    theta22 = (1/n) * sum_i m''(x_i)^2 evaluated from the block fits.
    """
    n = len(xs)
    rss = 0.0
    curv_sq = 0.0
    for block in np.array_split(np.arange(n), n_blocks):
        xb = xs[block]
        yb = ys[block]
        xc = xb - xb.mean()  # centering keeps the Vandermonde well conditioned
        design = np.vander(xc, 5, increasing=True)
        beta, *_ = np.linalg.lstsq(design, yb, rcond=None)
        resid = yb - design @ beta
        rss += float(resid @ resid)
        second = 2.0 * beta[2] + 6.0 * beta[3] * xc + 12.0 * beta[4] * xc**2
        curv_sq += float(second @ second)
    return rss, curv_sq / n


def dpi_bandwidth(
    sample: PairedSample,
    kernel: KernelConstants = GAUSSIAN_KERNEL,
) -> BandwidthEstimate:
    """Direct plug-in bandwidth for the conditional-mean local linear fit.

    Needs at least 20 observations (the blocked quartic fits are meaningless
    below that) and a non-degenerate x.  When the estimated curvature
    functional collapses (linear data) or the residual variance is zero
    (interpolating fits, e.g. noiseless polynomial data), the plug-in formula
    degenerates; the estimate then falls back to ``oversmoothed_bandwidth``
    and says so in the diagnostics and via a RuntimeWarning.

    Rounding never gives an exact zero, so both quantities are compared with
    floors relative to the amplitude of y, which keeps the fallback decision
    unchanged when y is multiplied by a positive constant:

    * curvature: theta22 <= 1e-12 * (ptp(y) / ptp(x)^2)^2;
    * residual variance: sigma^2 <= 1e-12 * ptp(y)^2, i.e. a residual sd of
      at most 1e-6 of the range of y.

    The variance floor also guards Mallows' Cp: when the finest blocking's
    variance is below it, the fits interpolate, Cp is undefined and one block
    is used.

    Constant y (ptp(y) = 0) makes both floors zero while rounding leaves
    both quantities slightly above it; it takes the same fallback, with one
    block, and says "y is constant".
    """
    x = sample.x
    y = sample.y
    n = sample.n
    if n < 20:
        raise BandwidthError(f"plug-in bandwidth needs n >= 20, got n = {n}")
    support = float(np.ptp(x))
    if support == 0.0:
        raise BandwidthError("x is degenerate (all values equal)")

    # Sorting pairs lexicographically keeps blocking invariant under row
    # permutation even when x carries ties.
    order = np.lexsort((y, x))
    xs = x[order]
    ys = y[order]

    amplitude = float(np.ptp(y))
    variance_floor = 1e-12 * amplitude**2
    n_max = max(min(n // 20, 5), 1)
    fits = {N: _blocked_quartic(xs, ys, N) for N in range(1, n_max + 1)}
    denom = fits[n_max][0] / (n - 5 * n_max)
    if amplitude > 0.0 and denom > variance_floor:
        cp = {N: fits[N][0] / denom - (n - 10 * N) for N in fits}
        n_hat = min(cp, key=lambda N: (cp[N], N))
    else:
        n_hat = 1  # interpolating fits: Cp is undefined and the choice moot
    rss, theta22 = fits[n_hat]
    sigma2 = rss / (n - 5 * n_hat)

    curvature_floor = 1e-12 * (amplitude / support**2) ** 2
    if amplitude == 0.0 or theta22 <= curvature_floor or sigma2 <= variance_floor:
        reason = ("y is constant" if amplitude == 0.0
                  else "curvature ~ 0" if theta22 <= curvature_floor
                  else "residual variance ~ 0")
        warnings.warn(
            f"plug-in bandwidth degenerate ({reason}); "
            "falling back to oversmoothed bandwidth",
            RuntimeWarning,
            stacklevel=2,
        )
        return BandwidthEstimate(
            value=oversmoothed_bandwidth(x),
            method="dpi",
            diagnostics=BandwidthDiagnostics(
                block_count=n_hat,
                curvature=theta22,
                residual_variance=sigma2,
                fallback=True,
            ),
        )

    value = (
        kernel.roughness * sigma2 * support / (n * kernel.second_moment**2 * theta22)
    ) ** 0.2
    return BandwidthEstimate(
        value=value,
        method="dpi",
        diagnostics=BandwidthDiagnostics(
            block_count=n_hat,
            curvature=theta22,
            residual_variance=sigma2,
        ),
    )


def yu_jones_factor(tau: float) -> float:
    """Multiplier converting a mean-regression bandwidth to quantile level tau.

    {tau(1-tau) / phi(PHI^-1(tau))^2}^(1/5); equals (pi/2)^(1/5) at the median.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie strictly inside (0, 1)")
    density = norm.pdf(norm.ppf(tau))
    return float((tau * (1.0 - tau) / density**2) ** 0.2)


def median_adjust(b: BandwidthEstimate, tau: float = 0.5) -> BandwidthEstimate:
    """Rescale a conditional-mean bandwidth for conditional-quantile fitting."""
    return BandwidthEstimate(
        value=b.value * yu_jones_factor(tau),
        method="median_adjusted",
        diagnostics=b.diagnostics,
    )
