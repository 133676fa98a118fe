"""Global bandwidth selection for local linear smoothing.

The conditional-mean bandwidth is a one-stage blocked-quartic plug-in: the
data are split into N blocks by the ordered x values, an ordinary quartic
polynomial is fitted per block, and the fits' curvature functional
theta22 = integral(h''(x)^2 f(x) dx) and residual variance sigma^2 go
straight into the asymptotically optimal (AMISE) bandwidth

    b = [ R(K) * sigma^2 * |support| / (n * mu2(K)^2 * theta22) ]^(1/5).

This is not the direct plug-in of Ruppert, Sheather & Wand [1], which uses
the blocked quartic fits only to set pilot bandwidths and estimates theta22
and sigma^2 again by local polynomial fits at those pilots.

The block count is picked by Mallows' Cp over N = 1..Nmax with
Nmax = max(min(floor(d/20), 5), 1), where d is the number of distinct x.
That is this repository's reading of the cap in [1], which gives each block
about 20 design points: repeated x add rows but no design points, and
blocks cut among them fit their quartics to clusters of repeated rows.
The conditional-median bandwidth multiplies the mean-based estimate by the
Yu-Jones factor {tau(1-tau) / phi(PHI^-1(tau))^2}^(1/5).

Each block's quartic comes from its 5 x 5 normal equations on x scaled to
[-1, 1], refined once from the explicit residuals.  Its curvature is as
close to a long-double solve as ``np.linalg.lstsq``'s (within 6e-14
relative on the ROADMAP's synthetic pair), in about a quarter of lstsq's
time at n = 1e5.  A block whose Gram matrix is singular or nearly so, every
block of fewer than five distinct x among them, keeps lstsq and its
minimum-norm quartic (see ``_blocked_quartic``).

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

import logging
import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .dataset import PairedSample

__all__ = [
    "BandwidthError",
    "KERNEL_ROUGHNESS",
    "KERNEL_SECOND_MOMENT",
    "BandwidthDiagnostics",
    "BandwidthEstimate",
    "dpi_bandwidth",
    "median_adjust",
    "yu_jones_factor",
    "oversmoothed_bandwidth",
]


_log = logging.getLogger(__name__)


class BandwidthError(ValueError):
    """Raised when a bandwidth cannot be selected for the given sample."""


#: Roughness R(K) = integral K^2 and second moment mu2(K) of the standard
#: normal kernel, the one kernel of the smoothing machinery; named so the
#: plug-in formula reads like the display above.
KERNEL_ROUGHNESS = 1.0 / (2.0 * math.sqrt(math.pi))
KERNEL_SECOND_MOMENT = 1.0


@dataclass(frozen=True)
class BandwidthDiagnostics:
    """What the plug-in saw: chosen block count, curvature and variance.

    ``reason`` says why the plug-in fell back ("y is constant",
    "curvature ~ 0" or "residual variance ~ 0"), and is None when it did not;
    ``fallback`` says whether it fell back.
    """

    block_count: int
    curvature: float            # estimate of integral h''(x)^2 f(x) dx
    residual_variance: float
    reason: str | None = None

    @property
    def fallback(self) -> bool:
        return self.reason is not None


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


#: A block's quartic comes from its Gram matrix only when the matrix's
#: condition number is at most _GRAM_CONDITION_MAX, where one step of
#: refinement leaves an error near lstsq's, and the block's half-range s is
#: at least _MIN_HALF_RANGE, so that 1 / s^2, which takes the curvature from
#: t to x, is a finite normal number.
_GRAM_CONDITION_MAX = 1e8
_MIN_HALF_RANGE = math.sqrt(np.finfo(float).tiny)


def _blocked_quartic(xs: np.ndarray, ys: np.ndarray, n_blocks: int) -> tuple[float, float]:
    """RSS and curvature functional from per-block quartic OLS fits.

    Expects xs sorted.  Returns (rss, theta22) with
    theta22 = (1/n) * sum_i m''(x_i)^2 evaluated from the block fits.

    Each block's x is centred at its midrange and scaled to t in [-1, 1].
    The quartic's coefficients solve the normal equations G c = T y, with
    T the (5 x m) powers of t and G = T T^T, and one step of iterative
    refinement, G d = T r with r the explicit residuals, corrects them.  The
    RSS is taken from r, not from G: a difference of Gram terms would carry
    cancellation error of order eps * sum(y^2), and both Mallows' Cp and the
    variance floor read the RSS.  sum_i m''(x_i)^2 is a quadratic form in
    the 3 x 3 moment block G[:3, :3].  On the synthetic pair of the
    ROADMAP, n = 52 to 1e5, N = 1..5, this curvature is within 6e-14
    relative of a long-double solve, as lstsq's is.

    A block whose G has a condition number above ``_GRAM_CONDITION_MAX``
    is fitted by ``np.linalg.lstsq`` on the Vandermonde matrix instead, as
    every block was before the Gram solve.  That covers every block of
    fewer than five distinct x, whose G is singular: its quartic is not
    unique, and lstsq's minimum-norm one, and so h, stays bit for bit what
    it was (a plain solve raises ``LinAlgError`` there).  It also covers
    jittered ties, a block of fewer than five clusters of x, whose G is
    singular to working precision.  A block whose half-range is below
    ``_MIN_HALF_RANGE`` (x jittered by 1e-320, say) keeps lstsq too.
    """
    rss = 0.0
    curv_sq = 0.0
    for xb, yb in zip(np.array_split(xs, n_blocks), np.array_split(ys, n_blocks)):
        half = 0.5 * (xb[-1] - xb[0])
        if half >= _MIN_HALF_RANGE:
            t = np.empty((5, len(xb)))
            t[0] = 1.0
            np.subtract(xb, 0.5 * (xb[0] + xb[-1]), out=t[1])
            t[1] /= half
            np.multiply(t[1], t[1], out=t[2])
            np.multiply(t[2], t[1], out=t[3])
            np.multiply(t[2], t[2], out=t[4])
            gram = t @ t.T
            low, *_, high = np.linalg.eigvalsh(gram)
            if low * _GRAM_CONDITION_MAX >= high:
                coef = np.linalg.solve(gram, t @ yb)
                resid = yb - coef @ t
                rss += float(resid @ resid)
                coef += np.linalg.solve(gram, t @ resid)
                # m''(x) = (2 c2 + 6 c3 t + 12 c4 t^2) / half^2 for sum_k c_k t^k
                second = np.array([2.0, 6.0, 12.0]) * coef[2:] / half**2
                curv_sq += float(second @ gram[:3, :3] @ second)
                continue
        xc = xb - xb.mean()  # centering keeps the Vandermonde well conditioned
        design = np.vander(xc, 5, increasing=True)
        beta, *_ = np.linalg.lstsq(design, yb, rcond=None)
        resid = yb - design @ beta
        rss += float(resid @ resid)
        second = 2.0 * beta[2] + 6.0 * beta[3] * xc + 12.0 * beta[4] * xc**2
        curv_sq += float(second @ second)
    return rss, curv_sq / len(xs)


def dpi_bandwidth(sample: PairedSample) -> BandwidthEstimate:
    """One-stage blocked-quartic plug-in bandwidth for the conditional-mean
    local linear fit.

    The blocked quartics' theta22 and sigma^2 enter the AMISE formula
    directly (the module docstring says how this differs from Ruppert,
    Sheather & Wand's direct plug-in), over 1 to max(min(d // 20, 5), 1)
    blocks for d distinct x.  The blocks are cut from the sample's
    ``sorted_xy``, so the estimate does not depend on the order of the input
    rows, tied x included.  Needs at least 20 observations (the blocked
    quartic fits are meaningless below that) and a non-degenerate x.  When
    the estimated curvature functional collapses (linear data) or the
    residual variance is zero (interpolating fits, e.g. noiseless polynomial
    data), the plug-in formula degenerates; the estimate then falls back to
    ``oversmoothed_bandwidth`` and says so, with the reason, in the
    diagnostics and in a warning of the ``locindex.bandwidth`` logger, once
    per fallback.

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
    block, and says "y is constant".  Floors out of float range (y * 1e200,
    or x * 1e-80 with y on [0, 1]) raise ``BandwidthError``.
    """
    x = sample.x
    y = sample.y
    n = sample.n
    if n < 20:
        raise BandwidthError(f"plug-in bandwidth needs n >= 20, got n = {n}")
    support = float(np.ptp(x))
    if support == 0.0:
        raise BandwidthError("x is degenerate (all values equal)")

    xs, ys = sample.sorted_xy
    distinct = 1 + int(np.count_nonzero(xs[1:] != xs[:-1]))

    amplitude = float(np.ptp(y))
    try:
        variance_floor = 1e-12 * amplitude**2
        curvature_floor = 1e-12 * (amplitude / support**2) ** 2
    except (OverflowError, ZeroDivisionError):
        raise BandwidthError(f"sample out of the plug-in's float range (ptp(x) = "
                             f"{support:.3g}, ptp(y) = {amplitude:.3g})") from None
    n_max = max(min(distinct // 20, 5), 1)
    fits = {N: _blocked_quartic(xs, ys, N) for N in range(1, n_max + 1)}
    denom = fits[n_max][0] / (n - 5 * n_max)
    if amplitude > 0.0 and denom > variance_floor:
        cp = {N: fits[N][0] / denom - (n - 10 * N) for N in fits}
        n_hat = min(cp, key=lambda N: (cp[N], N))
    else:
        n_hat = 1  # interpolating fits: Cp is undefined and the choice moot
    rss, theta22 = fits[n_hat]
    sigma2 = rss / (n - 5 * n_hat)

    reason = ("y is constant" if amplitude == 0.0
              else "curvature ~ 0" if theta22 <= curvature_floor
              else "residual variance ~ 0" if sigma2 <= variance_floor
              else None)
    if reason is None:
        value = (
            KERNEL_ROUGHNESS * sigma2 * support / (n * KERNEL_SECOND_MOMENT**2 * theta22)
        ) ** 0.2
    else:
        _log.warning("plug-in bandwidth degenerate (%s); "
                     "falling back to oversmoothed bandwidth", reason)
        value = oversmoothed_bandwidth(x)
    diagnostics = BandwidthDiagnostics(block_count=n_hat, curvature=theta22,
                                       residual_variance=sigma2, reason=reason)
    return BandwidthEstimate(value=value, method="dpi", diagnostics=diagnostics)


def yu_jones_factor(tau: float) -> float:
    """Multiplier converting a mean-regression bandwidth to quantile level tau.

    {tau(1-tau) / phi(PHI^-1(tau))^2}^(1/5); equals (pi/2)^(1/5) at the median.
    The standard normal density phi and quantile PHI^-1 come from the
    standard library's ``statistics.NormalDist``.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie strictly inside (0, 1)")
    normal = NormalDist()
    density = normal.pdf(normal.inv_cdf(tau))
    return float((tau * (1.0 - tau) / density**2) ** 0.2)


def median_adjust(b: BandwidthEstimate, tau: float = 0.5) -> BandwidthEstimate:
    """Rescale a conditional-mean bandwidth for conditional-quantile fitting."""
    return BandwidthEstimate(
        value=b.value * yu_jones_factor(tau),
        method="median_adjusted",
        diagnostics=b.diagnostics,
    )
