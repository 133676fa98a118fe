"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the code paths it checks: the LOC
integral is assembled from the distribution function, counted here, and the
infimum definition of the quantile instead of the sorting formula, ranks and
rank coefficients come from scipy / the classical rank-difference identity, the
Yu-Jones factor from scipy's normal distribution, kernel weights from the
kernel's formula in one expression (textbook, or from the squared offsets),
least squares comes from numpy's polynomial fit, the check-loss optimum from
scipy's linear programming solver, and a weighted quantile from a plain loop
over the sorted rows.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

from reference import check_loss_line


def distribution(taus: np.ndarray, x: float) -> float:
    """G(x) = #{i : tau_i <= x} / m, counted over the values themselves."""
    return int(np.count_nonzero(taus <= x)) / taus.size


def loc_by_integration(taus: np.ndarray) -> float:
    """LOC of the step function with values ``taus`` by integrating t * (I(t) - D(t)).

    I(t) = inf{x : G(x) >= t} is evaluated from the distribution function by
    searching over the value levels; D(t) is the step definition itself.
    Both are constant on each piece ((i-1)/m, i/m], and t * c integrates
    exactly by the midpoint rule on each piece.
    """
    m = taus.size
    levels = np.unique(taus)  # sorted
    g_at_levels = np.array([distribution(taus, x) for x in levels])
    total = 0.0
    for i in range(1, m + 1):
        t_mid = (i - 0.5) / m
        pos = int(np.searchsorted(g_at_levels, t_mid, side="left"))
        inf_value = float(levels[pos])  # first level with G >= t_mid
        d_value = float(taus[i - 1])
        piece_weight = (2 * i - 1) / (2.0 * m * m)  # integral of t over the piece
        total += (inf_value - d_value) * piece_weight
    return total


def spearman_rank_formula(x: np.ndarray, y: np.ndarray) -> float:
    """Classical 1 - 6 sum d^2 / (n (n^2 - 1)) on tie-free data."""
    n = len(x)
    rx = np.empty(n, dtype=np.int64)
    rx[np.argsort(x)] = np.arange(1, n + 1)
    ry = np.empty(n, dtype=np.int64)
    ry[np.argsort(y)] = np.arange(1, n + 1)
    d = rx - ry
    return 1.0 - 6.0 * float(d @ d) / (n * (n * n - 1))


def spearman_scipy(x: np.ndarray, y: np.ndarray) -> float:
    return float(stats.spearmanr(x, y).statistic)


def pearson_scipy(x: np.ndarray, y: np.ndarray) -> float:
    return float(stats.pearsonr(x, y).statistic)


def scipy_ranks(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(fx, gy, induced) of a tie-free sample from ``scipy.stats.rankdata``.

    fx and gy are the ranks over n; induced[i - 1] is the y rank of the row
    whose x rank is i, placed by the x ranks instead of by a sort.
    """
    n = len(x)
    rx = stats.rankdata(x, method="ordinal")
    ry = stats.rankdata(y, method="ordinal")
    induced = np.empty(n, dtype=np.int64)
    induced[rx - 1] = ry
    return rx / n, ry / n, induced


def kernel_weights(x: np.ndarray, x0: float, bandwidth: float) -> np.ndarray:
    """Gaussian kernel weights exp(-u^2 / 2) / sqrt(2 pi), u = (x - x0) / h,
    with the weights below 1e-12 set to zero."""
    u = (np.asarray(x) - x0) / bandwidth
    w = np.exp(-0.5 * u * u) / np.sqrt(2 * np.pi)
    w[w < 1e-12] = 0.0
    return w


def mean_kernel(x: np.ndarray, x0, bandwidth: float) -> np.ndarray:
    """Gaussian kernel weights written from the squared offsets d = x - x0,
    exp(d d (-1 / (2 h h))) (1 / sqrt(2 pi)), zero beyond the radius at which
    the kernel falls to 1e-12: the form ``locindex`` takes for either loss
    when 1e-150 < h < 1e150."""
    d = np.asarray(x) - x0
    w = np.exp(d * d * (-0.5 / (bandwidth * bandwidth))) * (1.0 / np.sqrt(2.0 * np.pi))
    radius = math.sqrt(-2.0 * math.log(1e-12 * math.sqrt(2.0 * math.pi)))  # weight 1e-12
    w[np.abs(d) > radius * bandwidth] = 0.0
    return w


def global_least_squares(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Unweighted OLS line fit; returns (intercept, slope)."""
    slope, intercept = np.polyfit(x, y, 1)
    return float(intercept), float(slope)


def check_loss_value(x, y, x0, bandwidth, tau, beta0, beta1):
    """Kernel-weighted check loss, written out from its definition.

    ``beta0`` and ``beta1`` may be arrays of shape (k, 1); the result is then
    the k objective values.
    """
    w = kernel_weights(x, x0, bandwidth)
    r = np.asarray(y) - beta0 - beta1 * (np.asarray(x) - x0)
    rho = np.where(r >= 0, tau * r, (tau - 1.0) * r)
    total = np.sum(w * rho, axis=-1)
    return float(total) if total.ndim == 0 else total


def check_loss_minimum(x, y, x0, bandwidth, tau) -> float:
    """Minimum kernel-weighted check loss by enumerating every two-point line.

    The check-loss fit is a linear program in (b0, b1) whose optimum is
    attained by a line through two observations with distinct x, so the
    smallest ``check_loss_value`` over all such lines is the optimum.  The
    enumeration is quadratic in n; it is meant for n <= 60.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) > 60:
        raise ValueError("brute-force enumeration is meant for n <= 60")
    p, q = np.triu_indices(len(x), 1)
    distinct = x[p] != x[q]
    p, q = p[distinct], q[distinct]
    slope = (y[q] - y[p]) / (x[q] - x[p])
    intercept = y[p] + slope * (x0 - x[p])
    values = check_loss_value(x, y, x0, bandwidth, tau, intercept[:, None], slope[:, None])
    return float(values.min())


def check_loss_lp_minimum(x, y, x0, bandwidth, tau) -> float:
    """Kernel-weighted check loss at the optimum found by linear programming.

    The value returned is ``check_loss_value`` at the (b0, b1) of
    ``reference.check_loss_line`` (HiGHS): the objective of a line, never
    below the true minimum, and above it by no more than the solver's
    tolerance.  Unlike ``check_loss_minimum`` it scales to hundreds of rows.
    """
    beta0, beta1 = check_loss_line(x, y, x0, bandwidth, tau)
    return check_loss_value(x, y, x0, bandwidth, tau, beta0, beta1)


def weighted_quantile_row(v, c, cut) -> int:
    """Row of the smallest v whose running weight c reaches ``cut``.

    Rows of positive weight are taken in order of (v, row) and their weights
    added one by one; the first row at which the sum reaches ``cut`` is
    returned, or the last row when it never does.
    """
    rows = sorted((i for i in range(len(v)) if c[i] > 0), key=lambda i: (v[i], i))
    total = 0.0
    for i in rows:
        total += c[i]
        if total >= cut:
            return i
    return rows[-1]


def amise_bandwidth(n: int, sigma: float, support: float, theta22: float) -> float:
    """Closed-form asymptotically optimal bandwidth for the Gaussian kernel."""
    roughness = 1.0 / (2.0 * np.sqrt(np.pi))
    return float((roughness * sigma**2 * support / (n * theta22)) ** 0.2)


def scipy_yu_jones_factor(tau: float) -> float:
    """Yu-Jones factor {tau(1-tau) / phi(PHI^-1(tau))^2}^(1/5) through scipy's normal."""
    density = stats.norm.pdf(stats.norm.ppf(tau))
    return float((tau * (1.0 - tau) / density**2) ** 0.2)


def random_tie_free_sample(rng: np.random.Generator, n: int):
    """Uniformly random tie-free (x, y) pair on [0, 1]^2."""
    while True:
        x = rng.uniform(0.0, 1.0, n)
        y = rng.uniform(0.0, 1.0, n)
        if len(np.unique(x)) == n and len(np.unique(y)) == n:
            return x, y
