"""A reference pipeline built from other algorithms than ``locindex``'s.

Each function recomputes one stage from its published definition with
general-purpose numpy and scipy routines, favouring plainness over speed, so
that a test can compare a whole stage with it instead of with earlier
outputs.
"""

import math

import numpy as np
import scipy.sparse
from scipy.optimize import linprog


def plug_in_bandwidth(x: np.ndarray, y: np.ndarray) -> tuple[float, int, str | None]:
    """The one-stage blocked-quartic plug-in bandwidth.

    The blocked quartics' curvature and residual variance go straight into
    the AMISE formula; Ruppert, Sheather and Wand's (1995) direct plug-in
    would use the blocked fits only to set pilot bandwidths.
    Returns (h, block count, fallback reason or None).  The rows are ordered
    by (x, y) and cut into N blocks of consecutive rows, the first n mod N
    blocks one row longer.  A quartic is fitted to each block by
    ``np.polyfit`` on x centred at the block's mean, for N = 1..Nmax with
    Nmax = max(min(d // 20, 5), 1), d the number of distinct x, and N is
    chosen by Mallows' Cp.  The floors on the residual variance and the
    curvature, the fallback to ptp(x) n^(-1/5) and the normal kernel's
    constants are those that ``locindex.dpi_bandwidth`` documents.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    n_max = max(min(len(np.unique(x)) // 20, 5), 1)
    fits = {}  # N -> (residual sum of squares, mean squared second derivative)
    for blocks in range(1, n_max + 1):
        sizes = [n // blocks + (b < n % blocks) for b in range(blocks)]
        edges = np.concatenate([[0], np.cumsum(sizes)])
        rss = curvature = 0.0
        for lo, hi in zip(edges[:-1], edges[1:]):
            xc = xs[lo:hi] - xs[lo:hi].mean()
            quartic = np.polyfit(xc, ys[lo:hi], 4)
            rss += float(np.sum((ys[lo:hi] - np.polyval(quartic, xc)) ** 2))
            curvature += float(np.sum(np.polyval(np.polyder(quartic, 2), xc) ** 2))
        fits[blocks] = (rss, curvature / n)
    amplitude, support = float(np.ptp(y)), float(np.ptp(x))
    variance_floor = 1e-12 * amplitude**2
    curvature_floor = 1e-12 * (amplitude / support**2) ** 2
    scale = fits[n_max][0] / (n - 5 * n_max)
    chosen = 1
    if amplitude > 0.0 and scale > variance_floor:
        cp = {blocks: rss / scale - (n - 10 * blocks) for blocks, (rss, _) in fits.items()}
        chosen = min(cp, key=lambda blocks: (cp[blocks], blocks))
    rss, curvature = fits[chosen]
    sigma2 = rss / (n - 5 * chosen)
    if amplitude == 0.0:
        reason = "y is constant"
    elif curvature <= curvature_floor:
        reason = "curvature ~ 0"
    elif sigma2 <= variance_floor:
        reason = "residual variance ~ 0"
    else:
        roughness = 1.0 / (2.0 * math.sqrt(math.pi))  # of the normal kernel; mu2 = 1
        return (roughness * sigma2 * support / (n * curvature)) ** 0.2, chosen, None
    return support * n ** -0.2, chosen, reason


def mean_curve(x: np.ndarray, y: np.ndarray, grid: np.ndarray, bandwidth: float) -> np.ndarray:
    """The local linear mean curve on ``grid``: at each grid point x0, the
    intercept of the weighted least-squares line in x - x0, by ``lstsq``.

    The weights are the Gaussian kernel exp(-u^2 / 2) / sqrt(2 pi) of
    u = (x - x0) / h, on the rows whose weight reaches 1e-12, and the
    problem is solved as ordinary least squares on the rows scaled by the
    square roots of their weights.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    values = []
    for x0 in np.asarray(grid, dtype=float).tolist():
        u = (x - x0) / bandwidth
        w = np.exp(-0.5 * u * u) / np.sqrt(2 * np.pi)
        keep = w >= 1e-12
        root = np.sqrt(w[keep])
        design = np.column_stack([root, root * (x[keep] - x0)])
        values.append(np.linalg.lstsq(design, root * y[keep], rcond=None)[0][0])
    return np.array(values)


def check_loss_line(x: np.ndarray, y: np.ndarray, x0: float, bandwidth: float,
                    tau: float) -> tuple[float, float]:
    """Local linear check-loss coefficients (b0, b1) at x0 by linear programming.

    Variables are b0, b1 (free) and the parts u, v >= 0 of each residual,
    with b0 + b1 (x_i - x0) + u_i - v_i = y_i and cost w_i (tau u_i +
    (1 - tau) v_i) over the rows whose Gaussian kernel weight w_i reaches
    1e-12, solved by HiGHS.  The coefficients are optimal up to the solver's
    tolerance.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    u = (x - x0) / bandwidth
    w = np.exp(-0.5 * u * u) / np.sqrt(2 * np.pi)
    keep = w >= 1e-12
    m = int(keep.sum())
    eye = scipy.sparse.identity(m, format="csr")
    design = scipy.sparse.csr_matrix(np.column_stack([np.ones(m), x[keep] - x0]))
    res = linprog(
        np.concatenate([[0.0, 0.0], tau * w[keep], (1.0 - tau) * w[keep]]),
        A_eq=scipy.sparse.hstack([design, eye, -eye], format="csr"),
        b_eq=y[keep],
        bounds=[(None, None)] * 2 + [(0.0, None)] * (2 * m),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"linprog failed at x0 = {x0}: {res.message}")
    return float(res.x[0]), float(res.x[1])


def median_curve(x: np.ndarray, y: np.ndarray, grid: np.ndarray, bandwidth: float,
                 tau: float = 0.5) -> tuple[np.ndarray, np.ndarray]:
    """The local linear tau-quantile curve on ``grid``: the intercepts (the
    curve's values) and slopes of ``check_loss_line`` at each grid point."""
    lines = np.array([check_loss_line(x, y, x0, bandwidth, tau) for x0 in np.asarray(grid)])
    return lines[:, 0], lines[:, 1]
