"""A reference pipeline built from other algorithms than ``locindex``'s.

Each function recomputes one stage from its published definition with
general-purpose numpy routines, favouring plainness over speed, so that a
test can compare a whole stage with it instead of with earlier outputs.
"""

import math

import numpy as np


def plug_in_bandwidth(x: np.ndarray, y: np.ndarray) -> tuple[float, int, str | None]:
    """The direct plug-in bandwidth of Ruppert, Sheather and Wand (1995).

    Returns (h, block count, fallback reason or None).  The rows are ordered
    by (x, y) and cut into N blocks of consecutive rows, the first n mod N
    blocks one row longer.  A quartic is fitted to each block by
    ``np.polyfit`` on x centred at the block's mean, for N = 1..Nmax with
    Nmax = max(min(n // 20, 5), 1), and N is chosen by Mallows' Cp.  The
    floors on the residual variance and the curvature, the fallback to
    ptp(x) n^(-1/5) and the normal kernel's constants are those that
    ``locindex.dpi_bandwidth`` documents.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    n_max = max(min(n // 20, 5), 1)
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
