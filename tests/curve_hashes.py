"""Print the curve hashes that CHANGES.md cites, one curve a line.

Each line names a curve and gives the sha256 of its values' bytes, first 16
hex digits.  Run it from the repository root on a tree before and after a
change and compare the two outputs:

    PYTHONPATH=src python tests/curve_hashes.py

The curves:

- The synthetic pair: x ~ U(0, 1) and
  y = clip(0.3 + 0.5 x + 0.1 sin 8x + N(0, 0.1^2), 0, 1), drawn with
  ``np.random.default_rng(seed)`` and jittered with sd 1e-5 and the same
  seed, as the benchmark jitters it.  Grid 1000; the mean at the plug-in
  bandwidth of the jittered pair and the median at its Yu-Jones adjustment.
  n = 1e3 and 1e4 at seeds 0 and 7, both losses, and n = 1e5 at seed 0, the
  median.
- The rounded samples, whose x and y are tied: the synthetic pair at seed 0,
  not jittered, x and y rounded to 2 decimals at n = 800 and 2000 and to 3
  at n = 5000.  Check loss at tau = 0.1, 0.25, 0.5 and 0.9, fixed bandwidth
  0.06, grid 300.
- The fixture's six raw median curves: each ordered pair of
  ``data/synthetic_marks.csv`` as ``association.fit_pair`` fits it with
  ``jitter_sd = 0``, at the Yu-Jones adjustment of the plug-in bandwidth of
  the raw pair, grid 1000.  Their marks are tied, so many grid points go
  through ``local_linear_fit``.

A dot product of more than 10,000 rows can round otherwise on more BLAS
threads, so BLAS runs on one, set before numpy is imported.  This script is
not a test: pytest does not collect it.
"""

import hashlib
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

from locindex import (  # noqa: E402
    BandwidthEstimate,
    FitSpec,
    LossKind,
    PairedSample,
    dpi_bandwidth,
    fit_curve,
    fit_pair,
    jitter,
    load_csv,
    median_adjust,
    normalize,
    pair,
)

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "synthetic_marks.csv"

TAUS = (0.1, 0.25, 0.5, 0.9)


def synthetic_pair(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    y = np.clip(0.3 + 0.5 * x + 0.1 * np.sin(8.0 * x) + rng.normal(0.0, 0.1, n), 0.0, 1.0)
    return x, y


def rounded_sample(n: int) -> PairedSample:
    decimals = 3 if n >= 5000 else 2
    x, y = synthetic_pair(n, 0)
    return PairedSample(x=np.round(x, decimals), y=np.round(y, decimals))


def digest(values: np.ndarray) -> str:
    return hashlib.sha256(values.tobytes()).hexdigest()[:16]


def curves():
    """(name, values) of every curve, in the order printed."""
    for n, seed, losses in [(1_000, 0, "mean median"), (1_000, 7, "mean median"),
                            (10_000, 0, "mean median"), (10_000, 7, "mean median"),
                            (100_000, 0, "median")]:
        sample = jitter(PairedSample(*synthetic_pair(n, seed)), 1e-5, seed)
        h = dpi_bandwidth(sample)
        for loss in losses.split():
            spec = (FitSpec(loss=LossKind.quadratic(), bandwidth=h, grid_size=1000)
                    if loss == "mean" else
                    FitSpec(loss=LossKind.median(), bandwidth=median_adjust(h), grid_size=1000))
            yield f"pair n={n} seed={seed} {loss}", fit_curve(sample, spec).values
    h = BandwidthEstimate(value=0.06, method="fixed")
    for n in (800, 2000, 5000):
        sample = rounded_sample(n)
        for tau in TAUS:
            spec = FitSpec(loss=LossKind(kind="quantile", tau=tau), bandwidth=h, grid_size=300)
            yield f"rounded n={n} tau={tau}", fit_curve(sample, spec).values
    marks = normalize(load_csv(FIXTURE))
    for x_name in marks.column_names:
        for y_name in marks.column_names:
            if x_name != y_name:
                fit = fit_pair(pair(marks, x_name, y_name),
                               FitSpec(loss=LossKind.median(), grid_size=1000), jitter_sd=0.0)
                yield f"raw {x_name}->{y_name} median", fit.curve.values


def main() -> int:
    for name, values in curves():
        print(f"{name:<32} {digest(values)}")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
