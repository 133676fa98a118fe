"""The benchmark's workloads: input generation, the timed body, and its ops.

Every workload runs against the public API of ``locindex``.  Calls go through
module attributes (``locindex.association.fit_curve`` and so on), resolved
at call time, so the traced run sees them through its wrappers.

An operation is one (pair, loss) LOC value or one pair's set of rank
coefficients.  It fails if it raises, if a LOC value is non-finite or
negative, or if it fails verification.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import locindex.association
import locindex.cli
import locindex.dataset
from locindex import FitSpec, LossKind, PairedSample, PsiFunction

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = "data/synthetic_marks.csv"
JITTER_SD = 1e-5
GRID = 1000
LOSSES = {"mean": LossKind.quadratic(), "median": LossKind.median()}


@dataclass
class Op:
    """One operation's outputs, or why it failed."""

    name: str
    values: dict[str, float] = field(default_factory=dict)
    problem: str | None = None


def describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def synthetic_pair(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The ROADMAP pair: x ~ U(0,1), y = clip(0.3 + 0.5x + 0.1 sin 8x + N(0, 0.1^2), 0, 1)."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 1.0, n)
    y = np.clip(0.3 + 0.5 * x + 0.1 * np.sin(8.0 * x) + rng.normal(0.0, 0.1, n), 0.0, 1.0)
    return x, y


def inputs_digest(samples: dict[str, PairedSample]) -> str:
    """sha256 over the post-jitter (x, y) of every fit, in key order."""
    h = hashlib.sha256()
    for key in sorted(samples):
        h.update(key.encode())
        h.update(np.ascontiguousarray(samples[key].x).tobytes())
        h.update(np.ascontiguousarray(samples[key].y).tobytes())
    return h.hexdigest()


class FixtureMatrix:
    # The paper's own traffic, and the only workload that crosses cli,
    # dataset.load_csv and association.loc_matrix.  About 95% of the time is
    # in median IRLS fits, where per-call Python overhead dominates; the
    # kernel window already covers 50-98% of rows per grid point, so
    # windowing has nothing to trim here.  n = 52, 6 ordered pairs x 2
    # losses = 12 fits, 12,000 local_linear_fit calls.
    name = "fixture-matrix"
    # run_s is scaled to the reference speed (calibration.py): over 28
    # repetitions in one process, scaling cut the spread of log time from
    # 0.234 to 0.067, and the spread of ten runs from 0.126 to 0.081.
    scaled = True

    def __init__(self, seed: int, grid: int = GRID) -> None:
        self.seed = seed
        self.argv = ["loc-matrix", "--input", str(ROOT / FIXTURE), "--loss", "both",
                     "--format", "json", "--seed", str(seed)]
        if grid != GRID:
            self.argv += ["--grid", str(grid), "--m", str(grid)]

    def generate(self):
        return ROOT / FIXTURE

    def build(self, path):
        return locindex.dataset.normalize(locindex.dataset.load_csv(path))

    def run(self, sample) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = locindex.cli.main(self.argv)
        return code, out.getvalue()

    def ops(self, sample, result) -> list[Op]:
        code, text = result
        names = sample.column_names
        pairs = [(a, b) for a in names for b in names if a != b]
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            return [Op(f"{loss} {a}->{b}", problem=f"output is not JSON: {exc}")
                    for loss in LOSSES for a, b in pairs]
        ops = []
        for loss in LOSSES:
            block = payload.get(loss, {})
            labels = block.get("labels", [])
            failures = block.get("failures", {})
            for a, b in pairs:
                op = Op(f"{loss} {a}->{b}")
                try:
                    op.values["loc"] = block["entries"][labels.index(a)][labels.index(b)]
                except (KeyError, ValueError, IndexError, TypeError) as exc:
                    op.problem = f"no entry in the output: {describe(exc)}"
                if f"{a}->{b}" in failures:
                    op.problem = failures[f"{a}->{b}"]
                elif code != 0 and op.problem is None:
                    op.problem = f"loc-matrix exited with status {code}"
                ops.append(op)
        return ops

    def fit_key(self, sample, fitted: PairedSample, spec: FitSpec) -> str:
        """Name the op a fit belongs to by matching the jittered columns."""
        def nearest(values):
            gaps = {c: float(np.max(np.abs(values - sample.columns[c])))
                    for c in sample.column_names}
            return min(gaps, key=gaps.get)
        loss = "mean" if spec.loss.kind == "quadratic" else "median"
        return f"{loss} {nearest(fitted.x)}->{nearest(fitted.y)}"


class PairWorkload:
    """One synthetic pair through the calls that ``cmd_compare`` makes."""

    def __init__(self, name: str, n: int, losses: tuple[str, ...], seed: int,
                 scaled: bool = False, grid: int = GRID) -> None:
        self.name = name
        self.scaled = scaled
        self.n = n
        self.losses = losses
        self.seed = seed
        self.grid = grid

    def generate(self):
        return synthetic_pair(self.n, self.seed)

    def build(self, raw):
        x, y = raw
        return PairedSample(x=x, y=y)

    def run(self, sample: PairedSample) -> list[Op]:
        A = locindex.association
        ranks = Op("ranks")
        try:
            jittered = A.jitter(sample, JITTER_SD, self.seed)
        except Exception as exc:  # every op of this repetition fails
            problem = describe(exc)
            return [Op("ranks", problem=problem)] + [
                Op(f"loc_{loss}", problem=problem) for loss in self.losses]
        try:
            ranks.values = {
                "pearson": A.pearson(sample),
                "spearman": A.spearman(jittered),
                "zeta_quadratic": A.liebscher_zeta(jittered, PsiFunction.quadratic()),
                "zeta_absolute": A.liebscher_zeta(jittered, PsiFunction.absolute()),
                "finite_population_I": A.finite_population_I(jittered),
                "rank_loc": A.loc_index(A.rank_step_function(jittered)).value,
            }
        except Exception as exc:
            ranks.problem = describe(exc)
        ops = [ranks]
        bandwidth = None
        for loss in self.losses:
            op = Op(f"loc_{loss}")
            try:
                if bandwidth is None:
                    bandwidth = A.dpi_bandwidth(jittered)
                bw = bandwidth if loss == "mean" else A.median_adjust(bandwidth, 0.5)
                curve = A.fit_curve(jittered, FitSpec(loss=LOSSES[loss], bandwidth=bw,
                                                      grid_size=self.grid))
                op.values["loc"] = A.loc_index(A.step_from_curve(curve)).value
            except Exception as exc:
                op.problem = describe(exc)
            ops.append(op)
        return ops

    def ops(self, sample, result: list[Op]) -> list[Op]:
        return result

    def fit_key(self, sample, fitted: PairedSample, spec: FitSpec) -> str:
        return "loc_mean" if spec.loss.kind == "quadratic" else "loc_median"


def make(name: str, seed: int):
    if name == "fixture-matrix":
        return FixtureMatrix(seed)
    if name == "pair-both-1e4":
        # The check-loss fit at a size where arithmetic over n rows dominates,
        # not call overhead: a solver or window change that helps
        # fixture-matrix can cost here.  The median fit is about 95% of the
        # time; 33% of rows are active per grid point.
        # run_s is wall time, not scaled: this workload slowed by only 0.25-0.46
        # times as much as the calibration unit did (log-log slope over 23
        # repetitions), so scaling over-corrected and widened the spread of
        # ten runs from 0.134 to 0.151.
        return PairWorkload(name, 10_000, ("mean", "median"), seed, scaled=False)
    if name == "pair-mean-1e5":
        # No check-loss fit: isolates the closed-form quadratic fit (~93%),
        # the blocked-quartic lstsq in dpi_bandwidth (~2%) and the ranks (~5%)
        # at scale.  Only about 22% of rows carry kernel weight per grid point, so
        # this is where windowing shows; a check-loss solver change must
        # leave it unchanged.
        # run_s is scaled: it cut the spread of ten runs from 0.116 to 0.072.
        return PairWorkload(name, 100_000, ("mean",), seed, scaled=True)
    raise ValueError(f"unknown workload {name!r}")


def warm_up_copy(workload):
    """A small instance of the same workload, run untimed so lazy imports finish."""
    if isinstance(workload, FixtureMatrix):
        return FixtureMatrix(workload.seed, grid=20)
    return PairWorkload(workload.name, 400, workload.losses, workload.seed,
                        workload.scaled, grid=20)
