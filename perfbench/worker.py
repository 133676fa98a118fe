"""One workload in one process: timed repetitions, optional trace, checks.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

``run.py`` starts this as its worker process and reads the JSON object on
the last line of its standard output.  ``--setup-only`` measures set-up in a
fresh interpreter: importing ``locindex.cli`` plus building the workload's
inputs through the program's constructors, without the benchmark's own
random generation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
SETUP_CALIBRATE_S = 0.25  # length of the calibration burst after a set-up probe


def pin_to_one_cpu() -> None:
    """Keeps this process, and the BLAS threads it will start, on one CPU.

    Called before numpy is imported, so OpenBLAS sizes its pool to one
    thread.  The calibration unit then runs on the CPU the workload runs on,
    and the workload does not spin a BLAS thread on the CPU the rest of the
    machine uses.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def setup_only(name: str, seed: int) -> dict:
    t0 = time.perf_counter()
    import locindex.cli  # noqa: F401  (the import is what is timed)

    t1 = time.perf_counter()
    import workloads

    workload = workloads.make(name, seed)
    raw = workload.generate()
    t2 = time.perf_counter()
    workload.build(raw)
    t3 = time.perf_counter()
    import calibration

    calibration.unit()
    return {"setup_s": (t1 - t0) + (t3 - t2), "unit_times": calibration.burst(SETUP_CALIBRATE_S)}


class FitCapture:
    """Keeps (sample, spec, curve) of every fit_curve call of the current repetition."""

    def __init__(self, module) -> None:
        self.fits: list = []
        original = module.fit_curve

        def capturing(sample, spec):
            curve = original(sample, spec)
            self.fits.append((sample, spec, curve))
            return curve

        module.fit_curve = capturing


def timed_loop(workload, inputs, capture, seconds: float, tracer=None):
    """Repetitions until the next one would end past ``seconds``.

    A calibration sampler runs during each repetition; a repetition too short
    for three samples gets three more units right after it, untimed.  Returns the wall time of each
    repetition less the sampler's time, the unit times sampled for each, the
    ops of each, and the fits of the last one.
    """
    import calibration

    sampler = calibration.Sampler()
    times, unit_times, rep_ops = [], [], []
    start = time.perf_counter()
    while True:
        capture.fits = []
        with sampler:
            t = time.perf_counter()
            if tracer is None:
                result = workload.run(inputs)
            else:
                tracer.rep = len(times)
                with tracer.span("bench.rep"):
                    result = workload.run(inputs)
        times.append(time.perf_counter() - t - sampler.spent)
        unit_times.append(sampler.samples if len(sampler.samples) >= 3
                          else sampler.samples + calibration.burst(0.0))
        rep_ops.append(workload.ops(inputs, result))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(times) > seconds:
            return times, unit_times, rep_ops, capture.fits


def install_trace(tracer, locindex) -> None:
    A, cli, smoothing = locindex.association, locindex.cli, locindex.smoothing

    def fit_attrs(args, kwargs, curve):
        return {"loss": curve.spec.loss.kind, "points": curve.grid.size}

    def dpi_attrs(args, kwargs, estimate):
        diag = estimate.diagnostics
        return {"fallback": bool(diag is not None and diag.fallback)}

    def matrix_attrs(args, kwargs, matrix):
        k = len(matrix.labels)
        return {"pairs": k * (k - 1), "failed": len(matrix.failures)}

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "loc_matrix", "association.loc_matrix", matrix_attrs)
    tracer.wrap(cli, "load_csv", "dataset.load_csv")
    tracer.wrap(cli, "normalize", "dataset.normalize")
    tracer.wrap(A, "jitter", "dataset.jitter")
    tracer.wrap(A, "dpi_bandwidth", "bandwidth.dpi_bandwidth", dpi_attrs)
    tracer.wrap(A, "median_adjust", "bandwidth.median_adjust")
    tracer.wrap(A, "fit_curve", "smoothing.fit_curve", fit_attrs)
    tracer.wrap(A, "step_from_curve", "rearrangement.step_from_curve")
    tracer.wrap(A, "loc_index", "rearrangement.loc_index")
    for name in ("spearman", "liebscher_zeta", "finite_population_I", "rank_step_function"):
        tracer.wrap(A, name, f"association.{name}")
    tracer.wrap(smoothing, "local_linear_fit", "smoothing.local_linear_fit")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    pin_to_one_cpu()

    if args.setup_only:
        print(json.dumps(setup_only(args.workload, args.seed)))
        return 0

    import locindex

    if Path(locindex.__file__).resolve().parent != ROOT / "src" / "locindex":
        raise SystemExit(f"imported locindex from {locindex.__file__}, not from this checkout")
    import calibration
    import layers
    import tracing
    import workloads

    workload = workloads.make(args.workload, args.seed)
    inputs = workload.build(workload.generate())
    capture = FitCapture(locindex.association)

    warm = workloads.warm_up_copy(workload)
    warm.run(warm.build(warm.generate()))

    budget = args.seconds / 2 if args.trace else args.seconds
    times, unit_times, rep_ops, fits = timed_loop(workload, inputs, capture, budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    traced_times, traced_units, tracer = [], [], None
    if args.trace:
        tracer = tracing.Tracer()
        install_trace(tracer, locindex)
        try:
            traced_times, traced_units, traced_ops, _ = timed_loop(
                workload, inputs, capture, budget, tracer)
        finally:
            tracer.restore()
        rep_ops += traced_ops

    report = layers.check_and_count(workload, inputs, rep_ops[len(times) - 1], fits, rep_ops)
    report.update(rep_times=times, unit_times=unit_times, scaled=workload.scaled,
                  peak_rss_mb=peak_rss_mb)
    if tracer is not None:
        report["layers"] = layers.per_layer(tracer.spans, len(traced_times), report)
        traced, untraced = traced_times, times
        if workload.scaled:
            traced = calibration.scale_reps(traced_times, traced_units)
            untraced = calibration.scale_reps(times, unit_times)
        report["layers"]["bench.trace_overhead_s"] = (
            statistics.median(traced) - statistics.median(untraced))
        report["traced_rep_times"] = traced_times
        spans_out = ROOT / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}.json"
        spans_out.parent.mkdir(exist_ok=True)
        with spans_out.open("w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent", "rep", "attrs"],
                       "spans": tracer.spans}, fh)
        report["spans_file"] = str(spans_out.relative_to(ROOT))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
