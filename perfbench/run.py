"""Benchmark of the locindex LOC pipeline; see perfbench/README.md.

    python3 perfbench/run.py --workload fixture-matrix --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones (run_s, setup_s, peak_rss_mb); with
``--trace 1`` they are the per-layer ones.  The lines before it give the same
numbers for people, with the LOC values, rank coefficients and a digest of
the inputs.  Exit status 2 means the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
NAMES = ("fixture-matrix", "pair-both-1e4", "pair-mean-1e5")
SETUP_PROBES = 5
RUN_LIMIT_S = 170.0
REQUIRED = ("src/locindex/__init__.py", "data/synthetic_marks.csv")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def call_worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} did not finish in {timeout:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, trace: int, deadline: float,
                 units: dict[str, str]):
    """Runs one workload; returns (summary lines, result object)."""
    common = ["--workload", name, "--seed", str(seed)]
    probes = []
    if not trace:
        probes = [call_worker(common + ["--setup-only"], deadline) for _ in range(SETUP_PROBES)]
    report = call_worker(common + ["--seconds", str(seconds), "--trace", str(trace)], deadline)

    unit_times = [u for rep in report["unit_times"] for u in rep]
    wall = report["rep_times"]
    scaled = calibration.scale_reps(wall, report["unit_times"])
    speed = calibration.REFERENCE_UNIT_S / statistics.median(unit_times)
    times = scaled if report["scaled"] else wall
    q1, med, q3 = quartiles(times)
    attempted, failed = report["ops_attempted"], report["ops_failed"]
    lines = [
        f"== {name}  seed {seed}  trace {trace}",
        f"run_s          {med:.4f} s  (median {'at reference speed' if report['scaled'] else 'wall'}"
        f"; q1 {q1:.4f}, q3 {q3:.4f}; {len(times)} reps)",
        f"wall run_s     {statistics.median(wall):.4f} s  (median; host speed {speed:.3f} of "
        f"reference, {len(unit_times)} calibration units)",
        f"scaled run_s   {statistics.median(scaled):.4f} s  (median at reference speed)",
    ]
    if probes:
        sq1, smed, sq3 = quartiles([calibration.scale(p["setup_s"], p["unit_times"])
                                    for p in probes])
        setup_wall = statistics.median(p["setup_s"] for p in probes)
        lines.append(f"setup_s        {smed:.4f} s  (median of {len(probes)} fresh "
                     f"interpreters at reference speed; q1 {sq1:.4f}, q3 {sq3:.4f}; "
                     f"wall {setup_wall:.4f} s)")
    lines += [
        f"peak_rss_mb    {report['peak_rss_mb']:.1f} MB",
        f"failed_share   {failed / attempted:.4f}  ({failed} of {attempted} ops failed)",
        f"ops_attempted  {attempted} ops",
        f"inputs_sha256  {report['inputs_sha256']}",
    ]
    lines += [f"check          {k} {v:.6g}" for k, v in report["checks"].items()]
    lines += [f"problem        {p}" for p in report["problems"]]
    for op, values in report["values"].items():
        lines += [f"value          {op} {key} {v!r}" for key, v in values.items()]
    if trace:
        tq1, tmed, tq3 = quartiles(report["traced_rep_times"])
        lines.append(f"traced wall    {tmed:.4f} s  (median; q1 {tq1:.4f}, q3 {tq3:.4f}; "
                     f"{len(report['traced_rep_times'])} reps); spans in {report['spans_file']}")
        metrics = {k: {"value": v, "unit": units[k]} for k, v in report["layers"].items()}
        lines += [f"{k:<32} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    else:
        metrics = {
            "run_s": {"value": med, "unit": "s"},
            "setup_s": {"value": smed, "unit": "s"},
            "peak_rss_mb": {"value": report["peak_rss_mb"], "unit": "MB"},
        }
    correct = failed == 0 and all(math.isfinite(m["value"]) for m in metrics.values())
    return lines, {"correct": correct, "attempted": attempted, "failed": failed,
                   "metrics": metrics}


def load_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="locindex LOC pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measuring time per workload (split in half when traced)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a locindex checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    units = load_units()

    names = NAMES if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            lines, results[name] = run_workload(name, args.seed, args.seconds, args.trace,
                                                time.monotonic() + RUN_LIMIT_S, units)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        print("\n".join(lines), flush=True)

    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
