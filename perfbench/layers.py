"""Turn a run's ops, fits and spans into the reported numbers.

``check_and_count`` verifies the last untraced repetition and counts failed
operations over every repetition; ``per_layer`` folds the traced run's spans
into one value per layer metric (the median over traced repetitions).
"""

from __future__ import annotations

import math
import statistics
from collections import defaultdict

import verification
import workloads
from locindex import rearrangement
from tracing import ATTRS, END, NAME, REP, SPAN_ID, START, self_times

# name, unit, better -- the names later changes cite, in BENCHMARK.json order
PER_LAYER = (
    ("smoothing.median_fit_s", "s", "lower"),
    ("smoothing.median_point_us", "us", "lower"),
    ("smoothing.mean_fit_s", "s", "lower"),
    ("smoothing.mean_point_us", "us", "lower"),
    ("smoothing.active_share", "ratio", "lower"),
    ("smoothing.local_fit_calls", "count", "lower"),
    ("smoothing.median_obj_gap_max", "ratio", "lower"),
    ("smoothing.mean_fit_err_max", "abs", "lower"),
    ("bandwidth.dpi_s", "s", "lower"),
    ("bandwidth.dpi_calls", "count", "lower"),
    ("bandwidth.fallbacks", "count", "lower"),
    ("association.ranks_s", "s", "lower"),
    ("association.rank_identity_err", "abs", "lower"),
    ("association.loc_matrix_s", "s", "lower"),
    ("association.pairs_failed", "count", "lower"),
    ("association.pairs_attempted", "count", "higher"),
    ("dataset.load_s", "s", "lower"),
    ("dataset.jitter_s", "s", "lower"),
    ("dataset.jitter_calls", "count", "lower"),
    ("rearrangement.loc_s", "s", "lower"),
    ("rearrangement.loc_calls", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
)

RANK_SPANS = {"association.spearman", "association.liebscher_zeta",
              "association.finite_population_I", "association.rank_step_function"}
MAX_PROBLEMS = 20


def check_and_count(workload, inputs, reference, fits, rep_ops) -> dict:
    """Verify ``reference`` (the ops whose fits are ``fits``); count every rep.

    An op of any repetition fails if it has a problem of its own, if its
    counterpart in ``reference`` failed verification, or if its values differ
    from the reference's (the program is deterministic for a fixed seed).
    """
    by_key = {workload.fit_key(inputs, sample, spec): (sample, curve)
              for sample, spec, curve in fits}
    problems: dict[str, str] = {}
    mean_err, median_gap, identity_err = 0.0, -math.inf, 0.0
    active, active_base, points = 0, 0, 0
    for op in reference:
        if op.problem:
            problems[op.name] = op.problem
            continue
        if op.name == "ranks":
            bad = [k for k, v in op.values.items() if not math.isfinite(v)]
            err, ok = verification.rank_identity_error(
                op.values["rank_loc"], op.values["finite_population_I"])
            identity_err = max(identity_err, err)
            if bad or not ok:
                problems[op.name] = f"non-finite {bad}" if bad else (
                    f"rank LOC differs from finite-population I by {err:.3g}")
            continue
        value = op.values.get("loc")
        problem = verification.loc_value_problem(value)
        if problem is None and op.name not in by_key:
            problem = "no fit_curve call was seen for this op"
        if problem is None:
            sample, curve = by_key[op.name]
            if rearrangement.loc_index(rearrangement.step_from_curve(curve)).value != value:
                problem = "LOC value differs from the LOC of its fitted curve"
            check = verification.check_curve(sample, curve)
            points += check.points
            if curve.spec.loss.kind == "quadratic":
                mean_err = max(mean_err, check.worst)
                active += verification.active_rows(sample.x, curve.grid,
                                                   curve.spec.bandwidth.value)
                active_base += sample.n * curve.grid.size
            else:
                median_gap = max(median_gap, check.worst)
            if problem is None and not check.ok:
                problem = "; ".join(check.problems[:3])
        if problem is not None:
            problems[op.name] = problem

    ref_values = {op.name: op.values for op in reference}
    attempted = failed = 0
    for ops in rep_ops:
        for op in ops:
            attempted += 1
            if op.problem or op.name in problems or op.values != ref_values.get(op.name):
                failed += 1
    samples = {key: sample for key, (sample, _) in by_key.items()}
    return {
        "ops_attempted": attempted,
        "ops_failed": failed,
        "problems": [f"{k}: {v}" for k, v in sorted(problems.items())][:MAX_PROBLEMS],
        "values": {op.name: op.values for op in reference},
        "inputs_sha256": workloads.inputs_digest(samples),
        "checks": {
            "points_checked": points,
            "smoothing.mean_fit_err_max": mean_err,
            "smoothing.median_obj_gap_max": median_gap if median_gap > -math.inf else 0.0,
            "association.rank_identity_err": identity_err,
            "smoothing.active_share": active / active_base if active_base else 0.0,
        },
    }


def per_layer(spans: list[list], reps: int, report: dict) -> dict[str, float]:
    """Per-layer metrics: per-repetition sums, then the median over repetitions."""
    selfs = self_times(spans)
    per_rep = [defaultdict(float) for _ in range(reps)]
    for s in spans:
        r = per_rep[s[REP]]
        name, dur, attrs = s[NAME], s[END] - s[START], s[ATTRS] or {}
        if name == "smoothing.fit_curve":
            kind = "median" if attrs["loss"] == "quantile" else "mean"
            r[f"smoothing.{kind}_fit_s"] += dur
            r[f"{kind}_points"] += attrs["points"]
        elif name == "smoothing.local_linear_fit":
            r["smoothing.local_fit_calls"] += 1
        elif name == "bandwidth.dpi_bandwidth":
            r["bandwidth.dpi_s"] += dur
            r["bandwidth.dpi_calls"] += 1
            r["bandwidth.fallbacks"] += attrs["fallback"]
        elif name in RANK_SPANS:
            r["association.ranks_s"] += dur
        elif name == "association.loc_matrix":
            r["association.loc_matrix_s"] += selfs[s[SPAN_ID]]
            r["association.pairs_failed"] += attrs["failed"]
            r["association.pairs_attempted"] += attrs["pairs"]
        elif name in ("dataset.load_csv", "dataset.normalize"):
            r["dataset.load_s"] += dur
        elif name == "dataset.jitter":
            r["dataset.jitter_s"] += dur
            r["dataset.jitter_calls"] += 1
        elif name in ("rearrangement.loc_index", "rearrangement.step_from_curve"):
            r["rearrangement.loc_s"] += dur
            r["rearrangement.loc_calls"] += name == "rearrangement.loc_index"
        elif name == "cli.main":
            r["cli.self_s"] += selfs[s[SPAN_ID]]
    for r in per_rep:
        for kind in ("median", "mean"):
            if r[f"{kind}_points"]:
                r[f"smoothing.{kind}_point_us"] = (
                    1e6 * r[f"smoothing.{kind}_fit_s"] / r[f"{kind}_points"])
    out = {name: float(statistics.median(r[name] for r in per_rep))
           for name, _, _ in PER_LAYER if name != "bench.trace_overhead_s"}
    out.update({k: v for k, v in report["checks"].items() if k in out})
    return out

