"""Command-line front end: summarize, fit, plot-data, loc-matrix, compare.

``dataset.load_csv`` decides the score columns and their numbers of items;
``--max-items`` gives the numbers in header order.  Every command that fits
a curve runs each ordered pair through ``association.fit_pair``, jittered
with the pair's own seed, so a pair gets the same curves and LOC in every
command.  ``fit`` is ``plot-data`` with both curves and the bandwidths
reported.  summarize, compare and loc-matrix build their result once and
print it as a table, csv or json.  ``--m`` must equal ``--grid`` for
loc-matrix and compare and has no other effect.

Configuration precedence is flags > config file > built-in defaults; the
config file is JSON, found via --config or the LOCINDEX_CONFIG environment
variable.  Numeric output uses 6 decimal places in table mode, and LOC
matrices are presented multiplied by 1000 (table/csv modes only; JSON carries
both the unscaled and the scaled entries).

A plug-in bandwidth that falls back prints one ``warning: ...`` line on
stderr per fit, with the reason.

Exit status: 0 on success, 1 when some ordered pairs or curves failed, or
compare's coefficients are undefined for a constant column, but others were
produced, 2 on input errors, among them a config value not of its flag's type,
a ``--jitter-sd`` outside [0, 1), a ``--grid`` or ``--bins`` too large for an
array, an input, config or ``--out`` path that cannot be read or written, an
input that ``load_csv`` rejects, and compare's ranks on data that the jitter
left tied (curves fit tied data exactly).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .association import (
    PairFit,
    PsiFunction,
    TiesError,
    finite_population_I,
    fit_pair,
    liebscher_zeta,
    loc_matrix,
    pair_seed,
    pearson,
    rank_step_function,
    spearman,
)
from .bandwidth import BandwidthEstimate
from .dataset import (
    NormalizedSample,
    PairedSample,
    ParseError,
    histogram,
    load_csv,
    normalize,
    pair,
    summarize,
)
from .rearrangement import loc_index
from .smoothing import FitSpec, LossKind

CONFIG_ENV = "LOCINDEX_CONFIG"

#: Each setting's built-in default, and the type of its flag, which its value in
#: a config file must have too
_SETTINGS = {
    "input": (None, str),
    "loss": (None, str),  # per-command default
    "grid": (1000, int),
    "m": (1000, int),
    "jitter_sd": (1e-5, float),
    "seed": (0, int),
    "format": ("table", str),
    "bins": (10, int),
    "bandwidth": (None, float),
    "max_items": (None, str),  # None: load_csv's counts for the paper's three columns
    "out": (".", str),
}

_LOSSES = {"mean": LossKind.quadratic(), "median": LossKind.median()}


class CliError(Exception):
    """Input or configuration error; maps to exit status 2."""


@dataclass(frozen=True)
class RunConfig:
    input: Path
    max_items: tuple[int, ...] | None
    loss: str
    grid_size: int
    jitter_sd: float
    seed: int
    fmt: str
    bins: int
    bandwidth: float | None
    out: Path


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _load_config_file(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(CONFIG_ENV)
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise CliError(f"config file {path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise CliError(f"config file {path}: expected a JSON object")
    unknown = set(data) - set(_SETTINGS)
    if unknown:
        raise CliError(f"config file {path}: unknown key(s) {', '.join(sorted(unknown))}")
    return data


def _config_value(key: str, value):
    """A config file's ``value`` for ``key``, of the type of the key's flag.

    A float key also takes an integer, ``max_items`` also a list of integers,
    and a key whose default is null also null; a bool is never a number.
    """
    default, kind = _SETTINGS[key]
    if key == "max_items" and type(value) is list and all(type(v) is int for v in value):
        return ",".join(map(str, value))
    if type(value) is kind or value is None and default is None:
        return value
    if kind is float and type(value) is int and abs(value) <= sys.float_info.max:
        return float(value)
    also = " or a list of int" if key == "max_items" else ""
    raise CliError(f"config key {key!r}: expected {kind.__name__}{also}, got {value!r}")


def _parse_max_items(raw: str | None) -> tuple[int, ...] | None:
    if raw is None:
        return None
    try:
        values = [int(part) for part in raw.split(",")]
    except ValueError:
        raise CliError(f"--max-items expects comma-separated integers, got {raw!r}") from None
    return tuple(values)


def _too_large_for_an_array(count: int) -> bool:
    """Whether ``count`` float64 values take more bytes than physical memory.

    Where the platform does not report its memory, the bound is the largest
    array numpy accepts.
    """
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no os.sysconf on Windows
        memory = sys.maxsize
    return count > memory // 8


def _build_config(args: argparse.Namespace) -> RunConfig:
    settings = {key: default for key, (default, _) in _SETTINGS.items()}
    for key, value in _load_config_file(getattr(args, "config", None)).items():
        settings[key] = _config_value(key, value)
    for key in _SETTINGS:
        flag = getattr(args, key, None)
        if flag is not None:
            settings[key] = flag
    if settings["input"] is None:
        raise CliError("no input file given (use --input or a config file)")

    loss = settings["loss"] or ("mean" if args.command == "loc-matrix" else "both")
    if loss not in ("mean", "median", "both"):
        raise CliError(f"unknown loss {loss!r}; expected mean, median or both")
    if "loss" not in vars(args):  # fit and compare have no --loss: both curves
        loss = "both"
    fmt = settings["format"]
    if fmt not in ("table", "csv", "json"):
        raise CliError(f"unknown format {fmt!r}; expected table, csv or json")
    seed = settings["seed"]
    if seed < 0:
        raise CliError("--seed must be non-negative")
    grid, m = settings["grid"], settings["m"]
    if grid < 2:
        raise CliError("--grid must be at least 2")
    if args.command in ("loc-matrix", "compare") and m != grid:
        raise CliError(
            f"m ({m}) must equal grid size ({grid}); the step "
            "function is a direct transfer of the fitted grid"
        )
    jitter_sd = settings["jitter_sd"]
    if not 0 <= jitter_sd < 1:  # noise of sd 1 would swamp marks on [0, 1]
        raise CliError(f"--jitter-sd must be finite and in [0, 1), got {jitter_sd!r}")
    bins = settings["bins"]
    if bins < 1:
        raise CliError("--bins must be at least 1")
    for flag, count in (("--grid", grid), ("--bins", bins)):
        if _too_large_for_an_array(count):
            raise CliError(f"{flag} {count} is too large for an array")
    bandwidth = settings["bandwidth"]
    if bandwidth is not None and not 0 < bandwidth < math.inf:
        raise CliError("--bandwidth must be finite and positive")

    return RunConfig(
        input=Path(settings["input"]),
        max_items=_parse_max_items(settings["max_items"]),
        loss=loss,
        grid_size=grid,
        jitter_sd=jitter_sd,
        seed=seed,
        fmt=fmt,
        bins=bins,
        bandwidth=bandwidth,
        out=Path(settings["out"]),
    )


def _load_normalized(config: RunConfig) -> NormalizedSample:
    try:
        return normalize(load_csv(config.input, config.max_items))
    except OSError as exc:
        raise CliError(f"cannot read input file {config.input}: {exc.strerror or exc}") from None
    except (ParseError, ValueError) as exc:
        raise CliError(str(exc)) from None


def _specs(config: RunConfig) -> dict[str, FitSpec]:
    """Fit spec of each curve the command uses; no bandwidth means plug-in."""
    fixed = (BandwidthEstimate(value=config.bandwidth, method="fixed")
             if config.bandwidth is not None else None)
    labels = ("mean", "median") if config.loss == "both" else (config.loss,)
    return {label: FitSpec(loss=_LOSSES[label], bandwidth=fixed, grid_size=config.grid_size)
            for label in labels}


def _fit_named_pair(config: RunConfig, x_name: str,
                    y_name: str) -> tuple[PairedSample, dict[str, PairFit]]:
    """The raw pair (x_name, y_name) and its fit for each curve.

    The pair is jittered with its own seed, as in loc-matrix, so each
    command gives the pair the same curves and LOC.
    """
    sample = _load_normalized(config)
    try:
        pr = pair(sample, x_name, y_name)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    names = sample.column_names
    seed = pair_seed(config.seed, names.index(x_name), names.index(y_name))
    return pr, {label: fit_pair(pr, spec, config.jitter_sd, seed)
                for label, spec in _specs(config).items()}


def _report_errors(messages: list[str]) -> int:
    for message in messages:
        print(f"error: {message}", file=sys.stderr)
    return 1 if messages else 0


# ---------------------------------------------------------------------------
# rendering


def _aligned(rows: list[list[str]]) -> list[str]:
    """First column left-aligned, the others right-aligned."""
    if not rows:
        return []
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join([row[0].ljust(widths[0]),
                       *(cell.rjust(w) for cell, w in zip(row[1:], widths[1:]))]).rstrip()
            for row in rows]


@dataclass(frozen=True)
class Section:
    """A block of table or csv output.

    csv prints ``csv_head`` and then the rows joined by commas; table prints
    ``head``, the rows laid out by ``layout`` and then ``tail``.
    """

    rows: list[list[str]]
    head: tuple[str, ...] = ()
    csv_head: tuple[str, ...] = ()
    tail: tuple[str, ...] = ()
    layout: Callable[[list[list[str]]], list[str]] = _aligned


def _render(fmt: str, payload: dict, sections: list[Section]) -> None:
    """Print ``payload`` as json, or ``sections`` as a table or csv."""
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    for s in sections:
        if fmt == "csv":
            lines = [*s.csv_head, *(",".join(row) for row in s.rows)]
        else:
            lines = [*s.head, *s.layout(s.rows), *s.tail]
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# summarize

_SUMMARY_ROWS = (
    ("Minimum", "minimum"),
    ("1st quartile", "q1"),
    ("2nd quartile (median)", "median"),
    ("3rd quartile", "q3"),
    ("Mean", "mean"),
    ("Maximum", "maximum"),
    ("Standard deviation", "sd"),
)


def cmd_summarize(config: RunConfig) -> int:
    sample = _load_normalized(config)
    names = sample.column_names
    stats = {name: summarize(sample.columns[name]) for name in names}
    hists = {name: histogram(sample.columns[name], config.bins).tolist() for name in names}
    payload = {
        "columns": {name: asdict(stats[name]) for name in names},
        "bins": config.bins,
        "histograms": hists,
        "n": sample.n,
    }
    corner = "statistic" if config.fmt == "csv" else "Summary statistics"
    rows = [[corner, *names]] + [[label, *(_fmt(getattr(stats[n], attr)) for n in names)]
                                 for label, attr in _SUMMARY_ROWS]
    counts = {name: [str(c) for c in hists[name]] for name in names}
    _render(config.fmt, payload, [
        Section(rows),
        Section([], head=("", f"Histogram counts ({config.bins} bins, n = {sample.n})",
                          *(f"  {name}: " + " ".join(counts[name]) for name in names)),
                csv_head=tuple(",".join([f"histogram {name}", *counts[name]])
                               for name in names)),
    ])
    return 0


# ---------------------------------------------------------------------------
# fit / plot-data


def _write_points(path: Path, xs, ys) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for xv, yv in zip(xs, ys):
            fh.write(f"{xv:.6f} {yv:.6f}\n")


def cmd_plot_data(config: RunConfig, x_name: str, y_name: str,
                  report_bandwidth: bool = False) -> int:
    """Write the raw scatter and each fitted curve of one pair as plot data.

    ``fit`` is this command with both curves and ``report_bandwidth``.
    """
    pr, fits = _fit_named_pair(config, x_name, y_name)
    points = {f"{x_name}_{y_name}_scatter.dat": (pr.x, pr.y)}
    bandwidths = []
    for label, fit in fits.items():
        if fit.error is not None:
            continue
        # presentation-layer clamp
        points[f"{x_name}_{y_name}_{label}.dat"] = (fit.curve.grid,
                                                    np.clip(fit.curve.values, 0.0, 1.0))
        bw = fit.bandwidth
        blocks = f" blocks={bw.diagnostics.block_count}" if bw.diagnostics else ""
        bandwidths.append(f"bandwidth {label}: {_fmt(bw.value)} method={bw.method}{blocks}")
    try:
        config.out.mkdir(parents=True, exist_ok=True)
        for name, (xs, ys) in points.items():
            _write_points(config.out / name, xs, ys)
    except OSError as exc:
        raise CliError(f"cannot write to --out {config.out}: {exc.strerror or exc}") from None
    for name in points:
        print(f"wrote {config.out / name}")
    for line in bandwidths if report_bandwidth else ():
        print(line)
    return _report_errors([f"{label} curve failed: {fit.error}"
                           for label, fit in fits.items() if fit.error is not None])


# ---------------------------------------------------------------------------
# loc-matrix


def cmd_loc_matrix(config: RunConfig) -> int:
    sample = _load_normalized(config)
    try:
        matrices = {label: loc_matrix(sample, spec, jitter_sd=config.jitter_sd,
                                      seed=config.seed)
                    for label, spec in _specs(config).items()}
    except ValueError as exc:
        raise CliError(str(exc)) from None

    payload = {
        label: {
            "labels": list(matrix.labels),
            "loss": label,
            "entries": matrix.entries.tolist(),
            "entries_x1000": [[v * 1000.0 for v in row] for row in matrix.entries.tolist()],
            "failures": {f"{a}->{b}": msg for (a, b), msg in matrix.failures.items()},
        }
        for label, matrix in matrices.items()
    }
    _render(config.fmt, payload, [
        Section([["X", *block["labels"]]]
                + [[name, *map(_fmt, row)]
                   for name, row in zip(block["labels"], block["entries_x1000"])],
                head=(f"LOC matrix, conditional-{label} fit (entries multiplied by 1000)",
                      " " * 12 + "Y"),
                csv_head=(f"loss,{label}",),
                tail=("",))
        for label, block in payload.items()
    ])
    return _report_errors([f"pair ({a} -> {b}), {label} fit: {msg}"
                           for label, matrix in matrices.items()
                           for (a, b), msg in matrix.failures.items()])


# ---------------------------------------------------------------------------
# compare

_COMPARE_ROWS = (
    ("pearson", "pearson"),
    ("spearman", "spearman"),
    ("zeta_quadratic", "zeta (quadratic psi)"),
    ("zeta_absolute", "zeta (absolute psi)"),
    ("finite_population_I", "finite-population I"),
    ("rank_loc", "loc (rank step function)"),
    ("identity_rank_loc_equals_I", "identity rank-loc == I"),
    ("loc_mean", "loc (mean fit)"),
    ("loc_median", "loc (median fit)"),
)

#: The rows a constant column leaves undefined: all but the two curves' LOC.
_COEFFICIENTS = [key for key, _ in _COMPARE_ROWS if key not in ("loc_mean", "loc_median")]


def _cell(value: float | bool | None) -> str:
    if value is None:
        return "unavailable"
    if isinstance(value, bool):
        return "true" if value else "false"
    return _fmt(value)


def cmd_compare(config: RunConfig, x_name: str, y_name: str) -> int:
    pr, fits = _fit_named_pair(config, x_name, y_name)
    jittered = fits["mean"].sample
    had_ties = (len(np.unique(pr.x)) < pr.n) or (len(np.unique(pr.y)) < pr.n)
    if had_ties and config.jitter_sd > 0:
        print(
            f"note: ties present; applied jitter sd={config.jitter_sd:g} "
            f"seed={config.seed}",
            file=sys.stderr,
        )

    # a constant column leaves every coefficient undefined; the jitter would
    # only give it noise to rank
    constant = [name for name, values in ((x_name, pr.x), (y_name, pr.y))
                if np.ptp(values) == 0.0]
    payload = {"pair": {"x": x_name, "y": y_name}, **dict.fromkeys(_COEFFICIENTS)}
    if not constant:
        try:
            payload.update({
                "pearson": pearson(pr),
                "spearman": spearman(jittered),
                "zeta_quadratic": liebscher_zeta(jittered, PsiFunction.quadratic()),
                "zeta_absolute": liebscher_zeta(jittered, PsiFunction.absolute()),
                "finite_population_I": finite_population_I(jittered),
                "rank_loc": loc_index(rank_step_function(jittered)).value,
            })
        except TiesError as exc:
            raise CliError(f"{exc} (--jitter-sd {config.jitter_sd!r} left ties; "
                           "set a larger --jitter-sd)") from None
        payload["identity_rank_loc_equals_I"] = bool(math.isclose(
            payload["rank_loc"], payload["finite_population_I"], rel_tol=1e-12,
            abs_tol=1e-15))
    payload["loc_mean"] = fits["mean"].loc
    payload["loc_median"] = fits["median"].loc

    _render(config.fmt, payload, [Section(
        [[label, _cell(payload[key])] for key, label in _COMPARE_ROWS],
        head=(f"pair: {x_name} -> {y_name}",),
        csv_head=(f"pair,{x_name}->{y_name}",),
        layout=lambda rows: [f"{label:<28}{value}" for label, value in rows],
    )])
    return _report_errors(
        [f"coefficients unavailable: {name} is constant" for name in constant]
        + [f"{label} fit failed: {fit.error}" for label, fit in fits.items()
           if fit.error is not None])


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser, with_loss: bool = True) -> None:
    parser.add_argument("--input", help="CSV file of raw integer marks")
    parser.add_argument("--config", help=f"JSON config file (default: ${CONFIG_ENV})")
    parser.add_argument("--max-items", dest="max_items",
                        help="items per score column, in header order (default "
                             "65,45,80 for mathematics,reading,spelling)")
    parser.add_argument("--format", choices=("table", "csv", "json"),
                        help="output format (default table)")
    parser.add_argument("--grid", type=int, help="curve evaluation grid size (default 1000)")
    parser.add_argument("--m", type=int, help="step-function piece count (default 1000)")
    parser.add_argument("--jitter-sd", dest="jitter_sd", type=float,
                        help="tie-breaking noise sd, in [0, 1) (default 1e-5)")
    parser.add_argument("--seed", type=int, help="random seed (default 0)")
    parser.add_argument("--bandwidth", type=float,
                        help="fixed bandwidth overriding the plug-in selection")
    if with_loss:
        parser.add_argument("--loss", choices=("mean", "median", "both"),
                            help="which fitted curve(s) to use")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locindex",
        description="Lack-of-co-monotonicity (LOC) analysis of paired mark data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("summarize", help="per-column summary statistics and histograms")
    _add_common(p, with_loss=False)
    p.add_argument("--bins", type=int, help="histogram bin count (default 10)")

    p = sub.add_parser("fit", help="fit mean and median curves for one ordered pair")
    _add_common(p, with_loss=False)
    p.add_argument("x_name")
    p.add_argument("y_name")
    p.add_argument("--out", help="output directory for plot data files (default .)")

    p = sub.add_parser("plot-data", help="write scatter/curve plot data for one pair")
    _add_common(p)
    p.add_argument("x_name")
    p.add_argument("y_name")
    p.add_argument("--out", help="output directory for plot data files (default .)")

    p = sub.add_parser("loc-matrix", help="LOC over all ordered column pairs")
    _add_common(p)

    p = sub.add_parser("compare", help="classical coefficients and LOC for one pair")
    _add_common(p, with_loss=False)
    p.add_argument("x_name")
    p.add_argument("y_name")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # the program's warnings (a plug-in bandwidth that falls back, once per
    # fit) go to stderr as "warning: ..." lines while the command runs
    to_stderr = logging.StreamHandler(sys.stderr)
    to_stderr.setFormatter(logging.Formatter("warning: %(message)s"))
    logger = logging.getLogger("locindex")
    logger.addHandler(to_stderr)
    try:
        config = _build_config(args)
        if args.command == "summarize":
            return cmd_summarize(config)
        if args.command == "loc-matrix":
            return cmd_loc_matrix(config)
        if args.command == "compare":
            return cmd_compare(config, args.x_name, args.y_name)
        return cmd_plot_data(config, args.x_name, args.y_name,
                             report_bandwidth=args.command == "fit")
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        logger.removeHandler(to_stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
