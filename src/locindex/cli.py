"""Command-line front end: summarize, fit, plot-data, loc-matrix, compare.

``dataset.load_csv`` decides the score columns and their numbers of items;
``--max-items`` gives the numbers in header order.  Every command that fits
a curve runs each ordered pair through ``association.fit_pair``, jittered
with the pair's own seed, so a pair gets the same curves and LOC in every
command.  ``fit`` is ``plot-data`` with both curves and the bandwidths
reported.  summarize, compare and loc-matrix build their result once and
print it as a table, csv or json.  A plug-in bandwidth that falls back
prints one ``warning: ...`` line on stderr per fit, with the reason.

A command takes only the settings it reads: every command --input and
--max-items; the four that fit curves --grid, --jitter-sd, --seed and
--bandwidth; summarize, loc-matrix and compare --format; loc-matrix and
compare --m (it must equal --grid, its default, and does nothing else);
plot-data and loc-matrix --loss; summarize --bins; fit and plot-data --out.
Flags override a JSON config file (--config or $LOCINDEX_CONFIG), which
overrides built-in defaults.  The file's keys and value types are checked for
every command, but a command uses and range-checks only its own settings.
A command receives one namespace: its parsed arguments and every setting,
checked.  A flag the command does not take is reported by the command's parser,
with its usage.
Numeric output has 6 decimal places in table mode, and LOC matrices are shown
multiplied by 1000 (table/csv only; JSON carries the unscaled entries too).

Exit status: 0 on success, 1 when some ordered pairs or curves failed, or
compare's coefficients are undefined for a constant column, but others were
produced, 2 on input errors, among them a config value not of its flag's type,
a ``--jitter-sd`` outside [0, 1), a ``--grid`` or ``--bins`` too large for an
array, an input, config or ``--out`` path that cannot be read or written, an
input that ``load_csv`` rejects, and compare's ranks on data that the jitter
left tied (curves fit tied data exactly), and 141 when stdout is closed early.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, NamedTuple

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

#: Each command's help, and whether it takes an ordered pair of columns
_COMMANDS = {
    "summarize": ("per-column summary statistics and histograms", False),
    "fit": ("fit mean and median curves for one ordered pair", True),
    "plot-data": ("write scatter/curve plot data for one pair", True),
    "loc-matrix": ("LOC over all ordered column pairs", False),
    "compare": ("classical coefficients and LOC for one pair", True),
}
_FITS = ("fit", "plot-data", "loc-matrix", "compare")


class _Setting(NamedTuple):
    default: object  # None: unset, or worked out by _default
    kind: type  # of the flag, and of the setting's value in a config file
    commands: tuple[str, ...]  # the commands that take the flag
    help: str


#: Each setting, under the key that names its config entry, its flag
#: (``--`` and the key with dashes) and its attribute of a command's namespace
_SETTINGS = {
    "input": _Setting(None, str, tuple(_COMMANDS), "CSV file of raw integer marks"),
    "max_items": _Setting(None, str, tuple(_COMMANDS), "items per score column, in header "
                          "order (needed unless the columns are the paper's three)"),
    "format": _Setting("table", str, ("summarize", "loc-matrix", "compare"),
                       "output format: table, csv or json"),
    "grid": _Setting(1000, int, _FITS, "curve evaluation grid size"),
    "m": _Setting(None, int, ("loc-matrix", "compare"),
                  "step-function piece count; must equal --grid, its default"),
    "jitter_sd": _Setting(1e-5, float, _FITS, "tie-breaking noise sd, in [0, 1)"),
    "seed": _Setting(0, int, _FITS, "random seed"),
    "bandwidth": _Setting(None, float, _FITS, "fixed bandwidth overriding the plug-in selection"),
    "loss": _Setting(None, str, ("plot-data", "loc-matrix"),
                     "which fitted curve(s) to use: mean, median or both"),
    "bins": _Setting(10, int, ("summarize",), "histogram bin count"),
    "out": _Setting(".", str, ("fit", "plot-data"), "output directory for plot data files"),
}

_LOSSES = {"mean": LossKind.quadratic(), "median": LossKind.median()}


class CliError(Exception):
    """Input or configuration error; maps to exit status 2."""


def _default(key: str, command: str):
    """The built-in value of ``key`` under ``command``; loc-matrix fits the mean curve only."""
    if key == "loss":
        return "mean" if command == "loc-matrix" else "both"
    return _SETTINGS[key].default


def _fmt(value: float) -> str:
    return f"{value:.6f}"


def _load_config_file(path: str | None) -> dict:
    if path is None:
        path = os.environ.get(CONFIG_ENV)
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # bad JSON, bytes that are not UTF-8, an integer too long to read
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
    and a key whose default is null also null (unset); a bool is never a number.
    """
    default, kind = _SETTINGS[key][:2]
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


def _build_config(args: argparse.Namespace) -> argparse.Namespace:
    """``args`` and, under its key, each setting of ``_SETTINGS``, merged and checked."""
    settings = {key: _default(key, args.command) for key in _SETTINGS}
    config = {key: _config_value(key, value)
              for key, value in _load_config_file(args.config).items()}
    takes = [key for key, setting in _SETTINGS.items() if args.command in setting.commands]
    for given in (config, vars(args)):  # flags over the config file over the defaults
        settings.update({key: given[key] for key in takes if given.get(key) is not None})
    if settings["input"] is None:
        raise CliError("no input file given (use --input or a config file)")

    if settings["loss"] not in ("mean", "median", "both"):
        raise CliError(f"unknown loss {settings['loss']!r}; expected mean, median or both")
    if settings["format"] not in ("table", "csv", "json"):
        raise CliError(f"unknown format {settings['format']!r}; expected table, csv or json")
    if settings["seed"] < 0:
        raise CliError("--seed must be non-negative")
    grid, m = settings["grid"], settings["m"]
    if grid < 2:
        raise CliError("--grid must be at least 2")
    if m not in (None, grid):
        raise CliError(f"m ({m}) must equal grid size ({grid}); the step "
                       "function is a direct transfer of the fitted grid")
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

    settings.update(input=Path(settings["input"]), out=Path(settings["out"]),
                    max_items=_parse_max_items(settings["max_items"]))
    return argparse.Namespace(**vars(args) | settings)


def _load_normalized(config: argparse.Namespace) -> NormalizedSample:
    try:
        return normalize(load_csv(config.input, config.max_items))
    except OSError as exc:
        raise CliError(f"cannot read input file {config.input}: {exc.strerror or exc}") from None
    except (ParseError, ValueError) as exc:
        raise CliError(str(exc)) from None


def _specs(config: argparse.Namespace) -> dict[str, FitSpec]:
    """Fit spec of each curve the command uses; no bandwidth means plug-in."""
    fixed = (BandwidthEstimate(value=config.bandwidth, method="fixed")
             if config.bandwidth is not None else None)
    labels = ("mean", "median") if config.loss == "both" else (config.loss,)
    return {label: FitSpec(loss=_LOSSES[label], bandwidth=fixed, grid_size=config.grid)
            for label in labels}


def _fit_named_pair(config: argparse.Namespace) -> tuple[PairedSample, dict[str, PairFit]]:
    """The raw pair (x_name, y_name) and its fit for each curve.

    The pair is jittered with its own seed, as in loc-matrix, so each
    command gives the pair the same curves and LOC.
    """
    sample = _load_normalized(config)
    try:
        pr = pair(sample, config.x_name, config.y_name)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    names = sample.column_names
    seed = pair_seed(config.seed, names.index(config.x_name), names.index(config.y_name))
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

    csv prints the rows of ``csv_head`` and then ``rows``, quoting a cell as
    csv does; table prints ``head``, the rows laid out by ``layout`` and then
    ``tail``.
    """

    rows: list[list[str]]
    head: tuple[str, ...] = ()
    csv_head: tuple[list[str], ...] = ()
    tail: tuple[str, ...] = ()
    layout: Callable[[list[list[str]]], list[str]] = _aligned


def _render(fmt: str, payload: dict, sections: list[Section]) -> None:
    """Print ``payload`` as json, or ``sections`` as a table or csv."""
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    for s in sections:
        if fmt == "csv":
            csv.writer(sys.stdout, lineterminator="\n").writerows([*s.csv_head, *s.rows])
            continue
        for line in [*s.head, *s.layout(s.rows), *s.tail]:
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


def cmd_summarize(config: argparse.Namespace) -> int:
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
    corner = "statistic" if config.format == "csv" else "Summary statistics"
    rows = [[corner, *names]] + [[label, *(_fmt(getattr(stats[n], attr)) for n in names)]
                                 for label, attr in _SUMMARY_ROWS]
    counts = {name: [str(c) for c in hists[name]] for name in names}
    _render(config.format, payload, [
        Section(rows),
        Section([], head=("", f"Histogram counts ({config.bins} bins, n = {sample.n})",
                          *(f"  {name}: " + " ".join(counts[name]) for name in names)),
                csv_head=tuple([f"histogram {name}", *counts[name]] for name in names)),
    ])
    return 0


# ---------------------------------------------------------------------------
# fit / plot-data


def _write_points(path: Path, xs, ys) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for xv, yv in zip(xs, ys):
            fh.write(f"{xv:.6f} {yv:.6f}\n")


def cmd_plot_data(config: argparse.Namespace) -> int:
    """Write the raw scatter and each fitted curve of one pair as plot data.

    ``fit`` is this command with both curves and the bandwidths reported.
    """
    x_name, y_name = config.x_name, config.y_name
    pr, fits = _fit_named_pair(config)
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
    for name in points:  # a column name holding a path separator would leave --out
        if Path(name).name != name:
            raise CliError(f"columns {x_name!r} and {y_name!r} make {name!r}, "
                           "which is not a plain file name")
    try:
        config.out.mkdir(parents=True, exist_ok=True)
        for name, (xs, ys) in points.items():
            _write_points(config.out / name, xs, ys)
    except OSError as exc:
        raise CliError(f"cannot write to --out {config.out}: {exc.strerror or exc}") from None
    for name in points:
        print(f"wrote {config.out / name}")
    for line in bandwidths if config.command == "fit" else ():
        print(line)
    return _report_errors([f"{label} curve failed: {fit.error}"
                           for label, fit in fits.items() if fit.error is not None])


# ---------------------------------------------------------------------------
# loc-matrix


def cmd_loc_matrix(config: argparse.Namespace) -> int:
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
    _render(config.format, payload, [
        Section([["X", *block["labels"]]]
                + [[name, *map(_fmt, row)]
                   for name, row in zip(block["labels"], block["entries_x1000"])],
                head=(f"LOC matrix, conditional-{label} fit (entries multiplied by 1000)",
                      " " * 12 + "Y"),
                csv_head=(["loss", label],),
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


def cmd_compare(config: argparse.Namespace) -> int:
    x_name, y_name = config.x_name, config.y_name
    pr, fits = _fit_named_pair(config)
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

    _render(config.format, payload, [Section(
        [[label, _cell(payload[key])] for key, label in _COMPARE_ROWS],
        head=(f"pair: {x_name} -> {y_name}",),
        csv_head=(["pair", f"{x_name}->{y_name}"],),
        layout=lambda rows: [f"{label:<28}{value}" for label, value in rows],
    )])
    return _report_errors(
        [f"coefficients unavailable: {name} is constant" for name in constant]
        + [f"{label} fit failed: {fit.error}" for label, fit in fits.items()
           if fit.error is not None])


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locindex",
        description="Lack-of-co-monotonicity (LOC) analysis of paired mark data",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, takes_pair) in _COMMANDS.items():
        p = sub.add_parser(command, help=text, allow_abbrev=False)  # --m is not --max-items
        if takes_pair:
            p.add_argument("x_name")
            p.add_argument("y_name")
        p.add_argument("--config", help=f"JSON config file (default: ${CONFIG_ENV})")
        for key, setting in _SETTINGS.items():
            if command in setting.commands:
                default = _default(key, command)
                shown = "" if default is None else f" (default {default})"
                p.add_argument("--" + key.replace("_", "-"), type=setting.kind,
                               help=setting.help + shown)
    return parser


#: The handler of each command; fit is plot-data that also reports its bandwidths
_HANDLERS = {"summarize": cmd_summarize, "fit": cmd_plot_data, "plot-data": cmd_plot_data,
             "loc-matrix": cmd_loc_matrix, "compare": cmd_compare}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    if extra:  # reported by the command's parser, whose usage shows the flags it takes
        commands = next(action for action in parser._actions if action.dest == "command")
        commands.choices[args.command].error(f"unrecognized arguments: {' '.join(extra)}")
    # the program's warnings (a plug-in bandwidth that falls back, once per
    # fit) go to stderr as "warning: ..." lines while the command runs
    to_stderr = logging.StreamHandler(sys.stderr)
    to_stderr.setFormatter(logging.Formatter("warning: %(message)s"))
    logger = logging.getLogger("locindex")
    logger.addHandler(to_stderr)
    try:
        code = _HANDLERS[args.command](_build_config(args))
        sys.stdout.flush()  # a closed stdout fails here, not in Python's flush at exit
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:  # the reader closed stdout, as `| head` does
        devnull = os.open(os.devnull, os.O_WRONLY)  # for what is left to flush at exit
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141  # 128 + SIGPIPE, the status a shell shows for a writer killed by it
    finally:
        logger.removeHandler(to_stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
