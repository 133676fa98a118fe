"""Loading, normalization and description of raw mark data.

Raw inputs are integer counts of correct answers per student and study
subject.  Counts are normalized to the unit interval by dividing by the
number of items on each test, so that every column lives on [0, 1] and every
ordered pair of columns becomes a scatterplot inside the unit square.  The
explanatory/response roles of a pair are fixed at construction time and are
deliberately not interchangeable.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "ParseError",
    "RawScores",
    "NormalizedSample",
    "PairedSample",
    "SummaryStats",
    "load_csv",
    "normalize",
    "pair",
    "jitter",
    "summarize",
    "histogram",
]


class ParseError(ValueError):
    """Raised when an input file's header or cells are not valid raw marks."""


#: The student identifier column, never a score column.
ID_COLUMN = "student_id"

#: The paper's three tests and their numbers of items.
DEFAULT_MAX_ITEMS = {"mathematics": 65, "reading": 45, "spelling": 80}


@dataclass(frozen=True)
class RawScores:
    """Integer raw counts, one row per student, one column per subject."""

    column_names: tuple[str, ...]
    rows: np.ndarray  # shape (n, k), integer dtype
    max_items: tuple[int, ...]

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows)
        if rows.ndim != 2 or rows.shape[1] != len(self.column_names):
            raise ValueError("rows must be (n, k) with k = len(column_names)")
        if len(self.max_items) != len(self.column_names):
            raise ValueError("max_items must match column_names")
        if rows.size and rows.min() < 0:
            raise ValueError("raw counts must be non-negative")
        for j, name in enumerate(self.column_names):
            if rows.size and rows[:, j].max() > self.max_items[j]:
                raise ValueError(f"column '{name}' has a count above {self.max_items[j]}")
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class NormalizedSample:
    """Columns of marks normalized to the unit interval.

    ``column_names`` gives the column order: it names every key of
    ``columns`` once, and at least one.  Every value must be finite and lie
    in [0, 1]; otherwise ``ValueError`` names the column.  The columns are
    kept as float arrays in a dict of the sample's own, not in the dict
    passed in.
    """

    column_names: tuple[str, ...]
    columns: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        names = self.column_names
        if not names:
            raise ValueError("a normalized sample needs at least one column")
        if len(set(names)) != len(names) or set(names) != set(self.columns):
            raise ValueError(f"column_names {list(names)} must name each column once; "
                             f"the columns are {list(self.columns)}")
        columns = {name: np.asarray(self.columns[name], dtype=float) for name in names}
        if len({len(col) for col in columns.values()}) > 1:
            raise ValueError("all columns must have equal length")
        for name, col in columns.items():
            if not np.isfinite(col).all():
                raise ValueError(f"column '{name}' has a non-finite value (nan or inf)")
            if col.size and (col.min() < 0.0 or col.max() > 1.0):
                raise ValueError(f"column '{name}' has values outside [0, 1]")
        object.__setattr__(self, "columns", columns)

    @property
    def n(self) -> int:
        return len(self.columns[self.column_names[0]])


@dataclass(frozen=True)
class PairedSample:
    """An ordered scatterplot: x explains, y responds.

    ``pair(A, B)`` and ``pair(B, A)`` are different objects with different
    meanings; none of the downstream machinery treats them symmetrically.
    Both coordinates must be finite: a nan or inf raises ``ValueError``.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
            raise ValueError("x and y must be 1-d vectors of equal length")
        if len(x) < 2:
            raise ValueError("a paired sample needs at least 2 observations")
        for name, values in (("x", x), ("y", y)):
            if not np.isfinite(values).all():
                raise ValueError(f"{name} has a non-finite value (nan or inf)")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return len(self.x)


@dataclass(frozen=True)
class SummaryStats:
    minimum: float
    q1: float
    median: float
    q3: float
    mean: float
    maximum: float
    sd: float


def load_csv(path: str | Path, max_items: Sequence[int] | None = None) -> RawScores:
    """Read raw integer marks from a headed CSV file.

    The score columns are every header column but ``ID_COLUMN``, in header
    order.  ``max_items`` gives their numbers of items, one per column, each
    in [1, 2**63 - 1] because counts are stored as int64; it defaults to
    ``DEFAULT_MAX_ITEMS`` only when the columns are exactly the paper's three,
    in any order.  Cells must be integers in ``[0, max_items]``, and a row
    may not have more cells than the header has columns, nor the header a
    column with an empty or blank name.  Errors name the offending row
    (1-based, counting data rows) and column.  A UTF-8 byte order mark at the
    start of the file is skipped.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        for position, name in enumerate(reader.fieldnames or (), start=1):
            if not name.strip():
                raise ParseError(f"{path}: header column {position} has no name")
        names = tuple(c for c in reader.fieldnames or () if c != ID_COLUMN)
        caps = _max_items(path, names, max_items)
        rows = []
        for idx, record in enumerate(reader, start=1):
            if None in record:  # DictReader files a row's extra cells under None
                width = len(reader.fieldnames)
                raise ParseError(f"{path}: row {idx}: {width + len(record[None])} cells, "
                                 f"but the header has {width} columns")
            row = []
            for name, cap in zip(names, caps):
                cell = record.get(name)
                if cell is None or cell.strip() == "":
                    raise ParseError(f"{path}: row {idx}: column '{name}': empty cell")
                try:
                    value = int(cell)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {idx}: column '{name}': non-integer value {cell!r}"
                    ) from None
                if value < 0:
                    raise ParseError(f"{path}: row {idx}: column '{name}': negative count {value}")
                if value > cap:
                    raise ParseError(
                        f"{path}: row {idx}: column '{name}': count {value} exceeds "
                        f"max_items {cap}"
                    )
                row.append(value)
            rows.append(row)
    if not rows:
        raise ParseError(f"{path}: no rows")
    return RawScores(
        column_names=names,
        rows=np.asarray(rows, dtype=np.int64),
        max_items=caps,
    )


def _max_items(path: Path, names: tuple[str, ...],
               max_items: Sequence[int] | None) -> tuple[int, ...]:
    """The number of items of each score column in ``names``, checked."""
    columns = ", ".join(names)
    if not names:
        raise ParseError(f"{path}: no score columns in the header")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        # csv.DictReader would give every copy the last copy's cells
        raise ParseError(f"{path}: column(s) {', '.join(repeated)} appear more than once "
                         "in the header")
    if max_items is None:
        if set(names) != set(DEFAULT_MAX_ITEMS):
            raise ParseError(f"{path}: max_items is required for the columns {columns}")
        return tuple(DEFAULT_MAX_ITEMS[name] for name in names)
    if len(max_items) != len(names):
        raise ParseError(f"{path}: max_items needs {len(names)} values, one per column "
                         f"{columns}; got {len(max_items)}")
    for name, cap in zip(names, max_items):
        if not 0 < cap < 2 ** 63:
            raise ParseError(f"{path}: column '{name}': max_items must be in "
                             f"[1, 2**63 - 1], got {cap}")
    return tuple(max_items)


def normalize(raw: RawScores) -> NormalizedSample:
    """Divide each raw count by its column's number of items."""
    columns = {
        name: raw.rows[:, j].astype(float) / raw.max_items[j]
        for j, name in enumerate(raw.column_names)
    }
    return NormalizedSample(column_names=raw.column_names, columns=columns)


def pair(sample: NormalizedSample, x_name: str, y_name: str) -> PairedSample:
    """Build the ordered pair with ``x_name`` explanatory and ``y_name`` response.

    Self-pairing (``x_name == y_name``) is allowed; it is occasionally useful
    as a diagnostic.  It is perfectly co-monotone only before jitter, which
    moves x and y independently.
    """
    for name in (x_name, y_name):
        if name not in sample.columns:
            raise ValueError(
                f"unknown column '{name}'; available: {', '.join(sample.column_names)}"
            )
    return PairedSample(x=sample.columns[x_name].copy(), y=sample.columns[y_name].copy())


def jitter(sample: PairedSample, sd: float, seed: int) -> PairedSample:
    """Add centered normal noise with standard deviation ``sd`` to both coordinates.

    The point of the noise is to break ties before rank computations without
    practically changing any value; sd around 1e-5 is appropriate for marks on
    [0, 1].  With ``sd == 0`` the sample is returned unchanged.  Otherwise it
    takes one draw from ``default_rng(seed)``, for x and then for y, so the
    result is a pure function of ``(sample, sd, seed)``.  An sd too small to
    move a value (1e-320 against marks away from 0) leaves its tie: the LOC
    pipeline fits tied data exactly, and the rank functions raise
    ``TiesError`` on it.
    """
    if sd < 0:
        raise ValueError("sd must be >= 0")
    if sd == 0:
        return sample
    rng = np.random.default_rng(seed)
    x = sample.x + rng.normal(0.0, sd, size=sample.n)
    y = sample.y + rng.normal(0.0, sd, size=sample.n)
    return PairedSample(x=x, y=y)


def summarize(column: np.ndarray) -> SummaryStats:
    """Five-number summary plus mean and sample standard deviation.

    Quartiles use linear interpolation between order statistics at plotting
    positions (k-1)/(n-1) (numpy's default); the standard deviation uses
    divisor n-1.  Every statistic is taken from one sorted copy of the column,
    so the result is a function of the values alone and does not depend on
    row order, bit for bit (numpy's pairwise summation would otherwise let
    the mean and sd move in the last digit when rows are reordered).
    """
    col = np.sort(np.asarray(column, dtype=float))
    if col.size == 0:
        raise ValueError("cannot summarize an empty column")
    q1, med, q3 = np.quantile(col, [0.25, 0.5, 0.75])
    sd = float(np.std(col, ddof=1)) if col.size > 1 else 0.0
    return SummaryStats(
        minimum=float(col.min()),
        q1=float(q1),
        median=float(med),
        q3=float(q3),
        mean=float(col.mean()),
        maximum=float(col.max()),
        sd=sd,
    )


def histogram(column: np.ndarray, bin_count: int) -> np.ndarray:
    """Counts over ``bin_count`` equal-width bins spanning [min, max].

    Bins are right-closed, (a, b], with the lowest bin additionally including
    the minimum, so the counts always sum to n.
    """
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    col = np.asarray(column, dtype=float)
    if col.size == 0:
        raise ValueError("cannot histogram an empty column")
    lo, hi = float(col.min()), float(col.max())
    if lo == hi:
        counts = np.zeros(bin_count, dtype=np.int64)
        counts[0] = col.size
        return counts
    edges = np.linspace(lo, hi, bin_count + 1)
    # side="left" puts a value equal to an edge into the bin below it
    idx = np.searchsorted(edges, col, side="left") - 1
    idx = np.clip(idx, 0, bin_count - 1)
    return np.bincount(idx, minlength=bin_count).astype(np.int64)
