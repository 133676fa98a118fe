"""In-memory span tracer for the benchmark's traced run.

The tracer replaces module attributes (``locindex.association.fit_curve``,
``locindex.smoothing.local_linear_fit`` ...) with timing wrappers, so every
caller that resolves the name through the module at call time is timed.  No
file of the program changes.  A span is a list

    [span_id, name, start, end, parent_id, rep, attrs]

kept in ``Tracer.spans`` and written out once the run ends.  ``attrs`` is a
dict of counts or labels taken at the boundary, or None.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

SPAN_ID, NAME, START, END, PARENT, REP, ATTRS = range(7)


class Tracer:
    """Records nested spans; ``rep`` tags each span with the repetition."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.rep = 0
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        record = [len(self.spans), name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else None, self.rep, None]
        self.spans.append(record)
        self._stack.append(record[SPAN_ID])
        return record

    def _close(self, record: list) -> None:
        record[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)
            if attrs:
                record[ATTRS] = attrs

    def wrap(self, module, attr: str, name: str, attrs_fn=None) -> None:
        """Time every call made through ``module.attr`` as span ``name``.

        ``attrs_fn(args, kwargs, result)`` returns the span's attrs after a
        successful call.
        """
        original = getattr(module, attr)
        open_, close = self._open, self._close

        def timed(*args, **kwargs):
            record = open_(name)
            try:
                result = original(*args, **kwargs)
            finally:
                close(record)
            if attrs_fn is not None:
                record[ATTRS] = attrs_fn(args, kwargs, result)
            return result

        timed.__wrapped__ = original
        setattr(module, attr, timed)
        self._installed.append((module, attr, original))

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)


def covered_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    return {
        s[SPAN_ID]: (s[END] - s[START])
        - covered_length(children.get(s[SPAN_ID], []), s[START], s[END])
        for s in spans
    }
