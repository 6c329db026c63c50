"""In-memory span and count recorder for the traced benchmark run.

A span covers one call into a layer: its name, start, end, the span that
caused it, and the run it belongs to. Counts (events, bytes, points) are
attached to the span of the call that did the work, so every ratio is formed
where the work happened. Spans stay in memory until ``write`` dumps them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from statistics import median
from typing import Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: int
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested spans on one thread, timed with ``time.perf_counter``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, run_id: int) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        record = Span(name, time.perf_counter(), float("nan"), parent, run_id)
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._open.pop()

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]

    def covered(self, index: int) -> float:
        """Length of the part of span ``index`` that its child spans cover."""
        outer = self.spans[index]
        intervals = sorted(
            (max(c.start, outer.start), min(c.end, outer.end)) for c in self.children(index)
        )
        total = 0.0
        reach = outer.start
        for start, end in intervals:
            start = max(start, reach)
            if end > start:
                total += end - start
                reach = end
        return total

    def self_time(self, index: int) -> float:
        """Span duration minus the part its children cover."""
        return self.spans[index].duration - self.covered(index)

    def spans_named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def roots(self) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent is None]

    def per_run(self, name: str, count: str | None = None) -> list[float]:
        """Per run id, the summed duration (or summed ``count``) of spans called ``name``."""
        totals: dict[int, float] = {}
        for s in self.spans:
            if s.name == name:
                value = s.duration if count is None else s.counts.get(count, 0.0)
                totals[s.run_id] = totals.get(s.run_id, 0.0) + value
        return [totals.get(run_id, 0.0) for run_id in self.run_ids()]

    def run_ids(self) -> list[int]:
        return sorted({s.run_id for s in self.spans})

    def median_per_run(self, name: str, count: str | None = None) -> float:
        values = self.per_run(name, count)
        return median(values) if values else 0.0

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump([asdict(s) for s in self.spans], handle)


class NullRecorder:
    """Stand-in with the recorder's ``span`` interface that records nothing."""

    @contextmanager
    def span(self, name: str, run_id: int) -> Iterator[Span]:
        yield Span(name, 0.0, 0.0, None, run_id)
