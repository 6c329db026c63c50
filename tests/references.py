"""Reference reductions, written as plain loops, that the estimators' tallies are checked against."""

from __future__ import annotations

import math

from uniprio.des import SimTrace, Snapshot
from uniprio.estimate import BinGrid


def swept_counts(trace: SimTrace, grid: BinGrid, start_time: float) -> tuple[int, list[int]]:
    """Walk the events in time order, an arrival before a departure at the same
    instant, and add up the per-bin head count that each arrival at or after
    ``start_time`` sees."""
    bins = [grid.index_of(p) for p in trace.priority]
    events = sorted(
        [(a, 0, i) for i, a in enumerate(trace.arrival_time)]
        + [(d, 1, i) for i, d in enumerate(trace.departure_time) if not math.isnan(d)]
    )
    present, sums, snapshots = [0] * grid.n_bins, [0] * grid.n_bins, 0
    for time, leaving, i in events:
        if leaving:
            present[bins[i]] -= 1
            continue
        if time >= start_time:
            snapshots += 1
            sums = [s + k for s, k in zip(sums, present)]
        present[bins[i]] += 1
    return snapshots, sums


def stored_counts(snapshots: tuple[Snapshot, ...], grid: BinGrid, start_time: float) -> tuple[int, list[int]]:
    """Bin the levels of built snapshots at or after ``start_time`` one by one."""
    kept = [s for s in snapshots if s.time >= start_time]
    sums = [0] * grid.n_bins
    for s in kept:
        for p in s.priorities:
            sums[grid.index_of(p)] += 1
    return len(kept), sums


def loop_tallies(records, grid: BinGrid, start_time: float) -> tuple[list, ...]:
    """The per-record loop, adding each delay in record order."""
    n = grid.n_bins
    departed, censored, sojourn, waiting = [0] * n, [0] * n, [0.0] * n, [0.0] * n
    for r in records:
        if r.arrival_time < start_time:
            continue
        i = grid.index_of(r.priority)
        if r.is_censored:
            censored[i] += 1
        else:
            departed[i] += 1
            sojourn[i] += r.sojourn
            waiting[i] += r.waiting
    return departed, censored, sojourn, waiting
