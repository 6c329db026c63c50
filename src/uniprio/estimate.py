"""Binned estimators recovering the analytic curves from simulation traces.

The level axis [0, 1] is split into ``1/delta`` equal bins. The density
estimate averages per-bin head counts over the arrival snapshots (arrivals
see time averages) and rescales by the bin count; each customer is present
for a run of consecutive snapshots fixed by its arrival and departure, so a
trace's columns give the counts without stored snapshots. The sojourn and
waiting estimates average per-customer delays over the customers whose
priority fell in each bin. Customers still in system at the horizon carry no
finished delay: the Infinite policy treats theirs as infinite (any such
customer makes its bin infinite), the Exclude policy drops them.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .analytics import INFINITY, ExtendedReal, _as_real
from .des import CustomerRecord, SimTrace, Snapshot, _cells

__all__ = [
    "BinGrid",
    "CensoredPolicy",
    "CurveEstimate",
    "DensityAccumulator",
    "RecordBinStats",
    "write_points_csv",
    "write_curve_csv",
    "read_curve_csv",
]


class CensoredPolicy(Enum):
    """How unfinished (censored) customers enter the delay averages."""

    INFINITE = "infinite"
    EXCLUDE = "exclude"


@dataclass(frozen=True)
class BinGrid:
    """Equal partition of [0, 1] into ``1/delta`` half-open bins.

    ``delta`` must be the reciprocal of a positive integer (validated to within
    1e-9, which admits values like 1/3 that floating point cannot hold
    exactly). Bin ``i`` covers ``[i*delta, (i+1)*delta)`` with center
    ``(i + 1/2) * delta``; a priority of exactly 1.0 folds into the top bin.
    ``n_bins`` is derived from ``delta`` once, at construction; ``centers``
    and their CSV texts once, on first use.
    """

    delta: float
    n_bins: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "delta", float(self.delta))
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"delta must lie in (0, 1], got {self.delta}")
        n = round(1.0 / self.delta)
        if n < 1 or abs(n * self.delta - 1.0) > 1e-9:
            raise ValueError(f"delta must be the reciprocal of a positive integer, got {self.delta}")
        object.__setattr__(self, "n_bins", n)

    @cached_property
    def centers(self) -> tuple[float, ...]:
        n = self.n_bins
        return tuple((2 * i + 1) / (2 * n) for i in range(n))

    @cached_property
    def _center_texts(self) -> tuple[str, ...]:
        """The centers' CSV cells, shared by every curve written on this grid."""
        return _cells(self.centers)

    def edges(self, i: int) -> tuple[float, float]:
        """Lower and upper edge of bin ``i``."""
        n = self.n_bins
        if not 0 <= i < n:
            raise IndexError(f"bin index {i} out of range for {n} bins")
        return i / n, (i + 1) / n

    def index_of(self, p: float) -> int:
        """Bin index holding priority ``p``; exactly 1.0 goes to the last bin."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"priority {p} outside [0, 1] fits no bin")
        n = self.n_bins
        i = int(p * n)
        return i if i < n else n - 1

    def indices(self, levels: Iterable[float] | np.ndarray) -> np.ndarray:
        """:meth:`index_of` over an array of priorities, with the same check."""
        q = np.asarray(levels, dtype=np.float64)
        outside = q[~((q >= 0.0) & (q <= 1.0))]  # NaN fails both comparisons
        if outside.size:
            raise ValueError(f"priority {outside[0]} outside [0, 1] fits no bin")
        n = self.n_bins
        return np.minimum((q * n).astype(np.int64), n - 1)


@dataclass(frozen=True)
class CurveEstimate:
    """Per-bin estimated values on a grid; None marks a bin with no data.

    An undefined bin (None) is distinct from an infinite one: the first says
    nothing was observed, the second says censoring forced the average up.
    """

    grid: BinGrid
    values: tuple[ExtendedReal | None, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.grid.n_bins:
            raise ValueError(
                f"expected {self.grid.n_bins} values, got {len(self.values)}"
            )


# Snapshot entries binned per numpy call in ``DensityAccumulator.add_snapshots``:
# large enough to amortise the call, small enough to add no visible memory.
_BLOCK = 4096


class DensityAccumulator:
    """Per-bin population counts over arrival snapshots, mergeable across replications.

    A customer contributes one to its bin at every snapshot it is present
    for: :meth:`add_trace` counts those snapshots from a trace's columns,
    :meth:`add_snapshots` bins stored ones. Snapshots before ``start_time``
    are ignored (warm-up). Every sum is an integer count held exactly in a
    float, so traces, blocks of snapshots and merges add without changing a bit.
    """

    def __init__(self, grid: BinGrid, start_time: float = 0.0) -> None:
        self.grid = grid
        self.start_time = _as_real("start_time", start_time)
        self._sums = np.zeros(grid.n_bins)
        self._snapshots = 0

    def add_trace(self, trace: SimTrace) -> "DensityAccumulator":
        """Add the snapshots of ``trace``'s arrivals at or after ``start_time``.

        Arrival ``j``'s snapshot is taken at ``arrival[j]``, before ``j``
        joins, and arrivals are ascending. So customer ``i`` is in snapshots
        ``lo`` to ``hi - 1``: ``lo`` is the later of ``i + 1`` and the first
        arrival at or after ``start_time``; ``hi`` counts the arrivals at or
        before its departure, all of them if it is censored. An arrival tied
        with a departure is served first, so the departing customer is in its
        snapshot. A level outside [0, 1] (or NaN) raises ValueError and adds
        nothing.
        """
        bins = self.grid.indices(trace.priority)
        arrival = np.array(trace.arrival_time, dtype=np.float64)
        first = int(np.searchsorted(arrival, self.start_time, "left"))
        # A censored customer's None reads as NaN, which sorts after every arrival.
        hi = np.searchsorted(arrival, np.array(trace.departure_time, dtype=np.float64), "right")
        lo = np.maximum(np.arange(1, arrival.size + 1), first)
        seen = np.maximum(hi - lo, 0)
        self._sums += np.bincount(bins, weights=seen, minlength=self.grid.n_bins)
        self._snapshots += arrival.size - first
        return self

    def add_snapshots(self, snapshots: Iterable[Snapshot]) -> "DensityAccumulator":
        """Add stored snapshots, in blocks of about ``_BLOCK`` entries.

        A level outside [0, 1] raises ValueError; the blocks before the one
        holding it stay added, snapshot count and sums alike.
        """
        block: list[float] = []
        count = 0
        for time, priorities in snapshots:
            if time < self.start_time:
                continue
            block.extend(priorities)
            count += 1
            if len(block) >= _BLOCK:
                self._add_block(block, count)
                block, count = [], 0
        self._add_block(block, count)
        return self

    def _add_block(self, block: list[float], snapshots: int) -> None:
        """Bin ``block``, the levels of ``snapshots`` snapshots."""
        self._sums += np.bincount(self.grid.indices(block), minlength=self.grid.n_bins)
        self._snapshots += snapshots

    @property
    def snapshot_count(self) -> int:
        return self._snapshots

    def merge(self, other: "DensityAccumulator") -> "DensityAccumulator":
        """Add ``other``'s sums and snapshot count; ``other`` is unchanged."""
        if other.grid != self.grid:
            raise ValueError("cannot merge accumulators on different grids")
        self._sums += other._sums
        self._snapshots += other._snapshots
        return self

    def curve(self) -> CurveEstimate:
        """Density curve: bin count times mean per-bin population per snapshot.

        With no snapshot accumulated every bin is None (no data).
        """
        n = self.grid.n_bins
        if self._snapshots == 0:
            return CurveEstimate(self.grid, (None,) * n)
        values = tuple(ExtendedReal(n * s / self._snapshots) for s in self._sums.tolist())
        return CurveEstimate(self.grid, values)


def _is_none(column: Iterable[float | None]) -> np.ndarray:
    """Mask of the None entries of ``column``."""
    return np.equal(np.array(column, dtype=object), None)


class RecordBinStats:
    """Mergeable per-bin delay tallies over customers.

    Tracks, per bin, the number of departed and censored customers and the
    summed sojourn and waiting times of the departed ones, as the four rows
    of one ``(4, n_bins)`` float array that holds every count exactly.
    Curves for either censoring policy come out of the same tallies. Waiting
    is :attr:`uniprio.des.CustomerRecord.waiting`, the total time out of
    service (sojourn minus ``service_time``).
    """

    def __init__(self, grid: BinGrid) -> None:
        self.grid = grid
        # Rows: departed, censored, sojourn sum, waiting sum.
        self._tallies = np.zeros((4, grid.n_bins))

    def add(
        self, trace_or_records: SimTrace | Iterable[CustomerRecord], start_time: float = 0.0
    ) -> "RecordBinStats":
        """Tally customers whose arrival is at or after ``start_time``.

        A trace hands over its columns; records are transposed into the same
        columns. Every customer to be tallied is checked first, and a fault
        raises ValueError and changes no tally: first any priority outside
        [0, 1] (or NaN), then any departed customer without a service entry
        or a service time.

        Each tally is one ``np.bincount``, which adds in input order, so one
        call on a fresh instance sums exactly as a loop over the customers
        would. Further calls add their per-call sums, as :meth:`merge` would.
        """
        start_time = _as_real("start_time", start_time)
        if isinstance(trace_or_records, SimTrace):
            columns = trace_or_records.columns
        else:  # no record gives six empty columns
            columns = tuple(zip(*trace_or_records)) or ((),) * 6
        ids, priority, arrival, entered, departure, served = columns
        a = np.array(arrival, dtype=np.float64)
        kept = ~(a < start_time)
        bins = self.grid.indices(np.array(priority, dtype=np.float64)[kept])
        done = ~_is_none(departure)
        no_entry = done & _is_none(entered)
        no_time = done & _is_none(served)
        bad = np.flatnonzero(kept & (no_entry | no_time))
        if bad.size:
            i = bad[0]
            missing = "service entry" if no_entry[i] else "service time"
            raise ValueError(f"departed customer {ids[i]} has no {missing}")

        n = self.grid.n_bins
        finished = kept & done
        sojourn = np.array(departure, dtype=np.float64)[finished] - a[finished]
        waiting = sojourn - np.array(served, dtype=np.float64)[finished]
        left, still_in = bins[done[kept]], bins[~done[kept]]
        self._tallies += (
            np.bincount(left, minlength=n),
            np.bincount(still_in, minlength=n),
            np.bincount(left, weights=sojourn, minlength=n),
            np.bincount(left, weights=waiting, minlength=n),
        )
        return self

    def merge(self, other: "RecordBinStats") -> "RecordBinStats":
        if other.grid != self.grid:
            raise ValueError("cannot merge stats on different grids")
        self._tallies += other._tallies
        return self

    @property
    def departed_total(self) -> int:
        return int(self._tallies[0].sum())

    @property
    def censored_total(self) -> int:
        return int(self._tallies[1].sum())

    def censored_count(self, i: int) -> int:
        """Customers still present at the horizon tallied in bin ``i``."""
        return int(self._tallies[1, i])

    def sojourn_curve(self, policy: CensoredPolicy = CensoredPolicy.INFINITE) -> CurveEstimate:
        return self._curve(2, policy)

    def waiting_curve(self, policy: CensoredPolicy = CensoredPolicy.INFINITE) -> CurveEstimate:
        return self._curve(3, policy)

    def _curve(self, row: int, policy: CensoredPolicy) -> CurveEstimate:
        departed, censored, sums = self._tallies[[0, 1, row]].tolist()
        values: list[ExtendedReal | None] = []
        for d, c, s in zip(departed, censored, sums):
            if policy is CensoredPolicy.INFINITE and c > 0:
                values.append(INFINITY)
            elif d == 0:
                values.append(None)
            else:
                values.append(ExtendedReal(s / d))
        return CurveEstimate(self.grid, tuple(values))


def write_points_csv(points: Iterable[float], values: Iterable[ExtendedReal | None], path) -> None:
    """One ``p,value`` row per point; infinity renders as ``inf``, no data as empty.

    Each real prints as ``repr(float(x))``, so numpy floats print as Python
    floats do.
    """
    _write_rows(_cells(points), values, path)


def write_curve_csv(curve: CurveEstimate, path) -> None:
    """One row per bin center, in the cell format of :func:`write_points_csv`.

    The centers' texts are formatted once per grid and shared by its curves.
    """
    _write_rows(curve.grid._center_texts, curve.values, path)


def _write_rows(points: Sequence[str], values: Iterable[ExtendedReal | None], path) -> None:
    """Write ``p,value`` rows from the points' cell texts and the values."""
    cells = _cells(None if v is None else v.value for v in values)
    with open(path, "w", newline="") as handle:
        handle.write("p,value\r\n")
        handle.writelines(f"{p},{v}\r\n" for p, v in zip(points, cells))


def read_curve_csv(path) -> CurveEstimate:
    """Rebuild a curve written by :func:`write_curve_csv`, exactly."""
    rows: list[tuple[str, str]] = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            rows.append((row["p"], row["value"]))
    if not rows:
        raise ValueError(f"no curve rows in {path}")
    grid = BinGrid(1.0 / len(rows))
    values: list[ExtendedReal | None] = []
    for (p_text, value_text), center in zip(rows, grid.centers):
        if float(p_text) != center:
            raise ValueError(f"row center {p_text} does not match grid center {center!r}")
        if value_text == "":
            values.append(None)
        elif value_text == "inf":
            values.append(INFINITY)
        else:
            values.append(ExtendedReal(float(value_text)))
    return CurveEstimate(grid, tuple(values))
