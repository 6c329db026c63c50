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

from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .analytics import INFINITY, ExtendedReal, _as_real, _check_level
from .des import CustomerRecord, SimTrace, Snapshot, _cells, _csv_rows, _reals, _Records, _Snapshots

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
        object.__setattr__(self, "delta", _as_real("delta", self.delta))
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
        """Bin index holding priority ``p``, checked as any level; exactly 1.0 goes to the last bin."""
        n = self.n_bins
        i = int(_check_level(p) * n)
        return i if i < n else n - 1

    def indices(self, levels: Sequence[float] | np.ndarray) -> np.ndarray:
        """:meth:`index_of` of each level.

        Other entries than floats, in a sequence that is not a float64 array,
        meet the level rule one by one, as in a hand-built trace's columns.
        """
        if not (isinstance(levels, np.ndarray) and levels.dtype == np.float64):  # a trace's column is taken as it is
            if not set(map(type, levels)) <= {float}:
                levels = [_as_real("priority level", x) for x in levels]
            levels = np.frombuffer(array("d", levels))
        outside = levels[~((levels >= 0.0) & (levels <= 1.0))]  # NaN fails both comparisons
        if outside.size:
            raise ValueError(f"priority {outside[0]} outside [0, 1] fits no bin")
        n = self.n_bins
        return np.minimum((levels * n).astype(np.int64), n - 1)


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


class _BinTallies:
    """Per-bin tallies on one grid from a warm-up start on, mergeable across replications.

    Each subclass's ``rows`` share one ``(rows, n_bins)`` float array that holds every count
    exactly. ``start_time`` is fixed when the reduction is made, and a merge checks it.
    """

    rows: int

    def __init__(self, grid: BinGrid, start_time: float = 0.0) -> None:
        # A warm-up cutoff of NaN would count no snapshot but tally every customer.
        self.start_time = _as_real("start_time", start_time)
        if np.isnan(self.start_time):
            raise ValueError("start_time must not be NaN")
        self.grid = grid
        self._tallies = np.zeros((self.rows, grid.n_bins))

    def merge(self, other: "_BinTallies") -> "_BinTallies":
        """Add ``other``'s tallies; ``other`` is unchanged."""
        if type(other) is not type(self) or (other.grid, other.start_time) != (self.grid, self.start_time):
            raise ValueError("cannot merge reductions of another kind, grid or warm-up start times")
        self._tallies += other._tallies
        return self


class DensityAccumulator(_BinTallies):
    """Per-bin population counts over arrival snapshots, mergeable across replications.

    A customer contributes one to its bin at every snapshot it is present
    for, which :meth:`add_trace` counts from a trace's columns. Snapshots
    before ``start_time`` are ignored (warm-up). The rows hold the head
    counts and, in every bin, the snapshot count.
    """

    rows = 2

    def add_trace(self, trace: SimTrace) -> "DensityAccumulator":
        """Add the snapshots of ``trace``'s arrivals at or after ``start_time``, unbuilt.

        Customer ``i`` counts in snapshots ``i + 1`` to ``hi - 1`` (``hi`` from
        ``SimTrace._snapshot_ends``) from the first at or after ``start_time``
        on. A level that is not a number in [0, 1], or times that rule refuses,
        raise ValueError and add nothing.
        """
        bins = self.grid.indices(trace.priority)
        n = len(trace)
        first = int(np.searchsorted(trace.arrival_time, self.start_time))
        lo = np.maximum(np.arange(1, n + 1), first)
        seen = np.maximum(trace._snapshot_ends - lo, 0)
        self._tallies[0] += np.bincount(bins, weights=seen, minlength=self.grid.n_bins)
        self._tallies[1] += n - first
        return self

    def add_snapshots(self, snapshots: Sequence[Snapshot]) -> "DensityAccumulator":
        """Add a trace's own :attr:`SimTrace.snapshots` view through :meth:`add_trace`, unbuilt.

        ``()``, what a trace without kept snapshots gives, adds nothing; any other input (a
        list, ``tuple(view)``, a slice) raises TypeError: the trace's columns fix every snapshot.
        """
        if isinstance(snapshots, _Snapshots):
            return self.add_trace(snapshots._trace)
        if type(snapshots) is not tuple or snapshots:
            raise TypeError("add_snapshots takes a trace's own snapshots view; pass the trace to add_trace")
        return self

    @property
    def snapshot_count(self) -> int:
        return int(self._tallies[1, 0])

    def curve(self) -> CurveEstimate:
        """Density curve: bin count times mean per-bin population per snapshot.

        With no snapshot accumulated every bin is None (no data).
        """
        n, count = self.grid.n_bins, self.snapshot_count
        if count == 0:
            return CurveEstimate(self.grid, (None,) * n)
        values = tuple(ExtendedReal(n * s / count) for s in self._tallies[0].tolist())
        return CurveEstimate(self.grid, values)


class RecordBinStats(_BinTallies):
    """Mergeable per-bin delay tallies over customers.

    Tracks, per bin, the number of departed and censored customers and the
    summed sojourn and waiting times of the departed ones, as four rows.
    Curves for either censoring policy come out of the same tallies. Waiting
    is :attr:`uniprio.des.CustomerRecord.waiting`, the total time out of
    service (sojourn minus ``service_time``).
    """

    rows = 4  # departed, censored, sojourn sum, waiting sum

    def add(self, trace: SimTrace | Sequence[CustomerRecord]) -> "RecordBinStats":
        """Tally a trace's customers whose arrival is at or after ``start_time``.

        A trace's own :attr:`SimTrace.records` view stands for its trace, unbuilt;
        any other input raises TypeError. Every customer to be tallied is checked,
        and a fault raises ValueError naming the customer by its index (its id) and
        changes no tally: first any priority outside [0, 1], then any arrival that
        is not finite, departure that is not finite or precedes its arrival, or
        departure without a service entry or with a service time that is missing
        or outside [0, sojourn].

        Each tally is one ``np.bincount``, which adds in input order, so one
        call on a fresh instance sums exactly as a loop over the customers
        would. Further calls add their per-call sums, as :meth:`merge` would.
        """
        if isinstance(trace, _Records):
            trace = trace._trace
        if not isinstance(trace, SimTrace):
            raise TypeError(f"add takes a SimTrace or its own records view, got {type(trace).__name__}")
        arrival, departure = trace.arrival_time, trace.departure_time
        kept = ~(arrival < self.start_time)
        bins = self.grid.indices(trace.priority[kept])
        done = ~np.isnan(departure)
        untimed = ~np.isfinite(arrival) | np.isinf(departure) | (departure < arrival)
        no_entry = done & np.isnan(trace.last_service_entry)
        with np.errstate(invalid="ignore"):  # NaN from inf - inf: a customer refused or not tallied
            span = departure - arrival
        served = trace.service_time
        # A missing (NaN) service time fails this too, and is named as missing.
        unserved = done & ~((served >= 0.0) & (served <= span))
        bad = np.flatnonzero(kept & (untimed | no_entry | unserved))
        if bad.size:
            i = bad[0]
            if untimed[i]:
                raise ValueError(f"customer {i} arrives at {arrival[i]}, departs at {departure[i]}")
            if no_entry[i] or np.isnan(served[i]):
                missing = "service entry" if no_entry[i] else "service time"
                raise ValueError(f"departed customer {i} has no {missing}")
            raise ValueError(f"departed customer {i} has service time {served[i]} outside [0, {span[i]}]")

        n = self.grid.n_bins
        finished = kept & done
        sojourn = span[finished]
        waiting = sojourn - served[finished]
        left, still_in = bins[done[kept]], bins[~done[kept]]
        self._tallies += (
            np.bincount(left, minlength=n),
            np.bincount(still_in, minlength=n),
            np.bincount(left, weights=sojourn, minlength=n),
            np.bincount(left, weights=waiting, minlength=n),
        )
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
        infinite = policy is CensoredPolicy.INFINITE
        return CurveEstimate(self.grid, tuple(
            INFINITY if infinite and c > 0 else None if d == 0 else ExtendedReal(s / d)
            for d, c, s in zip(departed, censored, sums)
        ))


def write_points_csv(points: Iterable[float], values: Iterable[ExtendedReal | None], path) -> None:
    """One ``p,value`` row per point; infinity renders as ``inf``, no data as empty.

    Each real prints as ``repr(float(x))``, so numpy floats print as Python
    floats do. A point that is not a number or is NaN (its cell would be empty),
    or unequal lengths, raise ValueError before the file is opened.
    """
    points = [_as_real("point", p) for p in points]
    if np.isnan(points).any():
        raise ValueError("a point is NaN, and would print as an empty cell")
    _write_rows(_cells(points), values, path)


def write_curve_csv(curve: CurveEstimate, path) -> None:
    """One row per bin center, in the cell format of :func:`write_points_csv`.

    The centers' texts are formatted once per grid and shared by its curves.
    """
    _write_rows(curve.grid._center_texts, curve.values, path)


_CURVE_HEADER = ("p", "value")


def _write_rows(points: Sequence[str], values: Iterable[ExtendedReal | None], path) -> None:
    """Write the curve header, then one row per point from its cell text and its value."""
    cells = _cells([None if v is None else v.value for v in values])
    if len(points) != len(cells):
        raise ValueError(f"{len(points)} points but {len(cells)} values")
    with open(path, "w", newline="") as handle:
        handle.write(",".join(_CURVE_HEADER) + "\r\n")
        handle.writelines(f"{p},{v}\r\n" for p, v in zip(points, cells))


def read_curve_csv(path) -> CurveEstimate:
    """Rebuild a curve written by :func:`write_curve_csv`, exactly; a header other than the
    writer's, a row whose cell count is not the header's, and a cell that is not a float
    as the writer prints it (see :func:`uniprio.des._reals`) raise ValueError."""
    rows = _csv_rows(path, _CURVE_HEADER)
    if not rows:
        raise ValueError(f"no curve rows in {path}")
    grid = BinGrid(1.0 / len(rows))
    points, values = zip(*rows)
    for p, center in zip(_reals(points), grid.centers):
        if p != center:
            raise ValueError(f"row center {p!r} does not match grid center {center!r}")
    return CurveEstimate(grid, tuple(None if v is None else ExtendedReal(v) for v in _reals(values)))
