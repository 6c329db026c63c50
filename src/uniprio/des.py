"""Event-driven simulation of the preemptive uniform-priority multi-server queue.

The simulator keeps the population as the model describes it: at most c
customers in service, held in an ascending list, and a heap of waiting
customers. It exploits memorylessness twice: the time to the next service
completion is exponential at rate ``min(N, c)`` regardless of who is being
served, and the completing customer is uniform over the in-service set. This
is distribution-equal to racing per-customer unit-rate clocks (the slower
construction lives in :mod:`uniprio.oracle` as an independent check) while
touching only one clock per event.

Observables follow the arrivals-see-time-averages route: immediately before
each arrival joins, the sorted multiset of priorities present is recorded as
a snapshot. Only while snapshots are stored does the simulator also keep the
priorities present as one ascending list, so that a snapshot is a copy of it.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import chain
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence

import numpy as np
from .analytics import SystemParams, _as_real

if TYPE_CHECKING:
    from .estimate import DensityAccumulator

__all__ = [
    "CustomerRecord",
    "Snapshot",
    "SimConfig",
    "SimTrace",
    "simulate",
    "write_trace_csv",
    "read_trace_csv",
    "write_snapshots_csv",
    "read_snapshots_csv",
]

# Uniforms drawn per numpy call. A block's values are the ones successive
# ``rng.random()`` calls would return, so the size changes speed, not streams.
_BLOCK = 8192


class Snapshot(NamedTuple):
    """State seen by one arrival: the priorities present just before it joins."""

    time: float
    priorities: tuple[float, ...]


class CustomerRecord(NamedTuple):
    """One customer's lifecycle. ``departure_time`` is None when the run ended
    with the customer still in system (censored).

    ``last_service_entry`` is the instant the customer most recently moved
    into service, or None if it never reached a server. A preemption does not
    clear it; the field is simply overwritten at the next service entry, so
    for departed customers ``last_service_entry`` marks the start of the final
    uninterrupted service spell.

    ``service_time`` is the total time the customer spent in service, summed
    over every spell including those a preemption cut short; None while
    censored. Under preemptive-resume with unit-mean exponential service it is
    itself unit-mean exponential, however often the customer was interrupted.
    """

    customer_id: int
    priority: float
    arrival_time: float
    last_service_entry: float | None
    departure_time: float | None
    service_time: float | None

    @property
    def is_censored(self) -> bool:
        return self.departure_time is None

    @property
    def sojourn(self) -> float | None:
        """Time in system, None while censored."""
        if self.departure_time is None:
            return None
        return self.departure_time - self.arrival_time

    @property
    def waiting(self) -> float | None:
        """Total time out of service: sojourn minus ``service_time``.

        This counts every interval spent queued, before the first service
        entry and after each preemption, and is the quantity the closed form
        :func:`uniprio.analytics.waiting_time` describes. None while censored;
        the total still depends on an unseen future.
        """
        if self.departure_time is None:
            return None
        if self.service_time is None:
            raise ValueError(f"departed customer {self.customer_id} has no service time")
        return self.departure_time - self.arrival_time - self.service_time


@dataclass(frozen=True)
class SimConfig:
    """Run parameters for one simulation.

    ``priority_quantile``, when given, must be a nondecreasing map from [0, 1]
    to priorities of the desired distribution. Scheduling always uses the raw
    uniform draws (order is all that matters), so two runs with the same seed
    and different quantile maps share every event time; only logged priorities
    differ. ``record_snapshots=False`` skips storing per-arrival snapshots,
    which long overloaded runs need to keep memory bounded, and with them the
    ascending list of priorities present that each snapshot copies; an
    observer still counts every snapshot, from the trace's columns.
    """

    params: SystemParams
    horizon: float
    seed: int
    priority_quantile: Callable[[float], float] | None = None
    record_snapshots: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "horizon", _as_real("horizon", self.horizon))
        if not math.isfinite(self.horizon) or self.horizon < 0.0:
            raise ValueError(f"horizon must be finite and nonnegative, got {self.horizon}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class SimTrace:
    """Everything one run produced; immutable after construction.

    Customers are held as columns indexed by customer id, one per
    :class:`CustomerRecord` field after ``customer_id``: ``service_time`` is
    None exactly where ``departure_time`` is. :attr:`records` builds the
    records on first access; ``len(trace)`` counts customers without them.
    The run's counts, :attr:`final_population` and :attr:`event_count`, are
    derived from the columns.
    """

    priority: tuple[float, ...]
    arrival_time: tuple[float, ...]
    last_service_entry: tuple[float | None, ...]
    departure_time: tuple[float | None, ...]
    service_time: tuple[float | None, ...]
    snapshots: tuple[Snapshot, ...]

    def __len__(self) -> int:
        return len(self.arrival_time)

    @property
    def final_population(self) -> int:
        """Customers in system when the horizon cut the run off: the censored ones."""
        return self.departure_time.count(None)

    @property
    def event_count(self) -> int:
        """Events processed: one arrival per customer plus one departure per departed one."""
        return 2 * len(self) - self.final_population

    @property
    def columns(self) -> tuple[Sequence, ...]:
        """The record fields as columns, customer ids first, so that
        ``zip(*trace.columns)`` yields the records' tuples and
        ``zip(*trace.records)`` yields the columns."""
        return (
            range(len(self)),
            self.priority,
            self.arrival_time,
            self.last_service_entry,
            self.departure_time,
            self.service_time,
        )

    @cached_property
    def records(self) -> tuple[CustomerRecord, ...]:
        return tuple(map(CustomerRecord._make, zip(*self.columns)))

    # Cell texts of the two columns that both the trace and the snapshot file
    # print, formatted on first use.
    @cached_property
    def _priority_texts(self) -> tuple[str, ...]:
        return _cells(self.priority)

    @cached_property
    def _arrival_texts(self) -> tuple[str, ...]:
        return _cells(self.arrival_time)


def simulate(config: SimConfig, observer: DensityAccumulator | None = None) -> SimTrace:
    """Run the queue to the horizon and return its trace.

    Event mechanics: while customers are present the next service completion
    is scheduled after an exponential gap at rate ``min(N, c)``; the completing
    customer is drawn uniformly from the ``min(N, c)`` highest-priority
    customers. An arrival whose priority ranks within the top ``min(N+1, c)``
    enters service immediately, displacing the weakest in-service customer
    when the house was full; the displaced customer keeps its
    ``last_service_entry`` until it next reenters service. Each customer's
    ``service_time`` grows by the length of a spell when that spell closes,
    by preemption or by completion, so it draws no extra random numbers.

    Reproducibility: one PCG64 stream seeded with ``config.seed`` drives the
    run. Its uniforms are drawn in blocks of ``rng.random(size).tolist()``,
    which hold the same values as successive ``rng.random()`` calls, and are
    consumed in a fixed order per iteration: first the candidate completion
    gap (when the system is occupied; discarded unscathed if an arrival
    preempts the comparison, which memorylessness permits), then on an arrival
    its uniform priority followed by the next interarrival gap, or on a
    departure one uniform ``u`` that picks the ``int(u * busy)``-th highest
    customer in service, counting from zero, to complete. The pick consumes
    its uniform even when one customer is in service, and since ``u < 1`` it
    never reaches ``busy``. Identical configs give bitwise-identical traces.

    Boundary rule: events stamped exactly at the horizon are processed; the
    run stops at the first event strictly beyond it. Customers still present
    are recorded as censored.

    ``observer``, when given, is a density accumulator that takes the finished
    trace through ``add_trace``: it counts every snapshot, stored or not, and
    bins the displayed priorities, as ``add_snapshots`` does.
    """
    rng = np.random.default_rng(config.seed)
    # One C-level call per uniform; the lambda runs once per block.
    uniform = chain.from_iterable(iter(lambda: rng.random(_BLOCK).tolist(), None)).__next__
    alpha = config.params.alpha
    servers = config.params.c
    horizon = config.horizon
    quantile = config.priority_quantile

    # Every customer is keyed once as (-level, id, display), so that ascending
    # order ranks the strongest first and, between equal levels, the earlier
    # arrival first. In service: an ascending list of at most c keys, weakest
    # last. Waiting: a heap of keys, strongest on top. A preempted or promoted
    # customer moves its key between the two unchanged.
    in_service: list[tuple[float, int, float]] = []
    queue: list[tuple[float, int, float]] = []
    arrivals: list[float] = []
    displays: list[float] = []
    entered: list[float | None] = []
    departed: list[float | None] = []
    served: list[float] = []
    snapshots: list[Snapshot] = []
    keep_snapshots = config.record_snapshots
    # Displays of everyone present, ascending; kept only for snapshots.
    present: list[float] = []

    time = 0.0
    next_arrival = -math.log1p(-uniform()) / alpha
    while True:
        busy = len(in_service)
        if busy:
            next_completion = time + (-math.log1p(-uniform()) / busy)
        else:
            next_completion = math.inf

        if next_arrival <= next_completion:
            if next_arrival > horizon:
                break
            time = next_arrival
            if keep_snapshots:
                snapshots.append(Snapshot(time, tuple(present)))
            level = uniform()
            display = float(quantile(level)) if quantile is not None else level
            if keep_snapshots:
                insort(present, display)
            customer = len(arrivals)
            entry = (-level, customer, display)
            arrivals.append(time)
            displays.append(display)
            departed.append(None)
            served.append(0.0)
            if busy < servers:
                insort(in_service, entry)
                entered.append(time)
            elif entry < in_service[-1]:
                # The house is full: the weakest customer in service loses
                # its server, closes its spell and waits.
                weakest = in_service.pop()
                displaced = weakest[1]
                served[displaced] += time - entered[displaced]
                heappush(queue, weakest)
                insort(in_service, entry)
                entered.append(time)
            else:
                heappush(queue, entry)
                entered.append(None)
            next_arrival = time + (-math.log1p(-uniform()) / alpha)
        else:
            if next_completion > horizon:
                break
            time = next_completion
            # The n-th highest in service sits at index n.
            _, victim, victim_display = in_service.pop(int(uniform() * busy))
            if keep_snapshots:
                # Among equal displays (say -0.0 and 0.0), drop the victim's own.
                i = bisect_left(present, victim_display)
                while present[i] is not victim_display:
                    i += 1
                del present[i]
            departed[victim] = time
            served[victim] += time - entered[victim]
            if queue:
                # The freed server goes to the strongest waiter.
                promoted = heappop(queue)
                insort(in_service, promoted)
                entered[promoted[1]] = time

    trace = SimTrace(
        priority=tuple(displays),
        arrival_time=tuple(arrivals),
        last_service_entry=tuple(entered),
        departure_time=tuple(departed),
        service_time=tuple(None if d is None else s for d, s in zip(departed, served)),
        snapshots=tuple(snapshots),
    )
    if observer is not None:
        observer.add_trace(trace)
    return trace


# ---------------------------------------------------------------------------
# CSV export and import

# Entry types whose repr is already the cell text.
_PLAIN = {float, type(None)}


def _cells(column: Iterable[float | None]) -> tuple[str, ...]:
    """CSV cell text of each entry: ``repr(float(x))``, or empty for None.

    One C-level ``repr`` of the whole list, split at its separators: no float
    repr holds ``", "`` or ``"None"``. Entries that are not floats (a numpy
    float, whose repr names its type, or an integer) are converted first.
    """
    values = list(column)
    if not {*map(type, values)} <= _PLAIN:
        values = [None if x is None else float(x) for x in values]
    if not values:
        return ()
    return tuple(repr(values)[1:-1].replace("None", "").split(", "))


class _ReprCache(dict):
    """Cell text per value, as :func:`_cells` writes it, each formatted once.

    It starts from ``(values, texts)`` pairs already formatted and formats
    only the values it was not given. Zeros are never stored: ``0.0 == -0.0``
    would share one key, but their texts differ.
    """

    def __init__(self, *known: tuple[Sequence[float | None], Sequence[str]]) -> None:
        super().__init__()
        for values, texts in known:
            self.update(zip(values, texts))
        self.pop(0.0, None)

    def __missing__(self, value: float | None) -> str:
        text = "" if value is None else repr(float(value))
        if value:
            self[value] = text
        return text


def write_trace_csv(trace_or_records: SimTrace | Iterable[CustomerRecord], path) -> None:
    """Write a trace's customers, or records, one row each; empty cells mark missing times.

    Each real prints as ``repr(float(x))``, so numpy floats print as Python
    floats do. Each column is formatted once. A trace's priority and
    arrival texts are cached on it, for :func:`write_snapshots_csv` to reuse,
    and each ``last_service_entry``, always some arrival or departure instant
    in a simulated run, takes its text from theirs. Rows are formatted
    directly in ``csv.writer``'s excel dialect: no cell (an integer, a float
    repr or empty) ever needs quoting.
    """
    if isinstance(trace_or_records, SimTrace):
        trace = trace_or_records
        ids: Iterable[int] = range(len(trace))
    else:  # no record gives six empty columns
        ids, *fields = tuple(zip(*trace_or_records)) or ((),) * 6
        trace = SimTrace(*fields, snapshots=())
    departure = _cells(trace.departure_time)
    entry = _ReprCache((trace.arrival_time, trace._arrival_texts), (trace.departure_time, departure))
    rows = zip(
        ids,
        trace._priority_texts,
        trace._arrival_texts,
        map(entry.__getitem__, trace.last_service_entry),
        departure,
        _cells(trace.service_time),
    )
    with open(path, "w", newline="") as handle:
        handle.write(",".join(CustomerRecord._fields) + "\r\n")
        handle.writelines(f"{i},{p},{a},{e},{d},{s}\r\n" for i, p, a, e, d, s in rows)


def read_trace_csv(path) -> tuple[CustomerRecord, ...]:
    """Parse a file written by :func:`write_trace_csv`, exactly round-tripping."""
    out: list[CustomerRecord] = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            out.append(
                CustomerRecord(
                    customer_id=int(row["customer_id"]),
                    priority=float(row["priority"]),
                    arrival_time=float(row["arrival_time"]),
                    last_service_entry=(
                        float(row["last_service_entry"]) if row["last_service_entry"] else None
                    ),
                    departure_time=(
                        float(row["departure_time"]) if row["departure_time"] else None
                    ),
                    service_time=float(row["service_time"]) if row["service_time"] else None,
                )
            )
    return tuple(out)


def write_snapshots_csv(trace_or_snapshots: SimTrace | Iterable[Snapshot], path) -> None:
    """Write per-arrival snapshots, or a trace's; priorities are semicolon-joined, ascending.

    Cells print as in :func:`write_trace_csv`. Given a trace, snapshot times
    and levels take their texts from the trace's cached arrival and priority
    texts, by value; any other value, and every value of plain snapshots, is
    formatted once per file. Rows are formatted directly, as for
    :func:`write_trace_csv`: a float repr holds no comma, quote or line
    break, so ``csv.writer`` would quote nothing either.
    """
    if isinstance(trace_or_snapshots, SimTrace):
        trace = trace_or_snapshots
        snapshots: Iterable[Snapshot] = trace.snapshots
        times = _ReprCache((trace.arrival_time, trace._arrival_texts))
        levels = _ReprCache((trace.priority, trace._priority_texts))
    else:
        snapshots = trace_or_snapshots
        times, levels = _ReprCache(), _ReprCache()
    time_text, level_text = times.__getitem__, levels.__getitem__
    with open(path, "w", newline="") as handle:
        handle.write("snapshot_time,priorities\r\n")
        handle.writelines(
            f"{time_text(time)},{';'.join(map(level_text, priorities))}\r\n"
            for time, priorities in snapshots
        )


def read_snapshots_csv(path) -> tuple[Snapshot, ...]:
    """Parse a file written by :func:`write_snapshots_csv`."""
    out: list[Snapshot] = []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        for row in reader:
            cell = row["priorities"]
            priorities = tuple(float(q) for q in cell.split(";")) if cell else ()
            out.append(Snapshot(float(row["snapshot_time"]), priorities))
    return tuple(out)
