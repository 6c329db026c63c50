"""Event-driven simulation of the preemptive uniform-priority multi-server queue.

The simulator keeps the population as the model describes it: at most c
customers in service, held in an ascending list, and a heap of waiting
customers. It exploits memorylessness twice: the time to the next service
completion is exponential at rate ``min(N, c)`` regardless of who is being
served, and the completing customer is uniform over the in-service set. This
is distribution-equal to racing per-customer unit-rate clocks (the slower
construction lives in :mod:`uniprio.oracle` as an independent check, on
numpy's generator) while touching only one clock per event. The simulator
draws its uniforms from the standard library's ``random.Random``, so a run
never imports ``numpy.random``.

Observables follow the arrivals-see-time-averages route: the snapshot of an
arrival is the sorted multiset of priorities present just before it joins.
The event loop stores none of them: a trace's columns fix every snapshot. One
walk over the arrivals, which places each customer by its rank in (level,
arrival) order, builds the snapshots on first element access and writes a
trace's snapshot file, which is output only: a trace file read back gives its
snapshots again. :attr:`SimTrace.records` and :attr:`SimTrace.snapshots`
are read-only views, not tuples (unhashable, and ``isinstance(view, tuple)``
is false), which both reductions take back to the trace's columns unbuilt.
"""

from __future__ import annotations

import csv
import io
import math
import random
from bisect import bisect_left, insort
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from itertools import repeat
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

import numpy as np
from .analytics import SystemParams, _as_int, _as_real

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
]


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
    differ. ``record_snapshots=False`` gives a trace whose ``snapshots`` are
    empty; an observer still counts every snapshot, from the trace's columns.
    """

    params: SystemParams
    horizon: float
    seed: int
    priority_quantile: Callable[[float], float] | None = None
    record_snapshots: bool = True

    def __post_init__(self) -> None:
        if not isinstance(self.params, SystemParams):
            raise ValueError(f"params must be a SystemParams, got {self.params!r}")
        object.__setattr__(self, "horizon", _as_real("horizon", self.horizon))
        if not math.isfinite(self.horizon) or self.horizon < 0.0:
            raise ValueError(f"horizon must be finite and nonnegative, got {self.horizon}")
        # _as_int stores a plain int, numpy integers too, which random.Random
        # seeds by its absolute value: -5 would alias 5, so negatives are refused.
        object.__setattr__(self, "seed", _as_int("seed", self.seed))
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True, eq=False)
class SimTrace:
    """Everything one run produced; immutable after construction.

    Customers are held as read-only float64 columns of one length, indexed by
    customer id, one per :class:`CustomerRecord` field after ``customer_id``,
    with NaN for a missing time (in a simulated trace, ``service_time`` is NaN
    exactly where ``departure_time`` is; a built one may keep a censored
    customer's). Every column given is copied; one that is not a float64 array
    meets the real rule once, None as NaN in the last three only. Level ranges
    are checked when binning. This is the one trace type of the CSV layer:
    both writers take one, and :func:`read_trace_csv` gives one back.
    :attr:`records` (None for a missing time) and :attr:`snapshots` are
    read-only views of one entry per customer, not tuples: they have no hash
    and ``isinstance(view, tuple)`` is false. Each read gives a new view; it
    equals the tuple it stands for, which is built on first element access
    and cached on the trace, and a slice is that plain tuple. ``len`` of a
    view, ``len(trace)``, :attr:`final_population` and :attr:`event_count`
    build nothing.

    >>> trace = SimTrace((0.5,), (1.0,), (None,), (None,), (None,))
    >>> trace.final_population, trace.records[0].departure_time is None
    (1, True)
    """

    priority: np.ndarray
    arrival_time: np.ndarray
    last_service_entry: np.ndarray
    departure_time: np.ndarray
    service_time: np.ndarray

    def __post_init__(self) -> None:
        for k, name in enumerate(CustomerRecord._fields[1:]):
            column = getattr(self, name)
            if not isinstance(column, (np.ndarray, Sequence)):
                column = list(column)  # a one-shot iterable, which the type scan would use up
            if not (isinstance(column, np.ndarray) and column.dtype == np.float64):
                # Entries other than floats, or None where it is allowed, meet the real rule.
                if not set(map(type, column)) <= ({float, type(None)} if k > 1 else {float}):
                    rule = "priority level" if k == 0 else name
                    column = [math.nan if x is None and k > 1 else _as_real(rule, x) for x in column]
            column = np.array(column, dtype=np.float64)  # a copy: the caller may still write to its own
            column.flags.writeable = False
            object.__setattr__(self, name, column)
            if column.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional, got shape {column.shape}")
            if len(column) != len(self.priority):
                raise ValueError(f"{name} has {len(column)} entries, priority has {len(self.priority)}")

    def __len__(self) -> int:
        return len(self.arrival_time)

    @property
    def final_population(self) -> int:
        """Customers in system when the horizon cut the run off: the censored ones."""
        return int(np.isnan(self.departure_time).sum())

    @property
    def event_count(self) -> int:
        """Events processed: one arrival per customer plus one departure per departed one."""
        return 2 * len(self) - self.final_population

    @classmethod
    def _of_run(cls, config: SimConfig, priority, arrival, entered, departed, served) -> SimTrace:
        """A run's trace from its lists, each converted to float64 once: a run's own
        floats need no check and its arrays no copy. ``served`` is ``service_time``
        where ``departed`` is set."""
        columns = [np.array(c, dtype=np.float64) for c in (priority, arrival, entered, departed, served)]
        columns[4][np.isnan(columns[3])] = np.nan
        trace = cls.__new__(cls)
        for name, column in zip(CustomerRecord._fields[1:], columns):
            column.flags.writeable = False
            object.__setattr__(trace, name, column)
        if not config.record_snapshots:
            vars(trace)["_snapshot_tuple"] = ()
        return trace

    @property
    def records(self) -> Sequence[CustomerRecord]:
        """Each customer's :class:`CustomerRecord`, by id, as a new view."""
        return _Records(self)

    @property
    def snapshots(self) -> Sequence[Snapshot]:
        """Every arrival's snapshot, as a new view: levels ascending, equal ones by arrival.
        A trace simulated with ``record_snapshots=False`` gives ``()``."""
        if vars(self).get("_snapshot_tuple") == ():  # none kept, or no arrival
            return ()
        self._snapshot_ends  # times the snapshot rule cannot read raise here, not at first access
        return _Snapshots(self)

    @cached_property
    def _record_tuple(self) -> tuple[CustomerRecord, ...]:
        times = self.last_service_entry, self.departure_time, self.service_time
        optional = [column.tolist() for column in times]
        for k, i in np.argwhere(np.isnan(times)).tolist():
            optional[k][i] = None
        columns = range(len(self)), self.priority.tolist(), self.arrival_time.tolist(), *optional
        return tuple(map(CustomerRecord._make, zip(*columns)))

    @cached_property
    def _snapshot_ends(self) -> np.ndarray:
        """Per customer ``i``, the end ``hi`` of the snapshots ``i + 1 .. hi - 1`` it is in.

        Snapshot ``j`` is taken at arrival ``j``, before it joins, so ``hi`` counts the
        arrivals at or before ``i``'s departure (served first on a tie), or all of them
        if ``i`` is censored: its NaN sorts after every arrival. Arrivals that are NaN
        or not ascending, and a departure before its own arrival, raise ValueError.
        """
        arrival = self.arrival_time
        if np.isnan(arrival).any() or (arrival[1:] < arrival[:-1]).any():
            raise ValueError("arrival times must be ascending and not NaN")
        ends = np.searchsorted(arrival, self.departure_time, "right")
        if (ends <= np.arange(len(self))).any():
            raise ValueError("a customer departs before its arrival")
        return ends

    def _walk(self, values: Sequence) -> Iterator[list]:
        """Per arrival ``j``, the ``values`` of the customers in snapshot ``j`` in rank order, as one
        list reused from row to row. A customer's rank is its place in (level, arrival) order, as a
        stable sort gives it (``-0.0`` ties ``0.0``, NaN last); the walk ranks on entry and keeps the
        present ranks sorted, so each leaver, in leaving order, is found by its own."""
        n = len(self)
        rank = np.empty(n, dtype=np.intp)
        rank[np.argsort(self.priority, kind="stable")] = np.arange(n)
        ends = self._snapshot_ends
        leavers = rank[np.argsort(ends, kind="stable")].tolist()
        left = np.cumsum(np.bincount(ends, minlength=n + 1)).tolist()  # leavers before each snapshot
        ranks = rank.tolist()
        present, shown = [], []
        k = 0
        for j, value in enumerate(values):
            while k < left[j]:
                at = bisect_left(present, leavers[k])
                del present[at], shown[at]
                k += 1
            yield shown
            at = bisect_left(present, ranks[j])
            present.insert(at, ranks[j])
            shown.insert(at, value)

    @cached_property
    def _snapshot_tuple(self) -> tuple[Snapshot, ...]:
        levels = map(tuple, self._walk(self.priority.tolist()))
        # Snapshot._make without a Python call per snapshot.
        return tuple(map(tuple.__new__, repeat(Snapshot), zip(self.arrival_time.tolist(), levels)))

    # Cell texts of the two columns that both the trace and the snapshot file
    # print, formatted on first use.
    @cached_property
    def _priority_texts(self) -> tuple[str, ...]:
        return _cells(self.priority)

    @cached_property
    def _arrival_texts(self) -> tuple[str, ...]:
        return _cells(self.arrival_time)


class _TraceView(Sequence):
    """A trace's records or snapshots, read-only; ``len`` is the trace's length.

    Indexing, slicing, iteration and ``==`` read the tuple that the trace
    builds on first element access and caches as ``_built``. Defining ``==``
    leaves the view unhashable. Each read of the trace's attribute makes a new
    view; the trace never refers to one, so a dropped trace is freed at once.
    """

    __slots__ = ("_trace",)
    _built: str

    def __init__(self, trace: SimTrace) -> None:
        self._trace = trace

    def _tuple(self) -> tuple:
        return getattr(self._trace, self._built)

    def __len__(self) -> int:
        return len(self._trace)

    def __getitem__(self, index):
        return self._tuple()[index]

    def __iter__(self) -> Iterator:
        return iter(self._tuple())

    def __eq__(self, other) -> bool:
        return self._tuple() == other

    def __repr__(self) -> str:
        return repr(self._tuple())


class _Records(_TraceView):
    __slots__ = ()
    _built = "_record_tuple"


class _Snapshots(_TraceView):
    __slots__ = ()
    _built = "_snapshot_tuple"


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

    Reproducibility: one Mersenne Twister stream, ``random.Random(config.seed)``
    from the standard library, drives the run, one ``random()`` call per
    uniform; Python guarantees that a seeded ``Random`` gives the same
    ``random()`` sequence on every version. The uniforms are consumed in a
    fixed order per iteration: first the candidate completion gap (when the
    system is occupied; discarded unscathed if an arrival preempts the
    comparison, which memorylessness permits), then on an arrival
    its uniform priority followed by the next interarrival gap, or on a
    departure one uniform ``u`` that picks the ``int(u * busy)``-th highest
    customer in service, counting from zero, to complete. The pick consumes
    its uniform even when one customer is in service, and since ``u < 1`` it
    never reaches ``busy``. Identical configs give bitwise-identical traces.

    Boundary rule: events stamped exactly at the horizon are processed; the
    run stops at the first event strictly beyond it. Customers still present
    are recorded as censored.

    ``observer``, when given, is a density accumulator that takes the finished
    trace through ``add_trace``: it counts every snapshot from the columns,
    without building them, and bins the displayed priorities, as
    ``add_snapshots`` does.
    """
    uniform = random.Random(config.seed).random
    alpha = config.params.alpha
    servers = config.params.c
    horizon = config.horizon
    quantile = config.priority_quantile

    # Every customer is keyed once as (-level, id), so that ascending order
    # ranks the strongest first and, between equal levels, the earlier arrival
    # first. In service: an ascending list of at most c keys, weakest last.
    # Waiting: a heap of keys, strongest on top. A preempted or promoted
    # customer moves its key between the two unchanged.
    in_service: list[tuple[float, int]] = []
    queue: list[tuple[float, int]] = []
    arrivals: list[float] = []
    displays: list[float] = []
    entered: list[float | None] = []
    departed: list[float | None] = []
    served: list[float] = []

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
            level = uniform()
            customer = len(arrivals)
            entry = (-level, customer)
            arrivals.append(time)
            displays.append(float(quantile(level)) if quantile is not None else level)
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
            victim = in_service.pop(int(uniform() * busy))[1]
            departed[victim] = time
            served[victim] += time - entered[victim]
            if queue:
                # The freed server goes to the strongest waiter.
                promoted = heappop(queue)
                insort(in_service, promoted)
                entered[promoted[1]] = time

    trace = SimTrace._of_run(config, displays, arrivals, entered, departed, served)
    if observer is not None:
        observer.add_trace(trace)
    return trace


# ---------------------------------------------------------------------------
# CSV export and import


def _cells(column: Sequence[float | None] | np.ndarray) -> tuple[str, ...]:
    """CSV cell text of each entry: ``repr(float(x))``, or empty for None or NaN.

    The column is read once as float64, where None reads as NaN, and the one
    C-level ``repr`` of its list is split at the separators: no float repr
    holds ``", "``, and none but NaN's holds ``"nan"``.
    """
    values = np.asarray(column, dtype=np.float64).tolist()
    if not values:
        return ()
    return tuple(repr(values)[1:-1].replace("nan", "").split(", "))


# Rows that write_trace_csv formats and writes at a time.
_ROWS = 1024


def _check_cells(trace: SimTrace) -> None:
    """Refuse a NaN priority or arrival time: it would print as an empty cell,
    which :func:`read_trace_csv` refuses in those columns."""
    if np.isnan(trace.priority).any() or np.isnan(trace.arrival_time).any():
        raise ValueError("a NaN priority or arrival time has no cell that read_trace_csv reads back")


def write_trace_csv(trace: SimTrace, path) -> None:
    """Write a trace's customers, one row each, numbered by id; empty cells mark missing times.

    Each real prints as ``repr(float(x))``, so numpy floats print as Python
    floats do. Rows are formatted and written in blocks of ``_ROWS``, so the
    writer holds one block's text, not whole columns: per block, :func:`_cells`
    formats the departure and service times and the ``last_service_entry``
    times that differ from the customer's own arrival (the others take that
    arrival's text). The priority and arrival texts are formatted once for the
    whole trace and cached on it, for :func:`write_snapshots_csv` to reuse.
    Rows are formatted directly in ``csv.writer``'s excel dialect: no cell (an
    integer, a float repr or empty) ever needs quoting. A NaN priority or
    arrival time raises ValueError before the file is opened: it would print
    as an empty cell, which :func:`read_trace_csv` refuses in those columns.
    """
    _check_cells(trace)
    priorities, arrivals = trace._priority_texts, trace._arrival_texts
    with open(path, "w", newline="") as handle:
        handle.write(",".join(CustomerRecord._fields) + "\r\n")
        for start in range(0, len(trace), _ROWS):
            block = slice(start, start + _ROWS)
            # Most customers enter service on arrival: only the other entry times are formatted.
            entered = trace.last_service_entry[block]
            elsewhere = entered.view(np.int64) != trace.arrival_time[block].view(np.int64)
            entry = np.array(arrivals[block], dtype=object)
            entry[elsewhere] = _cells(entered[elsewhere])
            rows = zip(
                range(start, start + len(entry)),
                priorities[block],
                arrivals[block],
                entry,
                _cells(trace.departure_time[block]),
                _cells(trace.service_time[block]),
            )
            handle.writelines(f"{i},{p},{a},{e},{d},{s}\r\n" for i, p, a, e, d, s in rows)


def _reals(cells: tuple[str, ...]) -> list[float | None]:
    """The values of cells :func:`_cells` wrote: None for an empty cell. A cell that is not
    the text :func:`_cells` writes for its value (``1_0``, ``nan``, or one with a space)
    raises ValueError naming it."""
    values = [float(cell) if cell else None for cell in cells]
    texts = _cells(values)
    if texts != cells:
        cell = next(cell for cell, text in zip(cells, texts) if cell != text)
        raise ValueError(f"cell {cell!r} is not a float as the CSV writers print it")
    return values


def _csv_rows(path, header: tuple[str, ...]) -> list[list[str]]:
    """A CSV file's rows after its header, each a list of cells. A first row that is not
    exactly ``header`` (also in an empty file), a row with another cell count (also a
    blank line), a NUL byte, or a line ``csv.reader`` refuses (such as a cell past its
    field size limit) raises ValueError naming the file and the line."""
    with open(path, newline="") as handle:
        text = handle.read()
    nul = text.find("\0")  # csv.reader refuses a NUL before Python 3.11 and reads it into a cell after
    if nul >= 0:
        line = text.count("\n", 0, nul) + 1
        raise ValueError(f"line {line} of {path} holds a NUL byte")
    rows = []
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        if next(reader, None) != list(header):
            raise ValueError(f"the header of {path} is not {','.join(header)}")
        for row in reader:
            if len(row) != len(header):
                raise ValueError(f"line {reader.line_num} of {path} does not have one cell per header name")
            rows.append(row)
    except csv.Error as error:
        raise ValueError(f"line {reader.line_num} of {path} is not CSV: {error}") from None
    return rows


def read_trace_csv(path) -> SimTrace:
    """The trace a file written by :func:`write_trace_csv` holds, every column bit for bit.

    Cells are read by position, a column at a time by :func:`_reals`, and the
    columns meet :class:`SimTrace`'s value rules. A header other than the writer's,
    ``customer_id`` cells other than the texts 0, 1, ... in order, and a row
    whose cell count is not the header's raise ValueError.
    """
    rows = _csv_rows(path, CustomerRecord._fields)
    ids, *columns = zip(*rows) if rows else [()] * len(CustomerRecord._fields)
    if ids != tuple(map(str, range(len(rows)))):
        raise ValueError(f"customer ids in {path} do not count 0, 1, ... in order")
    return SimTrace(*map(_reals, columns))


def write_snapshots_csv(trace: SimTrace, path) -> None:
    """Write a trace's per-arrival snapshots; priorities are semicolon-joined, ascending.

    Cells print as in :func:`write_trace_csv`. Rows come from the walk that
    builds :attr:`SimTrace.snapshots`, over the trace's cached priority and
    arrival texts, without building the snapshot tuple; a trace without
    snapshots formats nothing. Rows are formatted directly: a float repr holds no comma,
    quote or line break, so ``csv.writer`` would quote nothing either. A NaN
    priority or arrival time raises ValueError before the file is opened, as
    in :func:`write_trace_csv`; so do times the snapshot rule of
    :attr:`SimTrace.snapshots` refuses.
    """
    kept = vars(trace).get("_snapshot_tuple") != ()  # () when not stored, or no arrival
    _check_cells(trace)
    rows = ()
    if kept:
        trace._snapshot_ends  # times the snapshot rule refuses raise here, before the file is opened
        rows = zip(trace._arrival_texts, trace._walk(trace._priority_texts))
    with open(path, "w", newline="") as handle:
        handle.write("snapshot_time,priorities\r\n")
        handle.writelines(f"{time},{';'.join(levels)}\r\n" for time, levels in rows)

