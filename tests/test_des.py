"""Event-driven simulator: determinism, conservation laws, and trace shape."""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uniprio
from uniprio.analytics import SystemParams
from uniprio.des import (
    _BLOCK,
    CustomerRecord,
    SimConfig,
    SimTrace,
    Snapshot,
    read_snapshots_csv,
    read_trace_csv,
    simulate,
    write_snapshots_csv,
    write_trace_csv,
)
from uniprio.estimate import BinGrid, DensityAccumulator

PARAMS = SystemParams(1.5, 2)


class TestSimConfig:
    def test_rejects_bad_horizon(self) -> None:
        with pytest.raises(ValueError):
            SimConfig(PARAMS, -1.0, 0)
        with pytest.raises(ValueError):
            SimConfig(PARAMS, math.inf, 0)

    @pytest.mark.parametrize("horizon", ["5", True])
    def test_rejects_non_real_horizon(self, horizon) -> None:
        with pytest.raises(ValueError, match="horizon must be a number"):
            SimConfig(PARAMS, horizon, 1)

    def test_rejects_bool_seed(self) -> None:
        with pytest.raises(ValueError):
            SimConfig(PARAMS, 10.0, True)

    def test_accepts_numpy_seed(self) -> None:
        SimConfig(PARAMS, 10.0, np.int64(3))

    def test_rejects_negative_seed(self) -> None:
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            SimConfig(PARAMS, 10.0, -1)
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            SimConfig(PARAMS, 10.0, np.int64(-2))


class TestTraceShape:
    def test_zero_horizon_is_empty(self) -> None:
        trace = simulate(SimConfig(PARAMS, 0.0, 1))
        assert trace.records == ()
        assert trace.snapshots == ()
        assert trace.event_count == 0
        assert trace.final_population == 0

    def test_conservation(self) -> None:
        trace = simulate(SimConfig(PARAMS, 500.0, 2))
        departed = [r for r in trace.records if not r.is_censored]
        censored = [r for r in trace.records if r.is_censored]
        assert trace.final_population == len(censored)
        assert trace.event_count == len(trace.records) + len(departed)
        assert len(trace.snapshots) == len(trace.records)

    def test_record_invariants(self) -> None:
        horizon = 500.0
        trace = simulate(SimConfig(PARAMS, horizon, 3))
        for r in trace.records:
            assert 0.0 <= r.priority <= 1.0
            assert r.arrival_time <= horizon
            if r.is_censored:
                assert r.departure_time is None
                assert r.sojourn is None
                assert r.service_time is None
            else:
                assert r.arrival_time <= r.last_service_entry <= r.departure_time <= horizon
                assert r.sojourn == r.departure_time - r.arrival_time
                assert r.departure_time - r.last_service_entry <= r.service_time <= r.sojourn
                assert r.waiting == r.sojourn - r.service_time

    def test_first_customer_starts_service_on_arrival(self) -> None:
        trace = simulate(SimConfig(PARAMS, 50.0, 4))
        first = trace.records[0]
        assert first.last_service_entry == first.arrival_time

    def test_snapshots_are_arrival_instants_without_the_arriver(self) -> None:
        trace = simulate(SimConfig(PARAMS, 200.0, 5))
        assert trace.snapshots[0].priorities == ()
        for record, snap in zip(trace.records, trace.snapshots):
            assert snap.time == record.arrival_time

    def test_snapshots_match_reconstruction_from_records(self) -> None:
        # The population any arrival observes must equal what the records
        # imply: everyone who arrived strictly earlier and left no earlier.
        trace = simulate(SimConfig(PARAMS, 300.0, 6))
        for snap in trace.snapshots:
            t = snap.time
            expected = sorted(
                r.priority
                for r in trace.records
                if r.arrival_time < t and (r.departure_time is None or r.departure_time >= t)
            )
            assert list(snap.priorities) == expected

    def test_preempted_customers_reenter_service_later(self) -> None:
        trace = simulate(SimConfig(SystemParams(0.9, 1), 2000.0, 7))
        resumed = [
            r
            for r in trace.records
            if not r.is_censored and r.last_service_entry > r.arrival_time
        ]
        assert resumed  # heavy single-server load must preempt someone


def _present_at(trace, t: float) -> list[float]:
    """Priorities of everyone who arrived strictly before ``t`` and left no earlier."""
    return [
        r.priority
        for r in trace.records
        if r.arrival_time < t and (r.departure_time is None or r.departure_time >= t)
    ]


class TestSnapshotContents:
    """Snapshots against the population the records imply, beyond the stable case."""

    @pytest.mark.parametrize(
        "alpha, c, horizon, quantile",
        [
            (5.0, 2, 200.0, None),  # overloaded: the population grows linearly
            (45.0, 50, 10.0, None),  # many servers
            (1.5, 2, 300.0, lambda u: 0.25 if u < 0.5 else 0.75),  # many equal displays
        ],
        ids=["overloaded", "many-server", "step-quantile"],
    )
    def test_snapshots_match_reconstruction_and_ascend(self, alpha, c, horizon, quantile) -> None:
        trace = simulate(SimConfig(SystemParams(alpha, c), horizon, 8, priority_quantile=quantile))
        assert max(map(len, (s.priorities for s in trace.snapshots))) > c
        for snap in trace.snapshots:
            assert list(snap.priorities) == sorted(_present_at(trace, snap.time))
            assert all(a <= b for a, b in zip(snap.priorities, snap.priorities[1:]))

    def test_signed_zero_displays_keep_their_own_signs(self) -> None:
        # -0.0 == 0.0, so equality alone cannot tell which of them left.
        quantile = lambda u: -0.0 if u < 0.3 else (0.0 if u < 0.6 else u)  # noqa: E731
        trace = simulate(SimConfig(PARAMS, 500.0, 9, priority_quantile=quantile))
        for snap in trace.snapshots:
            expected = _present_at(trace, snap.time)
            assert sorted(map(repr, snap.priorities)) == sorted(map(repr, expected))
            assert list(snap.priorities) == sorted(expected)


class TestDeterminism:
    def test_bitwise_reproducible(self) -> None:
        cfg = SimConfig(PARAMS, 400.0, 11)
        a, b = simulate(cfg), simulate(cfg)
        assert a.records == b.records
        assert a.snapshots == b.snapshots
        assert a.event_count == b.event_count

    def test_seed_changes_the_trace(self) -> None:
        a = simulate(SimConfig(PARAMS, 400.0, 11))
        b = simulate(SimConfig(PARAMS, 400.0, 12))
        assert a.records != b.records

    def test_horizon_boundary_is_inclusive(self) -> None:
        # Shrinking the horizon to an exact event time must keep that event;
        # one ulp below must drop it. Draws never depend on the horizon.
        base = simulate(SimConfig(PARAMS, 100.0, 13))
        cutoff = base.records[-1].arrival_time
        at = simulate(SimConfig(PARAMS, cutoff, 13))
        below = simulate(SimConfig(PARAMS, math.nextafter(cutoff, 0.0), 13))
        assert at.records[-1].arrival_time == cutoff
        assert len(below.records) == len(at.records) - 1


class TestDrawOrder:
    def test_single_server_run_replays_from_the_raw_stream(self) -> None:
        # Replays the documented order by hand from one flat array of
        # uniforms: arrival gap, then per iteration the completion gap when
        # occupied, then priority and next gap on an arrival, or one pick
        # uniform on a departure. The run spans several numpy blocks.
        alpha, horizon, seed = 0.9, 1e4, 61
        draws = np.random.default_rng(seed).random(100_000).tolist()
        used = 0

        def uniform() -> float:
            nonlocal used
            used += 1
            return draws[used - 1]

        arrivals: list[float] = []
        departures: dict[int, float] = {}
        present: dict[int, float] = {}
        time = 0.0
        next_arrival = -math.log1p(-uniform()) / alpha
        while True:
            next_completion = time + -math.log1p(-uniform()) if present else math.inf
            if next_arrival <= next_completion:
                if next_arrival > horizon:
                    break
                time = next_arrival
                present[len(arrivals)] = uniform()
                arrivals.append(time)
                next_arrival = time + -math.log1p(-uniform()) / alpha
            else:
                if next_completion > horizon:
                    break
                time = next_completion
                uniform()  # the pick; one server leaves no choice
                top = max(present, key=lambda i: (present[i], -i))
                departures[top] = time
                del present[top]
        assert used > 3 * _BLOCK

        trace = simulate(SimConfig(SystemParams(alpha, 1), horizon, seed))
        assert [r.arrival_time for r in trace.records] == arrivals
        assert {r.customer_id: r.departure_time for r in trace.records if not r.is_censored} == departures
        assert trace.final_population == len(present)

    def test_pick_never_reaches_busy(self) -> None:
        below_one = math.nextafter(1.0, 0.0)
        for n in range(1, 2001):
            assert int(below_one * n) == n - 1


# SHA-256 of write_trace_csv bytes followed by write_snapshots_csv bytes. They
# pin the documented draw order; a change to the random stream must update
# them on purpose. Test ids name the case, not the digest, so an update keeps them.
GOLDEN_DIGESTS = [
    (5.0, 2, 60.0, 3, "685d85850ef8240273127c1b2af069f0b92b5ebea582b757855a15801acf50ff"),
    (45.0, 50, 8.0, 4, "753dfbd4b11a1af8555aefae1f4e463f4126cadc10f0ecf1b6a1676187c5e5d6"),
    (1.5, 2, 500.0, 2, "eec87bc0ec3da7bf8b2b56796204ca71b85a5c4b78bc273c87e23704011324e8"),
    (0.5, 1, 300.0, 5, "8073d1c839528315b478dc5d1f6cd1bc7d32e7841af093a95370732798a3e115"),
]


class TestGoldenDigests:
    @pytest.mark.parametrize(
        "alpha, c, horizon, seed, digest",
        GOLDEN_DIGESTS,
        ids=[f"{alpha}-{c}-{horizon}-{seed}" for alpha, c, horizon, seed, _ in GOLDEN_DIGESTS],
    )
    def test_csv_bytes_are_pinned(self, tmp_path, alpha, c, horizon, seed, digest) -> None:
        trace = simulate(SimConfig(SystemParams(alpha, c), horizon, seed))
        write_trace_csv(trace.records, tmp_path / "trace.csv")
        write_snapshots_csv(trace.snapshots, tmp_path / "snaps.csv")
        data = (tmp_path / "trace.csv").read_bytes() + (tmp_path / "snaps.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest

    @pytest.mark.parametrize(
        "alpha, c, horizon, seed, digest",
        GOLDEN_DIGESTS,
        ids=[f"{alpha}-{c}-{horizon}-{seed}" for alpha, c, horizon, seed, _ in GOLDEN_DIGESTS],
    )
    def test_csv_bytes_are_pinned_from_the_trace(self, tmp_path, alpha, c, horizon, seed, digest) -> None:
        trace = simulate(SimConfig(SystemParams(alpha, c), horizon, seed))
        write_trace_csv(trace, tmp_path / "trace.csv")
        write_snapshots_csv(trace, tmp_path / "snaps.csv")
        data = (tmp_path / "trace.csv").read_bytes() + (tmp_path / "snaps.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def _ranked(records, time, strictly_after):
    """Customers present at ``time``, highest rank first.

    A customer is present when it arrived before ``time`` and had not left
    before it; ``strictly_after`` also drops the one leaving exactly then.
    """
    present = [
        r
        for r in records
        if r.arrival_time < time
        and (
            r.departure_time is None
            or r.departure_time > time
            or (r.departure_time == time and not strictly_after)
        )
    ]
    return sorted(present, key=lambda r: (r.priority, -r.customer_id), reverse=True)


class TestDiscipline:
    """The c highest-ranked customers present are the ones in service.

    Rank is ``(priority, -customer_id)``: between equal priorities the earlier
    arrival ranks higher.
    """

    @pytest.mark.parametrize(
        "alpha, c, horizon, seed",
        [(0.9, 1, 300.0, 7), (5.0, 2, 40.0, 8), (9.0, 10, 40.0, 9), (1.5, 2, 300.0, 10)],
    )
    def test_only_the_top_c_leave_and_freed_servers_go_to_the_strongest_waiter(
        self, alpha, c, horizon, seed
    ) -> None:
        trace = simulate(SimConfig(SystemParams(alpha, c), horizon, seed))
        records = trace.records
        leaving = {r.departure_time: r for r in records if not r.is_censored}
        for r in leaving.values():
            ranked = _ranked(records, r.departure_time, strictly_after=False)
            assert ranked.index(r) < min(len(ranked), c)
        promoted = [
            r
            for r in records
            if r.last_service_entry is not None and r.last_service_entry > r.arrival_time
        ]
        assert promoted
        for r in promoted:
            freed_by = leaving.get(r.last_service_entry)
            assert freed_by is not None and freed_by is not r
            ranked = _ranked(records, r.last_service_entry, strictly_after=True)
            assert ranked.index(r) == c - 1


class TestPriorityTransform:
    def test_event_times_are_invariant(self) -> None:
        plain = simulate(SimConfig(PARAMS, 300.0, 21))
        warped = simulate(
            SimConfig(PARAMS, 300.0, 21, priority_quantile=lambda u: -math.log1p(-u))
        )
        assert len(plain.records) == len(warped.records)
        for a, b in zip(plain.records, warped.records):
            assert a.arrival_time == b.arrival_time
            assert a.last_service_entry == b.last_service_entry
            assert a.departure_time == b.departure_time
            assert b.priority == -math.log1p(-a.priority)

    def test_snapshots_carry_transformed_values(self) -> None:
        plain = simulate(SimConfig(PARAMS, 300.0, 21))
        warped = simulate(
            SimConfig(PARAMS, 300.0, 21, priority_quantile=lambda u: -math.log1p(-u))
        )
        for sa, sb in zip(plain.snapshots, warped.snapshots):
            assert sb.time == sa.time
            assert sb.priorities == tuple(-math.log1p(-u) for u in sa.priorities)


class _Recorder:
    """Stands in for a density accumulator: keeps every trace handed to it."""

    def __init__(self) -> None:
        self.traces: list = []

    def add_trace(self, trace) -> None:
        self.traces.append(trace)


class TestObserver:
    def test_observer_takes_the_finished_trace_once(self) -> None:
        recorder = _Recorder()
        trace = simulate(SimConfig(PARAMS, 300.0, 31), observer=recorder)
        assert len(recorder.traces) == 1 and recorder.traces[0] is trace

    def test_observer_counts_every_arrival(self) -> None:
        density = DensityAccumulator(BinGrid(0.1))
        trace = simulate(SimConfig(PARAMS, 300.0, 31), observer=density)
        assert density.snapshot_count == len(trace) == len(trace.snapshots)
        heads = sum(len(s.priorities) for s in trace.snapshots)
        assert density._sums.sum() == heads

    def test_disabling_snapshot_storage_changes_nothing_else(self) -> None:
        kept = simulate(SimConfig(PARAMS, 300.0, 31))
        density = DensityAccumulator(BinGrid(0.1))
        dropped = simulate(
            SimConfig(PARAMS, 300.0, 31, record_snapshots=False), observer=density
        )
        assert dropped.snapshots == ()
        assert dropped.records == kept.records
        offline = DensityAccumulator(BinGrid(0.1)).add_snapshots(kept.snapshots)
        assert density.snapshot_count == offline.snapshot_count == len(kept.snapshots)
        assert density.curve().values == offline.curve().values

    def test_observer_bins_displayed_priorities(self) -> None:
        # A quantile map into [0, 1] moves customers between bins. The
        # observer bins the displays, as stored snapshots hold them, not the
        # raw uniforms that scheduling uses.
        squared = SimConfig(PARAMS, 300.0, 31, priority_quantile=lambda u: u**2)
        density = DensityAccumulator(BinGrid(0.1))
        trace = simulate(squared, observer=density)
        offline = DensityAccumulator(BinGrid(0.1)).add_snapshots(trace.snapshots)
        assert density.curve().values == offline.curve().values
        raw = DensityAccumulator(BinGrid(0.1))
        simulate(SimConfig(PARAMS, 300.0, 31), observer=raw)
        assert raw.snapshot_count == density.snapshot_count
        assert raw.curve().values != density.curve().values


class TestColumnarTrace:
    # Overloaded, so the horizon leaves censored customers.
    CONFIG = SimConfig(SystemParams(5.0, 2), 30.0, 43)

    def test_records_are_built_from_the_columns(self) -> None:
        trace = simulate(self.CONFIG)
        columns = (
            trace.priority,
            trace.arrival_time,
            trace.last_service_entry,
            trace.departure_time,
            trace.service_time,
        )
        rebuilt = tuple(CustomerRecord(i, *row) for i, row in enumerate(zip(*columns)))
        assert trace.records == rebuilt
        assert trace.records is trace.records
        assert len(trace) == len(trace.records) > 0
        assert tuple(zip(*trace.records)) == tuple(map(tuple, trace.columns))
        assert [s is None for s in trace.service_time] == [d is None for d in trace.departure_time]
        assert trace.departure_time.count(None) == trace.final_population > 0

    def test_record_properties(self) -> None:
        done = CustomerRecord(3, 0.4, 1.0, 2.0, 5.0, 2.5)
        assert not done.is_censored
        assert done.sojourn == 4.0
        assert done.waiting == 1.5
        assert done == (3, 0.4, 1.0, 2.0, 5.0, 2.5)  # a NamedTuple equals its plain tuple
        censored = CustomerRecord(4, 0.4, 1.0, None, None, None)
        assert censored.is_censored
        assert censored.sojourn is None and censored.waiting is None
        with pytest.raises(ValueError, match="no service time"):
            CustomerRecord(5, 0.4, 1.0, 2.0, 5.0, None).waiting

    def test_trace_and_records_write_the_same_bytes(self, tmp_path) -> None:
        trace = simulate(self.CONFIG)
        assert any(r.is_censored for r in trace.records)
        write_trace_csv(trace, tmp_path / "from_trace.csv")
        write_trace_csv(trace.records, tmp_path / "from_records.csv")
        data = (tmp_path / "from_trace.csv").read_bytes()
        assert data == (tmp_path / "from_records.csv").read_bytes()
        assert read_trace_csv(tmp_path / "from_trace.csv") == trace.records


class TestCsvRoundTrip:
    def test_trace(self, tmp_path) -> None:
        trace = simulate(SimConfig(PARAMS, 200.0, 41))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace.records, path)
        assert read_trace_csv(path) == trace.records

    def test_snapshots(self, tmp_path) -> None:
        trace = simulate(SimConfig(PARAMS, 200.0, 41))
        path = tmp_path / "snaps.csv"
        write_snapshots_csv(trace.snapshots, path)
        assert read_snapshots_csv(path) == trace.snapshots

    def test_signed_zeros_keep_their_signs(self, tmp_path) -> None:
        path = tmp_path / "snaps.csv"
        write_snapshots_csv([Snapshot(1.0, (-0.0, 0.0, 0.0, -0.0))], path)
        assert path.read_bytes() == b"snapshot_time,priorities\r\n1.0,-0.0;0.0;0.0;-0.0\r\n"

    def test_empty_snapshot_round_trips(self, tmp_path) -> None:
        snaps = (Snapshot(0.5, (0.25,)), Snapshot(2.0, ()), Snapshot(3.0, (0.25, 0.75)))
        path = tmp_path / "snaps.csv"
        write_snapshots_csv(snaps, path)
        assert read_snapshots_csv(path) == snaps

    def test_bytes_match_csv_module(self, tmp_path) -> None:
        # Overloaded, so the horizon leaves censored rows with empty cells.
        trace = simulate(SimConfig(SystemParams(5.0, 2), 30.0, 43))
        assert any(r.is_censored for r in trace.records)
        write_trace_csv(trace.records, tmp_path / "trace.csv")
        write_snapshots_csv(trace.snapshots, tmp_path / "snaps.csv")
        assert (tmp_path / "trace.csv").read_bytes() == _csv_module_trace(trace.records)
        assert (tmp_path / "snaps.csv").read_bytes() == _csv_module_snapshots(trace.snapshots)

    def test_numpy_floats_write_as_python_floats(self, tmp_path) -> None:
        # Under numpy 2 the repr of np.float64(0.5) is "np.float64(0.5)".
        records = (CustomerRecord(0, 0.25, 0.5, 0.5, 2.0, 1.5), CustomerRecord(1, 0.75, 1.0, None, None, None))
        as_numpy = [
            CustomerRecord(r[0], *(None if v is None else np.float64(v) for v in r[1:])) for r in records
        ]
        snaps = (Snapshot(0.5, ()), Snapshot(1.0, (0.25,)))
        write_trace_csv(as_numpy, tmp_path / "trace.csv")
        write_snapshots_csv(
            [Snapshot(np.float64(t), tuple(map(np.float64, q))) for t, q in snaps], tmp_path / "snaps.csv"
        )
        assert (tmp_path / "trace.csv").read_bytes() == _csv_module_trace(records)
        assert (tmp_path / "snaps.csv").read_bytes() == _csv_module_snapshots(snaps)
        assert read_trace_csv(tmp_path / "trace.csv") == records
        assert read_snapshots_csv(tmp_path / "snaps.csv") == snaps


def _csv_module_trace(records) -> bytes:
    """What ``csv.writer`` writes for ``records``, each real as its repr."""
    handle = io.StringIO(newline="")
    writer = csv.writer(handle)
    writer.writerow(CustomerRecord._fields)
    for r in records:
        writer.writerow([r[0]] + ["" if v is None else repr(v) for v in r[1:]])
    return handle.getvalue().encode()


def _csv_module_snapshots(snapshots) -> bytes:
    """What ``csv.writer`` writes for ``snapshots``, each real as its repr."""
    handle = io.StringIO(newline="")
    writer = csv.writer(handle)
    writer.writerow(["snapshot_time", "priorities"])
    for time, priorities in snapshots:
        writer.writerow([repr(time), ";".join(map(repr, priorities))])
    return handle.getvalue().encode()


class TestSharedCellTexts:
    """A trace's writers share its priority and arrival texts; the bytes stay those of repr."""

    @staticmethod
    def written(tmp_path, trace) -> tuple[bytes, bytes]:
        """The trace and snapshot files written from the trace, checked against
        the ones written from its records and snapshots."""
        write_trace_csv(trace, tmp_path / "trace.csv")
        write_snapshots_csv(trace, tmp_path / "snaps.csv")
        write_trace_csv(trace.records, tmp_path / "records.csv")
        write_snapshots_csv(trace.snapshots, tmp_path / "snapshots.csv")
        data = (tmp_path / "trace.csv").read_bytes(), (tmp_path / "snaps.csv").read_bytes()
        assert data == ((tmp_path / "records.csv").read_bytes(), (tmp_path / "snapshots.csv").read_bytes())
        return data

    def test_signed_zero_levels_keep_their_own_texts(self, tmp_path) -> None:
        quantile = lambda u: math.copysign(0.0, u - 0.5)  # noqa: E731
        trace = simulate(SimConfig(SystemParams(3.0, 2), 40.0, 7, priority_quantile=quantile))
        assert {repr(p) for p in trace.priority} == {"-0.0", "0.0"}
        trace_csv, snaps_csv = self.written(tmp_path, trace)
        assert trace_csv == _csv_module_trace(trace.records)
        assert snaps_csv == _csv_module_snapshots(trace.snapshots)
        assert b"-0.0;0.0" in snaps_csv or b"0.0;-0.0" in snaps_csv
        back = read_snapshots_csv(tmp_path / "snaps.csv")
        assert [tuple(map(repr, s.priorities)) for s in back] == [
            tuple(map(repr, s.priorities)) for s in trace.snapshots
        ]

    def test_censored_and_never_served_customers(self, tmp_path) -> None:
        trace = simulate(SimConfig(SystemParams(5.0, 2), 30.0, 43))
        assert any(r.is_censored and r.last_service_entry is None for r in trace.records)
        assert any(r.is_censored and r.last_service_entry is not None for r in trace.records)
        # Entries at a departure instant, not at the customer's own arrival.
        assert any(e is not None and e != a for a, e in zip(trace.arrival_time, trace.last_service_entry))
        trace_csv, snaps_csv = self.written(tmp_path, trace)
        assert trace_csv == _csv_module_trace(trace.records)
        assert snaps_csv == _csv_module_snapshots(trace.snapshots)

    def test_empty_trace_writes_headers_only(self, tmp_path) -> None:
        trace = simulate(SimConfig(PARAMS, 0.0, 1))
        assert len(trace) == 0
        assert self.written(tmp_path, trace) == (
            b"customer_id,priority,arrival_time,last_service_entry,departure_time,service_time\r\n",
            b"snapshot_time,priorities\r\n",
        )

    def test_unstored_snapshots_write_a_header_only(self, tmp_path) -> None:
        trace = simulate(SimConfig(PARAMS, 100.0, 3, record_snapshots=False))
        assert len(trace) > 0 and trace.snapshots == ()
        trace_csv, snaps_csv = self.written(tmp_path, trace)
        assert snaps_csv == b"snapshot_time,priorities\r\n"
        assert trace_csv == _csv_module_trace(simulate(SimConfig(PARAMS, 100.0, 3)).records)

    def test_times_matching_no_arrival_fall_back_to_repr(self, tmp_path) -> None:
        trace = SimTrace(
            priority=(0.25, -0.0, 0.75),
            arrival_time=(0.0, 1.0, 2.0),
            last_service_entry=(-0.0, 1.5, None),
            departure_time=(3.0, 4.0, None),
            service_time=(3.0, 2.5, None),
            snapshots=(
                Snapshot(-0.0, ()),
                Snapshot(0.5, (0.25,)),  # snapshot j need not be at arrival j
                Snapshot(1.0, (0.0, 0.25, 0.5)),  # levels of no customer
                Snapshot(2.5, (-0.0, 0.25)),
            ),
        )
        trace_csv, snaps_csv = self.written(tmp_path, trace)
        assert trace_csv == _csv_module_trace(trace.records)
        assert snaps_csv == _csv_module_snapshots(trace.snapshots)
        assert b"\r\n0,0.25,0.0,-0.0,3.0,3.0\r\n1,-0.0,1.0,1.5,4.0,2.5\r\n" in trace_csv
        assert snaps_csv.endswith(b"\r\n-0.0,\r\n0.5,0.25\r\n1.0,0.0;0.25;0.5\r\n2.5,-0.0;0.25\r\n")


def test_single_server_mean_population_is_plausible() -> None:
    # M/M/1 at load one half keeps one customer around on average.
    trace = simulate(SimConfig(SystemParams(0.5, 1), 4000.0, 51))
    mean_pop = np.mean([len(s.priorities) for s in trace.snapshots])
    assert 0.7 < mean_pop < 1.3


def test_import_loads_no_sortedcontainers() -> None:
    # A fresh interpreter, so modules other tests imported do not count.
    code = "import sys, uniprio; print('sortedcontainers' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(uniprio.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert result.stdout.strip() == "False"
