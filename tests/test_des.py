"""Event-driven simulator: determinism, conservation laws, and trace shape."""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import json
import math
import os
import pickle
import random
import re
import subprocess
import sys
import weakref
from collections.abc import Sequence
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

import uniprio
from references import stored_counts
from uniprio.analytics import INFINITY, ExtendedReal, SystemParams
from uniprio.des import (
    _ROWS,
    CustomerRecord,
    SimConfig,
    SimTrace,
    Snapshot,
    read_trace_csv,
    simulate,
    write_snapshots_csv,
    write_trace_csv,
)
from uniprio.estimate import (
    BinGrid,
    CurveEstimate,
    DensityAccumulator,
    RecordBinStats,
    read_curve_csv,
    write_curve_csv,
)
from uniprio.oracle import reference_simulate

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
        seed = SimConfig(PARAMS, 10.0, np.int64(3)).seed
        assert seed == 3 and type(seed) is int

    def test_rejects_negative_seed(self) -> None:
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            SimConfig(PARAMS, 10.0, -1)
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            SimConfig(PARAMS, 10.0, np.int64(-2))

    @pytest.mark.parametrize("params", [(1.5, 2), None])
    def test_rejects_params_that_are_not_system_params(self, params) -> None:
        # Unrefused, a tuple fails only inside simulate, reading params.alpha.
        with pytest.raises(ValueError, match="params must be a SystemParams"):
            SimConfig(params, 10.0, 1)


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

    simulator = staticmethod(simulate)

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
        trace = self.simulator(SimConfig(SystemParams(alpha, c), horizon, 8, priority_quantile=quantile))
        assert max(map(len, (s.priorities for s in trace.snapshots))) > c
        for snap in trace.snapshots:
            assert list(snap.priorities) == sorted(_present_at(trace, snap.time))
            assert all(a <= b for a, b in zip(snap.priorities, snap.priorities[1:]))

    def test_signed_zero_displays_keep_their_own_signs(self) -> None:
        # -0.0 == 0.0, so equality alone cannot tell which of them left.
        quantile = lambda u: -0.0 if u < 0.3 else (0.0 if u < 0.6 else u)  # noqa: E731
        trace = self.simulator(SimConfig(PARAMS, 500.0, 9, priority_quantile=quantile))
        for snap in trace.snapshots:
            expected = _present_at(trace, snap.time)
            assert sorted(map(repr, snap.priorities)) == sorted(map(repr, expected))
            assert list(snap.priorities) == sorted(expected)

    def test_equal_displays_keep_arrival_order(self) -> None:
        # The quantile hands every customer of a sign the same float object,
        # so only the customer, not the object, says which one left.
        quantile = lambda u: -0.0 if u < 0.5 else 0.0  # noqa: E731
        trace = self.simulator(SimConfig(SystemParams(3.0, 2), 60.0, 9, priority_quantile=quantile))
        for snap in trace.snapshots:
            # _present_at lists customers by arrival; sorted() is stable.
            assert repr(snap.priorities) == repr(tuple(sorted(_present_at(trace, snap.time))))


class TestReferenceSnapshotContents(TestSnapshotContents):
    """The same checks on the reference simulator's traces."""

    simulator = staticmethod(reference_simulate)


class TestSnapshotView:
    def test_snapshots_are_built_only_when_read(self) -> None:
        trace = simulate(SimConfig(PARAMS, 200.0, 5))
        snapshots = trace.snapshots
        assert isinstance(snapshots, Sequence) and not isinstance(snapshots, tuple)
        assert len(snapshots) == len(trace) and "_snapshot_tuple" not in vars(trace)
        assert snapshots[0] == Snapshot(trace.arrival_time[0], ())
        built = vars(trace)["_snapshot_tuple"]
        assert snapshots == built and all(type(s) is Snapshot for s in built)
        assert snapshots == trace.snapshots and trace.snapshots[:] is built

    def test_records_are_a_view_equal_to_their_tuple(self) -> None:
        trace = simulate(SimConfig(SystemParams(5.0, 2), 30.0, 43))
        records = trace.records
        assert isinstance(records, Sequence) and not isinstance(records, tuple)
        assert len(records) == len(trace) and "_record_tuple" not in vars(trace)
        first = records[0]
        built = vars(trace)["_record_tuple"]
        assert first is built[0] and first.customer_id == 0
        assert records == built and built == records and not records != built
        assert records[5:9] == built[5:9] and type(records[5:9]) is tuple
        assert list(reversed(records)) == list(reversed(built)) and records[-1] in records
        assert repr(records) == repr(built) and records != trace.snapshots
        for view in (records, trace.snapshots):
            with pytest.raises(TypeError, match="unhashable"):
                hash(view)

    def test_len_and_both_reductions_build_no_tuple(self) -> None:
        trace = simulate(SimConfig(SystemParams(5.0, 2), 30.0, 43))
        assert len(trace.snapshots) == len(trace.records) == len(trace) > 0
        density = DensityAccumulator(BinGrid(0.1), 5.0).add_snapshots(trace.snapshots)
        delays = RecordBinStats(BinGrid(0.1), 5.0).add(trace.records)
        assert density.snapshot_count > 0 and delays.censored_total > 0
        assert "_snapshot_tuple" not in vars(trace) and "_record_tuple" not in vars(trace)

    @pytest.mark.parametrize("simulator", [simulate, reference_simulate])
    def test_a_dropped_trace_is_freed_without_the_collector(self, simulator) -> None:
        # A trace that held its views strongly would wait for the cycle collector.
        gc.disable()
        try:
            trace = simulator(SimConfig(SystemParams(5.0, 2), 30.0, 43))
            records, snapshots = trace.records, trace.snapshots
            assert records[0] == trace.records[0] and snapshots[1] == trace.snapshots[1]
            DensityAccumulator(BinGrid(0.1)).add_snapshots(snapshots)
            RecordBinStats(BinGrid(0.1)).add(records)
            alive = weakref.ref(trace)
            del trace, records, snapshots
            assert alive() is None
        finally:
            gc.enable()

    def test_a_view_outlives_every_other_reference_to_its_trace(self) -> None:
        config = SimConfig(SystemParams(5.0, 2), 30.0, 43)
        view = simulate(config).snapshots
        gc.collect()
        again = simulate(config)
        assert view == again.snapshots and len(view) == len(again) > 0
        viewed = DensityAccumulator(BinGrid(0.1)).add_snapshots(view)
        assert viewed._tallies.tobytes() == DensityAccumulator(BinGrid(0.1)).add_trace(again)._tallies.tobytes()

    def test_reading_the_views_stores_only_data_on_the_trace(self) -> None:
        trace = simulate(SimConfig(PARAMS, 50.0, 5))
        views = [view for _ in range(3) for view in (trace.records, trace.snapshots)]
        columns = set(CustomerRecord._fields[1:])
        assert set(vars(trace)) == columns | {"_snapshot_ends"}
        assert views[0][0] == views[2][0] and views[1][1] == views[3][1]
        assert set(vars(trace)) == columns | {"_snapshot_ends", "_record_tuple", "_snapshot_tuple"}

    def test_a_trace_whose_views_were_read_pickles(self) -> None:
        trace = simulate(SimConfig(PARAMS, 50.0, 5))
        assert trace.records[0] and trace.snapshots[0]
        back = pickle.loads(pickle.dumps(trace))
        assert _same_columns(back, trace)
        assert back.records == trace.records and back.snapshots == trace.snapshots
        unkept = pickle.loads(pickle.dumps(simulate(SimConfig(PARAMS, 50.0, 5, record_snapshots=False))))
        assert unkept.snapshots == () and len(unkept) == len(trace)


class TestSnapshotWalk:
    """One walk, keyed by each customer's rank, builds both the view and a trace's snapshot file."""

    def test_worked_example(self, tmp_path) -> None:
        # Equal displays (0.25 three times), signed zeros, and departures at
        # 3.0, 4.0 and 6.0 tied with arrivals, which still see the leaver.
        # 0.0 (customer 3) and -0.0 (customer 4) are equal, so arrival order
        # puts 0.0 first; after 6.0 it is customer 3 who has left, so -0.0
        # stays, ahead of customer 6's 0.0.
        arrival = (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
        departure = (4.0, 3.0, None, 6.0, None, None, None, None)
        service = tuple(None if d is None else d - a for a, d in zip(arrival, departure))
        trace = SimTrace((0.25, -0.0, 0.25, 0.0, -0.0, 0.25, 0.0, 0.5), arrival, arrival, departure, service)
        expected = [
            (),
            (0.25,),
            (-0.0, 0.25),
            (-0.0, 0.25, 0.25),
            (0.0, 0.25, 0.25),
            (0.0, -0.0, 0.25),
            (0.0, -0.0, 0.25, 0.25),
            (-0.0, 0.0, 0.25, 0.25),
        ]
        assert [repr(s.priorities) for s in trace.snapshots] == list(map(repr, expected))
        for snap in trace.snapshots:
            assert repr(snap.priorities) == repr(tuple(sorted(_present_at(trace, snap.time))))
        write_snapshots_csv(trace, tmp_path / "snaps.csv")
        assert (tmp_path / "snaps.csv").read_bytes() == _csv_module_snapshots(trace.snapshots) == (
            b"snapshot_time,priorities\r\n0.0,\r\n1.0,0.25\r\n2.0,-0.0;0.25\r\n3.0,-0.0;0.25;0.25\r\n"
            b"4.0,0.0;0.25;0.25\r\n5.0,0.0;-0.0;0.25\r\n6.0,0.0;-0.0;0.25;0.25\r\n7.0,-0.0;0.0;0.25;0.25\r\n"
        )

    def test_nan_displays_are_placed_last(self, tmp_path) -> None:
        # NaN equals no level, so a lookup by value could not find it again.
        quantile = lambda u: math.nan if u < 0.2 else u  # noqa: E731
        trace = simulate(SimConfig(SystemParams(3.0, 2), 60.0, 0, priority_quantile=quantile))
        assert np.isnan(trace.priority).any()
        for snap in trace.snapshots:
            expected = _present_at(trace, snap.time)
            levels = [p for p in expected if not math.isnan(p)]
            shown = sorted(levels) + [math.nan] * (len(expected) - len(levels))
            assert repr(snap.priorities) == repr(tuple(shown))
        # A NaN level has no cell that reads back.
        with pytest.raises(ValueError, match="NaN priority or arrival time"):
            write_snapshots_csv(trace, tmp_path / "snaps.csv")
        assert not (tmp_path / "snaps.csv").exists()

    def test_nan_levels_and_arrivals_write_no_trace_file(self, tmp_path) -> None:
        # An empty priority or arrival cell could not be read back: the trace
        # reader refuses it, the snapshot reader drops it. Neither writer opens its file.
        quantile = lambda u: math.nan if u < 0.2 else u  # noqa: E731
        nan_level = simulate(SimConfig(SystemParams(3.0, 2), 60.0, 0, priority_quantile=quantile))
        nan_arrival = SimTrace((0.5, 0.25), (0.0, math.nan), (0.0, None), (None, None), (None, None))
        for trace in (nan_level, nan_arrival):
            for write in (write_trace_csv, write_snapshots_csv):
                with pytest.raises(ValueError, match="NaN priority or arrival time"):
                    write(trace, tmp_path / "out.csv")
        assert not any(tmp_path.iterdir())

    def test_arrivals_out_of_order_are_refused(self, tmp_path) -> None:
        # The customer arriving at 2.0 would show in the snapshot taken at 1.0.
        columns = (0.2, 0.7), (2.0, 1.0), (2.0, 1.0), (None, 3.0), (None, 2.0)
        trace = SimTrace(*columns)
        with pytest.raises(ValueError, match="ascending"):
            trace.snapshots
        density = DensityAccumulator(BinGrid(0.5))
        with pytest.raises(ValueError, match="ascending"):
            density.add_trace(trace)
        assert density.snapshot_count == 0 and not density._tallies.any()
        with pytest.raises(ValueError, match="ascending"):
            write_snapshots_csv(trace, tmp_path / "snaps.csv")
        # Records are tallied in any order: the same customers, ascending, tally the same.
        ascending = SimTrace(*(column[::-1] for column in columns))
        stats = RecordBinStats(BinGrid(0.5))
        assert stats.add(trace)._tallies.tolist() == RecordBinStats(BinGrid(0.5)).add(ascending)._tallies.tolist()
        assert (stats.departed_total, stats.censored_total) == (1, 1)

    @pytest.mark.parametrize(
        "arrival, departure, message",
        [((0.0, math.nan), (None, None), "ascending"), ((math.nan,), (None,), "ascending"), ((1.0,), (0.5,), "before")],
        ids=["nan-arrival", "lone-nan-arrival", "departure-before-arrival"],
    )
    def test_times_the_snapshot_rule_cannot_read_are_refused(self, arrival, departure, message) -> None:
        service = tuple(None if d is None else 0.1 for d in departure)
        trace = SimTrace((0.5,) * len(arrival), arrival, arrival, departure, service)
        with pytest.raises(ValueError, match=message):
            trace.snapshots
        with pytest.raises(ValueError, match=message):
            DensityAccumulator(BinGrid(0.5)).add_trace(trace)

    @pytest.mark.parametrize(
        "columns",
        [((0.2, 0.7), (2.0, 1.0), (2.0, 1.0), (None, 3.0), (None, 2.0)), ((0.5,), (1.0,), (1.0,), (0.5,), (0.1,))],
        ids=["arrivals-out-of-order", "departure-before-arrival"],
    )
    def test_snapshot_file_of_a_refused_trace_is_not_opened(self, tmp_path, columns) -> None:
        with pytest.raises(ValueError):
            write_snapshots_csv(SimTrace(*columns), tmp_path / "snaps.csv")
        assert not any(tmp_path.iterdir())


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
        # Replays the documented order by hand from the raw stream of
        # uniforms: arrival gap, then per iteration the completion gap when
        # occupied, then priority and next gap on an arrival, or one pick
        # uniform on a departure.
        alpha, horizon, seed = 0.9, 1e4, 61
        uniform = random.Random(seed).random

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
    (5.0, 2, 60.0, 3, "1b29cc0a1be3c554992e0ad1e29e4bc47ae69be4aefb68174b9aae7af63e7f4c"),
    (45.0, 50, 8.0, 4, "a856af7d394907ca2fae54128d929e7fdd3043fbb3f4c28c51ebb39e6e8689fa"),
    (1.5, 2, 500.0, 2, "e28b28d1e6724f53b862970dc37970b556e36bcd0ca790a315f582d2464e6f7b"),
    (0.5, 1, 300.0, 5, "7ca3baf9c5a0a5f7425fecb1874fda6d423cca8f0fbbb64fadd2cb4a24cf8444"),
]


class TestGoldenDigests:
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
        assert density._tallies[0].sum() == heads

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

    @pytest.mark.parametrize("quantile", [None, lambda u: u**2], ids=["uniform", "squared"])
    def test_observer_equals_the_stored_snapshots_bit_for_bit(self, quantile) -> None:
        # The observer counts from the columns; the stored snapshots are binned one level at a time.
        density = DensityAccumulator(BinGrid(0.1))
        simulate(SimConfig(PARAMS, 300.0, 31, priority_quantile=quantile, record_snapshots=False), observer=density)
        kept = simulate(SimConfig(PARAMS, 300.0, 31, priority_quantile=quantile))
        count, heads = stored_counts(tuple(kept.snapshots), BinGrid(0.1), 0.0)
        assert density._tallies.tobytes() == np.array([heads, [count] * 10], dtype=np.float64).tobytes()
        assert count == len(kept)


def _columns(trace: SimTrace) -> list[np.ndarray]:
    """The trace's five columns, in record field order."""
    return [getattr(trace, name) for name in CustomerRecord._fields[1:]]


def _same_columns(a: SimTrace, b: SimTrace) -> bool:
    """Whether two traces hold the same columns, bit for bit."""
    return [c.tobytes() for c in _columns(a)] == [c.tobytes() for c in _columns(b)]


class TestColumnarTrace:
    # Overloaded, so the horizon leaves censored customers.
    CONFIG = SimConfig(SystemParams(5.0, 2), 30.0, 43)

    def test_records_are_built_from_the_columns(self) -> None:
        trace = simulate(self.CONFIG)
        times = [[None if math.isnan(x) else x for x in column.tolist()] for column in _columns(trace)[2:]]
        columns = (trace.priority.tolist(), trace.arrival_time.tolist(), *times)
        rebuilt = tuple(CustomerRecord(i, *row) for i, row in enumerate(zip(*columns)))
        assert trace.records == rebuilt
        assert trace.records[0] is trace.records[0]
        assert len(trace) == len(trace.records) > 0
        assert tuple(zip(*trace.records)) == (tuple(range(len(trace))), *map(tuple, columns))
        assert {type(v) for r in trace.records for v in r[1:]} == {float, type(None)}
        assert [s is None for s in columns[4]] == [d is None for d in columns[3]]
        assert columns[3].count(None) == trace.final_population > 0

    @pytest.mark.parametrize("simulator", [simulate, reference_simulate])
    def test_both_simulators_assemble_traces_alike(self, simulator) -> None:
        trace = simulator(self.CONFIG)
        for column in _columns(trace):
            assert column.dtype == np.float64 and column.shape == (len(trace),) and not column.flags.writeable
        assert isinstance(trace.snapshots, Sequence) and trace.snapshots == tuple(trace.snapshots)
        assert np.isnan(trace.service_time).tolist() == np.isnan(trace.departure_time).tolist()
        assert trace.final_population > 0 and len(trace.snapshots) == len(trace)
        assert simulator(replace(self.CONFIG, record_snapshots=False)).snapshots == ()

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
        write_trace_csv(trace, tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_bytes() == _csv_module_trace(trace.records)
        back = read_trace_csv(tmp_path / "trace.csv")
        assert back.records == trace.records and _same_columns(back, trace)


class TestTraceConstruction:
    """A hand-built trace's columns are read once, through the real rule, into float64."""

    COLUMNS = ((0.25, -0.0), (0.0, 1.0), (0.0, None), (2.0, None), (2.0, None))

    def test_columns_are_read_only_float64(self) -> None:
        trace = SimTrace(*self.COLUMNS)
        for column in _columns(trace):
            assert column.dtype == np.float64 and column.shape == (2,)
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0
        assert trace.records == (
            CustomerRecord(0, 0.25, 0.0, 0.0, 2.0, 2.0),
            CustomerRecord(1, -0.0, 1.0, None, None, None),
        )

    def test_float64_columns_are_taken_as_they_are(self) -> None:
        given = [np.array(c, dtype=np.float64) for c in self.COLUMNS]
        trace = SimTrace(*given)
        assert [c.tobytes() for c in _columns(trace)] == [c.tobytes() for c in given]
        assert trace.records == SimTrace(*self.COLUMNS).records

    def test_none_is_nan_in_the_optional_times_only(self) -> None:
        trace = SimTrace(*self.COLUMNS)
        assert [np.isnan(c).tolist() for c in _columns(trace)] == [[False, False]] * 2 + [[False, True]] * 3
        assert trace.final_population == 1 and trace.event_count == 3
        with pytest.raises(ValueError, match="priority level must be a number, got None"):
            SimTrace((None,), (0.0,), (None,), (None,), (None,))
        with pytest.raises(ValueError, match="arrival_time must be a number, got None"):
            SimTrace((0.5,), (None,), (None,), (None,), (None,))

    def test_signed_zeros_keep_their_sign_bits(self) -> None:
        trace = SimTrace((-0.0, 0.0), (-0.0, 0.0), (-0.0, 0.0), (-0.0, 0.0), (-0.0, 0.0))
        for column in _columns(trace):
            assert np.signbit(column).tolist() == [True, False]
        assert [tuple(map(repr, r[1:])) for r in trace.records] == [("-0.0",) * 5, ("0.0",) * 5]
        assert [repr(s.time) for s in trace.snapshots] == ["-0.0", "0.0"]

    def test_given_columns_are_copied(self) -> None:
        # Read-only or not: a column's owner may make it writeable again.
        given = [np.array(c, dtype=np.float64) for c in self.COLUMNS]
        given[1].flags.writeable = False
        trace = SimTrace(*given)
        for column, own in zip(_columns(trace), given):
            assert not np.shares_memory(column, own)
        given[0][0] = 0.75
        given[1].flags.writeable = True
        given[1][0] = 0.75
        assert trace.priority.tolist() == [0.25, -0.0] and trace.arrival_time.tolist() == [0.0, 1.0]

    def test_one_shot_iterable_columns_build_the_columns_of_their_lists(self) -> None:
        # The type scan would use such a column up before it is read.
        trace = SimTrace(map(float, self.COLUMNS[0]), *((x for x in c) for c in self.COLUMNS[1:]))
        assert _same_columns(trace, SimTrace(*map(list, self.COLUMNS)))

    def test_columns_of_unequal_lengths_are_refused(self) -> None:
        with pytest.raises(ValueError, match="arrival_time has 1 entries, priority has 2"):
            SimTrace((0.5, 0.6), (0.0,), (None,), (None,), (None,))
        with pytest.raises(ValueError, match="service_time has 1 entries, priority has 2"):
            SimTrace(*[np.array(c, dtype=np.float64) for c in self.COLUMNS[:4]], np.zeros(1))

    def test_columns_that_are_not_one_dimensional_are_refused(self) -> None:
        # Five (2, 1) columns agree in length, and would make a trace of two customers.
        with pytest.raises(ValueError, match=r"priority must be one-dimensional, got shape \(2, 1\)"):
            SimTrace(*[np.zeros((2, 1))] * 5)
        with pytest.raises(ValueError, match=r"service_time must be one-dimensional, got shape \(\)"):
            SimTrace(*[np.zeros(1)] * 4, np.zeros(()))

    @pytest.mark.parametrize("k", range(5), ids=CustomerRecord._fields[1:])
    def test_values_that_are_not_reals_are_refused(self, k) -> None:
        name = "priority level" if k == 0 else CustomerRecord._fields[1 + k]
        for bad in (Decimal("0.5"), True, np.True_, "0.5", np.array([True])):
            columns = [[0.5] for _ in range(5)]
            columns[k] = bad if isinstance(bad, np.ndarray) else [bad]
            with pytest.raises(ValueError, match=f"{name} must be a number"):
                SimTrace(*columns)


class TestCsvRoundTrip:
    def test_trace(self, tmp_path) -> None:
        trace = simulate(SimConfig(PARAMS, 200.0, 41))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert type(back) is SimTrace and _same_columns(back, trace)
        assert back.records == trace.records

    @pytest.mark.parametrize(
        "blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (2, 1)],
        ids=["empty", "one", "rows-1", "rows", "rows+1", "2rows+1"],
    )
    def test_row_blocks_join_seamlessly(self, tmp_path, blocks, extra) -> None:
        # Overloaded, so never-served and promoted customers are spread over the run. Every
        # cut starts where its first block holds a customer still in service at the horizon
        # and the rows on both sides of the first boundary are promoted.
        run = simulate(SimConfig(SystemParams(5.0, 2), 0.25 * 3 * _ROWS, 1))
        entered = run.last_service_entry
        promoted = (entered != run.arrival_time) & ~np.isnan(entered)
        in_service = np.isnan(run.departure_time) & ~np.isnan(entered)
        start = next(
            i for i in range(len(run) - 2 * _ROWS)
            if promoted[i + _ROWS - 1] and promoted[i + _ROWS] and in_service[i : i + _ROWS - 1].any()
        )
        n = blocks * _ROWS + extra
        trace = SimTrace(*(column[start : start + n] for column in _columns(run)))
        if n >= _ROWS - 1:
            assert np.isnan(trace.last_service_entry).any()  # never served
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == _csv_module_trace(trace.records)
        assert _same_columns(read_trace_csv(path), trace)

    def test_snapshots(self, tmp_path) -> None:
        trace = simulate(SimConfig(PARAMS, 200.0, 41))
        write_trace_csv(trace, tmp_path / "trace.csv")
        write_snapshots_csv(trace, tmp_path / "snaps.csv")
        assert read_trace_csv(tmp_path / "trace.csv").snapshots == trace.snapshots
        assert (tmp_path / "snaps.csv").read_bytes() == _csv_module_snapshots(trace.snapshots)

    def test_signed_zeros_keep_their_signs(self, tmp_path) -> None:
        trace = SimTrace((-0.0, 0.0, 0.0, -0.0, 0.5), (0.0, 0.25, 0.5, 0.75, 1.0), *[(None,) * 5] * 3)
        write_trace_csv(trace, tmp_path / "trace.csv")
        write_snapshots_csv(trace, tmp_path / "snaps.csv")
        assert (tmp_path / "snaps.csv").read_bytes() == (
            b"snapshot_time,priorities\r\n0.0,\r\n0.25,-0.0\r\n0.5,-0.0;0.0\r\n"
            b"0.75,-0.0;0.0;0.0\r\n1.0,-0.0;0.0;0.0;-0.0\r\n"
        )
        back = read_trace_csv(tmp_path / "trace.csv")
        assert np.signbit(back.priority).tolist() == [True, False, False, True, False]
        assert _same_columns(back, trace)

    def test_empty_snapshot_round_trips(self, tmp_path) -> None:
        # Customers 0 and 1 have both left when customer 2 arrives at 2.0.
        trace = SimTrace(
            (0.25, 0.5, 0.75, 0.25, 0.5), (0.0, 0.5, 2.0, 2.5, 3.0), (0.0, 0.5, 2.0, 2.5, 3.0),
            (1.0, 1.5, None, None, None), (1.0, 1.0, None, None, None),
        )
        assert trace.snapshots[1:] == (
            Snapshot(0.5, (0.25,)), Snapshot(2.0, ()), Snapshot(2.5, (0.75,)), Snapshot(3.0, (0.25, 0.75))
        )
        write_trace_csv(trace, tmp_path / "trace.csv")
        write_snapshots_csv(trace, tmp_path / "snaps.csv")
        assert read_trace_csv(tmp_path / "trace.csv").snapshots == trace.snapshots
        assert (tmp_path / "snaps.csv").read_bytes() == _csv_module_snapshots(trace.snapshots)

    def test_bytes_match_csv_module(self, tmp_path) -> None:
        # Overloaded, so the horizon leaves censored rows with empty cells.
        trace = simulate(SimConfig(SystemParams(5.0, 2), 30.0, 43))
        assert any(r.is_censored for r in trace.records)
        write_trace_csv(trace, tmp_path / "trace.csv")
        write_snapshots_csv(trace, tmp_path / "snaps.csv")
        assert (tmp_path / "trace.csv").read_bytes() == _csv_module_trace(trace.records)
        assert (tmp_path / "snaps.csv").read_bytes() == _csv_module_snapshots(trace.snapshots)

    def test_optional_cells_round_trip(self, tmp_path) -> None:
        # Empty, infinite, negative zero and numpy-float cells in each optional column.
        cells = [None, math.inf, -0.0, np.float64(0.1), np.float32(0.5)]
        optional = [[cells[(i + j) % 5] for i in range(5)] for j in range(3)]
        trace = SimTrace((0.5,) * 5, (1.0,) * 5, *optional)
        write_trace_csv(trace, tmp_path / "trace.csv")
        back = read_trace_csv(tmp_path / "trace.csv")
        assert _same_columns(back, trace)
        times = [[None if v is None else float(v) for v in row] for row in zip(*optional)]
        expected = [(i, 0.5, 1.0, *row) for i, row in enumerate(times)]
        assert [tuple(map(repr, r)) for r in back.records] == [tuple(map(repr, r)) for r in expected]
        assert {type(v) for r in back.records for v in r[3:]} == {float, type(None)}

    def test_numpy_floats_write_as_python_floats(self, tmp_path) -> None:
        # Under numpy 2 the repr of np.float64(0.5) is "np.float64(0.5)".
        records = (CustomerRecord(0, 0.25, 0.5, 0.5, 2.0, 1.5), CustomerRecord(1, 0.75, 1.0, None, None, None))
        fields = list(zip(*records))[1:]
        as_numpy = SimTrace(*([None if v is None else np.float64(v) for v in field] for field in fields))
        snaps = (Snapshot(0.5, ()), Snapshot(1.0, (0.25,)))
        write_trace_csv(as_numpy, tmp_path / "trace.csv")
        write_snapshots_csv(as_numpy, tmp_path / "snaps.csv")
        assert (tmp_path / "trace.csv").read_bytes() == _csv_module_trace(records)
        assert (tmp_path / "snaps.csv").read_bytes() == _csv_module_snapshots(snaps)
        back = read_trace_csv(tmp_path / "trace.csv")
        assert back.records == records and back.snapshots == as_numpy.snapshots == snaps

    def test_writers_take_a_trace_only(self, tmp_path) -> None:
        trace = simulate(SimConfig(PARAMS, 20.0, 41))
        with pytest.raises(AttributeError):
            write_trace_csv(trace.records, tmp_path / "trace.csv")
        with pytest.raises(TypeError):
            write_snapshots_csv(list(trace.snapshots), tmp_path / "snaps.csv")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("ids", ["1,0", "0,2", "1,2", "0,0_1", "0,+1", "0, 1"])
    def test_ids_out_of_order_are_refused(self, tmp_path, ids) -> None:
        path = tmp_path / "trace.csv"
        write_trace_csv(SimTrace((0.25, 0.5), (0.0, 1.0), *[(None, None)] * 3), path)
        header, *rows = path.read_text().splitlines()
        rows = [f"{i},{row.partition(',')[2]}" for i, row in zip(ids.split(","), rows)]
        path.write_text("\n".join([header, *rows]) + "\n")
        with pytest.raises(ValueError, match="customer ids"):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        "read, rows, cell",
        [
            (read_trace_csv, "0,0.5,1_0, nan,nan,NaN", "1_0"),
            (read_trace_csv, "0,0.5,10.0, nan,,", " nan"),
            (read_trace_csv, "0,0.5,10.0,,nan,", "nan"),
            (read_trace_csv, "0,0.5,10.0,,,NaN", "NaN"),
            (read_curve_csv, "0.2_5,1.0\r\n0.75,inf", "0.2_5"),
        ],
        ids=["trace-1_0", "trace-space-nan", "trace-nan", "trace-NaN", "curve-0.2_5"],
    )
    def test_a_cell_the_writers_do_not_print_is_refused(self, tmp_path, read, rows, cell) -> None:
        # float() reads each; the first row would read back as a censored customer arriving at 10.0.
        header = "p,value" if read is read_curve_csv else ",".join(CustomerRecord._fields)
        path = tmp_path / "file.csv"
        path.write_text(f"{header}\r\n{rows}\r\n")
        with pytest.raises(ValueError, match=re.escape(f"cell {cell!r} is not a float")):
            read(path)

    @pytest.mark.parametrize("cut", ["short", "long"])
    def test_a_row_with_a_cell_too_few_or_too_many_is_refused(self, tmp_path, cut) -> None:
        # Cut after its arrival cell, the row would read back as a never-served censored customer.
        path = tmp_path / "trace.csv"
        write_trace_csv(SimTrace((0.25, 0.5), (0.0, 1.0), (0.0, 1.0), (2.0, 3.0), (2.0, 2.0)), path)
        header, first, second = path.read_text().splitlines()
        second = "1,0.5,1.0" if cut == "short" else f"{second},9.0"
        path.write_text("\n".join([header, first, second]) + "\n")
        with pytest.raises(ValueError, match="line 3 of .* one cell per header name"):
            read_trace_csv(path)

    @pytest.mark.parametrize(
        "cell, message", [("\0", "holds a NUL byte"), ("1" * 200_000, "is not CSV")], ids=["nul", "past-field-limit"]
    )
    def test_a_line_csv_reader_cannot_read_is_refused_by_file_and_line(self, tmp_path, cell, message) -> None:
        # csv.reader raises csv.Error, not a ValueError, at a cell past its field size limit;
        # at a NUL byte it does before Python 3.11, and from then on reads one into the cell.
        path = tmp_path / "trace.csv"
        write_trace_csv(SimTrace((0.25, 0.5), (0.0, 1.0), (0.0, 1.0), (2.0, 3.0), (2.0, 2.0)), path)
        header, first, second = path.read_text().splitlines()
        path.write_text(f"{header}\r\n{first}\r\n{second}{cell}\r\n")
        with pytest.raises(ValueError, match=f"line 3 of {re.escape(str(path))} {message}"):
            read_trace_csv(path)


# Ways a file's columns can differ from the ones its writer writes: one change of the
# header's names and one of each row's cells, so that a reader by name would read on.
_COLUMN_CHANGES = {
    "missing": (lambda names: names[:-1], lambda cells: cells[:-1]),
    "renamed": (lambda names: [*names[:-1], names[-1].upper()], lambda cells: cells),
    "extra": (lambda names: [*names, "note"], lambda cells: [*cells, ""]),
    "duplicated": (lambda names: [*names, names[-1]], lambda cells: [*cells, cells[-1]]),
    "reordered": (lambda names: names[::-1], lambda cells: cells[::-1]),
}


class TestCsvHeaders:
    """Every reader refuses a file whose header is not the one its writer writes."""

    TRACE = SimTrace((0.25, 0.5), (0.0, 1.0), (0.0, 1.0), (2.0, None), (2.0, None))
    CURVE = CurveEstimate(BinGrid(0.5), (ExtendedReal(1.0), INFINITY))
    FILES = {
        "trace": (lambda path: write_trace_csv(TestCsvHeaders.TRACE, path), read_trace_csv),
        "curve": (lambda path: write_curve_csv(TestCsvHeaders.CURVE, path), read_curve_csv),
    }

    @pytest.mark.parametrize("change", [*_COLUMN_CHANGES, "empty"])
    @pytest.mark.parametrize("kind", FILES)
    def test_a_header_that_is_not_the_writers_is_refused(self, tmp_path, kind, change) -> None:
        write, read = self.FILES[kind]
        path = tmp_path / f"{kind}.csv"
        write(path)
        if change == "empty":
            path.write_bytes(b"")
        else:
            names, cells = _COLUMN_CHANGES[change]
            header, *rows = (line.split(",") for line in path.read_text().splitlines())
            lines = [names(header), *map(cells, rows)]
            path.write_text("".join(",".join(line) + "\r\n" for line in lines))
        with pytest.raises(ValueError, match=f"header of {re.escape(str(path))}"):
            read(path)

    def test_a_header_only_trace_file_is_an_empty_trace(self, tmp_path) -> None:
        path = tmp_path / "trace.csv"
        path.write_text(",".join(CustomerRecord._fields) + "\r\n")
        back = read_trace_csv(path)
        assert len(back) == 0 and back.records == () and back.snapshots == ()


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
        """The trace and snapshot files written from the trace, checked against what
        ``csv.writer`` writes for its records and snapshots; the trace read back
        from its file writes that file again."""
        write_trace_csv(trace, tmp_path / "trace.csv")
        write_snapshots_csv(trace, tmp_path / "snaps.csv")
        data = (tmp_path / "trace.csv").read_bytes(), (tmp_path / "snaps.csv").read_bytes()
        assert data == (_csv_module_trace(trace.records), _csv_module_snapshots(trace.snapshots))
        write_trace_csv(read_trace_csv(tmp_path / "trace.csv"), tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == data[0]
        return data

    def test_signed_zero_levels_keep_their_own_texts(self, tmp_path) -> None:
        quantile = lambda u: math.copysign(0.0, u - 0.5)  # noqa: E731
        trace = simulate(SimConfig(SystemParams(3.0, 2), 40.0, 7, priority_quantile=quantile))
        assert {repr(p) for p in trace.priority.tolist()} == {"-0.0", "0.0"}
        _, snaps_csv = self.written(tmp_path, trace)
        assert b"-0.0;0.0" in snaps_csv or b"0.0;-0.0" in snaps_csv
        back = read_trace_csv(tmp_path / "trace.csv").snapshots
        assert [tuple(map(repr, s.priorities)) for s in back] == [
            tuple(map(repr, s.priorities)) for s in trace.snapshots
        ]

    def test_censored_and_never_served_customers(self, tmp_path) -> None:
        trace = simulate(SimConfig(SystemParams(5.0, 2), 30.0, 43))
        assert any(r.is_censored and r.last_service_entry is None for r in trace.records)
        assert any(r.is_censored and r.last_service_entry is not None for r in trace.records)
        # Entries at a departure instant, not at the customer's own arrival.
        assert any(r.last_service_entry not in (None, r.arrival_time) for r in trace.records)
        self.written(tmp_path, trace)

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

    def test_unstored_snapshots_format_no_cell(self, tmp_path) -> None:
        trace = simulate(SimConfig(PARAMS, 100.0, 3, record_snapshots=False))
        write_snapshots_csv(trace, tmp_path / "snaps.csv")
        assert (tmp_path / "snaps.csv").read_bytes() == b"snapshot_time,priorities\r\n"
        assert "_priority_texts" not in vars(trace) and "_arrival_texts" not in vars(trace)

    def test_times_matching_no_arrival_fall_back_to_repr(self, tmp_path) -> None:
        trace = SimTrace(
            priority=(0.25, -0.0, 0.75),
            arrival_time=(0.0, 1.0, 2.0),
            last_service_entry=(-0.0, 1.5, None),  # neither an arrival nor a departure
            departure_time=(3.0, 4.0, None),
            service_time=(3.0, 2.5, None),
        )
        trace_csv, snaps_csv = self.written(tmp_path, trace)
        assert b"\r\n0,0.25,0.0,-0.0,3.0,3.0\r\n1,-0.0,1.0,1.5,4.0,2.5\r\n" in trace_csv
        assert snaps_csv.endswith(b"\r\n0.0,\r\n1.0,0.25\r\n2.0,-0.0;0.25\r\n")


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


def test_runs_load_no_numpy_module_beyond_import_numpy(tmp_path) -> None:
    # The simulator draws from the standard library's generator. Where numpy
    # 1.x loads numpy.random with numpy itself, it is among those already loaded.
    code = f"""if True:
        import json, sys
        import numpy
        loaded = set(sys.modules)
        from uniprio.analytics import SystemParams
        from uniprio.cli import ExperimentConfig, run_experiment
        from uniprio.des import SimConfig, simulate
        simulate(SimConfig(SystemParams(1.5, 2), 50.0, 1))
        run_experiment(ExperimentConfig(SystemParams(5.0, 2), 20.0, 0.25, 1, {str(tmp_path / "run")!r}))
        added = sorted(m for m in set(sys.modules) - loaded if m.split(".")[0] == "numpy")
        print(json.dumps(["numpy.random" in loaded, added]))
    """
    env = {**os.environ, "PYTHONPATH": str(Path(uniprio.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    with_numpy, added = json.loads(result.stdout)
    assert added == [], f"import numpy loaded numpy.random: {with_numpy}"
