"""Binned estimators: grids, accumulators, policies, round trips."""

from __future__ import annotations

import csv
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uniprio.analytics import INFINITY, ExtendedReal, SystemParams
from uniprio.des import CustomerRecord, SimConfig, SimTrace, Snapshot, simulate
from uniprio.oracle import reference_simulate
from uniprio.estimate import (
    BinGrid,
    CensoredPolicy,
    CurveEstimate,
    DensityAccumulator,
    RecordBinStats,
    _BLOCK,
    read_curve_csv,
    write_curve_csv,
    write_points_csv,
)

GRID20 = BinGrid(0.05)


def record(
    cid: int,
    priority: float,
    arrival: float,
    entered: float | None,
    departed: float | None,
    service_time: float | None,
) -> CustomerRecord:
    return CustomerRecord(cid, priority, arrival, entered, departed, service_time)


def hand_trace(priority, arrival, departure) -> SimTrace:
    """A trace with the given columns; every customer is served from arrival to departure."""
    served = tuple(None if d is None else d - a for a, d in zip(arrival, departure))
    return SimTrace(tuple(priority), tuple(arrival), tuple(arrival), tuple(departure), served, ())


def swept_counts(trace: SimTrace, grid: BinGrid, start_time: float) -> tuple[int, list[int]]:
    """Reference: walk the events in time order, an arrival before a departure
    at the same instant, and add up the per-bin head count that each arrival
    at or after ``start_time`` sees."""
    bins = [grid.index_of(p) for p in trace.priority]
    events = sorted(
        [(a, 0, i) for i, a in enumerate(trace.arrival_time)]
        + [(d, 1, i) for i, d in enumerate(trace.departure_time) if d is not None]
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


def tallies(stats: RecordBinStats) -> tuple[list, ...]:
    """Departed, censored, sojourn and waiting tallies, one fresh list each."""
    return tuple(stats._tallies.tolist())


def loop_tallies(records, grid: BinGrid, start_time: float) -> tuple[list, ...]:
    """Reference: the per-record loop, adding each delay in record order."""
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


class TestBinGrid:
    def test_counts_and_centers(self) -> None:
        assert GRID20.n_bins == 20
        assert GRID20.centers[0] == 0.025
        assert GRID20.centers[-1] == 0.975
        half = BinGrid(0.5)
        assert half.centers == (0.25, 0.75)
        assert BinGrid(1.0).n_bins == 1

    def test_accepts_one_third(self) -> None:
        assert BinGrid(1 / 3).n_bins == 3

    @pytest.mark.parametrize("delta", [0.3, 0.0, -0.1, 1.5, 0.07])
    def test_rejects_non_reciprocal_widths(self, delta: float) -> None:
        with pytest.raises(ValueError):
            BinGrid(delta)

    def test_edges(self) -> None:
        assert GRID20.edges(0) == (0.0, 0.05)
        assert GRID20.edges(19) == (0.95, 1.0)
        with pytest.raises(IndexError):
            GRID20.edges(20)

    def test_index_of(self) -> None:
        assert GRID20.index_of(0.0) == 0
        assert GRID20.index_of(0.049) == 0
        assert GRID20.index_of(0.05) == 1
        assert GRID20.index_of(0.999) == 19
        assert GRID20.index_of(1.0) == 19  # top level folds into the last bin
        with pytest.raises(ValueError):
            GRID20.index_of(-0.01)
        with pytest.raises(ValueError):
            GRID20.index_of(1.01)

    def test_centers_land_in_their_own_bins(self) -> None:
        for n in list(range(1, 64)) + [100, 128, 200, 1000]:
            grid = BinGrid(1.0 / n)
            for i, center in enumerate(grid.centers):
                assert grid.index_of(center) == i

    def test_bin_count_is_derived_from_delta(self) -> None:
        assert repr(GRID20) == "BinGrid(delta=0.05)"
        assert GRID20 == BinGrid(1 / 20) and hash(GRID20) == hash(BinGrid(1 / 20))
        with pytest.raises(TypeError):
            BinGrid(0.05, n_bins=20)

    def test_indices_follow_index_of(self) -> None:
        levels = [0.0, 0.049, 0.05, 0.5, 0.999, 1.0]
        assert GRID20.indices(levels).tolist() == [GRID20.index_of(p) for p in levels]
        assert GRID20.indices([]).tolist() == []
        for bad in (-0.01, 1.01, math.nan):
            with pytest.raises(ValueError, match=f"priority {bad} outside"):
                GRID20.indices([0.5, bad])

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_index_is_monotone(self, p: float, q: float) -> None:
        lo, hi = min(p, q), max(p, q)
        assert GRID20.index_of(lo) <= GRID20.index_of(hi)


class TestDensityEstimation:
    def test_two_snapshot_worked_example(self) -> None:
        # Bin width one half: counts 1 then 2 in the lower bin, so the
        # density there is (1/0.5) * mean = 2 * 1.5 = 3; upper bin stays 0.
        snaps = [Snapshot(0.4, (0.1,)), Snapshot(1.1, (0.1, 0.3))]
        curve = DensityAccumulator(BinGrid(0.5)).add_snapshots(snaps).curve()
        assert curve.values[0] == ExtendedReal(3.0)
        assert curve.values[1] == ExtendedReal(0.0)

    def test_no_snapshots_give_no_data_in_every_bin(self) -> None:
        acc = DensityAccumulator(BinGrid(0.25), start_time=1.0)
        acc.add_snapshots([Snapshot(0.5, (0.1, 0.6))])
        acc.add_trace(hand_trace((0.3, 0.8), (0.2, 0.7), (None, 0.9)))  # all before warm-up ends
        assert acc.snapshot_count == 0
        assert acc.curve().values == (None,) * 4

    def test_total_mass_matches_mean_population(self) -> None:
        trace = simulate(SimConfig(SystemParams(1.5, 2), 500.0, 8))
        curve = DensityAccumulator(GRID20).add_snapshots(trace.snapshots).curve()
        mass = sum(v.finite * 0.05 for v in curve.values)
        mean_pop = sum(len(s.priorities) for s in trace.snapshots) / len(trace.snapshots)
        assert mass == pytest.approx(mean_pop, rel=1e-12)

    def test_streaming_equals_offline(self) -> None:
        cfg_stream = SimConfig(SystemParams(1.5, 2), 400.0, 9, record_snapshots=False)
        streaming = DensityAccumulator(GRID20)
        trace_stream = simulate(cfg_stream, observer=streaming)
        trace_kept = simulate(SimConfig(SystemParams(1.5, 2), 400.0, 9))
        offline = DensityAccumulator(GRID20).add_snapshots(trace_kept.snapshots).curve()
        assert streaming.snapshot_count == len(trace_kept.snapshots)
        assert streaming.curve().values == offline.values
        assert trace_stream.records == trace_kept.records

    def test_trace_worked_example(self) -> None:
        # Warm-up ends at 2.0, so the snapshots of arrivals 3, 4 and 5 count:
        #   t=2.0: {0.1, 0.6}  customer 1 arrived in warm-up and is still here;
        #   t=3.0: {0.1, 0.6}  customer 1 departs at 3.0, tied with arrival 4,
        #                      which is served first;
        #   t=4.0: {0.1, 0.3}  customer 0 is censored.
        # Customer 2 leaves before warm-up ends; customers 3 and 5 leave
        # before any later arrival. Bin width one half: 4 heads low and 2 high
        # over 3 snapshots.
        trace = hand_trace(
            (0.1, 0.6, 0.7, 0.2, 0.3, 0.4),
            (0.0, 1.0, 1.5, 2.0, 3.0, 4.0),
            (None, 3.0, 1.8, 2.5, None, 4.5),
        )
        grid = BinGrid(0.5)
        acc = DensityAccumulator(grid, start_time=2.0).add_trace(trace)
        assert acc.snapshot_count == 3
        assert acc.curve().values == (ExtendedReal(8 / 3), ExtendedReal(4 / 3))
        snaps = [
            Snapshot(0.0, ()),
            Snapshot(1.0, (0.1,)),
            Snapshot(1.5, (0.1, 0.6)),
            Snapshot(2.0, (0.1, 0.6)),
            Snapshot(3.0, (0.1, 0.6)),
            Snapshot(4.0, (0.1, 0.3)),
        ]
        offline = DensityAccumulator(grid, start_time=2.0).add_snapshots(snaps)
        assert offline.snapshot_count == 3
        assert offline.curve().values == acc.curve().values
        assert swept_counts(trace, grid, 2.0) == (3, [4, 2])

    def test_empty_trace_adds_nothing(self) -> None:
        acc = DensityAccumulator(GRID20).add_snapshots([Snapshot(0.0, (0.3, 0.9))])
        state = (acc._sums.tolist(), acc.snapshot_count)
        acc.add_trace(hand_trace((), (), ()))
        assert (acc._sums.tolist(), acc.snapshot_count) == state
        assert DensityAccumulator(GRID20).add_trace(hand_trace((), (), ())).snapshot_count == 0

    @pytest.mark.parametrize("bad", ["x", "0.5", True, None])
    def test_start_time_must_be_a_number(self, bad) -> None:
        with pytest.raises(ValueError, match="start_time must be a number"):
            DensityAccumulator(GRID20, start_time=bad)
        stats = RecordBinStats(GRID20)
        for records in ([record(0, 0.5, 1.0, 1.0, 2.0, 1.0)], []):
            with pytest.raises(ValueError, match="start_time must be a number"):
                stats.add(records, start_time=bad)
        assert stats.departed_total == stats.censored_total == 0
        assert type(DensityAccumulator(GRID20, start_time=1).start_time) is float

    def test_warmup_skips_early_snapshots(self) -> None:
        snaps = [Snapshot(0.5, (0.1,)), Snapshot(2.0, (0.7,))]
        acc = DensityAccumulator(BinGrid(0.5), start_time=1.0)
        acc.add_snapshots(snaps)
        assert acc.snapshot_count == 1
        assert acc.curve().values[1] == ExtendedReal(2.0)

    def test_merge_equals_single_pass(self) -> None:
        trace = simulate(SimConfig(SystemParams(1.5, 2), 400.0, 10))
        whole = DensityAccumulator(GRID20)
        whole.add_snapshots(trace.snapshots)
        left, right = DensityAccumulator(GRID20), DensityAccumulator(GRID20)
        left.add_snapshots(trace.snapshots[:100])
        right.add_snapshots(trace.snapshots[100:])
        left.merge(right)
        assert left.curve().values == whole.curve().values

    def test_merge_rejects_mismatched_grids(self) -> None:
        with pytest.raises(ValueError):
            DensityAccumulator(BinGrid(0.5)).merge(DensityAccumulator(BinGrid(0.25)))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 10, 20, 49, 100])
    def test_block_binning_follows_index_of_at_every_edge(self, n: int) -> None:
        grid = BinGrid(1.0 / n)
        levels = {0.0, 1.0}
        for k in range(n + 1):
            edge = k / n
            levels.update((edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)))
        for q in sorted(x for x in levels if 0.0 <= x <= 1.0):
            curve = DensityAccumulator(grid).add_snapshots([Snapshot(0.0, (q,))]).curve()
            hit = [i for i, v in enumerate(curve.values) if v.finite]
            assert hit == [grid.index_of(q)], q

    def test_many_blocks_equal_a_hand_tally(self) -> None:
        # Small snapshots, one larger than a block, and warm-up snapshots
        # that must not count, spread over several blocks.
        rng = random.Random(5)
        sizes = [3] * 2500 + [_BLOCK + 7] + [0, 1] * 40
        snaps = [Snapshot(0.001 * t, tuple(rng.random() for _ in range(k))) for t, k in enumerate(sizes)]
        assert sum(sizes) > 2 * _BLOCK
        grid = BinGrid(0.1)
        start = 0.5
        counts = [0] * grid.n_bins
        kept = 0
        for time, priorities in snaps:
            if time >= start:
                kept += 1
                for q in priorities:
                    counts[grid.index_of(q)] += 1
        acc = DensityAccumulator(grid, start_time=start).add_snapshots(snaps)
        assert acc.snapshot_count == kept
        assert acc.curve().values == tuple(ExtendedReal(grid.n_bins * c / kept) for c in counts)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
    def test_rejects_levels_outside_the_unit_interval(self, bad: float) -> None:
        snaps = [Snapshot(0.0, (0.5,) * _BLOCK), Snapshot(1.0, (0.2, bad, 0.7))]
        acc = DensityAccumulator(GRID20)
        with pytest.raises(ValueError, match="outside"):
            acc.add_snapshots(snaps)
        # The full first block stays added; nothing of the failing one does.
        assert acc.snapshot_count == 1
        assert acc.curve().values[GRID20.index_of(0.5)] == ExtendedReal(20.0 * _BLOCK)
        assert sum(v.finite for v in acc.curve().values) == 20.0 * _BLOCK


class TestStreamingObserver:
    """The observer counts snapshots from the finished trace; its curves must equal the offline ones."""

    CONFIG = SystemParams(5.0, 2), 150.0
    SEEDS = (21, 22, 23)
    START = 40.0

    def runs(self):
        params, horizon = self.CONFIG
        for seed in self.SEEDS:
            observer = DensityAccumulator(GRID20, self.START)
            trace = simulate(SimConfig(params, horizon, seed), observer=observer)
            yield observer, trace.snapshots

    # alpha, c, horizon, warm-up, whether the snapshots are stored. The
    # overloaded run's snapshots would hold about 7.5e8 levels, so only the
    # event sweep checks it.
    SETTINGS = [
        pytest.param(5.0, 2, 1.0e4, 0.0, False, id="overloaded"),
        pytest.param(1.5, 2, 2000.0, 200.0, True, id="stable-warmup"),
        pytest.param(45.0, 50, 200.0, 20.0, True, id="many-server-warmup"),
        pytest.param(2.0, 2, 2000.0, 0.0, True, id="critical"),
    ]

    @pytest.mark.parametrize("alpha, c, horizon, start, stored", SETTINGS)
    def test_add_trace_counts_every_snapshot(self, alpha, c, horizon, start, stored) -> None:
        acc = DensityAccumulator(GRID20, start)
        config = SimConfig(SystemParams(alpha, c), horizon, 24, record_snapshots=stored)
        trace = simulate(config, observer=acc)
        assert acc.snapshot_count > 0
        assert (acc.snapshot_count, acc._sums.tolist()) == swept_counts(trace, GRID20, start)
        if stored:
            offline = DensityAccumulator(GRID20, start).add_snapshots(trace.snapshots)
            assert offline.snapshot_count == acc.snapshot_count
            assert offline.curve().values == acc.curve().values

    def test_warmup_and_merge_across_replications(self) -> None:
        streamed = DensityAccumulator(GRID20, self.START)
        offline = DensityAccumulator(GRID20, self.START)
        for observer, snapshots in self.runs():
            streamed.merge(observer)
            offline.add_snapshots(snapshots)
        assert streamed.snapshot_count == offline.snapshot_count > 0
        assert streamed.curve().values == offline.curve().values

    def test_observer_mixed_with_add_snapshots(self) -> None:
        params, horizon = self.CONFIG
        (_, first), (_, second), _ = self.runs()
        mixed = DensityAccumulator(GRID20, self.START).add_snapshots(first)
        simulate(SimConfig(params, horizon, self.SEEDS[1], record_snapshots=False), observer=mixed)
        mixed.add_snapshots(first)
        offline = DensityAccumulator(GRID20, self.START)
        offline.add_snapshots(first).add_snapshots(second).add_snapshots(first)
        assert mixed.snapshot_count == offline.snapshot_count
        assert mixed.curve().values == offline.curve().values
        # Reading a curve changes nothing; more offline input still adds exactly.
        mixed.add_snapshots(second)
        offline.add_snapshots(second)
        assert mixed.curve().values == offline.curve().values

    @pytest.mark.parametrize("bad", [1.5, math.nan, -0.1])
    def test_add_trace_rejects_bad_levels(self, bad) -> None:
        (acc, _), _, _ = self.runs()
        state = (acc._sums.tolist(), acc.snapshot_count)
        trace = hand_trace((0.1, bad, 0.7), (50.0, 60.0, 70.0), (55.0, None, None))
        with pytest.raises(ValueError, match="outside"):
            acc.add_trace(trace)
        assert (acc._sums.tolist(), acc.snapshot_count) == state

    def test_observer_rejects_displays_outside_the_unit_interval(self) -> None:
        params, horizon = self.CONFIG
        acc = DensityAccumulator(GRID20)
        exponential = SimConfig(params, horizon, 25, priority_quantile=lambda u: -math.log1p(-u))
        with pytest.raises(ValueError, match="outside"):
            simulate(exponential, observer=acc)
        assert acc.snapshot_count == 0 and not acc._sums.any()

    def test_merge_leaves_its_argument_unchanged(self) -> None:
        (first, _), (second, _), _ = self.runs()
        state = (second._sums.tolist(), second.snapshot_count)
        curve = second.curve().values
        first.merge(second)
        assert (second._sums.tolist(), second.snapshot_count) == state
        assert second.curve().values == curve
        # Adding to the merged accumulator leaves the merged-in one alone too.
        first.add_snapshots([Snapshot(self.START, (0.5,))])
        assert (second._sums.tolist(), second.snapshot_count) == state
        again = DensityAccumulator(GRID20, self.START).merge(first)
        assert again.curve().values == first.curve().values


class TestDelayEstimation:
    def test_interrupted_customer_worked_example(self) -> None:
        # Arrives at 0 and starts service, loses the server at 1, gets it
        # back at 4, leaves at 5: served 2 in two spells, out of service 3.
        r = record(0, 0.3, 0.0, 4.0, 5.0, 2.0)
        assert r.waiting == 3.0
        stats = RecordBinStats(BinGrid(0.5))
        stats.add([r])
        assert stats.waiting_curve().values[0] == ExtendedReal(3.0)
        assert stats.sojourn_curve().values[0] == ExtendedReal(5.0)

    def test_censored_policies(self) -> None:
        grid = BinGrid(0.5)
        rs = [
            record(0, 0.2, 0.0, 1.0, 3.0, 2.0),  # sojourn 3
            record(1, 0.3, 1.0, 2.0, 6.0, 4.0),  # sojourn 5
            record(2, 0.25, 2.0, None, None, None),  # censored, same bin
            record(3, 0.8, 2.0, None, None, None),  # censored, upper bin alone
        ]
        stats = RecordBinStats(grid).add(rs)
        infinite_s = stats.sojourn_curve(CensoredPolicy.INFINITE)
        assert infinite_s.values[0] == INFINITY
        assert infinite_s.values[1] == INFINITY
        excluded_s = stats.sojourn_curve(CensoredPolicy.EXCLUDE)
        assert excluded_s.values[0] == ExtendedReal(4.0)
        assert excluded_s.values[1] is None  # nothing departed up there

    def test_empty_bin_is_undefined_under_both_policies(self) -> None:
        rs = [record(0, 0.2, 0.0, 1.0, 3.0, 2.0)]
        for policy in CensoredPolicy:
            curve = RecordBinStats(BinGrid(0.5)).add(rs).sojourn_curve(policy)
            assert curve.values[1] is None

    def test_policies_agree_on_censor_free_bins(self) -> None:
        trace = simulate(SimConfig(SystemParams(1.5, 2), 600.0, 12))
        stats = RecordBinStats(GRID20).add(trace.records)
        inf_curve = stats.sojourn_curve(CensoredPolicy.INFINITE)
        exc_curve = stats.sojourn_curve(CensoredPolicy.EXCLUDE)
        assert any(v is not None and not v.is_finite for v in inf_curve.values) or all(
            a == b for a, b in zip(inf_curve.values, exc_curve.values)
        )
        for a, b in zip(inf_curve.values, exc_curve.values):
            if a is not None and a.is_finite:
                assert a == b

    def test_waiting_and_sojourn_relate(self) -> None:
        trace = simulate(SimConfig(SystemParams(1.5, 2), 600.0, 12))
        stats = RecordBinStats(GRID20).add(trace.records)
        soj = stats.sojourn_curve(CensoredPolicy.EXCLUDE)
        wait = stats.waiting_curve(CensoredPolicy.EXCLUDE)
        for s, w in zip(soj.values, wait.values):
            if s is not None:
                assert w is not None
                assert w.finite <= s.finite  # service takes the rest

    def test_warmup_skips_early_arrivals(self) -> None:
        rs = [record(0, 0.2, 0.0, 0.0, 1.0, 1.0), record(1, 0.2, 5.0, 5.0, 7.0, 2.0)]
        stats = RecordBinStats(BinGrid(0.5))
        stats.add(rs, start_time=2.0)
        assert stats.departed_total == 1
        assert stats.sojourn_curve().values[0] == ExtendedReal(2.0)

    def test_departed_without_entry_is_an_error(self) -> None:
        stats = RecordBinStats(BinGrid(0.5))
        with pytest.raises(ValueError):
            stats.add([record(0, 0.2, 0.0, None, 3.0, 3.0)])

    def test_departed_without_service_time_is_an_error(self) -> None:
        stats = RecordBinStats(BinGrid(0.5))
        with pytest.raises(ValueError):
            stats.add([record(0, 0.2, 0.0, 1.0, 3.0, None)])

    def test_merge_equals_single_pass(self) -> None:
        # Counts merge exactly; the means may differ by summation order.
        trace = simulate(SimConfig(SystemParams(1.5, 2), 400.0, 13))
        whole = RecordBinStats(GRID20)
        whole.add(trace.records)
        left, right = RecordBinStats(GRID20), RecordBinStats(GRID20)
        left.add(trace.records[:50])
        right.add(trace.records[50:])
        left.merge(right)
        assert left.censored_total == whole.censored_total
        assert left.departed_total == whole.departed_total
        for a, b in zip(left.sojourn_curve().values, whole.sojourn_curve().values):
            if a is None or not a.is_finite:
                assert a == b
            else:
                assert a.finite == pytest.approx(b.finite, rel=1e-12)

    @pytest.mark.parametrize("run", [simulate, reference_simulate])
    @pytest.mark.parametrize("alpha, horizon", [(1.9, 400.0), (5.0, 100.0)])
    def test_trace_and_records_tally_bit_identically(self, run, alpha, horizon) -> None:
        trace = run(SimConfig(SystemParams(alpha, 2), horizon, 17))
        start = 0.2 * horizon
        assert trace.final_population > 0
        assert any(a < start for a in trace.arrival_time)
        from_trace = RecordBinStats(GRID20).add(trace, start)
        from_records = RecordBinStats(GRID20).add(trace.records, start)
        assert tallies(from_trace) == tallies(from_records)
        assert tallies(from_trace) == loop_tallies(trace.records, GRID20, start)
        assert from_trace.censored_total > 0

    def test_repeated_add_equals_merge(self) -> None:
        trace = simulate(SimConfig(SystemParams(1.5, 2), 400.0, 13))
        first, second = trace.records[:300], trace.records[300:]
        added = RecordBinStats(GRID20).add(first).add(second)
        merged = RecordBinStats(GRID20).add(first).merge(RecordBinStats(GRID20).add(second))
        assert tallies(added) == tallies(merged)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (record(9, 0.2, 3.0, None, 4.0, 1.0), "no service entry"),
            (record(9, 0.2, 3.0, 3.5, 4.0, None), "no service time"),
            (record(9, 1.5, 3.0, 3.0, 4.0, 1.0), "outside"),
            (record(9, math.nan, 3.0, 3.0, 4.0, 1.0), "outside"),
        ],
    )
    def test_failed_add_changes_nothing(self, bad, message) -> None:
        good = [record(0, 0.2, 2.0, 2.0, 3.0, 1.0), record(1, 0.7, 2.5, None, None, None)]
        stats = RecordBinStats(BinGrid(0.5)).add(good)
        before = tuple(list(t) for t in tallies(stats))
        with pytest.raises(ValueError, match=message):
            stats.add([*good, bad, record(10, 0.6, 5.0, 5.0, 6.0, 1.0)])
        assert tallies(stats) == before

    def test_priority_faults_are_reported_before_missing_times(self) -> None:
        stats = RecordBinStats(BinGrid(0.5))
        with pytest.raises(ValueError, match="priority 1.5 outside"):
            stats.add([record(0, 0.2, 1.0, None, 2.0, 1.0), record(1, 1.5, 1.5, 1.5, 2.5, 1.0)])
        assert tallies(stats) == ([0, 0], [0, 0], [0.0, 0.0], [0.0, 0.0])

    @pytest.mark.parametrize(
        "bad",
        [
            record(0, 0.2, 0.0, None, 4.0, 1.0),
            record(0, 0.2, 0.0, 3.5, 4.0, None),
            record(0, 1.5, 0.0, 0.0, 4.0, 1.0),
            record(0, math.nan, 0.0, 0.0, 4.0, 1.0),
        ],
    )
    def test_bad_record_before_start_time_is_skipped(self, bad) -> None:
        stats = RecordBinStats(BinGrid(0.5)).add([bad, record(1, 0.2, 5.0, 5.0, 7.0, 2.0)], 2.0)
        assert tallies(stats) == ([1, 0], [0, 0], [2.0, 0.0], [0.0, 0.0])


class TestCurveCsv:
    def test_round_trip(self, tmp_path) -> None:
        curve = CurveEstimate(
            BinGrid(0.25),
            (ExtendedReal(1.2345678901234567), INFINITY, None, ExtendedReal(0.0)),
        )
        path = tmp_path / "curve.csv"
        write_curve_csv(curve, path)
        back = read_curve_csv(path)
        assert back.grid == curve.grid
        assert back.values == curve.values

    def test_rows_match_csv_module(self, tmp_path) -> None:
        points = [0.0, 0.1, 1 / 3, 1.0]
        values = [ExtendedReal(2.5), None, INFINITY, ExtendedReal(1e-300)]
        with open(tmp_path / "reference.csv", "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["p", "value"])
            for p, v in zip(points, values):
                writer.writerow([repr(p), "" if v is None else repr(v.value)])
        write_points_csv(points, values, tmp_path / "points.csv")
        assert (tmp_path / "points.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_numpy_points_write_as_python_floats(self, tmp_path) -> None:
        # Under numpy 2 the repr of np.float64(0.5) is "np.float64(0.5)".
        grid = BinGrid(0.25)
        values = [ExtendedReal(2.5), None, INFINITY, ExtendedReal(0.125)]
        write_points_csv(np.array(grid.centers), values, tmp_path / "numpy.csv")
        write_points_csv(grid.centers, values, tmp_path / "python.csv")
        assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "python.csv").read_bytes()
        assert b"np." not in (tmp_path / "numpy.csv").read_bytes()
        assert read_curve_csv(tmp_path / "numpy.csv") == CurveEstimate(grid, tuple(values))
        write_points_csv(np.linspace(0.0, 1.0, 3), values[:3], tmp_path / "linspace.csv")
        assert (tmp_path / "linspace.csv").read_bytes() == b"p,value\r\n0.0,2.5\r\n0.5,\r\n1.0,inf\r\n"

    def test_curves_on_one_grid_share_its_center_texts(self, tmp_path) -> None:
        grid = BinGrid(0.25)
        assert grid.centers is grid.centers
        assert grid._center_texts == tuple(map(repr, grid.centers))
        for k, value in enumerate((None, INFINITY, ExtendedReal(1.0))):
            curve = CurveEstimate(grid, (value,) * grid.n_bins)
            write_curve_csv(curve, tmp_path / f"curve{k}.csv")
            write_points_csv(grid.centers, curve.values, tmp_path / f"points{k}.csv")
            assert (tmp_path / f"curve{k}.csv").read_bytes() == (tmp_path / f"points{k}.csv").read_bytes()
            assert read_curve_csv(tmp_path / f"curve{k}.csv") == curve
        assert grid._center_texts is grid._center_texts

    def test_round_trip_from_simulation(self, tmp_path) -> None:
        trace = simulate(SimConfig(SystemParams(1.5, 2), 300.0, 14))
        curve = DensityAccumulator(GRID20).add_snapshots(trace.snapshots).curve()
        path = tmp_path / "density.csv"
        write_curve_csv(curve, path)
        assert read_curve_csv(path).values == curve.values
