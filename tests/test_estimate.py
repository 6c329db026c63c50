"""Binned estimators: grids, accumulators, policies, round trips."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from references import loop_tallies, stored_counts, swept_counts
from uniprio.analytics import INFINITY, ExtendedReal, SystemParams
from uniprio.des import CustomerRecord, SimConfig, SimTrace, Snapshot, simulate, write_trace_csv
from uniprio.oracle import reference_simulate
from uniprio.estimate import (
    BinGrid,
    CensoredPolicy,
    CurveEstimate,
    DensityAccumulator,
    RecordBinStats,
    read_curve_csv,
    write_curve_csv,
    write_points_csv,
)

GRID20 = BinGrid(0.05)


def customers(*rows) -> SimTrace:
    """A trace of one customer per row of (priority, arrival, entry, departure, service time)."""
    return SimTrace(*zip(*rows))


def hand_trace(priority, arrival, departure) -> SimTrace:
    """A trace with the given columns; every customer is served from arrival to departure."""
    served = tuple(None if d is None else d - a for a, d in zip(arrival, departure))
    return SimTrace(tuple(priority), tuple(arrival), tuple(arrival), tuple(departure), served)


def part(trace: SimTrace, index: slice) -> SimTrace:
    """The customers ``index`` selects, as a trace of their own."""
    return SimTrace(*(getattr(trace, name)[index] for name in CustomerRecord._fields[1:]))


def tallies(stats: RecordBinStats) -> tuple[list, ...]:
    """Departed, censored, sojourn and waiting tallies, one fresh list each."""
    return tuple(stats._tallies.tolist())


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

    @pytest.mark.parametrize("bad", [False, True, np.True_, "0.5", None])
    def test_indices_refuse_levels_that_are_not_numbers(self, bad) -> None:
        with pytest.raises(ValueError, match="priority level must be a number"):
            GRID20.indices([0.5, bad, 0.25])

    def test_reductions_check_only_the_levels_they_tally(self) -> None:
        # Customer 0 leaves before customer 1 arrives: no snapshot shows its level.
        trace = hand_trace((1.5, 0.5), (0.0, 2.0), (1.0, 3.0))
        # The delays tally only the customers from start_time on, and check only their levels.
        assert RecordBinStats(GRID20, 1.0).add(trace).departed_total == 1
        with pytest.raises(ValueError, match="priority 1.5 outside"):
            RecordBinStats(GRID20, 0.0).add(trace)
        # The density bins every customer, weighted by the kept snapshots it is in, so checks all.
        with pytest.raises(ValueError, match="priority 1.5 outside"):
            DensityAccumulator(GRID20, 1.0).add_trace(trace)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_index_is_monotone(self, p: float, q: float) -> None:
        lo, hi = min(p, q), max(p, q)
        assert GRID20.index_of(lo) <= GRID20.index_of(hi)


class TestDensityEstimation:
    def test_two_snapshot_worked_example(self) -> None:
        # Warm-up ends at 0.2, so the arrivals at 0.4 and 1.1 see 1 then 2 in the lower
        # bin of width one half: the density there is (1/0.5) * mean = 2 * 1.5 = 3, and
        # the upper bin, which no snapshot shows, stays 0.
        trace = hand_trace((0.1, 0.3, 0.7), (0.0, 0.4, 1.1), (None, None, None))
        assert [s.priorities for s in trace.snapshots[1:]] == [(0.1,), (0.1, 0.3)]
        curve = DensityAccumulator(BinGrid(0.5), 0.2).add_snapshots(trace.snapshots).curve()
        assert curve.values[0] == ExtendedReal(3.0)
        assert curve.values[1] == ExtendedReal(0.0)

    def test_refuses_a_nan_snapshot_time(self) -> None:
        # A snapshot is taken at each arrival; nothing is added, not even a kept snapshot before it.
        acc = DensityAccumulator(BinGrid(0.5), 1.0)
        for arrival in ((math.nan, 0.5), (2.0, math.nan)):
            trace = hand_trace((0.2, 0.7), arrival, (None, None))
            with pytest.raises(ValueError, match="NaN"):
                acc.add_snapshots(trace.snapshots)
            with pytest.raises(ValueError, match="NaN"):
                acc.add_trace(trace)
        assert acc.snapshot_count == 0 and acc.curve().values == (None, None)

    def test_no_snapshots_give_no_data_in_every_bin(self) -> None:
        acc = DensityAccumulator(BinGrid(0.25), start_time=1.0)
        trace = hand_trace((0.3, 0.8), (0.2, 0.7), (None, 0.9))  # all before warm-up ends
        acc.add_snapshots(trace.snapshots).add_trace(trace)
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
        snaps = (
            Snapshot(0.0, ()),
            Snapshot(1.0, (0.1,)),
            Snapshot(1.5, (0.1, 0.6)),
            Snapshot(2.0, (0.1, 0.6)),
            Snapshot(3.0, (0.1, 0.6)),
            Snapshot(4.0, (0.1, 0.3)),
        )
        assert trace.snapshots == snaps
        assert swept_counts(trace, grid, 2.0) == stored_counts(snaps, grid, 2.0) == (3, [4, 2])

    @pytest.mark.parametrize("simulator", [simulate, reference_simulate])
    @pytest.mark.parametrize("start_time", [0.0, 30.0])
    def test_trace_and_its_snapshots_give_identical_sums(self, simulator, start_time) -> None:
        # Levels -0.0 and 0.0 share the lowest bin; both reductions put them there.
        quantile = lambda u: -0.0 if u < 0.3 else (0.0 if u < 0.6 else u)  # noqa: E731
        trace = simulator(SimConfig(SystemParams(3.0, 2), 120.0, 4, priority_quantile=quantile))
        assert {repr(p) for p in trace.priority.tolist()} >= {"-0.0", "0.0"}
        columns = DensityAccumulator(GRID20, start_time).add_trace(trace)
        viewed = DensityAccumulator(GRID20, start_time).add_snapshots(trace.snapshots)
        assert columns.snapshot_count == viewed.snapshot_count > 0
        assert columns._tallies.tobytes() == viewed._tallies.tobytes()
        assert columns.curve().values == viewed.curve().values
        assert (columns.snapshot_count, columns._tallies[0].tolist()) == swept_counts(trace, GRID20, start_time)

    def test_empty_trace_adds_nothing(self) -> None:
        acc = DensityAccumulator(GRID20).add_trace(hand_trace((0.3, 0.9, 0.5), (0.0, 0.5, 1.0), (None,) * 3))
        state = (acc._tallies.tolist(), acc.snapshot_count)
        acc.add_trace(hand_trace((), (), ()))
        assert (acc._tallies.tolist(), acc.snapshot_count) == state
        acc.add_snapshots(())  # what a trace that kept no snapshots gives
        assert (acc._tallies.tolist(), acc.snapshot_count) == state
        assert DensityAccumulator(GRID20).add_trace(hand_trace((), (), ())).snapshot_count == 0

    @pytest.mark.parametrize("bad", ["x", "0.5", True, None])
    def test_start_time_must_be_a_number(self, bad) -> None:
        for reduction in (DensityAccumulator, RecordBinStats):
            with pytest.raises(ValueError, match="start_time must be a number"):
                reduction(GRID20, start_time=bad)
            assert type(reduction(GRID20, start_time=1).start_time) is float

    def test_warmup_skips_early_snapshots(self) -> None:
        # Snapshots at 0.0, 0.5 and 2.0: only the last, which shows 0.7, is from 1.0 on.
        trace = hand_trace((0.1, 0.7, 0.3), (0.0, 0.5, 2.0), (1.0, None, None))
        assert trace.snapshots[1:] == (Snapshot(0.5, (0.1,)), Snapshot(2.0, (0.7,)))
        acc = DensityAccumulator(BinGrid(0.5), start_time=1.0)
        acc.add_snapshots(trace.snapshots)
        assert acc.snapshot_count == 1
        assert acc.curve().values[1] == ExtendedReal(2.0)

    def test_merge_equals_single_pass(self) -> None:
        first, second = (simulate(SimConfig(SystemParams(1.5, 2), 200.0, seed)) for seed in (10, 11))
        whole = DensityAccumulator(GRID20)
        whole.add_snapshots(first.snapshots).add_snapshots(second.snapshots)
        left, right = DensityAccumulator(GRID20), DensityAccumulator(GRID20)
        left.add_snapshots(first.snapshots)
        right.add_snapshots(second.snapshots)
        left.merge(right)
        assert left._tallies.tobytes() == whole._tallies.tobytes()
        assert left.curve().values == whole.curve().values

    def test_merge_rejects_mismatched_grids(self) -> None:
        with pytest.raises(ValueError):
            DensityAccumulator(BinGrid(0.5)).merge(DensityAccumulator(BinGrid(0.25)))

    def test_merge_rejects_mismatched_start_times(self) -> None:
        acc = DensityAccumulator(GRID20, 10.0)
        with pytest.raises(ValueError, match="start times"):
            acc.merge(DensityAccumulator(GRID20, 0.0).add_trace(hand_trace((0.5, 0.25), (0.0, 1.0), (None, None))))
        assert acc.snapshot_count == 0
        assert acc.merge(DensityAccumulator(GRID20, 10.0)).snapshot_count == 0

    @pytest.mark.parametrize(
        "kind, other", [(DensityAccumulator, RecordBinStats), (RecordBinStats, DensityAccumulator)]
    )
    def test_merge_refuses_the_other_reduction(self, kind, other) -> None:
        acc = kind(GRID20)
        with pytest.raises(ValueError, match="another kind"):
            acc.merge(other(GRID20))
        assert not acc._tallies.any()

    def test_both_reductions_refuse_a_nan_start_time(self) -> None:
        # A NaN window would count no snapshot but tally every customer.
        trace = simulate(SimConfig(SystemParams(1.5, 2), 200.0, 3))
        for reduction in (DensityAccumulator, RecordBinStats):
            with pytest.raises(ValueError, match="start_time must not be NaN"):
                reduction(GRID20, math.nan)
        # Infinite windows stay consistent: nothing after +inf, everything after -inf.
        for start, counted in [(math.inf, 0), (-math.inf, len(trace))]:
            assert DensityAccumulator(GRID20, start).add_trace(trace).snapshot_count == counted
            stats = RecordBinStats(GRID20, start).add(trace)
            assert stats.departed_total + stats.censored_total == counted

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 10, 20, 49, 100])
    def test_block_binning_follows_index_of_at_every_edge(self, n: int) -> None:
        # A trace's level column is binned as one block; the second arrival sees the first level alone.
        grid = BinGrid(1.0 / n)
        levels = {0.0, 1.0}
        for k in range(n + 1):
            edge = k / n
            levels.update((edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf)))
        for q in sorted(x for x in levels if 0.0 <= x <= 1.0):
            trace = hand_trace((q, 0.5), (0.0, 1.0), (None, None))
            curve = DensityAccumulator(grid).add_snapshots(trace.snapshots).curve()
            hit = [i for i, v in enumerate(curve.values) if v.finite]
            assert hit == [grid.index_of(q)], q

    @pytest.mark.parametrize("bad", [-0.1, 1.5, math.nan])
    def test_rejects_levels_outside_the_unit_interval(self, bad: float) -> None:
        good = hand_trace((0.5,) * 4, (0.0, 1.0, 2.0, 3.0), (None,) * 4)
        trace = hand_trace((0.5,) * 4 + (0.2, bad, 0.7), tuple(map(float, range(7))), (None,) * 7)
        acc = DensityAccumulator(GRID20)
        with pytest.raises(ValueError, match="outside"):
            acc.add_snapshots(trace.snapshots)
        # Nothing is added, not even the snapshots before the bad level joins.
        assert acc.snapshot_count == 0 and not acc._tallies.any()
        fresh = DensityAccumulator(GRID20).add_snapshots(good.snapshots)
        assert acc.add_snapshots(good.snapshots).curve() == fresh.curve()


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
        assert (acc.snapshot_count, acc._tallies[0].tolist()) == swept_counts(trace, GRID20, start)
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
        state = (acc._tallies.tolist(), acc.snapshot_count)
        trace = hand_trace((0.1, bad, 0.7), (50.0, 60.0, 70.0), (55.0, None, None))
        with pytest.raises(ValueError, match="outside"):
            acc.add_trace(trace)
        assert (acc._tallies.tolist(), acc.snapshot_count) == state

    def test_observer_rejects_displays_outside_the_unit_interval(self) -> None:
        params, horizon = self.CONFIG
        acc = DensityAccumulator(GRID20)
        exponential = SimConfig(params, horizon, 25, priority_quantile=lambda u: -math.log1p(-u))
        with pytest.raises(ValueError, match="outside"):
            simulate(exponential, observer=acc)
        assert acc.snapshot_count == 0 and not acc._tallies.any()

    def test_merge_leaves_its_argument_unchanged(self) -> None:
        (first, _), (second, _), _ = self.runs()
        state = (second._tallies.tolist(), second.snapshot_count)
        curve = second.curve().values
        first.merge(second)
        assert (second._tallies.tolist(), second.snapshot_count) == state
        assert second.curve().values == curve
        # Adding to the merged accumulator leaves the merged-in one alone too.
        first.add_trace(hand_trace((0.5, 0.25), (self.START, self.START + 1.0), (None, None)))
        assert (second._tallies.tolist(), second.snapshot_count) == state
        again = DensityAccumulator(GRID20, self.START).merge(first)
        assert again.curve().values == first.curve().values


class TestViewsAgainstStoredPaths:
    """A trace's own views go to its columns, and reduce as loops over the tuples they stand for.

    Any other input, such as those tuples, is refused: a trace's columns fix every snapshot.
    """

    @pytest.mark.parametrize("simulator", [simulate, reference_simulate])
    @pytest.mark.parametrize(
        "alpha, c, horizon, seed, quantile, start",
        [
            (5.0, 2, 150.0, 26, None, 40.0),  # overloaded: censored customers, a warm-up
            # Seed 27 is the first from 26 up at which both simulators end this stable run occupied.
            (1.5, 2, 300.0, 27, lambda u: -0.0 if u < 0.3 else (0.0 if u < 0.6 else u), 0.0),
            (3.0, 2, 100.0, 26, lambda u: -0.0 if u < 0.5 else 0.0, 30.0),  # only signed zeros
        ],
        ids=["overloaded-warmup", "signed-zeros", "only-signed-zeros-warmup"],
    )
    def test_views_and_their_tuples_reduce_alike(
        self, simulator, alpha, c, horizon, seed, quantile, start
    ) -> None:
        trace = simulator(SimConfig(SystemParams(alpha, c), horizon, seed, priority_quantile=quantile))
        assert trace.final_population > 0
        viewed = DensityAccumulator(GRID20, start).add_snapshots(trace.snapshots)
        assert viewed._tallies.tobytes() == DensityAccumulator(GRID20, start).add_trace(trace)._tallies.tobytes()
        counts = stored_counts(tuple(trace.snapshots), GRID20, start)
        assert (viewed.snapshot_count, viewed._tallies[0].tolist()) == counts == swept_counts(trace, GRID20, start)
        delays = RecordBinStats(GRID20, start).add(trace.records)
        assert tallies(delays) == tallies(RecordBinStats(GRID20, start).add(trace))
        assert tallies(delays) == loop_tallies(tuple(trace.records), GRID20, start)

    def test_other_inputs_are_refused(self) -> None:
        trace = simulate(SimConfig(SystemParams(5.0, 2), 30.0, 43))
        density, delays = DensityAccumulator(GRID20), RecordBinStats(GRID20)
        snapshots, records = trace.snapshots, trace.records
        for other in (list(snapshots), tuple(snapshots), snapshots[1:], [], iter(snapshots)):
            with pytest.raises(TypeError, match="add_trace"):
                density.add_snapshots(other)
        for other in (list(records), tuple(records), records[1:], [], trace.snapshots):
            with pytest.raises(TypeError, match="SimTrace"):
                delays.add(other)
        assert not density._tallies.any() and not delays._tallies.any()
        # () is what a trace gives that kept no snapshots, and adds nothing.
        unkept = simulate(SimConfig(SystemParams(5.0, 2), 30.0, 43, record_snapshots=False))
        assert unkept.snapshots == () and density.add_snapshots(unkept.snapshots) is density
        assert density.add_snapshots(()).snapshot_count == 0 and not density._tallies.any()

    def test_a_view_refuses_a_level_that_no_kept_snapshot_shows(self) -> None:
        # Customer 1 leaves before customer 2 arrives, and customer 2 arrives
        # last: no snapshot shows either level. The view checks every customer.
        trace = hand_trace((0.25, 1.5, -0.5), (0.0, 1.0, 3.0), (5.0, 2.0, None))
        assert [s.priorities for s in trace.snapshots] == [(), (0.25,), (0.25,)]
        viewed = DensityAccumulator(GRID20)
        with pytest.raises(ValueError, match="priority 1.5 outside"):
            viewed.add_snapshots(trace.snapshots)
        assert viewed.snapshot_count == 0 and not viewed._tallies.any()


class TestDelayEstimation:
    def test_interrupted_customer_worked_example(self) -> None:
        # Arrives at 0 and starts service, loses the server at 1, gets it
        # back at 4, leaves at 5: served 2 in two spells, out of service 3.
        trace = customers((0.3, 0.0, 4.0, 5.0, 2.0))
        assert trace.records[0].waiting == 3.0
        stats = RecordBinStats(BinGrid(0.5))
        stats.add(trace)
        assert stats.waiting_curve().values[0] == ExtendedReal(3.0)
        assert stats.sojourn_curve().values[0] == ExtendedReal(5.0)

    def test_censored_policies(self) -> None:
        grid = BinGrid(0.5)
        trace = customers(
            (0.2, 0.0, 1.0, 3.0, 2.0),  # sojourn 3
            (0.3, 1.0, 2.0, 6.0, 4.0),  # sojourn 5
            (0.25, 2.0, None, None, None),  # censored, same bin
            (0.8, 2.0, None, None, None),  # censored, upper bin alone
        )
        stats = RecordBinStats(grid).add(trace)
        infinite_s = stats.sojourn_curve(CensoredPolicy.INFINITE)
        assert infinite_s.values[0] == INFINITY
        assert infinite_s.values[1] == INFINITY
        excluded_s = stats.sojourn_curve(CensoredPolicy.EXCLUDE)
        assert excluded_s.values[0] == ExtendedReal(4.0)
        assert excluded_s.values[1] is None  # nothing departed up there

    def test_empty_bin_is_undefined_under_both_policies(self) -> None:
        trace = customers((0.2, 0.0, 1.0, 3.0, 2.0))
        for policy in CensoredPolicy:
            curve = RecordBinStats(BinGrid(0.5)).add(trace).sojourn_curve(policy)
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
        trace = customers((0.2, 0.0, 0.0, 1.0, 1.0), (0.2, 5.0, 5.0, 7.0, 2.0))
        stats = RecordBinStats(BinGrid(0.5), start_time=2.0)
        stats.add(trace)
        assert stats.departed_total == 1
        assert stats.sojourn_curve().values[0] == ExtendedReal(2.0)

    def test_departed_without_entry_is_an_error(self) -> None:
        stats = RecordBinStats(BinGrid(0.5))
        with pytest.raises(ValueError, match="customer 0 has no service entry"):
            stats.add(customers((0.2, 0.0, None, 3.0, 3.0)))

    def test_departed_without_service_time_is_an_error(self) -> None:
        stats = RecordBinStats(BinGrid(0.5))
        with pytest.raises(ValueError, match="customer 0 has no service time"):
            stats.add(customers((0.2, 0.0, 1.0, 3.0, None)))

    @pytest.mark.parametrize(
        "bad, field",
        [
            ((0.5, True, 1.0, 3.0, 2.0), "arrival_time"),
            ((0.5, 1.0, True, 3.0, 2.0), "last_service_entry"),
            ((0.5, 1.0, 1.0, "3.0", 2.0), "departure_time"),
        ],
    )
    def test_mistyped_times_are_refused(self, tmp_path, bad, field) -> None:
        # Neither True read as 1.0 nor "3.0" parsed as 3.0.
        # A trace of them is refused when it is made, so it reaches neither a tally nor a file.
        stats = RecordBinStats(BinGrid(0.5))
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            stats.add(customers(bad))
        assert tallies(stats) == ([0, 0], [0, 0], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            write_trace_csv(customers(bad), tmp_path / "trace.csv")
        assert not (tmp_path / "trace.csv").exists()

    def test_merge_equals_single_pass(self) -> None:
        # Counts merge exactly; the means may differ by summation order.
        trace = simulate(SimConfig(SystemParams(1.5, 2), 400.0, 13))
        whole = RecordBinStats(GRID20)
        whole.add(trace.records)
        left, right = RecordBinStats(GRID20), RecordBinStats(GRID20)
        left.add(part(trace, slice(50)))
        right.add(part(trace, slice(50, None)))
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
        from_trace = RecordBinStats(GRID20, start).add(trace)
        from_records = RecordBinStats(GRID20, start).add(trace.records)
        assert tallies(from_trace) == tallies(from_records)
        assert tallies(from_trace) == loop_tallies(trace.records, GRID20, start)
        assert from_trace.censored_total > 0

    def test_merge_rejects_another_warmup(self) -> None:
        stats = RecordBinStats(GRID20, 1.0)
        early = RecordBinStats(GRID20, 0.0).add(customers((0.5, 0.5, 0.5, 2.0, 1.0)))
        with pytest.raises(ValueError, match="start times"):
            stats.merge(early)
        assert not stats._tallies.any()
        assert tallies(stats.merge(RecordBinStats(GRID20, 1.0))) == tallies(RecordBinStats(GRID20))

    def test_pooled_replications_equal_the_loop_with_that_warmup(self) -> None:
        start = 40.0
        traces = [simulate(SimConfig(SystemParams(1.9, 2), 200.0, seed)) for seed in (21, 22)]
        pooled = RecordBinStats(GRID20, start)
        for trace in traces:
            pooled.merge(RecordBinStats(GRID20, start).add(trace))
        # Each replication sums in record order, and the merge adds those sums in replication order.
        per_trace = [loop_tallies(trace.records, GRID20, start) for trace in traces]
        assert tallies(pooled) == tuple([a + b for a, b in zip(*rows)] for rows in zip(*per_trace))
        departed, censored, _, _ = loop_tallies([r for t in traces for r in t.records], GRID20, start)
        assert tallies(pooled)[:2] == (departed, censored)
        assert 0 < pooled.departed_total < sum(len(t) for t in traces)

    @pytest.mark.parametrize(
        "start, arrival, departure",
        [
            (0.0, math.nan, 1.0),
            (0.0, math.nan, None),
            (0.0, math.inf, None),
            (-math.inf, -math.inf, 1.0),
            (0.0, 3.0, 1.0),
            (0.0, 0.5, math.inf),
        ],
    )
    def test_times_that_give_no_delay_are_refused(self, start, arrival, departure) -> None:
        stats = RecordBinStats(BinGrid(0.5), start).add(customers((0.2, 0.2, 0.2, 0.4, 0.2)))
        before = tallies(stats)
        served = None if departure is None else 0.5
        trace = SimTrace((0.2, 0.6), (0.2, arrival), (0.2, 0.2), (0.4, departure), (0.2, served))
        with pytest.raises(ValueError, match="customer 1 arrives at"):
            stats.add(trace)
        assert tallies(stats) == before

    @pytest.mark.parametrize("service", [5.0, -1.0, math.inf])
    def test_service_time_outside_the_sojourn_is_refused(self, service) -> None:
        # Each was tallied as a waiting sum of 1.0 - service: -4.0, 2.0, -inf.
        stats = RecordBinStats(BinGrid(0.5)).add(SimTrace((0.5,), (0.0,), (0.0,), (1.0,), (0.0,)))
        before = tallies(stats)
        with pytest.raises(ValueError, match=r"customer 0 has service time \S+ outside \[0, 1\.0\]"):
            stats.add(SimTrace((0.5,), (0.0,), (0.0,), (1.0,), (service,)))
        assert tallies(stats) == before
        stats.add(SimTrace((0.5,), (0.0,), (0.0,), (1.0,), (1.0,)))  # the whole sojourn in service
        assert stats.waiting_curve().values[1] == ExtendedReal(0.5)

    def test_repeated_add_equals_merge(self) -> None:
        trace = simulate(SimConfig(SystemParams(1.5, 2), 400.0, 13))
        first, second = part(trace, slice(300)), part(trace, slice(300, None))
        added = RecordBinStats(GRID20).add(first).add(second)
        merged = RecordBinStats(GRID20).add(first).merge(RecordBinStats(GRID20).add(second))
        assert tallies(added) == tallies(merged)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ((0.2, 3.0, None, 4.0, 1.0), "no service entry"),
            ((0.2, 3.0, 3.5, 4.0, None), "no service time"),
            ((1.5, 3.0, 3.0, 4.0, 1.0), "outside"),
            ((math.nan, 3.0, 3.0, 4.0, 1.0), "outside"),
        ],
    )
    def test_failed_add_changes_nothing(self, bad, message) -> None:
        good = (0.2, 2.0, 2.0, 3.0, 1.0), (0.7, 2.5, None, None, None)
        stats = RecordBinStats(BinGrid(0.5)).add(customers(*good))
        before = tuple(list(t) for t in tallies(stats))
        with pytest.raises(ValueError, match=message):
            stats.add(customers(*good, bad, (0.6, 5.0, 5.0, 6.0, 1.0)))
        assert tallies(stats) == before

    def test_priority_faults_are_reported_before_missing_times(self) -> None:
        stats = RecordBinStats(BinGrid(0.5))
        with pytest.raises(ValueError, match="priority 1.5 outside"):
            stats.add(customers((0.2, 1.0, None, 2.0, 1.0), (1.5, 1.5, 1.5, 2.5, 1.0)))
        assert tallies(stats) == ([0, 0], [0, 0], [0.0, 0.0], [0.0, 0.0])

    @pytest.mark.parametrize(
        "bad",
        [
            (0.2, 0.0, None, 4.0, 1.0),
            (0.2, 0.0, 3.5, 4.0, None),
            (1.5, 0.0, 0.0, 4.0, 1.0),
            (math.nan, 0.0, 0.0, 4.0, 1.0),
            (0.2, 1.0, 1.0, 0.5, 0.5),
        ],
    )
    def test_bad_record_before_start_time_is_skipped(self, bad) -> None:
        stats = RecordBinStats(BinGrid(0.5), 2.0).add(customers(bad, (0.2, 5.0, 5.0, 7.0, 2.0)))
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

    def test_cells_round_trip(self, tmp_path) -> None:
        values = (None, INFINITY, ExtendedReal(-0.0), ExtendedReal(np.float64(0.1)))
        write_points_csv(np.array(BinGrid(0.25).centers), values, tmp_path / "curve.csv")
        assert (tmp_path / "curve.csv").read_bytes().split(b"\r\n")[1:] == [
            b"0.125,", b"0.375,inf", b"0.625,-0.0", b"0.875,0.1", b""
        ]
        back = read_curve_csv(tmp_path / "curve.csv").values
        assert back == values and repr(back[2].value) == "-0.0" and type(back[3].value) is float

    @pytest.mark.parametrize("n_points", [0, 2, 4])
    def test_points_and_values_must_match_in_length(self, tmp_path, n_points: int) -> None:
        values = [ExtendedReal(1.0), None, INFINITY]
        with pytest.raises(ValueError, match=f"{n_points} points but 3 values"):
            write_points_csv([i / 4 for i in range(n_points)], values, tmp_path / "points.csv")
        assert not (tmp_path / "points.csv").exists()

    def test_a_nan_point_is_refused_before_the_file_is_opened(self, tmp_path) -> None:
        with pytest.raises(ValueError, match="NaN"):
            write_points_csv([0.25, np.nan], [None, None], tmp_path / "points.csv")
        assert not (tmp_path / "points.csv").exists()

    @pytest.mark.parametrize("row", ["0.75", "0.75,1.0,2.0"], ids=["short", "long"])
    def test_a_row_with_a_cell_too_few_or_too_many_is_refused(self, tmp_path, row) -> None:
        # A short row would read back as a bin with no data.
        path = tmp_path / "curve.csv"
        path.write_text(f"p,value\r\n0.25,1.0\r\n{row}\r\n")
        with pytest.raises(ValueError, match="line 3 of .* one cell per header name"):
            read_curve_csv(path)

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
