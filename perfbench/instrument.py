"""Traced runs of the real ``run_experiment``, and the per-layer passes around it.

While ``instrumented`` is active, the layer functions that ``run_experiment``
calls through the ``uniprio.cli`` namespace (``simulate``, the CSV writers,
the closed forms, ``compare_curves``) and the estimator methods it calls
(``DensityAccumulator.add_snapshots`` and ``curve``, ``RecordBinStats.add``
and its curves) are replaced by wrappers that record a span around the
original call. The program itself runs, so the spans follow whatever it does;
a layer it stops calling simply records no spans. Replications must run in
this process (``workers=1``) for their spans to be seen.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path
from statistics import median
from typing import Callable, Iterator

import uniprio.cli as cli
from uniprio.cli import ExperimentConfig, replication_seed
from uniprio.des import SimConfig, simulate
from uniprio.estimate import DensityAccumulator, RecordBinStats

from spans import SpanRecorder

OBSERVER_ROUNDS = 3
OVERHEAD_CALLS = 2000

Counts = Callable[[tuple, object], dict[str, float]]


def _snapshot_entries(snapshots) -> int:
    return sum(len(s.priorities) for s in snapshots)


def _simulated(args: tuple, trace) -> dict[str, float]:
    return {
        "events": trace.event_count,
        "snapshot_entries": _snapshot_entries(trace.snapshots),
        "censored": trace.final_population,
    }


def _written(args: tuple, result) -> dict[str, float]:
    return {"bytes": Path(args[1]).stat().st_size}


# (owner, attribute, span name, counts taken from the call's arguments and result)
HOOKS: tuple[tuple[object, str, str, Counts | None], ...] = (
    (cli, "simulate", "des.simulate", _simulated),
    (cli, "write_trace_csv", "des.write_trace_csv", _written),
    (cli, "write_snapshots_csv", "des.write_snapshots_csv", _written),
    (DensityAccumulator, "add_snapshots", "estimate.add_snapshots", lambda args, _: {"snapshot_entries": _snapshot_entries(args[1])}),
    (RecordBinStats, "add", "estimate.add_records", lambda args, _: {"records": len(args[1])}),
    (DensityAccumulator, "curve", "estimate.curves", None),
    (RecordBinStats, "sojourn_curve", "estimate.curves", None),
    (RecordBinStats, "waiting_curve", "estimate.curves", None),
    (cli, "write_curve_csv", "estimate.write_curve_csv", None),
    (cli, "priority_density", "analytics.curve", lambda args, _: {"points": 1}),
    (cli, "sojourn_time", "analytics.curve", lambda args, _: {"points": 1}),
    (cli, "waiting_time", "analytics.curve", lambda args, _: {"points": 1}),
    (cli, "compare_curves", "cli.compare_curves", None),
)


def timed(recorder: SpanRecorder, run_id: int, name: str, fn: Callable, counts: Counts | None) -> Callable:
    """``fn`` wrapped so that every call records a span called ``name``."""

    def wrapper(*args, **kwargs):
        with recorder.span(name, run_id) as span:
            result = fn(*args, **kwargs)
        if counts is not None:
            span.counts.update(counts(args, result))
        return result

    return wrapper


@contextmanager
def instrumented(recorder: SpanRecorder, run_id: int) -> Iterator[None]:
    """Record the layer calls of ``run_experiment`` under one ``cli.run_experiment`` span.

    Raises AttributeError when the program no longer has a hooked name, so a
    rename shows as a failed run rather than as a layer that went quiet. The
    original functions are back in place when the block ends, also on error.
    """
    originals = []
    try:
        for owner, attribute, name, counts in HOOKS:
            original = getattr(owner, attribute)
            originals.append((owner, attribute, original))
            setattr(owner, attribute, timed(recorder, run_id, name, original, counts))
        with recorder.span("cli.run_experiment", run_id):
            yield
    finally:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)


def span_cost() -> float:
    """Seconds one recorded span adds to a call: wrapped minus bare calls, median of batches."""

    def noop(*args):
        return args

    wrapped = timed(SpanRecorder(), 0, "probe", noop, None)
    costs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(OVERHEAD_CALLS):
            noop(1)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(OVERHEAD_CALLS):
            wrapped(1)
        costs.append((time.perf_counter() - start - bare) / OVERHEAD_CALLS)
    return max(median(costs), 0.0)


def observer_pass(config: ExperimentConfig) -> dict[str, float]:
    """Cost of the streaming observer and of stored snapshots, same seeds.

    Simulates every replication three ways, alternating, OBSERVER_ROUNDS
    times: snapshots off (the base), snapshots off with a
    ``DensityAccumulator`` attached, and snapshots stored. Reports the base,
    the observed/base ratio and the extra seconds that storing snapshots costs.
    """
    seeds = [replication_seed(config.seed, r) for r in range(config.replications)]

    def total(record_snapshots: bool, observe: bool) -> float:
        start = time.perf_counter()
        for seed in seeds:
            observer = DensityAccumulator(config.grid) if observe else None
            simulate(SimConfig(config.params, config.horizon, seed, record_snapshots=record_snapshots), observer)
        return time.perf_counter() - start

    base, observed, stored = [], [], []
    for _ in range(OBSERVER_ROUNDS):
        base.append(total(False, False))
        observed.append(total(False, True))
        stored.append(total(True, False))
    return {
        "estimate.observer_base_s": median(base),
        "estimate.observer_overhead": median(observed) / median(base),
        "des.snapshot_store.s": median(stored) - median(base),
    }


def peak_alloc_mb(config: ExperimentConfig) -> float:
    """Peak traced allocation while simulating and holding every replication.

    ``run_experiment`` holds all traces at once before writing them, so this
    is the simulator's share of the run's peak memory.
    """
    tracemalloc.start()
    try:
        traces = [
            simulate(SimConfig(config.params, config.horizon, replication_seed(config.seed, r)))
            for r in range(config.replications)
        ]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del traces
    return peak / 1e6
