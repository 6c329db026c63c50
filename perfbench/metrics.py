"""Names, units and directions of the benchmark's metrics, and the result line.

``BENCHMARK.json`` at the repository root lists the same metrics; the tests
keep the two in step. Each per-layer metric names the end-to-end metric it
should move and on which workload. A per-layer metric reads 0 on a workload
that never calls its layer (the analytic sweep runs no simulator, the
pipelines evaluate closed forms on one numerical path only).
"""

from __future__ import annotations

import re
from dataclasses import dataclass


@dataclass(frozen=True)
class Metric:
    unit: str
    better: str
    moves: str = ""


END_TO_END: dict[str, Metric] = {
    "setup_s": Metric("s", "lower"),
    "wall_cal_s": Metric("s", "lower"),
    "work_rate_cal": Metric("1/s", "higher"),
    "peak_rss_mb": Metric("MB", "lower"),
    "bytes_written_mb": Metric("MB", "lower"),
}

_LOOP = "wall_cal_s, work_rate_cal on stable-reps and many-server; barely overloaded"
_SNAPSHOTS = "wall_cal_s, peak_rss_mb, bytes_written_mb on overloaded"
_SWEEP = "work_rate_cal, wall_cal_s on analytic-sweep"
_CONTEXT = "none: correctness context, not expected to move"

PER_LAYER: dict[str, Metric] = {
    "des.simulate.s": Metric("s", "lower", _LOOP),
    "des.simulate.p50_ms": Metric("ms", "lower", _LOOP),
    "des.simulate.p75_ms": Metric("ms", "lower", _LOOP),
    "des.simulate.samples": Metric("count", "higher", "none: sample count behind p50/p75"),
    "des.events": Metric("count", "higher", "none: work done, the base of des.events_per_s"),
    "des.events_per_s": Metric("1/s", "higher", _LOOP),
    "des.snapshot_entries": Metric("count", "lower", _SNAPSHOTS),
    "des.snapshot_store.s": Metric("s", "lower", _SNAPSHOTS),
    "des.peak_alloc_mb": Metric("MB", "lower", _SNAPSHOTS),
    "des.write_trace_csv.s": Metric("s", "lower", "wall_cal_s on stable-reps"),
    "des.write_snapshots_csv.s": Metric("s", "lower", "wall_cal_s, bytes_written_mb on overloaded and many-server"),
    "des.csv_bytes": Metric("B", "lower", "bytes_written_mb on overloaded and many-server"),
    "des.csv_write_mb_per_s": Metric("MB/s", "higher", "wall_cal_s on overloaded, many-server and stable-reps"),
    "des.censored": Metric("count", "lower", _CONTEXT),
    "estimate.add_snapshots.s": Metric("s", "lower", "wall_cal_s on overloaded"),
    "estimate.snapshot_entries_per_s": Metric("1/s", "higher", "wall_cal_s on overloaded"),
    "estimate.add_records.s": Metric("s", "lower", "wall_cal_s on stable-reps"),
    "estimate.records_per_s": Metric("1/s", "higher", "wall_cal_s on stable-reps"),
    "estimate.observer_overhead": Metric("ratio", "lower", "none today; wall_cal_s on overloaded once runs stream through the observer"),
    "estimate.observer_base_s": Metric("s", "lower", "none: the base of estimate.observer_overhead"),
    "estimate.write_curve_csv.s": Metric("s", "lower", "wall_cal_s on analytic-sweep; barely the pipelines"),
    "estimate.density_mre": Metric("ratio", "lower", _CONTEXT),
    "estimate.sojourn_mre": Metric("ratio", "lower", _CONTEXT),
    "estimate.waiting_mre": Metric("ratio", "lower", _CONTEXT),
    "estimate.mismatched_bins": Metric("count", "lower", _CONTEXT),
    "analytics.us_per_point.direct": Metric("us", "lower", _SWEEP),
    "analytics.us_per_point.logspace": Metric("us", "lower", _SWEEP),
    "analytics.points": Metric("count", "higher", "none: the base of the per-point costs"),
    "analytics.curve.s": Metric("s", "lower", "wall_cal_s on the pipelines, barely"),
    "cli.compare_curves.s": Metric("s", "lower", "wall_cal_s on every pipeline, by a small amount"),
    "cli.self_s": Metric("s", "lower", "wall_cal_s on every workload, by a small amount"),
    "trace.overhead_s": Metric("s", "lower", "none: spans per traced run times the cost of one span"),
}

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def result_line(values: dict[str, float], trace: bool, attempted: int, failed: int, correct: bool) -> dict:
    """The benchmark's last output line: every metric of the mode, with its unit."""
    table = PER_LAYER if trace else END_TO_END
    missing = set(table) - set(values)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": m.unit} for name, m in table.items()},
    }


def validate_result(line: dict, trace: bool) -> None:
    """Raise ValueError unless ``line`` is a well-formed result line for the mode."""
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(line)}")
    if not isinstance(line["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(line[key], int) or isinstance(line[key], bool) or line[key] < 0:
            raise ValueError(f"{key} must be a nonnegative integer")
    if line["attempted"] < 1:
        raise ValueError("attempted must be at least 1")
    table = PER_LAYER if trace else END_TO_END
    if set(line["metrics"]) != set(table):
        raise ValueError(f"metrics {sorted(set(line['metrics']) ^ set(table))} do not match the mode")
    for name, metric in line["metrics"].items():
        if set(metric) != {"value", "unit"} or metric["unit"] != table[name].unit:
            raise ValueError(f"metric {name} is {metric}")
        if not isinstance(metric["value"], (int, float)) or isinstance(metric["value"], bool):
            raise ValueError(f"metric {name} has a non-numeric value")
