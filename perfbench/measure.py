"""One benchmark run: the timed loop, the checks, and the metrics it reports.

The load is a closed loop with one client: experiments run one after another
in this process, each with ``workers=1``. Every run of a loop uses the same
seed, so the runs do identical work and their summaries must be identical
bytes. End-to-end metrics come from untraced runs; the traced mode alternates
untraced runs with instrumented ones, so both see the same machine.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, quantiles

from uniprio.cli import run_experiment

from calibrate import calibrated, reference_time
from checks import check_oracle, check_summary, check_sweep
from metrics import PER_LAYER
from instrument import instrumented, observer_pass, peak_alloc_mb, span_cost
from spans import NullRecorder, SpanRecorder
from workloads import PIPELINES, experiment_config, run_sweep, sweep_pairs, sweep_points

MIN_RUNS = 3
SETUP_SAMPLES = 11
# Above this server count the closed forms take their log-space path.
DIRECT_MAX_SERVERS = 20


@dataclass
class Outcome:
    values: dict[str, float] = field(default_factory=dict)
    notes: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    spans: SpanRecorder | None = None

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, *problems: str) -> None:
        self.failed += 1
        self.problems.extend(problems)

    @property
    def correct(self) -> bool:
        return not self.problems


@dataclass
class Run:
    wall: float
    reference: float
    work: int
    bytes: int
    digest: str


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path, src: Path, tiny: bool = False) -> Outcome:
    outcome = Outcome()
    if trace:
        if workload in PIPELINES:
            _pipeline_layers(workload, seed, seconds, work, tiny, outcome)
        else:
            _sweep_layers(seed, seconds, work, tiny, outcome)
        return outcome
    setup = SetupSampler(src)
    if workload in PIPELINES:
        _pipeline_end_to_end(workload, seed, seconds, work, tiny, outcome, setup)
    else:
        _sweep_end_to_end(seed, seconds, work, tiny, outcome, setup)
    while len(setup.samples) < SETUP_SAMPLES:
        setup.sample()
    outcome.values["setup_s"] = median(setup.samples)
    outcome.notes["setup_s"] = _spread(setup.samples)
    return outcome


class SetupSampler:
    """Seconds from the start of a fresh process until ``import uniprio`` returns.

    Not calibrated: set-up time is mostly process start and file reads, which
    do not track the calibration loop. Samples are taken between timed runs,
    so they spread over the run's whole length.
    """

    def __init__(self, src: Path) -> None:
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), self.env.get("PYTHONPATH")]))
        self.samples: list[float] = []

    def sample(self) -> None:
        code = "import uniprio\nimport time\nprint(repr(time.monotonic()))"
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", code], env=self.env, capture_output=True, text=True, check=True, timeout=60
        )
        self.samples.append(float(done.stdout) - start)

    def between_runs(self) -> None:
        if len(self.samples) < SETUP_SAMPLES:
            self.sample()


def _loop(seconds: float, body, between=None) -> None:
    """Call ``body(i)`` until ``seconds`` have passed and at least MIN_RUNS ran.

    ``between()`` runs after each call, outside the timed region, and its time
    does not count towards ``seconds``.
    """
    elapsed = 0.0
    i = 0
    while i < MIN_RUNS or elapsed < seconds:
        start = time.monotonic()
        body(i)
        elapsed += time.monotonic() - start
        i += 1
        if between is not None:
            between()


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return "n/a"
    q1, _, q3 = quantiles(values, n=4)
    return f"{q1:.6g}..{q3:.6g}"


def _spread(values: list[float]) -> str:
    return f"median of n={len(values)}, quartiles {_quartiles(values)}"


def _digest(out: Path) -> tuple[str, int]:
    """Hash of the summary (or, without one, of every file) and total bytes written."""
    files = sorted(p for p in out.iterdir() if p.is_file())
    size = sum(p.stat().st_size for p in files)
    summary = out / "summary.json"
    hashed = [summary] if summary.exists() else files
    h = hashlib.sha256()
    for p in hashed:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest(), size


def _run_values(runs: list[Run], outcome: Outcome, work: str) -> None:
    raw = [r.wall for r in runs]
    cal = [calibrated(r.wall, r.reference) for r in runs]
    rates = [r.work / c for r, c in zip(runs, cal)]
    outcome.values.update(
        wall_cal_s=median(cal),
        work_rate_cal=median(rates),
        bytes_written_mb=median(r.bytes for r in runs) / 1e6,
    )
    outcome.notes.update(
        wall_cal_s=f"{_spread(cal)}; raw wall time {median(raw):.6g} s, quartiles {_quartiles(raw)}",
        work_rate_cal=f"{_spread(rates)}; {work} per calibrated second",
    )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# ---------------------------------------------------------------------------
# Pipelines


def _experiment(name: str, seed: int, out: Path, tiny: bool, outcome: Outcome, workers: int = 1) -> Run | None:
    config = experiment_config(name, seed, out, workers=workers, tiny=tiny)
    outcome.attempt()
    out.mkdir(parents=True, exist_ok=True)
    before = reference_time(out.parent)
    try:
        start = time.perf_counter()
        run_experiment(config)
        wall = time.perf_counter() - start
    except Exception as exc:  # a run that raises is a failed run; keep measuring
        outcome.fail(f"{name}: run_experiment raised {exc!r}")
        return None
    summary = json.loads((out / "summary.json").read_text())
    problems = check_summary(name, config, summary)
    if problems:
        outcome.fail(*problems)
    reference = (before + reference_time(out.parent)) / 2
    digest, size = _digest(out)
    totals = summary["totals"]
    return Run(wall, reference, totals["customers"] + totals["departed"], size, digest)


def _check_same(runs: list[Run], what: str, outcome: Outcome) -> None:
    if len({r.digest for r in runs}) > 1:
        outcome.problems.append(f"{what} differs between runs of one seed")


def _pipeline_determinism(name: str, seed: int, runs: list[Run], work: Path, tiny: bool, outcome: Outcome) -> None:
    """Runs of one seed give the same summary bytes, and so do two workers on stable-reps."""
    _check_same(runs, "summary.json", outcome)
    if name == "stable-reps":
        parallel = _experiment(name, seed, work / "workers2", tiny, outcome, workers=2)
        if parallel is not None and parallel.digest != runs[0].digest:
            outcome.problems.append("summary.json differs between workers=1 and workers=2")


def _pipeline_end_to_end(
    name: str, seed: int, seconds: float, work: Path, tiny: bool, outcome: Outcome, setup: SetupSampler
) -> None:
    _experiment(name, seed, work / "warmup", True, Outcome())
    runs: list[Run] = []

    def body(i: int) -> None:
        out = work / f"run{i}"
        run = _experiment(name, seed, out, tiny, outcome)
        shutil.rmtree(out, ignore_errors=True)
        if run is not None:
            runs.append(run)

    _loop(seconds, body, setup.between_runs)
    outcome.values["peak_rss_mb"] = _peak_rss_mb()
    if not runs:
        return
    _pipeline_determinism(name, seed, runs, work, tiny, outcome)
    _run_values(runs, outcome, "events (customers + departed)")


def _pipeline_layers(name: str, seed: int, seconds: float, work: Path, tiny: bool, outcome: Outcome) -> None:
    _experiment(name, seed, work / "warmup", True, Outcome())
    recorder = outcome.spans = SpanRecorder()
    runs: list[Run] = []
    accuracy: dict[str, float] = {}

    def untraced(i: int) -> Run | None:
        return _experiment(name, seed, work / f"run{i}", tiny, outcome)

    def traced(i: int) -> Path | None:
        out = work / f"traced{i}"
        outcome.attempt()
        try:
            with instrumented(recorder, i):
                run_experiment(experiment_config(name, seed, out, tiny=tiny))
        except Exception as exc:  # a traced run that raises is a failed run; keep measuring
            outcome.fail(f"{name}: traced run_experiment raised {exc!r}")
            return None
        return out

    def body(i: int) -> None:
        # Alternate which goes first, so neither always runs on a warmer cache.
        if i % 2 == 0:
            run, traced_out = untraced(i), traced(i)
        else:
            traced_out, run = traced(i), untraced(i)
        if run is not None:
            runs.append(run)
        if run is not None and traced_out is not None:
            if _digest(traced_out)[0] != run.digest:
                outcome.fail(f"{name}: summary.json of the traced run differs from the untraced run")
            accuracy.update(_accuracy(json.loads((traced_out / "summary.json").read_text())["curves"]))
        shutil.rmtree(work / f"run{i}", ignore_errors=True)
        shutil.rmtree(work / f"traced{i}", ignore_errors=True)

    _loop(seconds, body)
    if not runs or not recorder.spans:
        return
    _pipeline_determinism(name, seed, runs, work, tiny, outcome)
    config = experiment_config(name, seed, work / "passes", tiny=tiny)
    simulated = recorder.per_run("des.simulate", "events")
    if len(recorder.spans_named("des.simulate")) != config.replications * len(simulated):
        outcome.problems.append("the traced runs did not call uniprio.cli.simulate once per replication")
        return
    outcome.values.update(_pipeline_layer_values(recorder, config.params.c))
    outcome.values.update(accuracy)
    outcome.values.update(observer_pass(config))
    outcome.values["des.peak_alloc_mb"] = peak_alloc_mb(config)
    outcome.notes["estimate.observer_overhead"] = (
        f"base estimate.observer_base_s = {outcome.values['estimate.observer_base_s']:.6g} s, snapshots off"
    )
    outcome.notes["des.simulate.p75_ms"] = f"one replication, {len(recorder.per_run('des.simulate'))} traced runs"


def _accuracy(curves: dict) -> dict[str, float]:
    """Estimate-versus-closed-form agreement, as ``summary.json`` reports it."""
    values = {f"estimate.{name}_mre": curves[name]["mean_rel_error"] or 0.0 for name in ("density", "sojourn", "waiting")}
    values["estimate.mismatched_bins"] = sum(report["mismatched"] for report in curves.values())
    return values


def _pipeline_layer_values(recorder: SpanRecorder, servers: int) -> dict[str, float]:
    per_run = recorder.median_per_run
    simulate_s = per_run("des.simulate")
    events = per_run("des.simulate", "events")
    entries = per_run("des.simulate", "snapshot_entries")
    trace_s = per_run("des.write_trace_csv")
    snaps_s = per_run("des.write_snapshots_csv")
    csv_bytes = per_run("des.write_trace_csv", "bytes") + per_run("des.write_snapshots_csv", "bytes")
    add_snapshots_s = per_run("estimate.add_snapshots")
    add_records_s = per_run("estimate.add_records")
    curve_s = per_run("analytics.curve")
    points = per_run("analytics.curve", "points")
    replications = [s.duration * 1e3 for s in recorder.spans_named("des.simulate")]
    p50 = median(replications)
    p75 = quantiles(replications, n=4)[2] if len(replications) > 1 else p50
    path = "direct" if servers <= DIRECT_MAX_SERVERS else "logspace"
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update(
        {
            "des.simulate.s": simulate_s,
            "des.simulate.p50_ms": p50,
            "des.simulate.p75_ms": p75,
            "des.simulate.samples": len(replications),
            "des.events": events,
            "des.events_per_s": events / simulate_s,
            "des.snapshot_entries": entries,
            "des.write_trace_csv.s": trace_s,
            "des.write_snapshots_csv.s": snaps_s,
            "des.csv_bytes": csv_bytes,
            "des.csv_write_mb_per_s": csv_bytes / 1e6 / (trace_s + snaps_s),
            "des.censored": per_run("des.simulate", "censored"),
            "estimate.add_snapshots.s": add_snapshots_s,
            "estimate.snapshot_entries_per_s": per_run("estimate.add_snapshots", "snapshot_entries") / add_snapshots_s,
            "estimate.add_records.s": add_records_s,
            "estimate.records_per_s": per_run("estimate.add_records", "records") / add_records_s,
            "estimate.write_curve_csv.s": per_run("estimate.write_curve_csv"),
            f"analytics.us_per_point.{path}": curve_s / points * 1e6,
            "analytics.points": points,
            "analytics.curve.s": curve_s,
            "cli.compare_curves.s": per_run("cli.compare_curves"),
        }
    )
    values.update(_root_values(recorder))
    return values


def _root_values(recorder: SpanRecorder) -> dict[str, float]:
    """Self time of the traced root, and what recording the spans cost.

    The self time is the glue between layer calls, taken from the traced run
    alone. The recording cost is the spans of one run times the measured cost
    of one span: a few microseconds each, far below the run-to-run noise of
    traced minus untraced wall time, which cannot resolve it.
    """
    roots = recorder.roots()
    return {
        "cli.self_s": median(recorder.self_time(i) for i in roots),
        "trace.overhead_s": span_cost() * len(recorder.spans) / len(roots),
    }


# ---------------------------------------------------------------------------
# Analytic sweep


def _sweep(pairs, out: Path, recorder, run_id: int, outcome: Outcome):
    outcome.attempt()
    out.mkdir(parents=True, exist_ok=True)
    before = reference_time(out.parent)
    try:
        start = time.perf_counter()
        curves = run_sweep(pairs, out, recorder, run_id)
        wall = time.perf_counter() - start
    except Exception as exc:  # a sweep that raises is a failed run; keep measuring
        outcome.fail(f"analytic-sweep raised {exc!r}")
        return None, None
    reference = (before + reference_time(out.parent)) / 2
    problems = check_sweep(pairs, curves)
    if problems:
        outcome.fail(*problems[:10])
    digest, size = _digest(out)
    return Run(wall, reference, sweep_points(pairs, "direct") + sweep_points(pairs, "logspace"), size, digest), curves


def _sweep_end_to_end(seed: int, seconds: float, work: Path, tiny: bool, outcome: Outcome, setup: SetupSampler) -> None:
    _sweep(sweep_pairs(seed, tiny=True), work / "warmup", NullRecorder(), 0, Outcome())
    pairs = sweep_pairs(seed, tiny)
    runs: list[Run] = []
    first_curves = {}

    def body(i: int) -> None:
        out = work / f"run{i}"
        run, curves = _sweep(pairs, out, NullRecorder(), i, outcome)
        shutil.rmtree(out, ignore_errors=True)
        if run is not None:
            runs.append(run)
            first_curves.setdefault("curves", curves)

    _loop(seconds, body, setup.between_runs)
    outcome.values["peak_rss_mb"] = _peak_rss_mb()
    if not runs:
        return
    _check_same(runs, "sweep output", outcome)
    outcome.problems.extend(check_oracle(pairs, first_curves["curves"], seed))
    _run_values(runs, outcome, "closed-form evaluations")


def _sweep_layers(seed: int, seconds: float, work: Path, tiny: bool, outcome: Outcome) -> None:
    _sweep(sweep_pairs(seed, tiny=True), work / "warmup", NullRecorder(), 0, Outcome())
    pairs = sweep_pairs(seed, tiny)
    recorder = outcome.spans = SpanRecorder()
    runs: list[Run] = []
    first_curves = {}

    def body(i: int) -> None:
        untraced = work / f"run{i}"
        traced = work / f"traced{i}"
        order = [(untraced, NullRecorder()), (traced, recorder)]
        done = {}
        # Alternate which goes first, so neither always runs on a warmer cache.
        for out, rec in (order if i % 2 == 0 else order[::-1]):
            done[out] = _sweep(pairs, out, rec, i, outcome)
        run, curves = done[untraced]
        if run is not None:
            runs.append(run)
            first_curves.setdefault("curves", curves)
            traced_run, _ = done[traced]
            if traced_run is not None and traced_run.digest != run.digest:
                outcome.problems.append("traced sweep wrote different files")
        shutil.rmtree(untraced, ignore_errors=True)
        shutil.rmtree(traced, ignore_errors=True)

    _loop(seconds, body)
    if not runs or not recorder.spans:
        return
    _check_same(runs, "sweep output", outcome)
    outcome.problems.extend(check_oracle(pairs, first_curves["curves"], seed))
    per_run = recorder.median_per_run
    values = dict.fromkeys(PER_LAYER, 0.0)
    for path in ("direct", "logspace"):
        values[f"analytics.us_per_point.{path}"] = per_run(f"analytics.{path}") / per_run(f"analytics.{path}", "points") * 1e6
    values["analytics.points"] = per_run("analytics.direct", "points") + per_run("analytics.logspace", "points")
    values["estimate.write_curve_csv.s"] = per_run("estimate.write_curve_csv")
    values.update(_root_values(recorder))
    outcome.values.update(values)
