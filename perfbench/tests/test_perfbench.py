"""Tests of the benchmark itself: smoke runs at tiny size, names, result schema.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from checks import check_summary  # noqa: E402
from instrument import HOOKS, instrumented  # noqa: E402
from metrics import END_TO_END, NAME, PER_LAYER, UNIT, result_line, validate_result  # noqa: E402
from spans import Span, SpanRecorder  # noqa: E402
from workloads import WORKLOADS, experiment_config  # noqa: E402

import uniprio.cli as cli  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "perfbench" / "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload: str, trace: str) -> None:
    done = run_bench("--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", trace, "--tiny")
    assert done.returncode == 0, done.stderr
    line = json.loads(done.stdout.strip().splitlines()[-1])
    validate_result(line, trace == "1")
    assert line["correct"] and line["failed"] == 0
    if trace == "0":
        assert all(m["value"] > 0 for m in line["metrics"].values())
    assert not (ROOT / ".perfbench_work").exists() or not any((ROOT / ".perfbench_work").iterdir())


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "stable-reps", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


def test_metric_names_and_units_are_valid() -> None:
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]), metric


def test_benchmark_json_matches_the_code() -> None:
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS) == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]} == {
        name: (m.unit, m.better) for name, m in END_TO_END.items()
    }
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == {
        name: (m.unit, m.better) for name, m in PER_LAYER.items()
    }
    assert "setup_s" in END_TO_END
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert json.loads(json.dumps(BENCHMARK)) == BENCHMARK


@pytest.mark.parametrize("trace", [False, True])
def test_result_line_round_trips(trace: bool) -> None:
    table = PER_LAYER if trace else END_TO_END
    line = result_line({name: 1.25 for name in table}, trace, attempted=4, failed=0, correct=True)
    parsed = json.loads(json.dumps(line))
    assert parsed == line
    validate_result(parsed, trace)
    with pytest.raises(ValueError):
        validate_result({**parsed, "extra": 1}, trace)
    with pytest.raises(ValueError):
        validate_result(parsed, not trace)
    with pytest.raises(KeyError):
        result_line({}, trace, attempted=1, failed=0, correct=True)


def test_self_time_subtracts_covered_child_time() -> None:
    recorder = SpanRecorder()
    recorder.spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("b", 3.0, 5.0, 0, 0),  # overlaps a: covered once
        Span("c", 8.0, 12.0, 0, 0),  # runs past the root: clipped
        Span("leaf", 1.5, 2.0, 1, 0),  # grandchild: not the root's child
    ]
    assert recorder.covered(0) == pytest.approx(6.0)
    assert recorder.self_time(0) == pytest.approx(4.0)
    assert recorder.self_time(1) == pytest.approx(2.5)


def test_recorder_nests_spans_by_call() -> None:
    recorder = SpanRecorder()
    with recorder.span("outer", 7):
        with recorder.span("inner", 7) as inner:
            inner.counts["events"] = 3
    outer, inner = recorder.spans
    assert inner.parent == 0 and outer.parent is None and inner.run_id == 7
    assert recorder.median_per_run("inner", "events") == 3


def test_summary_check_catches_inconsistent_totals(tmp_path: Path) -> None:
    config = experiment_config("stable-reps", 1, tmp_path)
    summary = {
        "totals": {"customers": 10, "departed": 8, "censored": 1},
        "regime": "stable",
        "p_star": None,
        "curves": {"density": {"mean_rel_error": 0.01}},
    }
    assert len(check_summary("stable-reps", config, summary)) == 1
    summary["totals"]["censored"] = 2
    assert check_summary("stable-reps", config, summary) == []
    summary["regime"] = "critical-or-unstable"
    assert len(check_summary("stable-reps", config, summary)) == 1


def test_instrumented_run_times_the_real_program(tmp_path: Path) -> None:
    config = experiment_config("stable-reps", 1, tmp_path / "plain", tiny=True)
    cli.run_experiment(config)
    recorder = SpanRecorder()
    with instrumented(recorder, 0):
        cli.run_experiment(experiment_config("stable-reps", 1, tmp_path / "traced", tiny=True))
    assert (tmp_path / "plain" / "summary.json").read_bytes() == (tmp_path / "traced" / "summary.json").read_bytes()
    assert len(recorder.spans_named("des.simulate")) == config.replications
    assert {s.name for s in recorder.spans} == {name for _, _, name, _ in HOOKS} | {"cli.run_experiment"}
    assert recorder.roots() == [0]


def test_instrumentation_is_removed_after_an_error() -> None:
    originals = [getattr(owner, attribute) for owner, attribute, _, _ in HOOKS]
    with pytest.raises(RuntimeError):
        with instrumented(SpanRecorder(), 0):
            assert cli.simulate is not originals[0]
            raise RuntimeError("stop")
    assert all(getattr(owner, attribute) is original for (owner, attribute, _, _), original in zip(HOOKS, originals))
