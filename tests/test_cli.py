"""Experiment driver: config handling, artifacts, determinism, comparisons."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uniprio
from uniprio.analytics import INFINITY, ExtendedReal, SystemParams, priority_density
from uniprio.cli import (
    _DEFAULTS,
    _SETTINGS,
    ExperimentConfig,
    PRESETS,
    _build_parser,
    _resolve_settings,
    build_config,
    compare_curves,
    main,
    replication_seed,
    run_experiment,
)
from uniprio.des import read_trace_csv, simulate
from uniprio.estimate import (
    BinGrid,
    CensoredPolicy,
    CurveEstimate,
    DensityAccumulator,
    read_curve_csv,
)


def tiny_config(out: Path, **overrides) -> ExperimentConfig:
    base = dict(
        params=SystemParams(1.5, 2),
        horizon=60.0,
        delta=0.25,
        seed=3,
        output_dir=out,
        replications=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_rejects_bad_values(self, tmp_path) -> None:
        with pytest.raises(ValueError):
            tiny_config(tmp_path, horizon=0.0)
        with pytest.raises(ValueError):
            tiny_config(tmp_path, replications=0)
        with pytest.raises(ValueError):
            tiny_config(tmp_path, warmup_fraction=1.0)
        with pytest.raises(ValueError):
            tiny_config(tmp_path, curve_resolution=1)
        with pytest.raises(ValueError):
            tiny_config(tmp_path, workers=0)
        with pytest.raises(ValueError):
            tiny_config(tmp_path, delta=0.3)
        for name, value in [
            ("replications", 2.5), ("seed", "3"), ("curve_resolution", 11.0), ("workers", True)
        ]:
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                tiny_config(tmp_path / "never", **{name: value})
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            tiny_config(tmp_path / "never", seed=-1)
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize(
        "name, value",
        [
            ("horizon", True),
            ("horizon", "60"),
            ("delta", True),
            ("delta", "0.25"),
            ("warmup_fraction", False),
            ("warmup_fraction", "0.1"),
        ],
    )
    def test_rejects_non_real_settings(self, tmp_path, name, value) -> None:
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            tiny_config(tmp_path, **{name: value})

    @pytest.mark.parametrize(
        "name, value", [("censored_policy", "infinite"), ("censored_policy", None), ("params", (1.5, 2))]
    )
    def test_rejects_mistyped_policy_and_params(self, tmp_path, name, value) -> None:
        # Unrefused, a string policy is tallied as EXCLUDE and fails only after the files are written.
        with pytest.raises(ValueError, match=f"{name} must be a"):
            tiny_config(tmp_path / "never", **{name: value})
        assert not (tmp_path / "never").exists()

    @pytest.mark.parametrize("output_dir", [5, None])
    def test_rejects_non_path_output_dir(self, output_dir) -> None:
        with pytest.raises(ValueError, match="output_dir must be a path"):
            tiny_config(output_dir)

    def test_accepts_int_and_numpy_reals_as_floats(self, tmp_path) -> None:
        # Stored as float, so summary.json spells a setting the same whatever its type.
        config = tiny_config(tmp_path, horizon=60, delta=np.float64(0.25), warmup_fraction=np.float32(0.0))
        assert (config.horizon, config.delta, config.warmup_fraction) == (60.0, 0.25, 0.0)
        assert all(type(v) is float for v in (config.horizon, config.delta, config.warmup_fraction))

    def test_grid_is_built_once(self, tmp_path) -> None:
        config = tiny_config(tmp_path)
        assert config.grid is config.grid
        assert config.grid == BinGrid(config.delta)
        assert "grid=" not in repr(config)
        wider = dataclasses.replace(config, delta=0.5)
        assert wider.grid == BinGrid(0.5) and wider != config
        assert dataclasses.replace(config) == config

    def test_replication_seed_is_offset(self) -> None:
        assert replication_seed(10, 0) == 10
        assert replication_seed(10, 7) == 17


class TestRunExperiment:
    def test_artifact_set(self, tmp_path) -> None:
        result = run_experiment(tiny_config(tmp_path / "out"))
        names = {p.name for p in result.output_dir.iterdir()}
        assert names == {
            "trace_rep000.csv",
            "trace_rep001.csv",
            "snapshots_rep000.csv",
            "snapshots_rep001.csv",
            "estimate_density.csv",
            "estimate_sojourn.csv",
            "estimate_waiting.csv",
            "analytic_density.csv",
            "analytic_sojourn.csv",
            "analytic_waiting.csv",
            "summary.json",
        }

    def test_overloaded_replications_build_no_snapshot_tuple(self, tmp_path, monkeypatch) -> None:
        # run_experiment bins a trace's snapshot view from its columns and writes the
        # snapshot file from the walk; neither builds the O(N^2) tuple.
        traces = []

        def simulate_and_keep(config):
            traces.append(simulate(config))
            return traces[-1]

        monkeypatch.setattr("uniprio.cli.simulate", simulate_and_keep)
        config = tiny_config(tmp_path / "out", params=SystemParams(5.0, 2), horizon=30.0, replications=3)
        result = run_experiment(dataclasses.replace(config, warmup_fraction=0.2))
        assert len(traces) == 3 and all(trace.final_population > 0 for trace in traces)
        assert not any("_snapshot_tuple" in vars(trace) for trace in traces)
        seen = sum(int((trace.arrival_time >= 6.0).sum()) for trace in traces)
        assert result.summary["totals"]["snapshots"] == seen > 0

    def test_summary_content(self, tmp_path) -> None:
        result = run_experiment(tiny_config(tmp_path / "out"))
        summary = json.loads((result.output_dir / "summary.json").read_text())
        assert summary["p_star"] is None
        assert summary["totals"]["replications"] == 2
        traced = sum(
            len(read_trace_csv(result.output_dir / f"trace_rep{r:03d}.csv"))
            for r in range(2)
        )
        assert summary["totals"]["customers"] == traced
        assert summary["totals"]["snapshots"] == traced
        assert set(summary["curves"]) == {"density", "sojourn", "waiting"}
        assert len(summary["curves"]["density"]["bins"]) == 4

    def test_pooled_density_readable(self, tmp_path) -> None:
        result = run_experiment(tiny_config(tmp_path / "out"))
        curve = read_curve_csv(result.output_dir / "estimate_density.csv")
        assert curve.grid == BinGrid(0.25)
        mass = sum(v.finite * 0.25 for v in curve.values if v is not None)
        assert mass > 0.0

    def test_analytic_curve_resolution(self, tmp_path) -> None:
        result = run_experiment(tiny_config(tmp_path / "out", curve_resolution=11))
        lines = (result.output_dir / "analytic_density.csv").read_text().splitlines()
        assert len(lines) == 12  # header plus the requested points
        assert lines[1].startswith("0.0,")
        assert lines[-1] == "1.0,1.5"  # the density is exactly alpha at the top level

    def test_unstable_summary_marks_infinities(self, tmp_path) -> None:
        cfg = tiny_config(tmp_path / "out", params=SystemParams(5.0, 2), horizon=40.0)
        summary = run_experiment(cfg).summary
        assert summary["p_star"] == 0.6
        density_bins = summary["curves"]["density"]["bins"]
        assert density_bins[0]["analytic"] == "inf"
        assert density_bins[-1]["analytic"] != "inf"
        lines = (tmp_path / "out" / "analytic_density.csv").read_text().splitlines()
        assert lines[1] == "0.0,inf"

    def test_byte_determinism(self, tmp_path) -> None:
        a = run_experiment(tiny_config(tmp_path / "a"))
        b = run_experiment(tiny_config(tmp_path / "b"))
        for path_a in sorted(a.output_dir.iterdir()):
            path_b = b.output_dir / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes()

    def test_workers_do_not_change_results(self, tmp_path, monkeypatch) -> None:
        seq = run_experiment(tiny_config(tmp_path / "seq", horizon=30.0, replications=5))
        merged = []
        merge = DensityAccumulator.merge

        def recording_merge(self, other):
            merged.append(other.curve())
            return merge(self, other)

        monkeypatch.setattr(DensityAccumulator, "merge", recording_merge)
        par = run_experiment(tiny_config(tmp_path / "par", horizon=30.0, replications=5, workers=3))
        names = sorted(p.name for p in seq.output_dir.iterdir())
        assert names == sorted(p.name for p in par.output_dir.iterdir())
        for name in names:
            assert (seq.output_dir / name).read_bytes() == (par.output_dir / name).read_bytes()
        # The parent merges each replication's density in replication order.
        own = [
            DensityAccumulator(BinGrid(0.25))
            .add_trace(read_trace_csv(par.output_dir / f"trace_rep{r:03d}.csv"))
            .curve()
            for r in range(5)
        ]
        assert len(set(own)) == 5  # distinct, so any reordering would show
        assert merged == own

    def test_warmup_totals_count_each_customer_once(self, tmp_path) -> None:
        cfg = dict(params=SystemParams(5.0, 2), horizon=40.0, warmup_fraction=0.25)
        one = run_experiment(tiny_config(tmp_path / "one", **cfg))
        two = run_experiment(tiny_config(tmp_path / "two", workers=2, **cfg))
        totals = one.summary["totals"]
        assert totals["customers"] == totals["departed"] + totals["censored"] == totals["snapshots"]
        assert totals["censored"] > 0
        summary = (one.output_dir / "summary.json").read_bytes()
        assert (two.output_dir / "summary.json").read_bytes() == summary

    @pytest.mark.parametrize(
        "workers, replications, pool",
        [(3, 1, None), (4, 2, 2), (2, 5, 2)],
        ids=["one-replication", "fewer-replications", "fewer-workers"],
    )
    def test_pool_never_outnumbers_replications(
        self, tmp_path, monkeypatch, workers, replications, pool
    ) -> None:
        started = []

        class InProcessPool:
            # Records its size and maps in this process; starts no process.
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
        cfg = tiny_config(tmp_path / "run", horizon=10.0, replications=replications, workers=workers)
        run_experiment(cfg)
        assert started == ([] if pool is None else [pool])

    def test_warmup_drops_early_data(self, tmp_path) -> None:
        cold = run_experiment(tiny_config(tmp_path / "cold"))
        warm = run_experiment(tiny_config(tmp_path / "warm", warmup_fraction=0.5))
        assert warm.summary["totals"]["snapshots"] < cold.summary["totals"]["snapshots"]
        assert warm.summary["totals"]["departed"] < cold.summary["totals"]["departed"]


def config_of(argv: list[str]) -> ExperimentConfig:
    """The config that ``uniprio`` would run for ``argv``."""
    return build_config(_resolve_settings(_build_parser().parse_args(argv)))


class TestSettingsTable:
    # A valid value other than the default for every setting.
    OTHER = {
        "alpha": 0.5, "servers": 3, "horizon": 10.0, "delta": 0.25, "seed": 7, "replications": 2,
        "policy": "exclude", "warmup": 0.5, "resolution": 11, "workers": 2, "out": "elsewhere",
    }

    def test_every_setting_is_a_flag_and_a_config_key(self, tmp_path) -> None:
        assert set(self.OTHER) == set(_SETTINGS)
        for key, value in self.OTHER.items():
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps({key: value}))
            from_flag = config_of([f"--{key}", str(value)])
            assert from_flag == config_of(["--config", str(path)]) != config_of([])

    def test_config_file_of_every_default_changes_nothing(self, tmp_path) -> None:
        path = tmp_path / "defaults.json"
        path.write_text(json.dumps(_DEFAULTS))
        assert config_of(["--config", str(path)]) == config_of([]) == build_config(_DEFAULTS)

    def test_defaults_agree_with_experiment_config(self) -> None:
        fields = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
        config = build_config(_DEFAULTS)
        for name in ("replications", "censored_policy", "warmup_fraction", "curve_resolution", "workers"):
            assert getattr(config, name) == fields[name]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_recorded_artifacts_are_the_files_written(self, tmp_path, workers) -> None:
        result = run_experiment(tiny_config(tmp_path / "out", workers=workers))
        assert {path.parent for path in result.artifacts.values()} == {result.output_dir}
        names = sorted(path.name for path in result.artifacts.values())
        assert names == sorted(path.name for path in result.output_dir.iterdir())
        assert len(names) == len(result.artifacts) == 11

    def test_policy_error_names_the_key(self) -> None:
        with pytest.raises(ValueError, match="policy must be one of"):
            build_config({**_DEFAULTS, "policy": "never"})


class TestCompareCurves:
    def test_mixed_finiteness(self) -> None:
        grid = BinGrid(0.25)
        estimate = CurveEstimate(
            grid, (ExtendedReal(2.0), INFINITY, None, ExtendedReal(1.0))
        )
        analytic = {0.125: 2.5, 0.375: math.inf, 0.625: 1.0, 0.875: 1.0}

        def fn(p: float) -> ExtendedReal:
            return ExtendedReal(analytic[p])

        report = compare_curves(estimate, fn)
        assert report["both_finite"] == 2
        assert report["both_infinite"] == 1
        assert report["mismatched"] == 1  # the undefined bin
        assert report["max_rel_error"] == pytest.approx(0.2)
        assert report["mean_rel_error"] == pytest.approx(0.1)

    def test_finite_estimate_at_divergent_level_is_mismatched(self) -> None:
        params = SystemParams(5.0, 2)
        grid = BinGrid(0.25)
        estimate = CurveEstimate(grid, tuple(ExtendedReal(1.0) for _ in range(4)))
        report = compare_curves(estimate, lambda p: priority_density(params, p))
        assert [b["analytic"] for b in report["bins"][:2]] == ["inf", "inf"]  # at or below p* = 0.6
        assert report["mismatched"] == 2
        assert report["both_finite"] == 2

    def test_report_serializes(self) -> None:
        grid = BinGrid(0.5)
        estimate = CurveEstimate(grid, (ExtendedReal(1.0), None))
        report = compare_curves(estimate, lambda p: ExtendedReal(1.0))
        assert list(report) == [
            "bins", "both_finite", "both_infinite", "mismatched", "mean_rel_error", "max_rel_error"
        ]
        assert list(report["bins"][0]) == ["p", "analytic", "estimate", "abs_error", "rel_error"]
        blob = json.dumps(report)
        assert "null" in blob


class TestMain:
    def test_flags_run_an_experiment(self, tmp_path, capsys) -> None:
        rc = main(
            [
                "--alpha", "1.5", "--servers", "2", "--horizon", "40",
                "--delta", "0.25", "--seed", "9", "--out", str(tmp_path / "run"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "artifacts" in out
        assert (tmp_path / "run" / "summary.json").exists()

    def test_preset_with_overrides(self, tmp_path) -> None:
        out = tmp_path / "run"
        main(["--preset", "unstable-paper", "--horizon", "30", "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["alpha"] == 5.0
        assert summary["config"]["horizon"] == 30.0
        assert summary["config"]["delta"] == 0.05
        assert summary["p_star"] == 0.6

    def test_stable_preset_has_no_finiteness_mismatches(self, tmp_path) -> None:
        # Every level is stable, so no bin may be marked infinite just because
        # a customer was still present at the horizon.
        out = tmp_path / "run"
        main(["--preset", "stable-paper", "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["policy"] == "exclude"
        for name in ("density", "sojourn", "waiting"):
            assert summary["curves"][name]["mismatched"] == 0

    def test_config_file(self, tmp_path) -> None:
        cfg = {"alpha": 0.5, "servers": 1, "horizon": 25.0, "delta": 0.5,
               "seed": 4, "out": str(tmp_path / "run")}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        main(["--config", str(cfg_path)])
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["config"]["servers"] == 1

    def test_flag_beats_config_file(self, tmp_path) -> None:
        cfg = {"alpha": 0.5, "servers": 1, "horizon": 25.0, "delta": 0.5, "seed": 4}
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "run"
        main(["--config", str(cfg_path), "--alpha", "0.8", "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["alpha"] == 0.8

    @pytest.mark.parametrize(
        "key, value",
        [("servers", 2.7), ("replications", True), ("seed", "4"), ("resolution", 11.5), ("workers", False)],
    )
    def test_config_file_rejects_non_integer_counts(self, tmp_path, capsys, key, value) -> None:
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({key: value}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg_path), "--horizon", "10", "--out", str(tmp_path / "run")])
        assert exc.value.code == 2  # parser.error
        assert f"{key} must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "key, value", [("horizon", True), ("alpha", "1.5"), ("delta", "0.5"), ("warmup", False)]
    )
    def test_config_file_rejects_non_numeric_reals(self, tmp_path, capsys, key, value) -> None:
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"horizon": 10.0, "delta": 0.5, key: value}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert exc.value.code == 2  # parser.error
        assert f"{key} must be a number" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_config_file_accepts_integral_floats(self, tmp_path) -> None:
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"servers": 2.0, "horizon": 10.0, "delta": 0.5}))
        main(["--config", str(cfg_path), "--out", str(tmp_path / "run")])
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["config"]["servers"] == 2

    @pytest.mark.parametrize("value", [5, None], ids=["number", "null"])
    def test_config_file_rejects_non_string_out(self, tmp_path, capsys, monkeypatch, value) -> None:
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"horizon": 10.0, "out": value}))
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg_path)])
        assert exc.value.code == 2  # parser.error
        assert "out must be a path string" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_unknown_config_key_fails(self, tmp_path) -> None:
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps({"alhpa": 1.0}))
        with pytest.raises(SystemExit):
            main(["--config", str(cfg_path), "--out", str(tmp_path / "run")])

    @pytest.mark.parametrize("content", ["5", '"abc"', "[1, 2]", "null"])
    def test_config_file_must_hold_an_object(self, tmp_path, capsys, content) -> None:
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg_path), "--out", str(tmp_path / "run")])
        assert exc.value.code == 2  # parser.error
        assert "config file must hold a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_negative_seed_fails_before_any_output(self, tmp_path, capsys) -> None:
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "-1", "--horizon", "10", "--out", str(tmp_path / "run")])
        assert exc.value.code == 2  # parser.error
        assert "seed must be nonnegative" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "flags",
        [["--horizon", "0.01"], ["--horizon", "5", "--warmup", "0.99"]],
        ids=["short", "warmup"],
    )
    def test_run_with_no_arrival_after_warmup_reports_no_data(self, tmp_path, flags) -> None:
        out = tmp_path / "run"
        assert main([*flags, "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["totals"]["snapshots"] == 0
        density = summary["curves"]["density"]
        assert density["mismatched"] == len(density["bins"]) == 20
        assert all(b["estimate"] is None for b in density["bins"])

    def test_output_directory_error_is_a_usage_error(self, tmp_path, capsys) -> None:
        taken = tmp_path / "taken"
        taken.write_text("")
        with pytest.raises(SystemExit) as exc:
            main(["--horizon", "10", "--out", str(taken)])
        assert exc.value.code == 2  # parser.error
        err = capsys.readouterr().err
        assert "uniprio: error:" in err and "File exists" in err

    def test_policy_flag(self, tmp_path) -> None:
        out = tmp_path / "run"
        main(
            [
                "--alpha", "1.5", "--servers", "2", "--horizon", "30",
                "--delta", "0.5", "--seed", "2", "--policy", "exclude",
                "--out", str(out),
            ]
        )
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["policy"] == "exclude"


# SHA-256 of the files of two small experiments: an overloaded run with
# warm-up under the infinite policy, and a stable two-replication run under
# the exclude policy. The trace, snapshot and analytic files pin the bytes
# the driver writes through each writer.
ESTIMATE_DIGESTS = {
    "overloaded-warmup-infinite": (
        dict(params=SystemParams(5.0, 2), horizon=40.0, delta=0.1, seed=5, warmup_fraction=0.25),
        {
            "summary.json": "39762209a43b7a5ed5aa7ccc821ef264d2be9a372a7c3957f81d377e0fdf2eaf",
            "estimate_density.csv": "3ed5e4b2dbc703546463d1bd76b3dd9ab652b216a5d88c6ede4239c69d0baa6d",
            "estimate_sojourn.csv": "d48bfe70cec91748ce22d7ba2e664007a8f9bcad51a5809cde4723d3a4e28a50",
            "estimate_waiting.csv": "1fc42e85c909940f3ffc305b16edd7c8cc7fb949e9ad466298d3ad9f5e5b3874",
            "trace_rep000.csv": "0ea4e198275917dc67b048e2d46205641992484ec40d3e9d05b818e0e1cd2cc3",
            "snapshots_rep000.csv": "8110a3a94028f28a5a27d8990ca59a206c9bce92b9f4e1632831cee0029afeb0",
            "analytic_density.csv": "bf624adac17b9df79798728ed7061dd924672ec4cfd6ec339b0033cce2a13d9a",
            "analytic_sojourn.csv": "75da7cbf149f64920f198ce2b404accff4b7cdc03a24ccfa91b3f2efd3111453",
            "analytic_waiting.csv": "695be06001561f5902200f7e566ff45cbc4eb442223b72fec0bdc55a91a321df",
        },
    ),
    "stable-exclude-2reps": (
        dict(
            params=SystemParams(1.5, 2), horizon=150.0, delta=0.125, seed=9, replications=2,
            censored_policy=CensoredPolicy.EXCLUDE,
        ),
        {
            "summary.json": "eea3b3d12fc0ab5c5978880ec3669d81d4ff2cf43c41ea5dcdf840a3d98e005e",
            "estimate_density.csv": "303dbc4ca0ec129d3d2e2047b0e94147c4d362ec935b2123584f5dc931f69f82",
            "estimate_sojourn.csv": "a6ab0fbc3c84228e76e90c96d966f9169d2871b85d8d9aa2833c526611714e5e",
            "estimate_waiting.csv": "f27e662d741c3de8efda9b97a719730a64891961dc4dd0dde31c79226844da46",
            "trace_rep000.csv": "7bad7748959abcb44da7cbda1ec4872bbb86e2769adf5a96a1ccc6e9d6149643",
            "trace_rep001.csv": "1244a436da9006aa3f54e4ad71eb414b8d0be6e18cdd5eb4a160700150ba8b56",
            "snapshots_rep000.csv": "77edc00df9d5ea4fcd21dfab91279f57e6e6ad0808ac727cb646cd9e1c13c0d5",
            "snapshots_rep001.csv": "7b1d75a32b9cc05ecc5ddc71ce1be92c46d2d5cdd589f71fcc01e39030ef83c1",
            "analytic_density.csv": "237581ce56cb202ef91594b0c8cb42e8ab84471ada86b7786ff864aa0f0f8ea6",
            "analytic_sojourn.csv": "9e7f0f375f8a98812cd44e8fbec63bb3fb7bb270270515d914d23aff5b6c6663",
            "analytic_waiting.csv": "4d5f760638fcfb4651a328f9b86e5b505e826cbbcdc978dbf46f67974a41ebba",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(ESTIMATE_DIGESTS))
def test_estimator_output_bytes_are_pinned(tmp_path, name) -> None:
    settings, digests = ESTIMATE_DIGESTS[name]
    run_experiment(ExperimentConfig(output_dir=tmp_path, **settings))
    found = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in digests}
    assert found == digests


def test_presets_are_self_consistent() -> None:
    for name, preset in PRESETS.items():
        settings = {**{"seed": 1, "replications": 1, "policy": "infinite",
                       "warmup": 0.0, "resolution": 201, "workers": 1,
                       "out": "x"}, **preset}
        config = build_config(settings)
        assert config.horizon == preset["horizon"]


def test_module_entry_point_runs_without_runtime_warning() -> None:
    # The package must not import uniprio.cli, or runpy warns that the module
    # it is about to execute as __main__ is already in sys.modules.
    env = {**os.environ, "PYTHONPATH": str(Path(uniprio.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "uniprio.cli", "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "RuntimeWarning" not in result.stderr


def test_one_worker_runs_load_no_pool_module(tmp_path) -> None:
    # The pool is imported only where one runs, so a one-worker run, of any
    # number of replications, never loads multiprocessing.
    code = f"""if True:
        import json, sys
        from uniprio.analytics import SystemParams
        from uniprio.cli import ExperimentConfig, run_experiment
        run_experiment(ExperimentConfig(SystemParams(1.5, 2), 20.0, 0.25, 1, {str(tmp_path / "run")!r}, 2))
        print(json.dumps([m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules]))
    """
    env = {**os.environ, "PYTHONPATH": str(Path(uniprio.__file__).resolve().parents[1])}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    assert json.loads(result.stdout) == []


def test_package_exports_each_module_public_name_once() -> None:
    modules = (uniprio.analytics, uniprio.des, uniprio.estimate, uniprio.oracle)
    union = {"__version__"}.union(*(m.__all__ for m in modules))
    assert sorted(uniprio.__all__) == sorted(union)
    for module in modules:
        for name in module.__all__:
            assert getattr(uniprio, name) is getattr(module, name)
    assert uniprio.__version__ == "0.1.0"
