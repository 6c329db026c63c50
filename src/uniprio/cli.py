"""Experiment driver: replicated runs, pooled estimates, analytic comparisons.

``uniprio --preset stable-paper --out results/`` reproduces the kind of
study the estimators were built for: simulate, pool the replications, place
the estimated density/sojourn/waiting curves next to their closed forms, and
leave everything on disk as CSV plus one JSON summary. Plot rendering is out
of scope on purpose; the CSVs are the plot-ready data.

Replication ``r`` runs with seed ``base_seed + r``, so any replication can be
reproduced in isolation. Fixed configs yield byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Callable, Mapping

from .analytics import (
    ExtendedReal,
    SystemParams,
    _as_int,
    _as_real,
    priority_density,
    sojourn_time,
    stability_threshold,
    waiting_time,
)
from .des import SimConfig, simulate, write_snapshots_csv, write_trace_csv
from .estimate import (
    BinGrid,
    CensoredPolicy,
    CurveEstimate,
    DensityAccumulator,
    RecordBinStats,
    write_curve_csv,
    write_points_csv,
)

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "PRESETS",
    "replication_seed",
    "run_experiment",
    "compare_curves",
    "main",
]

PRESETS: dict[str, dict] = {
    # Every level is stable, so a customer still present at the horizon is
    # dropped rather than made to mark its bin infinite.
    "stable-paper": {"alpha": 1.5, "servers": 2, "delta": 0.05, "horizon": 2000.0, "policy": "exclude"},
    "unstable-paper": {"alpha": 5.0, "servers": 2, "delta": 0.05, "horizon": 2000.0},
}

# Each setting that a flag or a config file can give, in flag order: default, kind, help.
_SETTINGS: dict[str, tuple[object, type, str]] = {
    "alpha": (1.5, float, "arrival rate"),
    "servers": (2, int, "number of unit-rate servers"),
    "horizon": (2000.0, float, "simulated time span"),
    "delta": (0.05, float, "bin width, a reciprocal integer"),
    "seed": (1, int, "base seed; replication r adds r"),
    "replications": (1, int, "independent runs to pool"),
    "policy": ("infinite", CensoredPolicy, "censored-customer policy"),
    "warmup": (0.0, float, "fraction of the horizon to discard"),
    "resolution": (201, int, "points for the analytic curve files"),
    "workers": (1, int, "parallel replication processes"),
    "out": ("uniprio-out", Path, "output directory"),
}
_DEFAULTS: dict = {key: default for key, (default, _, _) in _SETTINGS.items()}
_POLICIES = [policy.value for policy in CensoredPolicy]


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: ``replications`` runs of ``params`` to ``horizon`` from ``seed``, by ``workers``.

    Estimates on bins of width ``delta`` under ``censored_policy``, curves at ``curve_resolution``
    points, into ``output_dir``. Both reductions take :attr:`start_time`, set by ``warmup_fraction``.
    """

    params: SystemParams
    horizon: float
    delta: float
    seed: int
    output_dir: Path
    replications: int = 1
    censored_policy: CensoredPolicy = CensoredPolicy.INFINITE
    warmup_fraction: float = 0.0
    curve_resolution: int = 201
    workers: int = 1
    # Built once from ``delta``, so every curve of a run shares its cached centers.
    grid: BinGrid = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.params, SystemParams):
            raise ValueError(f"params must be a SystemParams, got {self.params!r}")
        if not isinstance(self.censored_policy, CensoredPolicy):
            raise ValueError(f"censored_policy must be a CensoredPolicy, got {self.censored_policy!r}")
        if not isinstance(self.output_dir, (str, os.PathLike)):
            raise ValueError(f"output_dir must be a path, got {self.output_dir!r}")
        object.__setattr__(self, "output_dir", Path(self.output_dir))
        for name in ("seed", "replications", "curve_resolution", "workers"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        for name in ("horizon", "delta", "warmup_fraction"):
            object.__setattr__(self, name, _as_real(name, getattr(self, name)))
        object.__setattr__(self, "grid", BinGrid(self.delta))  # validates the bin width
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.horizon <= 0.0 or not math.isfinite(self.horizon):
            raise ValueError(f"horizon must be finite and positive, got {self.horizon}")
        if self.replications < 1:
            raise ValueError(f"replications must be at least 1, got {self.replications}")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError(f"warmup_fraction must lie in [0, 1), got {self.warmup_fraction}")
        if self.curve_resolution < 2:
            raise ValueError(f"curve_resolution must be at least 2, got {self.curve_resolution}")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")

    @property
    def start_time(self) -> float:
        """End of the warm-up: every reduction of the run counts from here on."""
        return self.warmup_fraction * self.horizon


def _json_value(v: ExtendedReal | None):
    if v is None:
        return None
    if not v.is_finite:
        return "inf"
    return v.value


def compare_curves(estimate: CurveEstimate, analytic_fn: Callable[[float], ExtendedReal]) -> dict:
    """Score an estimated curve against an analytic function at bin centers.

    Returns the per-curve report that ``summary.json`` holds: ``bins``, one
    entry per bin center, then the bin counts and the relative errors. Errors
    are defined only where both sides are finite. ``mismatched`` counts bins
    whose finiteness classification disagrees (an undefined estimate
    disagrees with everything).
    """
    bins: list[dict] = []
    both_finite = both_infinite = mismatched = 0
    rel_errors: list[float] = []
    for p, est in zip(estimate.grid.centers, estimate.values):
        analytic = analytic_fn(p)
        abs_error = rel_error = None
        if est is not None and analytic.is_finite and est.is_finite:
            both_finite += 1
            abs_error = abs(est.value - analytic.value)
            if analytic.value != 0.0:
                rel_error = abs_error / abs(analytic.value)
                rel_errors.append(rel_error)
        elif est is not None and not analytic.is_finite and not est.is_finite:
            both_infinite += 1
        else:
            mismatched += 1
        bins.append(
            {
                "p": p,
                "analytic": _json_value(analytic),
                "estimate": _json_value(est),
                "abs_error": abs_error,
                "rel_error": rel_error,
            }
        )
    return {
        "bins": bins,
        "both_finite": both_finite,
        "both_infinite": both_infinite,
        "mismatched": mismatched,
        "mean_rel_error": sum(rel_errors) / len(rel_errors) if rel_errors else None,
        "max_rel_error": max(rel_errors) if rel_errors else None,
    }


@dataclass(frozen=True)
class ExperimentResult:
    output_dir: Path
    artifacts: dict[str, Path]
    summary: dict


def replication_seed(base_seed: int, replication: int) -> int:
    """Seed for replication ``r``: the base seed plus the replication index.

    The generator spreads its seed over its whole state, so consecutive
    integers give unrelated streams while keeping every replication
    reproducible on its own.
    """
    return base_seed + replication


def _replicate(config: ExperimentConfig, r: int) -> tuple[dict, DensityAccumulator, RecordBinStats]:
    """Replication ``r``'s files, by artifact name, and reductions; its trace never leaves this call."""
    trace = simulate(SimConfig(config.params, config.horizon, replication_seed(config.seed, r)))
    files: dict[str, Path] = {}
    for kind, write in (("trace", write_trace_csv), ("snapshots", write_snapshots_csv)):
        name = f"{kind}_rep{r:03d}"
        files[name] = config.output_dir / f"{name}.csv"
        write(trace, files[name])
    density = DensityAccumulator(config.grid, config.start_time).add_snapshots(trace.snapshots)
    delays = RecordBinStats(config.grid, config.start_time).add(trace)
    return files, density, delays


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Simulate, estimate, compare, and write the artifact set.

    Files written under ``config.output_dir``: per-replication
    ``trace_repNNN.csv`` and ``snapshots_repNNN.csv``, pooled
    ``estimate_{density,sojourn,waiting}.csv``, dense
    ``analytic_{density,sojourn,waiting}.csv`` at ``curve_resolution`` points,
    and ``summary.json``. Each replication is simulated, written and reduced
    where it runs: in a pool of ``min(workers, replications)`` processes, or
    in this process when that is one, which loads no pool module. The
    reductions are merged in replication order, so the pooled files and the
    summary do not depend on the worker count. The summary's totals count the customers arriving at or
    after the warm-up, each departed or censored, and the snapshots they saw.
    """
    out = config.output_dir
    out.mkdir(parents=True, exist_ok=True)
    params = config.params

    density = DensityAccumulator(config.grid, config.start_time)
    delays = RecordBinStats(config.grid, config.start_time)
    artifacts: dict[str, Path] = {}

    # A fork-started pool launches every worker at the first submit, so it
    # never gets more workers than replications.
    workers = min(config.workers, config.replications)
    if workers > 1:
        # Imported only for a pool: it loads multiprocessing, which a one-worker run never uses.
        from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        replicate = map if pool is None else pool.map
        results = replicate(_replicate, repeat(config), range(config.replications))
        for files, rep_density, rep_delays in results:
            artifacts.update(files)
            density.merge(rep_density)
            delays.merge(rep_delays)

    curves = {
        "density": density.curve(),
        "sojourn": delays.sojourn_curve(config.censored_policy),
        "waiting": delays.waiting_curve(config.censored_policy),
    }
    analytic_fns: dict[str, Callable[[float], ExtendedReal]] = {
        "density": lambda p: priority_density(params, p),
        "sojourn": lambda p: sojourn_time(params, p),
        "waiting": lambda p: waiting_time(params, p),
    }

    for name, curve in curves.items():
        path = out / f"estimate_{name}.csv"
        write_curve_csv(curve, path)
        artifacts[f"estimate_{name}"] = path
    points = [i / (config.curve_resolution - 1) for i in range(config.curve_resolution)]
    for name, fn in analytic_fns.items():
        path = out / f"analytic_{name}.csv"
        write_points_csv(points, [fn(p) for p in points], path)
        artifacts[f"analytic_{name}"] = path

    regime = stability_threshold(params)
    summary = {
        "config": _config_dict(config),
        "p_star": regime.p_star,
        "regime": regime.tag.value,
        "totals": {
            "replications": config.replications,
            "customers": delays.departed_total + delays.censored_total,
            "departed": delays.departed_total,
            "censored": delays.censored_total,
            "snapshots": density.snapshot_count,
        },
        "curves": {name: compare_curves(curve, analytic_fns[name]) for name, curve in curves.items()},
        "artifacts": {name: path.name for name, path in artifacts.items()},
    }
    summary_path = out / "summary.json"
    with open(summary_path, "w") as handle:
        json.dump(summary, handle, indent=2)
        handle.write("\n")
    artifacts["summary"] = summary_path
    return ExperimentResult(output_dir=out, artifacts=artifacts, summary=summary)


def _config_dict(config: ExperimentConfig) -> dict:
    # Only what determines the outputs: no paths, timestamps, or worker
    # counts, so identical configs produce byte-identical summaries.
    return {
        "alpha": config.params.alpha,
        "servers": config.params.c,
        "horizon": config.horizon,
        "delta": config.delta,
        "seed": config.seed,
        "replications": config.replications,
        "policy": config.censored_policy.value,
        "warmup_fraction": config.warmup_fraction,
        "curve_resolution": config.curve_resolution,
    }


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uniprio",
        description=(
            "Simulate a preemptive uniform-priority multi-server queue, estimate its "
            "per-level density and delay curves, and compare them with closed forms."
        ),
    )
    parser.add_argument("--config", type=Path, help="JSON file with the keys the flags set")
    parser.add_argument("--preset", choices=sorted(PRESETS), help="named parameter bundle")
    for key, (_, kind, text) in _SETTINGS.items():
        parse = {"choices": _POLICIES} if kind is CensoredPolicy else {"type": kind}
        parser.add_argument(f"--{key}", **parse, help=text)
    return parser


def _resolve_settings(args: argparse.Namespace) -> dict:
    # Precedence, lowest first: defaults, config file, preset, explicit flags.
    settings = dict(_DEFAULTS)
    if args.config is not None:
        with open(args.config) as handle:
            loaded = json.load(handle)
        if not isinstance(loaded, dict):
            raise ValueError(f"config file must hold a JSON object, got {type(loaded).__name__}")
        unknown = set(loaded) - set(_SETTINGS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        settings.update(loaded)
    if args.preset is not None:
        settings.update(PRESETS[args.preset])
    settings.update({k: v for k, v in vars(args).items() if k in _SETTINGS and v is not None})
    return settings


def _whole(key: str, value) -> int:
    # JSON may spell 2 as 2.0; 2.7, true and "2" are refused rather than truncated.
    return _as_int(key, int(value) if type(value) is float and value.is_integer() else value)


def _directory(key: str, value) -> Path:
    # A flag gives a Path and a config file a string; 5 and null are refused.
    if not isinstance(value, (str, Path)):
        raise ValueError(f"{key} must be a path string, got {value!r}")
    return Path(value)


def _policy(key: str, value) -> CensoredPolicy:
    if value not in _POLICIES:
        raise ValueError(f"{key} must be one of {_POLICIES}, got {value!r}")
    return CensoredPolicy(value)


def build_config(settings: Mapping) -> ExperimentConfig:
    # One rule per kind of setting, whether a flag or a config file gave it.
    convert = {float: _as_real, int: _whole, Path: _directory, CensoredPolicy: _policy}
    s = {key: convert[kind](key, settings[key]) for key, (_, kind, _) in _SETTINGS.items()}
    return ExperimentConfig(
        params=SystemParams(s["alpha"], s["servers"]), horizon=s["horizon"], delta=s["delta"],
        seed=s["seed"], output_dir=s["out"], replications=s["replications"],
        censored_policy=s["policy"], warmup_fraction=s["warmup"],
        curve_resolution=s["resolution"], workers=s["workers"],
    )


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(_resolve_settings(args))
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        parser.error(str(exc))
    try:
        result = run_experiment(config)
    except OSError as exc:
        parser.error(str(exc))
    summary = result.summary
    print(f"wrote {len(result.artifacts)} artifacts to {result.output_dir}")
    regime = "every level stable" if summary["p_star"] is None else f"p* = {summary['p_star']}"
    print(f"regime: {regime}")
    for name, report in summary["curves"].items():
        mean = report["mean_rel_error"]
        shown = "n/a" if mean is None else f"{mean:.3%}"
        print(
            f"{name}: mean relative error {shown} over {report['both_finite']} finite bins"
            f" ({report['mismatched']} finiteness mismatches)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
