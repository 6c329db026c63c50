"""The benchmark's workloads, generated from the benchmark seed alone.

Three workloads are ``run_experiment`` configs that stress different layers;
the fourth evaluates every public closed form on a dense level grid. The
program sees only the generated config. Sizes are fixed here so that one
experiment takes a second or two on a 2-core machine; ``tiny`` shrinks them
for smoke tests, where the numbers are not comparable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from uniprio.analytics import (
    ExtendedReal,
    SystemParams,
    UnstableRegionError,
    expected_tail_count,
    mean_measure,
    p0_derivative,
    p0_mass,
    priority_density,
    sojourn_time,
    stability_threshold,
    tail_pmf,
    waiting_time,
)
from uniprio.cli import ExperimentConfig
from uniprio.estimate import BinGrid, CensoredPolicy, CurveEstimate, write_curve_csv

DELTA = 0.05
CURVE_RESOLUTION = 201


@dataclass(frozen=True)
class Pipeline:
    alpha: float
    servers: int
    horizon: float
    replications: int


# Why each workload exists: stable-reps keeps the population small, so the
# event loop and trace CSV dominate; overloaded grows the population linearly,
# so per-arrival snapshots (quadratic in the horizon) dominate, and its many
# short replications keep the snapshot volume steady across seeds; many-server
# makes every rank query and departure touch 50 customers in service.
PIPELINES: dict[str, Pipeline] = {
    "stable-reps": Pipeline(1.5, 2, 2000.0, 15),
    "overloaded": Pipeline(5.0, 2, 64.0, 32),
    "many-server": Pipeline(45.0, 50, 80.0, 3),
}
SWEEP = "analytic-sweep"
WORKLOADS: tuple[str, ...] = (*PIPELINES, SWEEP)


def pipeline(name: str, tiny: bool = False) -> Pipeline:
    spec = PIPELINES[name]
    if tiny:
        spec = replace(spec, horizon=spec.horizon / 10.0, replications=min(spec.replications, 2))
    return spec


def base_seed(seed: int) -> int:
    """Experiment seed for a benchmark seed.

    Replication ``r`` runs on ``base + r``; spacing the bases far apart keeps
    the replication streams of neighbouring benchmark seeds disjoint.
    """
    return (seed * 1_000_003) % 2**31


def experiment_config(name: str, seed: int, out: Path, workers: int = 1, tiny: bool = False) -> ExperimentConfig:
    spec = pipeline(name, tiny)
    return ExperimentConfig(
        params=SystemParams(spec.alpha, spec.servers),
        horizon=spec.horizon,
        delta=DELTA,
        seed=base_seed(seed),
        output_dir=out,
        replications=spec.replications,
        censored_policy=CensoredPolicy.EXCLUDE,
        curve_resolution=CURVE_RESOLUTION,
        workers=workers,
    )


# ---------------------------------------------------------------------------
# Analytic sweep

DIRECT_SERVERS = (1, 2, 5, 20)
LOGSPACE_SERVERS = (21, 50, 100)
# Levels per (alpha, c) pair, sized so that the direct and log-space halves
# each take about half of a sweep.
DIRECT_LEVELS = 2000
LOGSPACE_LEVELS = 520


@dataclass(frozen=True)
class SweepPair:
    params: SystemParams
    path: str  # "direct" or "logspace", the numerical path the closed forms take
    grid: BinGrid


def _raising(fn):
    # p0_mass, p0_derivative and tail_pmf raise where no steady state exists;
    # None records that raise in the curve (an empty CSV cell).
    def evaluate(params: SystemParams, p: float, upper: float) -> ExtendedReal | None:
        try:
            return ExtendedReal(fn(params, p))
        except UnstableRegionError:
            return None

    return evaluate


SWEEP_FUNCTIONS = {
    "p0_mass": _raising(p0_mass),
    "p0_derivative": _raising(p0_derivative),
    "tail_pmf": _raising(lambda params, p: tail_pmf(params, p, params.c)),
    "expected_tail_count": lambda params, p, upper: expected_tail_count(params, p),
    "priority_density": lambda params, p, upper: priority_density(params, p),
    "sojourn_time": lambda params, p, upper: sojourn_time(params, p),
    "waiting_time": lambda params, p, upper: waiting_time(params, p),
    "mean_measure": lambda params, p, upper: mean_measure(params, p, upper),
}


def sweep_pairs(seed: int, tiny: bool = False) -> list[SweepPair]:
    """One overloaded (alpha, c) pair per server count, so every grid crosses p*.

    ``alpha = c * u`` with ``u`` drawn from U(1.6, 1.7), putting p* in
    [0.375, 0.412]; a draw that lands p* within 1e-9 of a grid level is redrawn,
    because the split there is a rounding question, not a model one.
    """
    rng = np.random.default_rng(seed)
    pairs = []
    for servers, levels, path in [(c, DIRECT_LEVELS, "direct") for c in DIRECT_SERVERS] + [
        (c, LOGSPACE_LEVELS, "logspace") for c in LOGSPACE_SERVERS
    ]:
        grid = BinGrid(1.0 / (levels // 20 if tiny else levels))
        while True:
            params = SystemParams(servers * float(rng.uniform(1.6, 1.7)), servers)
            p_star = stability_threshold(params).p_star
            if min(abs(p - p_star) for p in grid.centers) > 1e-9:
                break
        pairs.append(SweepPair(params, path, grid))
    return pairs


def sweep_points(pairs: list[SweepPair], path: str) -> int:
    """Closed-form evaluations one sweep makes on ``path``."""
    return sum(len(SWEEP_FUNCTIONS) * pair.grid.n_bins for pair in pairs if pair.path == path)


def run_sweep(pairs: list[SweepPair], out: Path, recorder, run_id: int) -> dict[tuple[int, str], CurveEstimate]:
    """Evaluate every closed form on every pair's grid and write one CSV per curve.

    ``tail_pmf`` is taken at ``k = c``; ``mean_measure`` takes the interval
    from each level to the next one up.
    """
    out.mkdir(parents=True, exist_ok=True)
    curves: dict[tuple[int, str], CurveEstimate] = {}
    with recorder.span("analytics.sweep", run_id):
        for pair in pairs:
            params = pair.params
            centers = pair.grid.centers
            uppers = centers[1:] + (1.0,)
            for name, fn in SWEEP_FUNCTIONS.items():
                with recorder.span(f"analytics.{pair.path}", run_id) as span:
                    values = tuple(fn(params, p, upper) for p, upper in zip(centers, uppers))
                    span.counts["points"] = len(values)
                curve = CurveEstimate(pair.grid, values)
                with recorder.span("estimate.write_curve_csv", run_id):
                    write_curve_csv(curve, out / f"{name}_c{params.c}.csv")
                curves[(params.c, name)] = curve
    return curves
