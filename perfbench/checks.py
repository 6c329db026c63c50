"""Correctness checks on every benchmark run; each returns a list of problems.

All checks run outside the timed regions.
"""

from __future__ import annotations

import math

import numpy as np

from uniprio.analytics import ExtendedReal, SystemParams, stability_threshold
from uniprio.cli import ExperimentConfig
from uniprio.oracle import BirthDeathSpec, birth_death_stationary, default_truncation

from workloads import SweepPair

# tests/test_acceptance.py, criterion 5: density mean relative error below 5%
# when pooled over 50 replications at T=1e4. Sampling error shrinks like one
# over the square root of simulated time, so a shorter experiment gets the
# budget scaled by sqrt(acceptance time / its time).
ACCEPTANCE_DENSITY_BUDGET = 0.05
ACCEPTANCE_SIMULATED_TIME = 50 * 1.0e4

# Oracle comparisons stay at loads where the truncated chain is short.
ORACLE_MAX_LOAD = 0.95
ORACLE_LEVELS_PER_PAIR = 3
ORACLE_REL_TOL = 1e-9
# The closed forms that raise UnstableRegionError where no steady state exists.
RAISING = ("p0_mass", "p0_derivative", "tail_pmf")


def density_tolerance(config: ExperimentConfig) -> float:
    simulated = config.replications * config.horizon
    return ACCEPTANCE_DENSITY_BUDGET * math.sqrt(ACCEPTANCE_SIMULATED_TIME / simulated)


def check_summary(name: str, config: ExperimentConfig, summary: dict) -> list[str]:
    """Totals agree, the regime matches the closed form, and stable-reps is accurate."""
    problems = []
    totals = summary["totals"]
    if totals["customers"] < totals["departed"]:
        problems.append(f"{name}: customers {totals['customers']} < departed {totals['departed']}")
    if totals["censored"] != totals["customers"] - totals["departed"]:
        problems.append(
            f"{name}: censored {totals['censored']} != customers - departed "
            f"{totals['customers'] - totals['departed']}"
        )
    regime = stability_threshold(config.params)
    if summary["regime"] != regime.tag.value or summary["p_star"] != regime.p_star:
        problems.append(
            f"{name}: regime {summary['regime']}/{summary['p_star']} != "
            f"{regime.tag.value}/{regime.p_star}"
        )
    if name == "stable-reps":
        mre = summary["curves"]["density"]["mean_rel_error"]
        tolerance = density_tolerance(config)
        if mre is None or mre > tolerance:
            problems.append(f"{name}: density mean relative error {mre} above {tolerance:.4f}")
    return problems


def check_sweep(pairs: list[SweepPair], curves: dict) -> list[str]:
    """Every value is finite, infinite or a raise, exactly as p* predicts."""
    problems = []
    for pair in pairs:
        params = pair.params
        stable = [is_stable_level(params, p) for p in pair.grid.centers]
        for (c, name), curve in curves.items():
            if c != params.c:
                continue
            for p, ok, value in zip(pair.grid.centers, stable, curve.values):
                want = expected_kind(name, ok)
                got = value_kind(value)
                if got != want:
                    problems.append(f"{name}(alpha={params.alpha}, c={c}, p={p}): {got}, expected {want}")
                    break
    return problems


def check_oracle(pairs: list[SweepPair], curves: dict, seed: int) -> list[str]:
    """``p0_mass`` and ``expected_tail_count`` match the birth-death solver.

    Checked at a few stable levels per pair, drawn from the seed.
    """
    rng = np.random.default_rng(seed)
    problems = []
    for pair in pairs:
        params = pair.params
        centers = pair.grid.centers
        eligible = [
            i for i, p in enumerate(centers)
            if is_stable_level(params, p) and (1.0 - p) * params.alpha <= ORACLE_MAX_LOAD * params.c
        ]
        for i in rng.choice(eligible, size=min(ORACLE_LEVELS_PER_PAIR, len(eligible)), replace=False):
            rate = (1.0 - centers[i]) * params.alpha
            pi = birth_death_stationary(BirthDeathSpec(rate, params.c, default_truncation(rate, params.c)))
            oracle = {"p0_mass": pi[0], "expected_tail_count": float(np.arange(len(pi)) @ pi)}
            for name, want in oracle.items():
                got = curves[(params.c, name)].values[i].finite
                if abs(got - want) > ORACLE_REL_TOL * abs(want):
                    problems.append(
                        f"{name}(alpha={params.alpha}, c={params.c}, p={centers[i]}) = {got}, "
                        f"oracle {want}"
                    )
    return problems


def expected_kind(name: str, stable: bool) -> str:
    """What p* predicts a closed form gives: a finite value, +inf, or a raise."""
    if stable:
        return "finite"
    return "raise" if name in RAISING else "inf"


def value_kind(value: ExtendedReal | None) -> str:
    if value is None:
        return "raise"
    return "finite" if value.is_finite else "inf"


def is_stable_level(params: SystemParams, p: float) -> bool:
    p_star = stability_threshold(params).p_star
    return p_star is None or p > p_star

