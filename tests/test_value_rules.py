"""One rule per kind of value: every site taking an integer or a real checks it alike.

Each site is a function of the value that returns what the site made of it:
the stored field, or a computed result where nothing is stored. A numpy
value must give what the same Python value gives, of the same type.
"""

from __future__ import annotations

import tempfile
from decimal import Decimal
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest

from uniprio.analytics import ExtendedReal, SystemParams, is_stable, mean_measure, p0_mass, tail_pmf
from uniprio.cli import _DEFAULTS, ExperimentConfig, build_config
from uniprio.des import SimConfig, SimTrace
from uniprio.estimate import BinGrid, DensityAccumulator, RecordBinStats, write_points_csv

PARAMS = SystemParams(1.5, 2)
GRID = BinGrid(0.5)


def experiment(name: str):
    """The site of ``ExperimentConfig``'s field ``name``."""
    base = dict(params=PARAMS, horizon=10.0, delta=0.5, seed=1, output_dir=Path("unused"))
    return lambda v: getattr(ExperimentConfig(**{**base, name: v}), name)


def two_customers(level) -> SimTrace:
    """A trace whose second customer has priority ``level``."""
    return SimTrace((0.25, level), (0.0, 1.0), (0.0, 1.0), (2.0, 3.0), (2.0, 2.0))


def one_arrival(time) -> SimTrace:
    """A trace of one customer, arriving at ``time`` and still present."""
    return SimTrace((0.25,), (time,), (time,), (None,), (None,))


def points_file(point) -> str:
    """The text ``write_points_csv`` writes for the points 0.25 and ``point``."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "points.csv"
        write_points_csv([0.25, point], [None, None], path)
        return path.read_text()


def setting(key: str, field: str):
    """The site of the config key ``key``, read back from the built config's ``field``."""
    return lambda v: attrgetter(field)(build_config({**_DEFAULTS, key: v}))


# The name the error gives, and the site, for the integer rule.
INTEGER_SITES = [
    pytest.param("c", lambda v: SystemParams(1.5, v).c, id="SystemParams.c"),
    pytest.param("k", lambda v: tail_pmf(PARAMS, 0.5, v), id="tail_pmf.k"),
    pytest.param("seed", lambda v: SimConfig(PARAMS, 10.0, v).seed, id="SimConfig.seed"),
    *(
        pytest.param(name, experiment(name), id=f"ExperimentConfig.{name}")
        for name in ("seed", "replications", "curve_resolution", "workers")
    ),
    *(
        pytest.param(key, setting(key, field), id=f"settings.{key}")
        for key, field in [
            ("servers", "params.c"),
            ("seed", "seed"),
            ("replications", "replications"),
            ("resolution", "curve_resolution"),
            ("workers", "workers"),
        ]
    ),
]

# The same for the real rule; a priority level goes through it too.
REAL_SITES = [
    pytest.param("alpha", lambda v: SystemParams(v, 2).alpha, id="SystemParams.alpha"),
    pytest.param("value", lambda v: ExtendedReal(v).value, id="ExtendedReal.value"),
    pytest.param("horizon", lambda v: SimConfig(PARAMS, v, 1).horizon, id="SimConfig.horizon"),
    *(
        pytest.param(name, experiment(name), id=f"ExperimentConfig.{name}")
        for name in ("horizon", "delta", "warmup_fraction")
    ),
    pytest.param("delta", lambda v: BinGrid(v).delta, id="BinGrid.delta"),
    pytest.param("point", points_file, id="write_points_csv"),
    pytest.param("priority level", lambda v: p0_mass(PARAMS, v), id="p0_mass.p"),
    pytest.param("priority level", lambda v: mean_measure(PARAMS, v, 1.0), id="mean_measure.a"),
    pytest.param("priority level", lambda v: is_stable(PARAMS, v), id="is_stable.p"),
    pytest.param("priority level", lambda v: GRID.index_of(v), id="BinGrid.index_of"),
    # The array sites: a bool among numbers reads as 0 or 1, a string or None changes the dtype.
    pytest.param("priority level", lambda v: GRID.indices([0.25, v]).tolist(), id="BinGrid.indices"),
    pytest.param(
        "priority level",
        lambda v: DensityAccumulator(GRID).add_trace(two_customers(v)).curve(),
        id="DensityAccumulator.add_trace",
    ),
    pytest.param(
        "priority level",
        lambda v: DensityAccumulator(GRID).add_snapshots(two_customers(v).snapshots).curve(),
        id="DensityAccumulator.add_snapshots",
    ),
    pytest.param(
        "arrival_time",
        lambda v: DensityAccumulator(GRID).add_snapshots(one_arrival(v).snapshots).curve(),
        id="DensityAccumulator.add_snapshots.time",
    ),
    pytest.param(
        "priority level",
        lambda v: RecordBinStats(GRID).add(two_customers(v)).sojourn_curve(),
        id="RecordBinStats.add.level",
    ),
    pytest.param(
        "start_time", lambda v: DensityAccumulator(GRID, v).start_time, id="DensityAccumulator.start_time"
    ),
    pytest.param(
        "start_time",
        lambda v: RecordBinStats(GRID, v).add(SimTrace((), (), (), (), ())).departed_total,
        id="RecordBinStats.add",
    ),
    *(
        pytest.param(key, setting(key, field), id=f"settings.{key}")
        for key, field in [
            ("alpha", "params.alpha"),
            ("horizon", "horizon"),
            ("delta", "delta"),
            ("warmup", "warmup_fraction"),
        ]
    ),
]


@pytest.mark.parametrize("name, site", INTEGER_SITES)
def test_integer_rule(name, site) -> None:
    for bad in (True, "2", 2.5, None):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            site(bad)
    expected = site(2)
    for value in (np.int64(2), np.int32(2), np.uint8(2)):
        got = site(value)
        assert got == expected and type(got) is type(expected)
    if name != "k":
        assert type(expected) is int


@pytest.mark.parametrize("name, site", [site for site in REAL_SITES if site.values[0] == "priority level"])
def test_level_rule_refuses_a_decimal(name, site) -> None:
    # A buffer of doubles reads a Decimal through __float__; the level rule does not.
    with pytest.raises(ValueError, match="priority level must be a number, got Decimal"):
        site(Decimal("0.5"))


@pytest.mark.parametrize("name, site", REAL_SITES)
def test_real_rule(name, site) -> None:
    for bad in (True, "0.5", None):
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            site(bad)
    expected = site(0.5)
    for value in (np.float64(0.5), np.float32(0.5)):
        got = site(value)
        assert got == expected and type(got) is type(expected)
