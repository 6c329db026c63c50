"""Preemptive multi-server queue with uniformly distributed priorities.

Closed-form per-level analytics, an event-driven simulator, binned
estimators for the simulated curves, and an experiment driver that puts
the two side by side. The driver is not re-exported here: import it from
``uniprio.cli``, which also runs as ``python -m uniprio.cli``.
"""

from .analytics import (
    INFINITY,
    ExtendedReal,
    RegimeTag,
    StabilityRegime,
    SystemParams,
    UnstableRegionError,
    expected_tail_count,
    is_stable,
    mean_measure,
    p0_derivative,
    p0_mass,
    priority_density,
    sojourn_time,
    stability_threshold,
    tail_pmf,
    waiting_time,
)
from .des import (
    CustomerRecord,
    SimConfig,
    SimObserver,
    SimTrace,
    Snapshot,
    read_snapshots_csv,
    read_trace_csv,
    simulate,
    write_snapshots_csv,
    write_trace_csv,
)
from .estimate import (
    BinGrid,
    CensoredPolicy,
    CurveEstimate,
    DensityAccumulator,
    RecordBinStats,
    read_curve_csv,
    write_curve_csv,
    write_points_csv,
)
from .oracle import (
    BirthDeathSpec,
    birth_death_stationary,
    default_truncation,
    finite_difference,
    reference_simulate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # analytics
    "INFINITY",
    "ExtendedReal",
    "RegimeTag",
    "StabilityRegime",
    "SystemParams",
    "UnstableRegionError",
    "expected_tail_count",
    "is_stable",
    "mean_measure",
    "p0_derivative",
    "p0_mass",
    "priority_density",
    "sojourn_time",
    "stability_threshold",
    "tail_pmf",
    "waiting_time",
    # des
    "CustomerRecord",
    "SimConfig",
    "SimObserver",
    "SimTrace",
    "Snapshot",
    "read_snapshots_csv",
    "read_trace_csv",
    "simulate",
    "write_snapshots_csv",
    "write_trace_csv",
    # estimate
    "BinGrid",
    "CensoredPolicy",
    "CurveEstimate",
    "DensityAccumulator",
    "RecordBinStats",
    "read_curve_csv",
    "write_curve_csv",
    "write_points_csv",
    # oracle
    "BirthDeathSpec",
    "birth_death_stationary",
    "default_truncation",
    "finite_difference",
    "reference_simulate",
]
