"""Machine-speed calibration for the benchmark's timings.

The speed of a shared machine drifts by about 20% over tens of seconds. A
fixed piece of work that never calls the program, timed next to every
measurement, tracks that drift: a calibrated time is a measured time scaled
by ``NOMINAL_S`` over the reference work's time at the moment of measuring.
The reference work mixes what the workloads do: float math and ``repr``,
binning tuples of floats into a numpy array, and writing a CSV file.
"""

from __future__ import annotations

import csv
import math
import time
from pathlib import Path

import numpy as np

NOMINAL_S = 0.05
_ROWS = [tuple((j * 0.6180339887498949 * (i + 1)) % 1.0 for j in range(40)) for i in range(600)]


def reference_time(directory: Path) -> float:
    """Seconds the fixed reference work takes now; it writes and removes one file in ``directory``."""
    path = directory / "calibrate.csv"
    start = time.perf_counter()
    total = 0.0
    for i in range(24_000):
        total += math.log1p((i * 0.6180339887498949) % 1.0)
    sums = np.zeros(20)
    for row in _ROWS:
        for q in row:
            sums[int(q * 20)] += 1.0
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        for i, row in enumerate(_ROWS):
            writer.writerow([repr(i * 0.5), ";".join(repr(q) for q in row)])
    path.unlink()
    return time.perf_counter() - start


def calibrated(seconds: float, reference: float) -> float:
    """``seconds`` measured while the reference work took ``reference``, at nominal speed."""
    return seconds * NOMINAL_S / reference
