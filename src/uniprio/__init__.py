"""Preemptive multi-server queue with uniformly distributed priorities.

Closed-form per-level analytics, an event-driven simulator, binned
estimators for the simulated curves, and an experiment driver that puts
the two side by side. The driver is not re-exported here: import it from
``uniprio.cli``, which also runs as ``python -m uniprio.cli``.

The package exports exactly the ``__all__`` of each module below.
"""

from . import analytics, des, estimate, oracle
from .analytics import *
from .des import *
from .estimate import *
from .oracle import *

__version__ = "0.1.0"

__all__ = ["__version__", *analytics.__all__, *des.__all__, *estimate.__all__, *oracle.__all__]
