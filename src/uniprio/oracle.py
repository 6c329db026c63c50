"""Independent cross-checks: birth-death solver, finite differences, reference simulator.

Nothing here reuses the closed forms in :mod:`uniprio.analytics` or the
scheduling loop in :mod:`uniprio.des`; the point of this module is to agree
with them by different means. The stationary solver walks the birth-death
balance recurrence numerically, the differentiator probes curves with central
differences, and :func:`reference_simulate` replays the queue with one
exponential clock per in-service customer (the textbook construction) instead
of the aggregate-rate shortcut.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .analytics import _as_int, _as_real
from .des import SimConfig, SimTrace

__all__ = [
    "BirthDeathSpec",
    "default_truncation",
    "birth_death_stationary",
    "finite_difference",
    "reference_simulate",
]

_TRUNCATION_CAP = 10**6


@dataclass(frozen=True)
class BirthDeathSpec:
    """A birth-death chain with constant birth rate and ramp death rates.

    Births occur at rate ``arrival_rate`` in every state; the death rate in
    state ``k`` is ``min(k, servers)`` (unit-rate servers). ``truncation`` is
    the largest state kept when solving for the stationary law.
    """

    arrival_rate: float
    servers: int
    truncation: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "arrival_rate", _as_real("arrival_rate", self.arrival_rate))
        if not math.isfinite(self.arrival_rate) or self.arrival_rate < 0.0:
            raise ValueError(f"arrival_rate must be finite and nonnegative, got {self.arrival_rate}")
        object.__setattr__(self, "servers", _as_int("servers", self.servers))
        if self.servers < 1:
            raise ValueError(f"servers must be at least 1, got {self.servers}")
        object.__setattr__(self, "truncation", _as_int("truncation", self.truncation))
        if self.truncation < self.servers:
            raise ValueError(f"truncation must be at least servers={self.servers}, got {self.truncation}")


def default_truncation(arrival_rate: float, servers: int) -> int:
    """Truncation level leaving geometric tail mass far below 1e-12.

    The stationary tail decays like ``(arrival_rate / servers)^k`` past the
    ramp, so ``servers + ceil(60 / (1 - load))`` states suffice; capped at
    10^6 for loads vanishingly close to one. The arguments meet the value
    rules of :class:`BirthDeathSpec`.
    """
    spec = BirthDeathSpec(arrival_rate, servers, servers)
    load = spec.arrival_rate / spec.servers
    if load >= 1.0:
        raise ValueError(f"no stationary law at load {load} >= 1")
    return min(spec.servers + math.ceil(60.0 / (1.0 - load)), _TRUNCATION_CAP)


def birth_death_stationary(spec: BirthDeathSpec) -> np.ndarray:
    """Stationary distribution of the truncated chain, solved by balance.

    Walks ``pi[k+1] = pi[k] * arrival_rate / min(k+1, servers)`` from state 0
    and normalizes, rescaling on the fly so arbitrarily large loads below one
    cannot overflow. Returns a vector of length ``truncation + 1`` summing to
    one within 1e-14.

    Raises:
        ValueError: when ``arrival_rate >= servers`` (no stationary law).
    """
    lam = spec.arrival_rate
    servers = spec.servers
    if lam >= servers:
        raise ValueError(f"no stationary law: arrival rate {lam} is not below servers {servers}")
    weights = np.empty(spec.truncation + 1, dtype=np.float64)
    weights[0] = 1.0
    current = 1.0
    for k in range(1, spec.truncation + 1):
        current *= lam / (k if k < servers else servers)
        weights[k] = current
        if current > 1e280:
            weights[: k + 1] /= current
            current = 1.0
    return weights / weights.sum()


def finite_difference(fn, p: float, h: float = 1e-6) -> float:
    """Central difference ``(fn(p+h) - fn(p-h)) / 2h``.

    ``fn`` may return floats or values with a ``value`` attribute (the
    extended reals from the analytics module). Infinite evaluations have no
    usable difference and raise, as does a step that is not finite and positive.
    """
    if not 0.0 < h < math.inf:  # NaN fails both comparisons
        raise ValueError(f"step must be finite and positive, got {h}")
    upper = _as_float(fn(p + h))
    lower = _as_float(fn(p - h))
    if math.isinf(upper) or math.isinf(lower):
        raise ValueError(f"cannot difference across an infinite value near p={p}")
    return (upper - lower) / (2.0 * h)


def _as_float(value) -> float:
    return float(getattr(value, "value", value))


def reference_simulate(config: SimConfig) -> SimTrace:
    """Replay the queue with an explicit exponential clock per in-service customer.

    Deliberately a second implementation: waiting customers sit in one heap
    ordered by (priority, arrival order), in-service customers carry
    individually drawn unit-mean completion times in a dict of at most c
    clocks that is scanned for each event, and preemption discards the
    victim's clock (a fresh one is drawn at reentry, which memorylessness
    makes harmless). A customer's ``service_time`` sums the spells closed by
    preemption and by its completion. Distribution-equal to
    :func:`uniprio.des.simulate`, never bitwise-equal: the random stream is
    spent differently (one service draw per service entry, no victim choice).
    It keeps numpy's PCG64 generator on purpose, while ``simulate`` draws from
    the standard library's Mersenne Twister: agreement then also checks the
    simulator against a second generator family.

    Censoring, the horizon boundary rule and the quantile transform behave as
    in the main simulator, and the trace derives its snapshots as any does.
    """
    rng = np.random.default_rng(config.seed)
    uniform = rng.random
    alpha = config.params.alpha
    servers = config.params.c
    horizon = config.horizon
    quantile = config.priority_quantile

    arrivals: list[float] = []
    displays: list[float] = []
    entered: list[float | None] = []
    departed: list[float | None] = []
    served: list[float] = []
    levels: list[float] = []  # raw uniforms, by id

    waiting: list[tuple[float, int]] = []  # (-level, id): best waiter on top
    clocks: dict[int, float] = {}  # in service: id -> completion time

    def enter_service(cid: int, now: float) -> None:
        entered[cid] = now
        clocks[cid] = now - math.log1p(-uniform())  # unit-mean exponential

    time = 0.0
    next_arrival = -math.log1p(-uniform()) / alpha
    while True:
        # Ties between equal completion times go to the earlier arrival.
        next_completion, leaving = min(
            ((t, cid) for cid, t in clocks.items()), default=(math.inf, -1)
        )

        if next_arrival <= next_completion:
            if next_arrival > horizon:
                break
            time = next_arrival
            level = uniform()
            display = float(quantile(level)) if quantile is not None else level
            cid = len(arrivals)
            arrivals.append(time)
            displays.append(display)
            entered.append(None)
            departed.append(None)
            served.append(0.0)
            levels.append(level)
            if len(clocks) < servers:
                enter_service(cid, time)
            else:
                # The weakest in service: lowest level, then latest arrival.
                weak_level, weak_neg = min((levels[i], -i) for i in clocks)
                if level > weak_level:
                    victim = -weak_neg
                    del clocks[victim]  # clock discarded, entry time kept
                    served[victim] += time - entered[victim]
                    heapq.heappush(waiting, (-weak_level, victim))
                    enter_service(cid, time)
                else:
                    heapq.heappush(waiting, (-level, cid))
            next_arrival = time + (-math.log1p(-uniform()) / alpha)
        else:
            if next_completion > horizon:
                break
            time = next_completion
            del clocks[leaving]
            departed[leaving] = time
            served[leaving] += time - entered[leaving]
            if waiting:
                _, promoted = heapq.heappop(waiting)
                enter_service(promoted, time)

    return SimTrace._of_run(config, displays, arrivals, entered, departed, served)
